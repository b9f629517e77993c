//! Adapters wrapping each algorithm behind the [`Solver`] trait.

use std::time::Instant;

use antruss_graph::CsrGraph;
use antruss_truss::decompose;

use crate::baselines::akt::akt_greedy;
use crate::baselines::base::base_greedy;
use crate::baselines::edge_deletion::edge_deletion_anchors;
use crate::baselines::exact::exact;
use crate::baselines::lazy::lazy_greedy;
use crate::baselines::random::{random_baseline, Pool};
use crate::engine::{
    Anchor, Extras, Observer, Outcome, RoundReport, RunConfig, SolveError, Solver,
};
use crate::gas::{Gas, GasConfig, ReusePolicy};

/// `gas` / `base+`: the paper's Algorithm 6, with the reuse policy from
/// the config (`base+` pins [`ReusePolicy::Off`]).
pub(crate) struct GasSolver {
    pub(crate) name: &'static str,
    /// `Some(policy)` pins the policy (BASE+); `None` reads the config.
    pub(crate) pinned_reuse: Option<ReusePolicy>,
}

impl Solver for GasSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        match self.pinned_reuse {
            Some(ReusePolicy::Off) => "BASE+ (upward-route search, no reuse)",
            _ => "GAS (Algorithm 6: upward routes + route-level reuse)",
        }
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let reuse = self.pinned_reuse.unwrap_or(cfg.reuse);
        let start = Instant::now();
        let mut gas = Gas::new(
            g,
            GasConfig {
                reuse,
                threads: cfg.threads,
            },
        );
        let mut rounds = Vec::with_capacity(cfg.budget);
        let mut claimed = 0u64;
        for _ in 0..cfg.budget {
            let Some(r) = gas.step() else { break };
            claimed += r.followers.len() as u64;
            let report = RoundReport {
                round: r.round,
                chosen: Anchor::Edge(r.chosen),
                gain: r.followers.len() as u64,
                follower_trussness: r.follower_trussness,
                elapsed: r.elapsed,
                scan: r.scan,
                refresh: r.refresh,
                recomputed: r.recomputed,
                reuse_classes: r.reuse_classes,
            };
            obs.on_round(&report);
            rounds.push(report);
        }
        Ok(Outcome {
            solver: self.name.to_string(),
            anchors: rounds.iter().map(|r| r.chosen).collect(),
            total_gain: gas.state().total_gain(),
            claimed_gain: claimed,
            rounds,
            elapsed: start.elapsed(),
            extras: Extras::Gas { reuse },
        })
    }
}

/// `base`: Algorithm 2, full decomposition per candidate, time-capped.
pub(crate) struct BaseSolver;

impl Solver for BaseSolver {
    fn name(&self) -> &str {
        "base"
    }

    fn description(&self) -> &str {
        "BASE (full decomposition per candidate, time-capped)"
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let out = base_greedy(g, cfg.budget, cfg.time_budget);
        let rounds: Vec<RoundReport> = out
            .anchors
            .iter()
            .enumerate()
            .map(|(i, &e)| RoundReport {
                round: i + 1,
                chosen: Anchor::Edge(e),
                gain: 0, // BASE does not report per-round claims
                follower_trussness: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                scan: std::time::Duration::ZERO,
                refresh: std::time::Duration::ZERO,
                recomputed: 0,
                reuse_classes: None,
            })
            .collect();
        for r in &rounds {
            obs.on_round(r);
        }
        Ok(Outcome {
            solver: "base".to_string(),
            anchors: out.anchors.iter().map(|&e| Anchor::Edge(e)).collect(),
            total_gain: out.total_gain,
            claimed_gain: out.total_gain,
            rounds,
            elapsed: out.elapsed,
            extras: Extras::Base {
                timed_out: out.timed_out,
            },
        })
    }
}

/// `exact`: exhaustive optimal anchor set.
pub(crate) struct ExactSolver;

impl Solver for ExactSolver {
    fn name(&self) -> &str {
        "exact"
    }

    fn description(&self) -> &str {
        "exhaustive optimal anchor set"
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        _obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let out = exact(g, cfg.budget, cfg.exact_cap).ok_or(SolveError::BudgetExceedsEdges {
            budget: cfg.budget,
            edges: g.num_edges(),
        })?;
        Ok(Outcome {
            solver: "exact".to_string(),
            anchors: out.anchors.iter().map(|&e| Anchor::Edge(e)).collect(),
            total_gain: out.gain,
            claimed_gain: out.gain,
            rounds: Vec::new(),
            elapsed: start.elapsed(),
            extras: Extras::Exact {
                evaluated: out.evaluated,
            },
        })
    }
}

/// `rand` / `rand:sup` / `rand:tur`: best of `trials` random draws.
pub(crate) struct RandomSolver {
    pub(crate) name: &'static str,
    pub(crate) pool_name: &'static str,
}

impl Solver for RandomSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        match self.pool_name {
            "sup" => "best of N random draws (pool: top 20% by support)",
            "tur" => "best of N random draws (pool: top 20% by route size)",
            _ => "best of N random draws (pool: all edges)",
        }
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        _obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let pool = match self.pool_name {
            "all" => Pool::All,
            "sup" => Pool::TopSupport(0.2),
            "tur" => Pool::TopRouteSize(0.2),
            other => {
                return Err(SolveError::InvalidConfig(format!(
                    "unknown random pool {other:?}"
                )))
            }
        };
        let start = Instant::now();
        let out = random_baseline(g, pool, cfg.budget, cfg.trials, cfg.seed);
        Ok(Outcome {
            solver: self.name.to_string(),
            anchors: out.anchors.iter().map(|&e| Anchor::Edge(e)).collect(),
            total_gain: out.gain,
            claimed_gain: out.gain,
            rounds: Vec::new(),
            elapsed: start.elapsed(),
            extras: Extras::Random {
                pool: self.pool_name,
                trials: out.trials,
            },
        })
    }
}

/// `akt`: vertex anchoring at one truss level (Zhang et al., ICDE'18).
pub(crate) struct AktSolver;

impl Solver for AktSolver {
    fn name(&self) -> &str {
        "akt"
    }

    fn description(&self) -> &str {
        "vertex anchoring at level k (Zhang et al., ICDE'18)"
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let info = decompose(g);
        let k = cfg.k.unwrap_or(info.k_max);
        if k < 3 {
            return Err(SolveError::InvalidConfig(format!(
                "akt needs a truss level k >= 3 (got {k}; graph k_max = {})",
                info.k_max
            )));
        }
        let out = akt_greedy(g, &info.trussness, k, cfg.budget, cfg.candidate_cap);
        let mut rounds = Vec::with_capacity(out.anchors.len());
        let mut prev = 0u64;
        for (i, (&v, &cum)) in out.anchors.iter().zip(&out.gain_curve).enumerate() {
            let report = RoundReport {
                round: i + 1,
                chosen: Anchor::Vertex(v),
                gain: cum.saturating_sub(prev),
                follower_trussness: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                scan: std::time::Duration::ZERO,
                refresh: std::time::Duration::ZERO,
                recomputed: 0,
                reuse_classes: None,
            };
            prev = cum;
            obs.on_round(&report);
            rounds.push(report);
        }
        // AKT's per-round marginals are exact cumulative differences but
        // the objective is not monotone in general; keep claimed >= total
        let claimed: u64 = rounds.iter().map(|r| r.gain).sum::<u64>().max(out.gain);
        Ok(Outcome {
            solver: "akt".to_string(),
            anchors: out.anchors.iter().map(|&v| Anchor::Vertex(v)).collect(),
            total_gain: out.gain,
            claimed_gain: claimed,
            rounds,
            elapsed: start.elapsed(),
            extras: Extras::Akt {
                k,
                gain_curve: out.gain_curve,
            },
        })
    }
}

/// `edge-del`: anchor the most deletion-critical edges (case-study
/// comparator).
pub(crate) struct EdgeDeletionSolver;

impl Solver for EdgeDeletionSolver {
    fn name(&self) -> &str {
        "edge-del"
    }

    fn description(&self) -> &str {
        "anchor the most deletion-critical edges"
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        _obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let out = edge_deletion_anchors(g, cfg.budget, cfg.candidate_cap);
        Ok(Outcome {
            solver: "edge-del".to_string(),
            anchors: out.anchors.iter().map(|&e| Anchor::Edge(e)).collect(),
            total_gain: out.gain,
            claimed_gain: out.gain,
            rounds: Vec::new(),
            elapsed: start.elapsed(),
            extras: Extras::EdgeDeletion {
                criticality: out.criticality,
            },
        })
    }
}

/// `lazy`: CELF-style lazy greedy (heuristic under non-submodularity).
pub(crate) struct LazySolver;

impl Solver for LazySolver {
    fn name(&self) -> &str {
        "lazy"
    }

    fn description(&self) -> &str {
        "CELF-style lazy greedy (heuristic extension)"
    }

    fn run_observed(
        &self,
        g: &CsrGraph,
        cfg: &RunConfig,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let out = lazy_greedy(g, cfg.budget);
        let rounds: Vec<RoundReport> = out
            .anchors
            .iter()
            .zip(&out.evaluations_per_round)
            .enumerate()
            .map(|(i, (&e, &evals))| RoundReport {
                round: i + 1,
                chosen: Anchor::Edge(e),
                gain: 0, // lazy reports evaluations, not per-round claims
                follower_trussness: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                scan: std::time::Duration::ZERO,
                refresh: std::time::Duration::ZERO,
                recomputed: evals,
                reuse_classes: None,
            })
            .collect();
        for r in &rounds {
            obs.on_round(r);
        }
        Ok(Outcome {
            solver: "lazy".to_string(),
            anchors: out.anchors.iter().map(|&e| Anchor::Edge(e)).collect(),
            total_gain: out.total_gain,
            claimed_gain: out.total_gain,
            rounds,
            elapsed: start.elapsed(),
            extras: Extras::Lazy {
                evaluations_per_round: out.evaluations_per_round,
            },
        })
    }
}
