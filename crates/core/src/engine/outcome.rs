//! The unified result type every solver adapts into.

use std::time::Duration;

use antruss_graph::{EdgeId, VertexId};

use crate::gas::ReusePolicy;
use crate::json;
use crate::metrics::ReuseClassCounts;

/// One selected anchor. GAS and the edge baselines anchor edges; the
/// `akt` comparator (Zhang et al., ICDE'18) anchors vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Anchor {
    /// An anchored edge.
    Edge(EdgeId),
    /// An anchored vertex (vertex-anchoring comparators only).
    Vertex(VertexId),
}

impl Anchor {
    /// The edge id, if this is an edge anchor.
    pub fn edge(self) -> Option<EdgeId> {
        match self {
            Anchor::Edge(e) => Some(e),
            Anchor::Vertex(_) => None,
        }
    }

    /// The vertex id, if this is a vertex anchor.
    pub fn vertex(self) -> Option<VertexId> {
        match self {
            Anchor::Edge(_) => None,
            Anchor::Vertex(v) => Some(v),
        }
    }
}

/// Per-round progress of an iterative solver. Solvers that select their
/// whole anchor set at once (`exact`, the randomized family) report no
/// rounds.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// The anchor chosen this round.
    pub chosen: Anchor,
    /// Gain claimed this round (follower count for the GAS family,
    /// marginal gain for `akt`).
    pub gain: u64,
    /// Trussness of each follower at selection time (GAS family only,
    /// empty elsewhere) — feeds the Fig. 11(b) distribution.
    pub follower_trussness: Vec<u32>,
    /// Wall-clock time of the round (zero when the solver does not time
    /// rounds individually).
    pub elapsed: Duration,
    /// Part of `elapsed` spent choosing the anchor (GAS family only, zero
    /// elsewhere).
    pub scan: Duration,
    /// Part of `elapsed` spent committing the anchor and refreshing
    /// trussness (GAS family only, zero elsewhere).
    pub refresh: Duration,
    /// Candidate evaluations performed this round (0 when untracked).
    pub recomputed: usize,
    /// FR/PR/NR cache classification (GAS with reuse, rounds ≥ 2).
    pub reuse_classes: Option<ReuseClassCounts>,
}

/// Solver-specific extras that don't fit the shared shape.
#[derive(Debug, Clone)]
pub enum Extras {
    /// Nothing beyond the shared fields.
    None,
    /// GAS family: the reuse policy the run used.
    Gas {
        /// Reuse policy of the run.
        reuse: ReusePolicy,
    },
    /// `base`: whether the wall-clock cap expired before `b` rounds.
    Base {
        /// `true` if the run was truncated by the time budget.
        timed_out: bool,
    },
    /// `exact`: enumeration effort.
    Exact {
        /// Number of candidate sets evaluated.
        evaluated: u64,
    },
    /// Randomized family: pool and trial count.
    Random {
        /// Pool name (`all`, `sup`, `tur`).
        pool: &'static str,
        /// Trials executed.
        trials: usize,
    },
    /// `akt`: truss level and the cumulative gain curve.
    Akt {
        /// The anchored-truss level `k`.
        k: u32,
        /// `gain_curve[i]` = cumulative gain with budget `i + 1`.
        gain_curve: Vec<u64>,
    },
    /// `edge-del`: per-candidate deletion criticality, descending.
    EdgeDeletion {
        /// `(edge, trussness loss if deleted)` for evaluated candidates.
        criticality: Vec<(EdgeId, u64)>,
    },
    /// `lazy`: candidate evaluations per round (the savings CELF buys).
    Lazy {
        /// Evaluations per completed round.
        evaluations_per_round: Vec<usize>,
    },
}

/// The unified outcome of one solver run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Registry name of the solver that produced this outcome.
    pub solver: String,
    /// Selected anchors in selection order.
    pub anchors: Vec<Anchor>,
    /// True cumulative trussness gain `Σ_{e∈E\A} (t_A(e) − t(e))`
    /// (Definition 4), recomputed from the final state.
    pub total_gain: u64,
    /// Sum of per-round claimed gains. **Invariant:
    /// `claimed_gain >= total_gain`** — an edge elevated as a follower in
    /// an early round can itself be anchored later, and Definition 4
    /// excludes anchors from the final gain, so per-round claims can
    /// overcount but never undercount. Solvers without per-round claims
    /// report `claimed_gain == total_gain`.
    pub claimed_gain: u64,
    /// Per-round details (empty for one-shot solvers).
    pub rounds: Vec<RoundReport>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Solver-specific extras.
    pub extras: Extras,
}

impl Outcome {
    /// The edge anchors in selection order (skips vertex anchors).
    pub fn edge_anchors(&self) -> Vec<EdgeId> {
        self.anchors.iter().filter_map(|a| a.edge()).collect()
    }

    /// Serializes the outcome as a JSON object.
    ///
    /// Hand-rolled over [`crate::json`] (the build environment vendors no
    /// `serde`): stable field order, lossless integers, durations in
    /// seconds as floats.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 64 * self.rounds.len());
        s.push_str("{\"solver\":");
        push_json_str(&mut s, &self.solver);
        s.push_str(",\"anchors\":[");
        for (i, a) in self.anchors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_anchor(&mut s, *a);
        }
        s.push_str("],\"total_gain\":");
        s.push_str(&self.total_gain.to_string());
        s.push_str(",\"claimed_gain\":");
        s.push_str(&self.claimed_gain.to_string());
        s.push_str(",\"elapsed_secs\":");
        push_f64(&mut s, self.elapsed.as_secs_f64());
        s.push_str(",\"rounds\":[");
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_round(&mut s, r);
        }
        s.push_str("],\"extras\":");
        push_extras(&mut s, &self.extras);
        s.push('}');
        s
    }
}

fn push_json_str(s: &mut String, v: &str) {
    s.push('"');
    json::escape_into(s, v);
    s.push('"');
}

fn push_f64(s: &mut String, v: f64) {
    // JSON has no NaN/Inf; durations never produce them, but stay safe
    json::write_f64(s, v);
}

fn push_anchor(s: &mut String, a: Anchor) {
    match a {
        Anchor::Edge(e) => s.push_str(&format!("{{\"edge\":{}}}", e.0)),
        Anchor::Vertex(v) => s.push_str(&format!("{{\"vertex\":{}}}", v.0)),
    }
}

fn push_round(s: &mut String, r: &RoundReport) {
    s.push_str(&format!("{{\"round\":{},\"chosen\":", r.round));
    push_anchor(s, r.chosen);
    s.push_str(&format!(",\"gain\":{},\"elapsed_secs\":", r.gain));
    push_f64(s, r.elapsed.as_secs_f64());
    s.push_str(&format!(",\"recomputed\":{}", r.recomputed));
    s.push_str(",\"follower_trussness\":[");
    for (i, t) in r.follower_trussness.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&t.to_string());
    }
    s.push(']');
    if let Some(c) = r.reuse_classes {
        s.push_str(&format!(
            ",\"reuse_classes\":{{\"fully\":{},\"partially\":{},\"non\":{}}}",
            c.fully, c.partially, c.non
        ));
    }
    s.push('}');
}

fn push_extras(s: &mut String, e: &Extras) {
    match e {
        Extras::None => s.push_str("null"),
        Extras::Gas { reuse } => {
            s.push_str(&format!("{{\"kind\":\"gas\",\"reuse\":\"{reuse:?}\"}}"))
        }
        Extras::Base { timed_out } => {
            s.push_str(&format!("{{\"kind\":\"base\",\"timed_out\":{timed_out}}}"))
        }
        Extras::Exact { evaluated } => {
            s.push_str(&format!("{{\"kind\":\"exact\",\"evaluated\":{evaluated}}}"))
        }
        Extras::Random { pool, trials } => s.push_str(&format!(
            "{{\"kind\":\"random\",\"pool\":\"{pool}\",\"trials\":{trials}}}"
        )),
        Extras::Akt { k, gain_curve } => {
            s.push_str(&format!("{{\"kind\":\"akt\",\"k\":{k},\"gain_curve\":["));
            for (i, g) in gain_curve.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&g.to_string());
            }
            s.push_str("]}");
        }
        Extras::EdgeDeletion { criticality } => {
            s.push_str("{\"kind\":\"edge-del\",\"criticality\":[");
            for (i, (e, loss)) in criticality.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{{\"edge\":{},\"loss\":{loss}}}", e.0));
            }
            s.push_str("]}");
        }
        Extras::Lazy {
            evaluations_per_round,
        } => {
            s.push_str("{\"kind\":\"lazy\",\"evaluations_per_round\":[");
            for (i, n) in evaluations_per_round.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&n.to_string());
            }
            s.push_str("]}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            solver: "gas".to_string(),
            anchors: vec![Anchor::Edge(EdgeId(3)), Anchor::Vertex(VertexId(7))],
            total_gain: 11,
            claimed_gain: 12,
            rounds: vec![RoundReport {
                round: 1,
                chosen: Anchor::Edge(EdgeId(3)),
                gain: 12,
                follower_trussness: vec![3, 3, 4],
                elapsed: Duration::from_millis(5),
                scan: Duration::from_millis(3),
                refresh: Duration::from_millis(2),
                recomputed: 40,
                reuse_classes: Some(ReuseClassCounts {
                    fully: 1,
                    partially: 2,
                    non: 3,
                }),
            }],
            elapsed: Duration::from_millis(9),
            extras: Extras::Gas {
                reuse: ReusePolicy::PaperExact,
            },
        }
    }

    #[test]
    fn json_has_stable_shape() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"solver\":\"gas\""), "{j}");
        assert!(
            j.contains("\"anchors\":[{\"edge\":3},{\"vertex\":7}]"),
            "{j}"
        );
        assert!(j.contains("\"total_gain\":11"), "{j}");
        assert!(j.contains("\"claimed_gain\":12"), "{j}");
        assert!(
            j.contains("\"reuse_classes\":{\"fully\":1,\"partially\":2,\"non\":3}"),
            "{j}"
        );
        assert!(
            j.contains("\"extras\":{\"kind\":\"gas\",\"reuse\":\"PaperExact\"}"),
            "{j}"
        );
        assert!(j.ends_with('}'), "{j}");
        // balanced braces/brackets (cheap structural sanity)
        let opens = j.matches('{').count() + j.matches('[').count();
        let closes = j.matches('}').count() + j.matches(']').count();
        assert_eq!(opens, closes, "{j}");
    }

    #[test]
    fn string_escaping() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn edge_anchor_filtering() {
        let out = sample();
        assert_eq!(out.edge_anchors(), vec![EdgeId(3)]);
        assert_eq!(out.anchors[1].vertex(), Some(VertexId(7)));
        assert_eq!(out.anchors[1].edge(), None);
    }
}
