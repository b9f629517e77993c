//! `GAS` — Algorithm 6: the greedy with upward-route follower search and
//! follower reuse between rounds.
//!
//! The paper reuses a candidate's cached followers unless the anchoring
//! touched one of its truss-component-tree nodes (Lemma 5). When one
//! component holds most of the graph, that rule drops almost every cache
//! after every round. This implementation keys the cache on the upward
//! routes instead. Each candidate keeps, per trussness level, its follower
//! count and the route that level popped. After an anchoring, only the
//! levels the anchoring can have changed are searched again.
//!
//! **The rule.** After anchoring `x`, the state is refreshed by a full
//! re-decomposition. Let `D` be `x` plus every edge whose `t` or `l`
//! changed. Each `d ∈ D` gets a level interval: `[t(x), ∞)` for `x`,
//! `[t_old(d), t_new(d)]` otherwise. `d` and every edge sharing a triangle
//! with `d` are marked with that interval. A marked candidate searches
//! every level again (its seeds may have changed). Any other candidate
//! searches level `i` again only when an edge on its level-`i` route is
//! marked with an interval containing `i`.
//!
//! **Why it is exact.** A level-`i` search reads only the level-`i` class
//! of the edges it pops and of their triangle partners (see
//! [`LevelRoute`](crate::followers::LevelRoute)). That class — anchor,
//! `t < i`, `t > i`, or `t = i` with its peel layer — changes only for
//! levels inside the edge's interval. An unmarked candidate's seeds are
//! unchanged, so an unmarked level replays step for step.

use std::time::{Duration, Instant};

use antruss_graph::triangles::for_each_triangle;
use antruss_graph::{EdgeId, FxHashMap};

use crate::followers::FollowerSearch;
use crate::metrics::ReuseClassCounts;
use crate::parallel::{best_candidate, scan_map};
use crate::problem::AtrState;

/// Reuse strategy of the greedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReusePolicy {
    /// Exact route reuse (see the module docs): a level is searched again
    /// when one of its route edges is marked with an interval containing
    /// the level. Selections and per-round follower counts equal `BASE+`.
    #[default]
    PaperExact,
    /// Route reuse without the interval test: any marked edge on a
    /// level's route invalidates that level. Invalidates at least what
    /// [`ReusePolicy::PaperExact`] does.
    Conservative,
    /// No reuse at all: recompute every candidate every round and refresh
    /// the state with a full re-decomposition. This is exactly the paper's
    /// `BASE+` baseline.
    Off,
}

/// Configuration for [`Gas`].
#[derive(Debug, Clone, Default)]
pub struct GasConfig {
    /// Reuse strategy (default: exact route reuse).
    pub reuse: ReusePolicy,
    /// Worker threads for the candidate scan (`0` or `1` = serial): every
    /// candidate in round 1 and under `BASE+`, the invalidated candidates
    /// in later rounds with reuse. Selections, follower lists and work
    /// counters are identical for any thread count.
    pub threads: usize,
}

/// Per-round report.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// The chosen anchor.
    pub chosen: EdgeId,
    /// Followers of the chosen anchor (each gains exactly +1 trussness).
    pub followers: Vec<EdgeId>,
    /// Trussness of each follower at selection time (for the Fig. 11(b)
    /// distribution).
    pub follower_trussness: Vec<u32>,
    /// Wall-clock time of the round (`scan` + `refresh`).
    pub elapsed: Duration,
    /// Time spent choosing the anchor: the candidate scan and the
    /// winner's follower list.
    pub scan: Duration,
    /// Time spent committing the anchor: the re-decomposition and, with
    /// reuse, marking the changed edges.
    pub refresh: Duration,
    /// Candidates whose follower search ran this round. `BASE+` counts
    /// every candidate. With reuse, only candidates with at least one seed
    /// count: all of them in round 1, then those with an invalidated level.
    pub recomputed: usize,
    /// FR/PR/NR of the candidates with at least one seed (rounds ≥ 2 with
    /// reuse): no level, some levels, or every level searched again.
    pub reuse_classes: Option<ReuseClassCounts>,
}

/// Final outcome of a GAS run.
#[derive(Debug, Clone)]
pub struct GasOutcome {
    /// Selected anchors in selection order.
    pub anchors: Vec<EdgeId>,
    /// True cumulative trussness gain (`Σ_{e∈E\A} t_A(e) − t(e)`,
    /// Definition 4), recomputed from the final state.
    pub total_gain: u64,
    /// Sum of per-round follower counts. May exceed `total_gain`: an edge
    /// elevated as a follower in an early round can itself be *anchored*
    /// later, and Definition 4 excludes anchors from the final gain.
    pub claimed_gain: u64,
    /// Per-round details.
    pub rounds: Vec<RoundReport>,
}

/// One trussness level of a candidate's cached follower search.
#[derive(Debug, Clone)]
struct LevelCache {
    level: u32,
    followers: u32,
    /// The edges the level popped (its upward route).
    route: Box<[EdgeId]>,
}

/// The level intervals `[lo, hi]` the last anchoring marked each edge with.
type Marks = FxHashMap<EdgeId, Vec<(u32, u32)>>;

/// What one round's candidate scan found.
struct Scan {
    /// `(follower count, edge)` of the winner: most followers, ties toward
    /// the smaller edge id.
    best: Option<(usize, EdgeId)>,
    recomputed: usize,
    classes: Option<ReuseClassCounts>,
}

/// The GAS driver (Algorithm 6).
pub struct Gas<'g> {
    st: AtrState<'g>,
    cfg: GasConfig,
    search: FollowerSearch,
    /// Per-candidate level caches, ascending by level; empty and unused
    /// when reuse is off.
    cache: Vec<Vec<LevelCache>>,
    /// Edges the last anchoring marked.
    marks: Marks,
    round: usize,
}

impl<'g> Gas<'g> {
    /// Decomposes the graph and prepares the round state.
    pub fn new(g: &'g antruss_graph::CsrGraph, cfg: GasConfig) -> Self {
        let m = g.num_edges();
        let cache = match cfg.reuse {
            ReusePolicy::Off => Vec::new(),
            _ => vec![Vec::new(); m],
        };
        Gas {
            st: AtrState::new(g),
            cfg,
            search: FollowerSearch::new(m),
            cache,
            marks: Marks::default(),
            round: 0,
        }
    }

    /// Read access to the evolving state.
    pub fn state(&self) -> &AtrState<'g> {
        &self.st
    }

    /// Runs `b` greedy rounds (stops early when no candidate edge is
    /// left).
    pub fn run(mut self, b: usize) -> GasOutcome {
        let mut rounds = Vec::with_capacity(b);
        for _ in 0..b {
            match self.step() {
                Some(r) => rounds.push(r),
                None => break,
            }
        }
        let claimed = rounds.iter().map(|r| r.followers.len() as u64).sum();
        GasOutcome {
            anchors: rounds.iter().map(|r| r.chosen).collect(),
            total_gain: self.st.total_gain(),
            claimed_gain: claimed,
            rounds,
        }
    }

    /// Executes one greedy round; `None` when no candidate edge remains.
    pub fn step(&mut self) -> Option<RoundReport> {
        self.round += 1;
        let start = Instant::now();
        let scan = match self.cfg.reuse {
            ReusePolicy::Off => self.scan_all(),
            _ => self.scan_with_reuse(),
        };
        let (count, chosen) = scan.best?;
        let followers = self.search.followers(&self.st, chosen).followers;
        debug_assert_eq!(followers.len(), count, "reused count of {chosen:?}");
        let follower_trussness = followers.iter().map(|&f| self.st.t(f)).collect();
        let scanned = start.elapsed();
        match self.cfg.reuse {
            ReusePolicy::Off => self.st.anchor_full_refresh(chosen),
            _ => self.anchor_and_mark(chosen),
        }
        let elapsed = start.elapsed();
        Some(RoundReport {
            round: self.round,
            chosen,
            followers,
            follower_trussness,
            elapsed,
            scan: scanned,
            refresh: elapsed - scanned,
            recomputed: scan.recomputed,
            reuse_classes: scan.classes,
        })
    }

    /// `BASE+`: search every candidate.
    fn scan_all(&self) -> Scan {
        let candidates = self.candidates();
        let best = best_candidate(&self.st, &candidates, self.cfg.threads)
            .map(|(e, count)| (count as usize, e));
        Scan {
            best,
            recomputed: candidates.len(),
            classes: None,
        }
    }

    /// Searches the candidates (and levels) the last anchoring
    /// invalidated — every candidate in round 1 — and picks the winner
    /// from the refreshed caches.
    fn scan_with_reuse(&mut self) -> Scan {
        let first = self.round == 1;
        // Candidates absent from `levels` search every level again.
        let mut dirty: Vec<EdgeId> = Vec::new();
        let mut levels: FxHashMap<EdgeId, Vec<u32>> = FxHashMap::default();
        for e in self.candidates() {
            if first || self.marks.contains_key(&e) {
                dirty.push(e);
                continue;
            }
            let stale: Vec<u32> = self.cache[e.idx()]
                .iter()
                .filter(|lc| self.level_dirty(lc))
                .map(|lc| lc.level)
                .collect();
            if !stale.is_empty() {
                dirty.push(e);
                levels.insert(e, stale);
            }
        }

        let st = &self.st;
        let fresh = scan_map(st, &dirty, self.cfg.threads, |fs, e| {
            match levels.get(&e) {
                None => fs.followers(st, e),
                Some(only) => fs.followers_filtered(st, e, |p| only.contains(&st.t(p))),
            };
            fs.last_levels()
                .map(|l| LevelCache {
                    level: l.level,
                    followers: l.followers as u32,
                    route: l.route.into(),
                })
                .collect::<Vec<_>>()
        });

        let mut classes = ReuseClassCounts::default();
        let mut recomputed = 0;
        for (&e, fresh) in dirty.iter().zip(fresh) {
            let entry = &mut self.cache[e.idx()];
            let only = levels.get(&e);
            match only {
                None => *entry = fresh,
                Some(only) => {
                    entry.retain(|lc| !only.contains(&lc.level));
                    entry.extend(fresh);
                    entry.sort_unstable_by_key(|lc| lc.level);
                }
            }
            // candidates without seeds have nothing to reuse or recompute
            if entry.is_empty() {
                continue;
            }
            recomputed += 1;
            match only {
                Some(only) if only.len() < entry.len() => classes.partially += 1,
                _ => classes.non += 1,
            }
        }

        let mut best: Option<(usize, EdgeId)> = None;
        let mut seeded = 0;
        for e in self.candidates() {
            let entry = &self.cache[e.idx()];
            seeded += usize::from(!entry.is_empty());
            let count = entry.iter().map(|lc| lc.followers as usize).sum();
            // candidates ascend, so the first maximum is the smallest id
            if best.is_none_or(|(bc, _)| count > bc) {
                best = Some((count, e));
            }
        }
        classes.fully = seeded - recomputed;
        Scan {
            best,
            recomputed,
            classes: (!first).then_some(classes),
        }
    }

    /// Whether a marked edge on the level's route changed class at that
    /// level (any marked route edge under the conservative policy).
    fn level_dirty(&self, lc: &LevelCache) -> bool {
        let conservative = self.cfg.reuse == ReusePolicy::Conservative;
        lc.route.iter().any(|r| {
            self.marks.get(r).is_some_and(|intervals| {
                conservative
                    || intervals
                        .iter()
                        .any(|&(lo, hi)| (lo..=hi).contains(&lc.level))
            })
        })
    }

    /// Anchors `x` with a full re-decomposition and marks the changed
    /// edges and their triangle partners for the next round's scan.
    fn anchor_and_mark(&mut self, x: EdgeId) {
        // the refresh replaces `t` and `l` wholesale, so the old vectors
        // can move out instead of being copied
        let old_t = std::mem::take(&mut self.st.t);
        let old_l = std::mem::take(&mut self.st.l);
        self.st.anchor_full_refresh(x);
        self.cache[x.idx()] = Vec::new();

        let st = &self.st;
        let g = st.graph();
        let mut marks = Marks::default();
        let mut mark = |d: EdgeId, interval: (u32, u32)| {
            marks.entry(d).or_default().push(interval);
            for_each_triangle(g, d, |w| {
                for p in [w.e_uw, w.e_vw] {
                    marks.entry(p).or_default().push(interval);
                }
            });
        };
        mark(x, (old_t[x.idx()], u32::MAX));
        for e in g.edges() {
            if st.is_anchor(e) {
                continue;
            }
            let (t0, t1) = (old_t[e.idx()], st.t(e));
            if t0 != t1 || old_l[e.idx()] != st.l(e) {
                debug_assert!(t1 >= t0, "anchoring never lowers trussness");
                mark(e, (t0, t1));
            }
        }
        self.marks = marks;
    }

    /// The non-anchored edges, ascending.
    fn candidates(&self) -> Vec<EdgeId> {
        let st = &self.st;
        st.graph().edges().filter(|&e| !st.is_anchor(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_graph::gen::{gnm, social_network, SocialParams};
    use antruss_graph::{CsrGraph, GraphBuilder};
    use proptest::prelude::*;

    /// `(level, followers, route)` per level, as cached or as searched.
    type Levels = Vec<(u32, usize, Vec<EdgeId>)>;

    /// Runs up to `b` reuse rounds and checks, after every scan, that each
    /// candidate's cache equals a fresh search level for level — count
    /// and route — and that its counts sum to the fresh follower count.
    fn check_caches_against_fresh_searches(g: &CsrGraph, reuse: ReusePolicy, b: usize) {
        let mut gas = Gas::new(g, GasConfig { reuse, threads: 1 });
        let mut fresh = FollowerSearch::new(g.num_edges());
        for round in 1..=b {
            gas.round += 1;
            let scan = gas.scan_with_reuse();
            for e in gas.candidates() {
                let total = fresh.followers(&gas.st, e).followers.len();
                let want: Levels = fresh
                    .last_levels()
                    .map(|l| (l.level, l.followers, l.route.to_vec()))
                    .collect();
                let got: Levels = gas.cache[e.idx()]
                    .iter()
                    .map(|lc| (lc.level, lc.followers as usize, lc.route.to_vec()))
                    .collect();
                assert_eq!(got, want, "round {round}, candidate {e:?}");
                let reused: usize = got.iter().map(|l| l.1).sum();
                assert_eq!(reused, total, "round {round}, candidate {e:?}");
            }
            let Some((_, x)) = scan.best else { break };
            gas.anchor_and_mark(x);
        }
    }

    fn social(n: u32, seed: u64) -> CsrGraph {
        social_network(&SocialParams {
            n,
            target_edges: 4 * n as usize,
            attach: 3,
            closure: 0.6,
            planted: vec![5],
            onions: vec![],
            seed,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn reused_levels_equal_fresh_searches_on_gnm(
            n in 10u32..32,
            m in 20usize..130,
            seed in 0u64..1_000_000,
            b in 1usize..9,
        ) {
            let g = gnm(n, m, seed);
            for reuse in [ReusePolicy::PaperExact, ReusePolicy::Conservative] {
                check_caches_against_fresh_searches(&g, reuse, b);
            }
        }

        #[test]
        fn reused_levels_equal_fresh_searches_on_social_graphs(
            n in 30u32..90,
            seed in 0u64..1_000_000,
            b in 1usize..9,
        ) {
            let g = social(n, seed);
            for reuse in [ReusePolicy::PaperExact, ReusePolicy::Conservative] {
                check_caches_against_fresh_searches(&g, reuse, b);
            }
        }
    }

    #[test]
    fn recomputed_counts_partially_and_non_reused_candidates() {
        let g = social(120, 9);
        for reuse in [ReusePolicy::PaperExact, ReusePolicy::Conservative] {
            let out = Gas::new(&g, GasConfig { reuse, threads: 1 }).run(5);
            assert!(out.rounds[0].reuse_classes.is_none());
            for r in &out.rounds[1..] {
                let c = r.reuse_classes.expect("classes from round 2 on");
                assert_eq!(r.recomputed, c.partially + c.non, "{reuse:?}");
                assert_eq!(r.elapsed, r.scan + r.refresh);
            }
        }
    }

    #[test]
    fn conservative_recomputes_at_least_what_paper_does() {
        let g = social(150, 4);
        let run = |reuse| Gas::new(&g, GasConfig { reuse, threads: 1 }).run(6);
        let (paper, conservative) = (run(ReusePolicy::PaperExact), run(ReusePolicy::Conservative));
        assert_eq!(paper.anchors, conservative.anchors);
        for (p, c) in paper.rounds.iter().zip(&conservative.rounds) {
            assert!(c.recomputed >= p.recomputed, "round {}", p.round);
        }
    }

    #[test]
    fn gas_off_equals_base_plus_semantics() {
        let g = gnm(30, 110, 7);
        let out = Gas::new(
            &g,
            GasConfig {
                reuse: ReusePolicy::Off,
                ..GasConfig::default()
            },
        )
        .run(3);
        assert_eq!(out.anchors.len(), 3);
        assert_eq!(out.total_gain, out.claimed_gain);
    }

    #[test]
    fn gas_reuse_matches_no_reuse_on_random_graphs() {
        for seed in 0..6 {
            let g = gnm(28, 100, seed);
            let off = Gas::new(
                &g,
                GasConfig {
                    reuse: ReusePolicy::Off,
                    ..GasConfig::default()
                },
            )
            .run(4);
            let on = Gas::new(
                &g,
                GasConfig {
                    reuse: ReusePolicy::PaperExact,
                    ..GasConfig::default()
                },
            )
            .run(4);
            assert_eq!(
                off.anchors, on.anchors,
                "seed {seed}: selections must agree"
            );
            assert_eq!(off.total_gain, on.total_gain, "seed {seed}");
            // per-round follower counts must agree too (reuse is exact)
            let off_counts: Vec<usize> = off.rounds.iter().map(|r| r.followers.len()).collect();
            let on_counts: Vec<usize> = on.rounds.iter().map(|r| r.followers.len()).collect();
            assert_eq!(off_counts, on_counts, "seed {seed}");
            // claimed gain can exceed the true gain only via re-anchored
            // followers, never fall below it
            assert!(on.claimed_gain >= on.total_gain, "seed {seed}");
        }
    }

    #[test]
    fn gas_reuse_matches_no_reuse_on_social_graph() {
        let g = social_network(&SocialParams {
            n: 150,
            target_edges: 600,
            attach: 4,
            closure: 0.6,
            planted: vec![6],
            onions: vec![],
            seed: 3,
        });
        let off = Gas::new(
            &g,
            GasConfig {
                reuse: ReusePolicy::Off,
                ..GasConfig::default()
            },
        )
        .run(5);
        let on = Gas::new(
            &g,
            GasConfig {
                reuse: ReusePolicy::PaperExact,
                ..GasConfig::default()
            },
        )
        .run(5);
        assert_eq!(off.anchors, on.anchors);
        assert_eq!(off.total_gain, on.total_gain);
    }

    #[test]
    fn reuse_recomputes_fewer_candidates() {
        let g = social_network(&SocialParams {
            n: 200,
            target_edges: 900,
            attach: 4,
            closure: 0.6,
            planted: vec![7],
            onions: vec![],
            seed: 5,
        });
        let out = Gas::new(
            &g,
            GasConfig {
                reuse: ReusePolicy::PaperExact,
                ..GasConfig::default()
            },
        )
        .run(4);
        let later: usize = out.rounds[1..].iter().map(|r| r.recomputed).sum();
        let first = out.rounds[0].recomputed;
        assert!(
            later < first * (out.rounds.len() - 1),
            "reuse should cut recomputation: first={first}, later_total={later}"
        );
        // reuse classes are reported from round 2 on
        assert!(out.rounds[1].reuse_classes.is_some());
    }

    #[test]
    fn budget_larger_than_edges_stops() {
        let mut b = GraphBuilder::dense();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let out = Gas::new(&g, GasConfig::default()).run(10);
        assert!(out.anchors.len() <= 3);
    }

    #[test]
    fn empty_graph_yields_no_rounds() {
        let g = GraphBuilder::new().build();
        let out = Gas::new(&g, GasConfig::default()).run(3);
        assert!(out.anchors.is_empty());
        assert_eq!(out.total_gain, 0);
    }

    #[test]
    fn rounds_report_monotone_round_numbers() {
        let g = gnm(25, 90, 2);
        let out = Gas::new(&g, GasConfig::default()).run(3);
        for (i, r) in out.rounds.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            assert_eq!(r.followers.len(), r.follower_trussness.len());
        }
    }
}
