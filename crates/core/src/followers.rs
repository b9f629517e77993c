//! `GetFollowers` — Algorithm 3 of the paper.
//!
//! Computing the trussness gain of anchoring one edge `x` reduces to
//! counting its *followers* `F(x, G) = {e : t_{A∪{x}}(e) > t_A(e)}`
//! (Lemma 1: each gain is exactly +1). Instead of re-decomposing the graph,
//! the search:
//!
//! 1. seeds with the neighbour-edges of `x` satisfying Lemma 2(i)
//!    (`t(e) > t(x)`, or `t(e) = t(x) ∧ l(e) > l(x)`),
//! 2. explores **upward routes** (Definition 7) level by level with a
//!    min-heap keyed by peel layer — the heap is *monotone* because a
//!    pushed edge never precedes its pusher,
//! 3. checks each candidate against the **effective triangle** bound
//!    `s⁺(e)` (Definition 8) — an optimistic count whose later corrections
//!    are propagated by the **retract** cascade (Lemma 3),
//! 4. collects survivors per level.
//!
//! At termination every survivor's `s⁺` only counts triangles whose
//! partners are higher-trussness edges, anchors or fellow survivors, so the
//! survivor set is self-consistent and — by maximality of the k-truss —
//! exactly the follower set. This is differential-tested against the naive
//! anchored re-decomposition in this module and in `tests/`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use antruss_graph::triangles::for_each_triangle;
use antruss_graph::{EdgeId, FxHashMap};

use crate::problem::AtrState;

/// Result of a follower search for one candidate anchor.
#[derive(Debug, Clone, Default)]
pub struct FollowerOutcome {
    /// The followers of the anchor, ascending by edge id within each level.
    pub followers: Vec<EdgeId>,
    /// Number of candidate edges examined (popped and support-checked) —
    /// the paper's *upward-route size* (Table IV).
    pub route_size: usize,
}

/// One trussness level of the most recent search: the level, the
/// followers it found and the upward route it popped.
///
/// A level-`i` search reads nothing but the level-`i` class (anchor,
/// `t < i`, `t > i`, or `t = i` with its peel layer) of the route edges
/// and of their triangle partners, so its result stays valid for as long
/// as none of those classes changes — the invariant GAS's reuse rests on.
#[derive(Debug, Clone, Copy)]
pub struct LevelRoute<'a> {
    /// The trussness level `i`.
    pub level: u32,
    /// Number of followers found at this level.
    pub followers: usize,
    /// The edges popped at this level, in pop order.
    pub route: &'a [EdgeId],
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Unchecked,
    Survived,
    Eliminated,
}

/// Reusable scratch state for follower searches over one graph.
///
/// All arrays are sized once (`O(m)`) and reset lazily via epoch stamps, so
/// a search costs `O(|route| · d_max)` regardless of graph size — the bound
/// the paper proves for Algorithm 3.
pub struct FollowerSearch {
    status: Vec<Status>,
    status_epoch: Vec<u32>,
    s_plus: Vec<u32>,
    in_heap_epoch: Vec<u32>,
    /// Mark order of eliminations: when both partners of a counted triangle
    /// end up eliminated, the first-marked one owns the single decrement.
    elim_seq: Vec<u64>,
    seq_counter: u64,
    epoch: u32,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    retract_stack: Vec<(EdgeId, Status)>,
    /// Edges popped by the last search, grouped by level.
    route: Vec<EdgeId>,
    /// Per level of the last search: `(level, followers, end of its run
    /// in route)`.
    levels: Vec<(u32, usize, usize)>,
}

impl FollowerSearch {
    /// Scratch for a graph with `m` edges.
    pub fn new(m: usize) -> Self {
        FollowerSearch {
            status: vec![Status::Unchecked; m],
            status_epoch: vec![0; m],
            s_plus: vec![0; m],
            in_heap_epoch: vec![0; m],
            elim_seq: vec![0; m],
            seq_counter: 0,
            epoch: 0,
            heap: BinaryHeap::new(),
            retract_stack: Vec::new(),
            route: Vec::new(),
            levels: Vec::new(),
        }
    }

    #[inline]
    fn status(&self, e: EdgeId) -> Status {
        if self.status_epoch[e.idx()] == self.epoch {
            self.status[e.idx()]
        } else {
            Status::Unchecked
        }
    }

    #[inline]
    fn set_status(&mut self, e: EdgeId, s: Status) {
        self.status[e.idx()] = s;
        self.status_epoch[e.idx()] = self.epoch;
    }

    /// Marks `e` eliminated, stamping the mark order for the retract
    /// cascade's triangle-ownership rule.
    #[inline]
    fn eliminate(&mut self, e: EdgeId) {
        self.seq_counter += 1;
        self.elim_seq[e.idx()] = self.seq_counter;
        self.set_status(e, Status::Eliminated);
    }

    /// Followers of candidate anchor `x` under the current state
    /// (Algorithm 3). `seed_filter`, when given, keeps only seeds for which
    /// it returns `true` — the hook GAS's reuse uses to re-run only the
    /// trussness levels an anchoring invalidated.
    pub fn followers(&mut self, st: &AtrState<'_>, x: EdgeId) -> FollowerOutcome {
        self.followers_filtered(st, x, |_| true)
    }

    /// See [`FollowerSearch::followers`].
    pub fn followers_filtered<F: Fn(EdgeId) -> bool>(
        &mut self,
        st: &AtrState<'_>,
        x: EdgeId,
        seed_filter: F,
    ) -> FollowerOutcome {
        debug_assert!(!st.is_anchor(x), "candidate {x:?} is already anchored");
        let g = st.graph();
        let (tx, lx) = (st.t(x), st.l(x));

        // --- Lemma 2(i): collect seeds among the neighbour-edges of x ----
        // seeds_by_level: level -> Vec<(layer, edge)>; duplicates are fine,
        // the per-level heap dedups on push.
        let mut seeds: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for_each_triangle(g, x, |w| {
            for p in [w.e_uw, w.e_vw] {
                if st.is_anchor(p) {
                    continue;
                }
                let (tp, lp) = (st.t(p), st.l(p));
                let qualifies = tp > tx || (tp == tx && lp > lx);
                if qualifies && seed_filter(p) {
                    seeds.entry(tp).or_default().push((lp, p.0));
                }
            }
        });

        let mut levels: Vec<u32> = seeds.keys().copied().collect();
        levels.sort_unstable();

        self.route.clear();
        self.levels.clear();
        let mut out = FollowerOutcome::default();
        for i in levels {
            let seed_list = seeds.remove(&i).expect("level present");
            self.run_level(st, x, i, seed_list, &mut out);
        }
        out.route_size = self.route.len();
        out
    }

    /// The levels of the most recent search, ascending; a level appears
    /// when it had at least one seed.
    pub fn last_levels(&self) -> impl Iterator<Item = LevelRoute<'_>> + '_ {
        let mut start = 0;
        self.levels.iter().map(move |&(level, followers, end)| {
            let route = &self.route[start..end];
            start = end;
            LevelRoute {
                level,
                followers,
                route,
            }
        })
    }

    /// Processes one trussness level `i`: lines 5–17 of Algorithm 3.
    fn run_level(
        &mut self,
        st: &AtrState<'_>,
        x: EdgeId,
        i: u32,
        seeds: Vec<(u32, u32)>,
        out: &mut FollowerOutcome,
    ) {
        // Fresh survived/eliminated bookkeeping for this level (line 6: all
        // lower-trussness edges are statically eliminated via `t < i`).
        self.epoch += 1;
        self.heap.clear();
        for (lay, e) in seeds {
            if self.in_heap_epoch[e as usize] != self.epoch {
                self.in_heap_epoch[e as usize] = self.epoch;
                self.heap.push(Reverse((lay, e)));
            }
        }
        let first_survivor = out.followers.len();

        while let Some(Reverse((_, eidx))) = self.heap.pop() {
            let e = EdgeId(eidx);
            if self.status(e) != Status::Unchecked {
                continue;
            }
            self.route.push(e);
            // ---- support check: s+(e) over effective triangles ----------
            let s_plus = self.count_effective(st, x, e, i);
            if s_plus + 1 >= i {
                // s+(e) ≥ t(e) − 1 = i − 1: survived (lines 10–14)
                self.set_status(e, Status::Survived);
                self.s_plus[e.idx()] = s_plus;
                out.followers.push(e);
                // push same-level neighbour-edges e ≺ e′ onto the route
                let g = st.graph();
                let le = st.l(e);
                let epoch = self.epoch;
                let heap = &mut self.heap;
                let in_heap = &mut self.in_heap_epoch;
                for_each_triangle(g, e, |w| {
                    for p in [w.e_uw, w.e_vw] {
                        if st.is_anchor(p) || p == x {
                            continue;
                        }
                        // `in_heap` stays stamped after a pop, so checked
                        // edges are never re-pushed.
                        if st.t(p) == i && le <= st.l(p) && in_heap[p.idx()] != epoch {
                            in_heap[p.idx()] = epoch;
                            heap.push(Reverse((st.l(p), p.0)));
                        }
                    }
                });
            } else {
                // eliminated (lines 15–17)
                self.eliminate(e);
                self.retract(st, x, e, Status::Unchecked, i);
            }
        }

        // Drop survivors that were retracted: `retract` rewrites their
        // status, so filter the tail of the follower list by status.
        let epoch = self.epoch;
        let status = &self.status;
        let status_epoch = &self.status_epoch;
        out.followers.retain_from(first_survivor, |e: &EdgeId| {
            status_epoch[e.idx()] == epoch && status[e.idx()] == Status::Survived
        });
        self.levels
            .push((i, out.followers.len() - first_survivor, self.route.len()));
    }

    /// Number of effective triangles of `e` at level `i` (Definition 8).
    fn count_effective(&self, st: &AtrState<'_>, x: EdgeId, e: EdgeId, i: u32) -> u32 {
        let g = st.graph();
        let le = st.l(e);
        let mut cnt = 0u32;
        for_each_triangle(g, e, |w| {
            if self.partner_ok(st, x, le, w.e_uw, i) && self.partner_ok(st, x, le, w.e_vw, i) {
                cnt += 1;
            }
        });
        cnt
    }

    /// Definition 8 conditions for one triangle partner `p` of `e`:
    /// `p` not eliminated, and (`e ≺ p` or `p` survived).
    #[inline]
    fn partner_ok(&self, st: &AtrState<'_>, x: EdgeId, le: u32, p: EdgeId, i: u32) -> bool {
        if st.is_anchor(p) || p == x {
            // anchors (and the candidate itself) are permanently survived
            return true;
        }
        let tp = st.t(p);
        if tp < i {
            return false; // statically eliminated at this level
        }
        match self.status(p) {
            Status::Eliminated => false,
            Status::Survived => true,
            Status::Unchecked => tp > i || le <= st.l(p), // e ≺ p
        }
    }

    /// Retract cascade (Algorithm 3, lines 20–26): `e` just flipped to
    /// `Eliminated` from `prior`; decrement `s⁺` of survived neighbours for
    /// every triangle that was effective for them, cascading eliminations.
    ///
    /// Exactness argument: a counted triangle `(p, f, third)` must be
    /// subtracted from `s⁺(p)` exactly once over the whole level run.
    /// - `f`'s side is checked against its **pre-flip** status: the heap
    ///   pops in non-decreasing layer order, so "`p ≺ f` statically or `f`
    ///   was survived" is equivalent to "`p` counted `f` at its own pop".
    /// - `third`'s side decides *which* partner's flip owns the decrement.
    ///   If `third` is alive (survived / statically-preceding unchecked /
    ///   anchor / the candidate itself), `f`'s flip is the first break.
    ///   If both partners end up eliminated, the **first-marked** one owns
    ///   it — comparing mark stamps avoids the symmetric double-skip where
    ///   each retraction assumes the other already subtracted the triangle.
    fn retract(&mut self, st: &AtrState<'_>, x: EdgeId, e: EdgeId, prior: Status, i: u32) {
        self.retract_stack.clear();
        self.retract_stack.push((e, prior));
        while let Some((f, f_prior)) = self.retract_stack.pop() {
            let g = st.graph();
            debug_assert_eq!(st.t(f), i, "only level-i edges are ever flipped");
            let f_seq = self.elim_seq[f.idx()];
            // Collect decrements first to keep the borrow checker happy.
            let mut hits: Vec<EdgeId> = Vec::new();
            for_each_triangle(g, f, |w| {
                for (p, third) in [(w.e_uw, w.e_vw), (w.e_vw, w.e_uw)] {
                    if st.is_anchor(p) || p == x || st.t(p) != i {
                        continue;
                    }
                    if self.status(p) != Status::Survived {
                        continue;
                    }
                    // Was this triangle counted in s+(p)? Evaluate with f's
                    // *pre-flip* status (Definition 8, partner f):
                    let lp = st.l(p);
                    let f_counted = f_prior == Status::Survived || lp <= st.l(f);
                    if !f_counted {
                        continue;
                    }
                    // Decide whether f's flip owns the single decrement of
                    // this triangle (see the doc comment above).
                    let owns = if st.is_anchor(third) || third == x {
                        true
                    } else if st.t(third) < i {
                        false // statically dead partner: never counted
                    } else {
                        match self.status(third) {
                            Status::Survived => true,
                            Status::Unchecked => st.t(third) > i || lp <= st.l(third),
                            Status::Eliminated => f_seq < self.elim_seq[third.idx()],
                        }
                    };
                    if owns {
                        hits.push(p);
                    }
                }
            });
            for p in hits {
                // p may have been eliminated by an earlier hit this round
                if self.status(p) != Status::Survived {
                    continue;
                }
                let s = &mut self.s_plus[p.idx()];
                *s = s.saturating_sub(1);
                if *s + 1 < i {
                    self.eliminate(p);
                    self.retract_stack.push((p, Status::Survived));
                }
            }
        }
    }
}

/// Extension trait: retain on a suffix of a `Vec`.
trait RetainFrom<T> {
    fn retain_from<F: FnMut(&T) -> bool>(&mut self, start: usize, keep: F);
}

impl<T: Copy> RetainFrom<T> for Vec<T> {
    fn retain_from<F: FnMut(&T) -> bool>(&mut self, start: usize, mut keep: F) {
        let mut write = start;
        for read in start..self.len() {
            if keep(&self[read]) {
                self[write] = self[read];
                write += 1;
            }
        }
        self.truncate(write);
    }
}

/// Reference follower computation: full anchored re-decomposition
/// (`F(x) = {e ≠ x, e ∉ A : t_{A∪{x}}(e) > t_A(e)}`). The oracle for
/// differential tests.
pub fn naive_followers(st: &AtrState<'_>, x: EdgeId) -> Vec<EdgeId> {
    use antruss_truss::{decompose_with, DecomposeOptions};
    let mut anchors = st.anchors.clone();
    anchors.insert(x);
    let info = decompose_with(
        st.graph(),
        DecomposeOptions {
            subset: None,
            anchors: Some(&anchors),
        },
    );
    let mut out = Vec::new();
    for e in st.graph().edges() {
        if e == x || st.is_anchor(e) {
            continue;
        }
        if info.t(e) > st.t(e) {
            out.push(e);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_graph::gen::{gnm, social_network, SocialParams};
    use antruss_graph::{CsrGraph, GraphBuilder, VertexId};

    fn eid(g: &CsrGraph, u: u32, v: u32) -> EdgeId {
        g.edge_between(VertexId(u), VertexId(v)).unwrap()
    }

    /// The paper's Fig. 3 running example (same construction as the truss
    /// crate's tests).
    fn fig3() -> CsrGraph {
        let mut b = GraphBuilder::dense();
        for &(u, v) in &[
            (1, 2),
            (1, 5),
            (1, 7),
            (1, 9),
            (2, 5),
            (2, 7),
            (2, 9),
            (5, 7),
            (7, 9),
            (6, 8),
            (6, 11),
            (6, 12),
            (8, 10),
            (8, 11),
            (8, 12),
            (10, 11),
            (10, 12),
            (11, 12),
            (3, 4),
            (3, 5),
            (3, 6),
            (3, 13),
            (4, 5),
            (4, 6),
            (4, 13),
            (5, 6),
            (5, 13),
            (6, 13),
            (9, 10),
            (8, 9),
            (7, 8),
            (5, 8),
        ] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn fig3_example4_followers_of_v9v10() {
        // Example 4: anchoring (v9, v10) makes (8,9), (7,8), (5,8)
        // followers; the level-4 route through (8,10) yields nothing.
        let g = fig3();
        let st = AtrState::new(&g);
        let mut fs = FollowerSearch::new(g.num_edges());
        let out = fs.followers(&st, eid(&g, 9, 10));
        let mut got = out.followers.clone();
        got.sort();
        let mut want = vec![eid(&g, 8, 9), eid(&g, 7, 8), eid(&g, 5, 8)];
        want.sort();
        assert_eq!(got, want);
        // route examined the three 3-hull edges plus (8,10)
        assert_eq!(out.route_size, 4);
    }

    #[test]
    fn last_levels_split_the_route_by_level() {
        // Example 4 again: three followers on the level-3 route, none on
        // the level-4 route through (8,10).
        let g = fig3();
        let st = AtrState::new(&g);
        let mut fs = FollowerSearch::new(g.num_edges());
        let out = fs.followers(&st, eid(&g, 9, 10));
        let levels: Vec<(u32, usize, Vec<EdgeId>)> = fs
            .last_levels()
            .map(|l| (l.level, l.followers, l.route.to_vec()))
            .collect();
        assert_eq!(levels.len(), 2);
        assert_eq!((levels[0].0, levels[0].1, levels[0].2.len()), (3, 3, 3));
        assert_eq!(levels[1], (4, 0, vec![eid(&g, 8, 10)]));
        let total: usize = levels.iter().map(|l| l.1).sum();
        assert_eq!(total, out.followers.len());
        // a filtered search reports only the levels it ran
        fs.followers_filtered(&st, eid(&g, 9, 10), |e| st.t(e) == 4);
        let only: Vec<u32> = fs.last_levels().map(|l| l.level).collect();
        assert_eq!(only, vec![4]);
    }

    #[test]
    fn fig3_matches_oracle_for_every_candidate() {
        let g = fig3();
        let st = AtrState::new(&g);
        let mut fs = FollowerSearch::new(g.num_edges());
        for x in g.edges() {
            let mut got = fs.followers(&st, x).followers;
            got.sort();
            let want = naive_followers(&st, x);
            assert_eq!(got, want, "candidate {:?}", g.endpoints(x));
        }
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..6 {
            let g = gnm(24, 70, seed);
            let st = AtrState::new(&g);
            let mut fs = FollowerSearch::new(g.num_edges());
            for x in g.edges() {
                let mut got = fs.followers(&st, x).followers;
                got.sort();
                let want = naive_followers(&st, x);
                assert_eq!(got, want, "seed {seed}, candidate {:?}", g.endpoints(x));
            }
        }
    }

    #[test]
    fn social_graph_matches_oracle_sampled() {
        let g = social_network(&SocialParams {
            n: 120,
            target_edges: 500,
            attach: 4,
            closure: 0.6,
            planted: vec![6],
            onions: vec![],
            seed: 11,
        });
        let st = AtrState::new(&g);
        let mut fs = FollowerSearch::new(g.num_edges());
        for x in g.edges().step_by(7) {
            let mut got = fs.followers(&st, x).followers;
            got.sort();
            let want = naive_followers(&st, x);
            assert_eq!(got, want, "candidate {:?}", g.endpoints(x));
        }
    }

    #[test]
    fn followers_with_existing_anchor_match_oracle() {
        // Greedy rounds > 1: state already contains an anchor.
        let g = gnm(22, 60, 42);
        let mut st = AtrState::new(&g);
        st.anchor_full_refresh(EdgeId(3));
        let mut fs = FollowerSearch::new(g.num_edges());
        for x in g.edges() {
            if st.is_anchor(x) {
                continue;
            }
            let mut got = fs.followers(&st, x).followers;
            got.sort();
            let want = naive_followers(&st, x);
            assert_eq!(got, want, "candidate {:?}", g.endpoints(x));
        }
    }

    #[test]
    fn isolated_edge_has_no_followers() {
        let mut b = GraphBuilder::dense();
        b.add_edge(0, 1); // isolated edge
        b.add_edge(2, 3);
        b.add_edge(3, 4);
        b.add_edge(2, 4);
        let g = b.build();
        let st = AtrState::new(&g);
        let mut fs = FollowerSearch::new(g.num_edges());
        let out = fs.followers(&st, eid(&g, 0, 1));
        assert!(out.followers.is_empty());
        assert_eq!(out.route_size, 0);
    }

    #[test]
    fn seed_filter_restricts_seeds() {
        let g = fig3();
        let st = AtrState::new(&g);
        let mut fs = FollowerSearch::new(g.num_edges());
        // Forbid every seed: nothing can be found.
        let out = fs.followers_filtered(&st, eid(&g, 9, 10), |_| false);
        assert!(out.followers.is_empty());
        // Allow only the level-3 seed (8,9): level-4 route suppressed but
        // level-3 followers intact.
        let seed = eid(&g, 8, 9);
        let out = fs.followers_filtered(&st, eid(&g, 9, 10), |e| e == seed);
        let mut got = out.followers;
        got.sort();
        let mut want = vec![eid(&g, 8, 9), eid(&g, 7, 8), eid(&g, 5, 8)];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn retain_from_keeps_prefix() {
        let mut v = vec![1, 2, 3, 4, 5];
        v.retain_from(2, |&x| x % 2 == 0);
        assert_eq!(v, vec![1, 2, 4]);
    }
}
