//! ATR problem state and gain computation.

use antruss_graph::{CsrGraph, EdgeId, EdgeSet};
use antruss_truss::{decompose, decompose_with, DecomposeOptions, TrussInfo, ANCHOR_TRUSSNESS};

/// Mutable analysis state of one graph under a growing anchor set.
///
/// Holds the current trussness `t(e)`, peel layer `l(e)` and anchor set of
/// the graph `G_A`. The baselines and GAS mutate an `AtrState` and
/// refresh `t`/`l` after an anchoring by a full re-decomposition;
/// [`crate::reuse`] holds the paper's component-local alternative.
pub struct AtrState<'g> {
    graph: &'g CsrGraph,
    /// Current trussness per edge ([`ANCHOR_TRUSSNESS`] for anchors).
    pub t: Vec<u32>,
    /// Current peel layer per edge.
    pub l: Vec<u32>,
    /// Current anchor set `A`.
    pub anchors: EdgeSet,
    /// Largest finite trussness.
    pub k_max: u32,
    /// Trussness of every edge in the *original* graph (gain reference).
    pub original_t: Vec<u32>,
}

impl<'g> AtrState<'g> {
    /// Decomposes `g` and starts with an empty anchor set.
    pub fn new(g: &'g CsrGraph) -> Self {
        let TrussInfo {
            trussness,
            layer,
            k_max,
        } = decompose(g);
        AtrState {
            graph: g,
            original_t: trussness.clone(),
            t: trussness,
            l: layer,
            anchors: EdgeSet::new(g.num_edges()),
            k_max,
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Trussness of `e` in `G_A`.
    #[inline]
    pub fn t(&self, e: EdgeId) -> u32 {
        self.t[e.idx()]
    }

    /// Peel layer of `e` in `G_A`.
    #[inline]
    pub fn l(&self, e: EdgeId) -> u32 {
        self.l[e.idx()]
    }

    /// Whether `e` is anchored (or carries the anchor sentinel).
    #[inline]
    pub fn is_anchor(&self, e: EdgeId) -> bool {
        self.anchors.contains(e)
    }

    /// Adds `x` to the anchor set and refreshes `t`/`l` by a **full**
    /// re-decomposition (the simple, always-correct path `BASE+` and GAS
    /// use).
    pub fn anchor_full_refresh(&mut self, x: EdgeId) {
        assert!(!self.anchors.contains(x), "{x:?} is already anchored");
        self.anchors.insert(x);
        self.refresh_full();
    }

    /// Re-decomposes the whole graph under the current anchor set.
    pub fn refresh_full(&mut self) {
        let info = decompose_with(
            self.graph,
            DecomposeOptions {
                subset: None,
                anchors: Some(&self.anchors),
            },
        );
        self.t = info.trussness;
        self.l = info.layer;
        self.k_max = info.k_max;
    }

    /// Trussness gain accumulated so far:
    /// `Σ_{e ∈ E\A} (t_A(e) − t(e))` against the original graph.
    pub fn total_gain(&self) -> u64 {
        let mut gain = 0u64;
        for (i, (&now, &orig)) in self.t.iter().zip(&self.original_t).enumerate() {
            if now == ANCHOR_TRUSSNESS || self.anchors.contains(EdgeId(i as u32)) {
                continue;
            }
            debug_assert!(now >= orig, "trussness can never drop under anchoring");
            gain += (now - orig) as u64;
        }
        gain
    }
}

/// Trussness gain of anchoring the whole set `A` at once on the original
/// graph: `TG(A, G) = Σ_{e ∈ E\A} (t_A(e) − t(e))` (Definition 4).
///
/// `base` must be the trussness of `g` *without* anchors (pass
/// `&AtrState::new(g).original_t` or a fresh decomposition).
pub fn gain_of_anchor_set(g: &CsrGraph, base: &[u32], anchors: &EdgeSet) -> u64 {
    let info = decompose_with(
        g,
        DecomposeOptions {
            subset: None,
            anchors: Some(anchors),
        },
    );
    let mut gain = 0u64;
    for e in g.edges() {
        if anchors.contains(e) {
            continue;
        }
        let (after, before) = (info.t(e), base[e.idx()]);
        debug_assert!(after >= before);
        gain += (after - before) as u64;
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use antruss_graph::gen::gnm;
    use antruss_graph::{GraphBuilder, VertexId};

    /// Fig. 1(a)-style: two 4-truss blocks glued by 3-truss edges.
    fn small_graph() -> CsrGraph {
        let mut b = GraphBuilder::dense();
        // K4 block
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        // tail triangle chain
        b.add_edge(3, 4);
        b.add_edge(2, 4);
        b.add_edge(4, 5);
        b.add_edge(3, 5);
        b.build()
    }

    #[test]
    fn new_state_has_no_gain() {
        let g = small_graph();
        let st = AtrState::new(&g);
        assert_eq!(st.total_gain(), 0);
        assert!(st.k_max >= 3);
    }

    #[test]
    fn anchoring_never_decreases_gain() {
        let g = gnm(30, 100, 3);
        let mut st = AtrState::new(&g);
        let mut last = 0;
        for x in [EdgeId(0), EdgeId(5), EdgeId(17)] {
            st.anchor_full_refresh(x);
            let gain = st.total_gain();
            assert!(gain >= last);
            last = gain;
        }
    }

    #[test]
    #[should_panic(expected = "already anchored")]
    fn double_anchor_panics() {
        let g = small_graph();
        let mut st = AtrState::new(&g);
        st.anchor_full_refresh(EdgeId(0));
        st.anchor_full_refresh(EdgeId(0));
    }

    #[test]
    fn set_gain_matches_incremental_gain() {
        let g = gnm(25, 80, 9);
        let base = AtrState::new(&g);
        let mut st = AtrState::new(&g);
        let picks = [EdgeId(1), EdgeId(8), EdgeId(30)];
        for &x in &picks {
            st.anchor_full_refresh(x);
        }
        let set = EdgeSet::from_iter(g.num_edges(), picks);
        assert_eq!(
            st.total_gain(),
            gain_of_anchor_set(&g, &base.original_t, &set)
        );
    }

    #[test]
    fn anchored_edge_excluded_from_gain() {
        // Anchoring an edge whose own trussness would rise must not count
        // the anchor itself.
        let g = small_graph();
        let e = g.edge_between(VertexId(3), VertexId(4)).unwrap();
        let mut st = AtrState::new(&g);
        st.anchor_full_refresh(e);
        let anchors = EdgeSet::from_iter(g.num_edges(), [e]);
        assert_eq!(
            st.total_gain(),
            gain_of_anchor_set(&g, &st.original_t, &anchors)
        );
    }
}
