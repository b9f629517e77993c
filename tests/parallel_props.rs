//! Property tests: the parallel candidate scan is equivalent to the serial
//! one, and `Gas` with threads produces byte-identical outcomes.

use antruss::atr::parallel::{best_candidate, scan_follower_counts};
use antruss::atr::{AtrState, Gas, GasConfig, ReusePolicy};
use antruss::graph::{CsrGraph, EdgeId, GraphBuilder};
use proptest::prelude::*;

fn graph_from_pairs(pairs: &[(u8, u8)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    for &(u, v) in pairs {
        b.add_edge(u as u64, v as u64);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_scan_equals_serial(
        pairs in prop::collection::vec((0u8..30, 0u8..30), 10..220),
        threads in 2usize..6,
    ) {
        let g = graph_from_pairs(&pairs);
        prop_assume!(g.num_edges() > 0);
        let st = AtrState::new(&g);
        let candidates: Vec<EdgeId> = g.edges().collect();
        let serial = scan_follower_counts(&st, &candidates, 1);
        let par = scan_follower_counts(&st, &candidates, threads);
        prop_assert_eq!(serial, par);
        prop_assert_eq!(
            best_candidate(&st, &candidates, 1),
            best_candidate(&st, &candidates, threads)
        );
    }

    #[test]
    fn gas_with_threads_matches_serial(
        pairs in prop::collection::vec((0u8..24, 0u8..24), 20..160),
        b in 1usize..6,
    ) {
        let g = graph_from_pairs(&pairs);
        prop_assume!(g.num_edges() >= 3);
        for reuse in [ReusePolicy::PaperExact, ReusePolicy::Conservative, ReusePolicy::Off] {
            let serial = Gas::new(&g, GasConfig { reuse, threads: 1 }).run(b);
            let par = Gas::new(&g, GasConfig { reuse, threads: 4 }).run(b);
            prop_assert_eq!(&serial.anchors, &par.anchors, "reuse {:?}", reuse);
            prop_assert_eq!(serial.total_gain, par.total_gain);
            prop_assert_eq!(serial.claimed_gain, par.claimed_gain);
            // the work counters and follower lists, not just the picks
            for (s, p) in serial.rounds.iter().zip(&par.rounds) {
                prop_assert_eq!(&s.followers, &p.followers, "reuse {:?}", reuse);
                prop_assert_eq!(s.recomputed, p.recomputed, "reuse {:?}", reuse);
                prop_assert_eq!(s.reuse_classes, p.reuse_classes, "reuse {:?}", reuse);
            }
        }
    }
}

#[test]
fn threaded_gas_on_a_social_graph() {
    use antruss::graph::gen::{social_network, SocialParams};
    let g = social_network(&SocialParams {
        n: 200,
        target_edges: 900,
        attach: 4,
        closure: 0.6,
        planted: vec![7],
        onions: vec![],
        seed: 31,
    });
    for reuse in [ReusePolicy::PaperExact, ReusePolicy::Conservative] {
        let serial = Gas::new(&g, GasConfig { reuse, threads: 1 }).run(5);
        let par = Gas::new(&g, GasConfig { reuse, threads: 8 }).run(5);
        assert_eq!(serial.anchors, par.anchors);
        assert_eq!(serial.total_gain, par.total_gain);
        for (s, p) in serial.rounds.iter().zip(&par.rounds) {
            assert_eq!(s.followers, p.followers, "{reuse:?} round {}", s.round);
            assert_eq!(s.recomputed, p.recomputed, "{reuse:?} round {}", s.round);
            assert_eq!(s.reuse_classes, p.reuse_classes);
        }
    }
}
