//! GAS's route-level reuse against its oracle on the dataset analogues:
//! selections, per-round follower counts and the true gain equal `BASE+`,
//! and the deterministic work counters are pinned.

use antruss::atr::baselines::base_plus::base_plus;
use antruss::atr::{Gas, GasConfig, GasOutcome, ReusePolicy};
use antruss::datasets::{generate, DatasetId};
use antruss::graph::CsrGraph;

fn gas(g: &CsrGraph, reuse: ReusePolicy, b: usize) -> GasOutcome {
    Gas::new(g, GasConfig { reuse, threads: 1 }).run(b)
}

/// Anchors, per-round follower counts and the true gain of both reuse
/// policies equal `BASE+` over ten rounds.
fn assert_reuse_equals_base_plus(id: DatasetId, scale: f64) {
    let g = generate(id, scale);
    let plus = base_plus(&g, 10);
    let counts =
        |o: &GasOutcome| -> Vec<usize> { o.rounds.iter().map(|r| r.followers.len()).collect() };
    for reuse in [ReusePolicy::PaperExact, ReusePolicy::Conservative] {
        let out = gas(&g, reuse, 10);
        assert_eq!(out.anchors, plus.anchors, "{id:?} {reuse:?}");
        assert_eq!(counts(&out), counts(&plus), "{id:?} {reuse:?}");
        assert_eq!(out.total_gain, plus.total_gain, "{id:?} {reuse:?}");
    }
}

/// One test per analogue, so the harness spreads them over the cores.
macro_rules! equals_base_plus {
    ($($name:ident: $id:ident @ $scale:expr),+ $(,)?) => {$(
        #[test]
        fn $name() {
            assert_reuse_equals_base_plus(DatasetId::$id, $scale);
        }
    )+};
}

// The facebook analogue's dense cores make BASE+ an order of magnitude
// slower per edge than the others, so it runs at a smaller scale.
equals_base_plus! {
    college_equals_base_plus: College @ 0.03,
    facebook_equals_base_plus: Facebook @ 0.015,
    brightkite_equals_base_plus: Brightkite @ 0.03,
    gowalla_equals_base_plus: Gowalla @ 0.03,
    youtube_equals_base_plus: Youtube @ 0.03,
    google_equals_base_plus: Google @ 0.03,
    patents_equals_base_plus: Patents @ 0.03,
    pokec_equals_base_plus: Pokec @ 0.03,
}

/// The deterministic work counters of route reuse on college:0.2, b=5:
/// per-round `recomputed` and, from round 2 on, FR/PR/NR. A change to the
/// invalidation rule shows here as a changed count, whatever the host's
/// speed.
#[test]
fn college_work_counters_are_pinned() {
    let g = generate(DatasetId::College, 0.2);
    // (policy, recomputed per round, (FR, PR, NR) per round from round 2)
    let pinned = [
        (
            ReusePolicy::PaperExact,
            [2342, 122, 501, 69, 84],
            [
                (2218, 39, 83),
                (1841, 164, 337),
                (2271, 11, 58),
                (2254, 21, 63),
            ],
        ),
        (
            ReusePolicy::Conservative,
            [2342, 248, 765, 119, 134],
            [
                (2092, 123, 125),
                (1577, 219, 546),
                (2221, 44, 75),
                (2204, 56, 78),
            ],
        ),
    ];
    for (reuse, recomputed, classes) in pinned {
        let out = gas(&g, reuse, 5);
        let got: Vec<usize> = out.rounds.iter().map(|r| r.recomputed).collect();
        assert_eq!(got, recomputed, "{reuse:?} recomputed");
        let got: Vec<_> = out.rounds[1..]
            .iter()
            .map(|r| r.reuse_classes.expect("rounds >= 2 classify"))
            .map(|c| (c.fully, c.partially, c.non))
            .collect();
        assert_eq!(got, classes, "{reuse:?} FR/PR/NR");
    }
}
