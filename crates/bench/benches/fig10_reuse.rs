//! Fig. 10 bench: the value of reuse — identical greedy under the three
//! reuse policies: exact route-level reuse, route-level reuse without the
//! level-interval test, and off (`BASE+`). Since GAS reuses per-level
//! route results rather than tree-node caches, FR/PR/NR and the timings
//! here measure route-level reuse.

use antruss_core::{Gas, GasConfig, ReusePolicy};
use antruss_datasets::{generate, DatasetId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig10(c: &mut Criterion) {
    let g = generate(DatasetId::Facebook, 0.12);
    let mut group = c.benchmark_group("fig10/facebook@0.12-b6");
    for (name, policy) in [
        ("paper-exact", ReusePolicy::PaperExact),
        ("conservative", ReusePolicy::Conservative),
        ("no-reuse", ReusePolicy::Off),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    Gas::new(
                        &g,
                        GasConfig {
                            reuse: policy,
                            ..GasConfig::default()
                        },
                    )
                    .run(6),
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig10
}
criterion_main!(benches);
