//! Criterion bench `amortized_vs_fresh`: what the reusable `Decomposer`
//! workspace buys on the "many runs over one graph" hot path.
//!
//! `fresh` allocates a new workspace per request (the cost model of the
//! one-shot `partition` call); `amortized` serves the same request stream
//! through one session via `run_many`. Both produce bit-identical label
//! sequences (asserted before timing); the delta is pure allocation and
//! page-fault traffic. The machine-readable twin of this bench is
//! `mpx bench-session`, archived as `BENCH_session_*.json` in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use mpx_decomp::DecomposerBuilder;
use mpx_graph::gen;
use std::time::Duration;

fn configure(c: Criterion) -> Criterion {
    c.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn bench_amortized_vs_fresh(c: &mut Criterion) {
    let workloads = vec![
        ("grid200-b0.2", gen::grid2d(200, 200), 0.2),
        (
            "rmat-s14-b0.3",
            gen::rmat(14, 8 << 14, 0.57, 0.19, 0.19, 1),
            0.3,
        ),
    ];
    let seeds: Vec<u64> = (0..8).collect();
    for (name, g, beta) in &workloads {
        let builder = DecomposerBuilder::new(*beta).seed(seeds[0]);
        // Contract check before timing anything: amortized == fresh.
        {
            let mut session = builder.build(g).unwrap();
            let amortized = session.run_many(&seeds);
            for (i, &s) in seeds.iter().enumerate() {
                let fresh = builder.build(g).unwrap().run_with_seed(s);
                assert_eq!(amortized[i], fresh, "{name} seed {s}");
            }
        }
        let mut group = c.benchmark_group(format!("session/amortized_vs_fresh/{name}"));
        group.bench_function("fresh", |b| {
            b.iter(|| {
                seeds
                    .iter()
                    .map(|&s| builder.build(g).unwrap().run_with_seed(s))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function("amortized", |b| {
            let mut session = builder.build(g).unwrap();
            b.iter(|| session.run_many(&seeds))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench_amortized_vs_fresh
}
criterion_main!(benches);
