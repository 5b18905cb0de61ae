//! Criterion bench: thread scaling of the partition (wall-clock side of
//! table T7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpx_decomp::{partition, DecompOptions, Traversal};
use mpx_graph::gen;
use mpx_runtime::Pool;
use std::time::Duration;

fn configure(c: Criterion) -> Criterion {
    c.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_scaling(c: &mut Criterion) {
    let g = gen::grid2d(500, 500);
    let opts = DecompOptions::new(0.05)
        .with_seed(2)
        .with_traversal(Traversal::TopDownPar);
    let mut group = c.benchmark_group("scaling/grid500_beta0.05");
    let max_t = mpx_runtime::default_threads();
    let mut levels = vec![1usize, 2, 4, 8];
    levels.retain(|&t| t <= max_t);
    if !levels.contains(&max_t) {
        levels.push(max_t);
    }
    for &t in &levels {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| Pool::new(t).install(|| partition(&g, &opts)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench_scaling
}
criterion_main!(benches);
