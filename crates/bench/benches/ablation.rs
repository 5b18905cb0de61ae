//! Criterion bench: ablations of the design choices DESIGN.md calls out —
//! tie-break rule (Section 5), Δ-stepping bucket width (Section 6
//! extension), and the shift-generation stage in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpx_decomp::{partition, DecompOptions, DecomposerBuilder, ExpShifts, TieBreak, Traversal};
use mpx_graph::{gen, WeightedCsrGraph};
use std::time::Duration;

fn configure(c: Criterion) -> Criterion {
    c.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_tie_breaks(c: &mut Criterion) {
    let g = gen::grid2d(300, 300);
    let mut group = c.benchmark_group("ablation/tie_break_grid300");
    for (label, tb) in [
        ("fractional", TieBreak::FractionalShift),
        ("permutation", TieBreak::Permutation),
        ("lexicographic", TieBreak::Lexicographic),
    ] {
        group.bench_function(label, |b| {
            let opts = DecompOptions::new(0.1)
                .with_seed(1)
                .with_tie_break(tb)
                .with_traversal(Traversal::TopDownPar);
            b.iter(|| partition(&g, &opts));
        });
    }
    group.finish();
}

fn bench_shift_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/shift_generation");
    for n in [100_000usize, 1_000_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let opts = DecompOptions::new(0.05).with_seed(3);
            b.iter(|| ExpShifts::generate(n, &opts));
        });
    }
    group.finish();
}

fn bench_delta_widths(c: &mut Criterion) {
    let g = WeightedCsrGraph::unit_weights(&gen::grid2d(120, 120));
    let builder = DecomposerBuilder::new(0.1)
        .seed(2)
        .traversal(Traversal::TopDownPar);
    let mut group = c.benchmark_group("ablation/delta_stepping_width");
    for delta in [0.25, 1.0, 4.0] {
        group.bench_with_input(BenchmarkId::from_parameter(delta), &delta, |b, &delta| {
            b.iter(|| {
                builder
                    .build_weighted(&g)
                    .unwrap()
                    .with_delta(Some(delta))
                    .run()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench_tie_breaks, bench_shift_generation, bench_delta_widths
}
criterion_main!(benches);
