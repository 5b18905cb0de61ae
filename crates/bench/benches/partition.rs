//! Criterion bench: the partition routine across β, graph families, and
//! against the baselines (wall-clock side of tables T1/T2/T6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpx_decomp::{partition, DecompOptions, DecomposerBuilder, Determinism, Traversal};
use mpx_graph::{gen, InducedView};
use std::time::Duration;

fn configure(c: Criterion) -> Criterion {
    c.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_beta_sweep(c: &mut Criterion) {
    let g = gen::grid2d(300, 300);
    let mut group = c.benchmark_group("partition/beta_grid300");
    for beta in [0.01, 0.05, 0.2] {
        group.bench_with_input(BenchmarkId::from_parameter(beta), &beta, |b, &beta| {
            let opts = DecompOptions::new(beta)
                .with_seed(1)
                .with_traversal(Traversal::TopDownPar);
            b.iter(|| partition(&g, &opts));
        });
    }
    group.finish();
}

fn bench_graph_families(c: &mut Criterion) {
    let graphs = vec![
        ("grid300", gen::grid2d(300, 300)),
        ("rmat-s16", gen::rmat(16, 8 << 16, 0.57, 0.19, 0.19, 1)),
        ("reg-n90k-d4", gen::random_regular(90_000, 4, 2)),
    ];
    let mut group = c.benchmark_group("partition/families");
    for (name, g) in &graphs {
        group.bench_function(*name, |b| {
            let opts = DecompOptions::new(0.1)
                .with_seed(1)
                .with_traversal(Traversal::TopDownPar);
            b.iter(|| partition(g, &opts));
        });
    }
    group.finish();
}

fn bench_vs_baselines(c: &mut Criterion) {
    let g = gen::grid2d(200, 200);
    let opts = DecompOptions::new(0.1).with_seed(1);
    let mut group = c.benchmark_group("partition/vs_baselines_grid200");
    for (name, strategy) in [
        ("mpx_parallel", Traversal::TopDownPar),
        ("mpx_sequential", Traversal::TopDownSeq),
        ("mpx_hybrid", Traversal::Auto),
    ] {
        let opts = opts.clone().with_traversal(strategy);
        group.bench_function(name, |b| b.iter(|| partition(&g, &opts)));
    }
    group.bench_function("ball_growing", |b| {
        b.iter(|| mpx_baselines::ball_growing(&g, 0.1))
    });
    group.bench_function("iterative_bgkmpt", |b| {
        b.iter(|| mpx_baselines::iterative_ldd(&g, 0.1, 1))
    });
    group.finish();
}

/// One engine, four strategies: same output, different wall-clock profile.
/// The interesting comparisons: `auto` vs `parallel` on the low-diameter
/// RMAT (where bottom-up rounds pay) and on the grid (where they never
/// trigger and auto must not lose).
fn bench_traversal_strategies(c: &mut Criterion) {
    let graphs = vec![
        ("grid200-b0.1", gen::grid2d(200, 200), 0.1),
        (
            "rmat-s14-b0.3",
            gen::rmat(14, 8 << 14, 0.57, 0.19, 0.19, 1),
            0.3,
        ),
    ];
    for (name, g, beta) in &graphs {
        let mut group = c.benchmark_group(format!("partition/strategies_{name}"));
        for strategy in [
            Traversal::Auto,
            Traversal::TopDownPar,
            Traversal::TopDownSeq,
            Traversal::BottomUp,
        ] {
            let opts = DecompOptions::new(*beta)
                .with_seed(1)
                .with_traversal(strategy);
            group.bench_function(strategy.as_str(), |b| b.iter(|| partition(g, &opts)));
        }
        group.finish();
    }
}

/// BitExact's claim/settle protocol vs Fast's single-shot CAS claiming +
/// work-stealing scheduler (the `Determinism` knob), measured through a
/// reused session so the delta is pure protocol cost, not workspace
/// allocation. Fast labels are schedule-dependent — wall-clock is the
/// whole point of this group (invariants are pinned by
/// `tests/fast_mode.rs`).
fn bench_determinism_modes(c: &mut Criterion) {
    let graphs = vec![
        (
            "rmat-s14-b0.1",
            gen::rmat(14, 8 << 14, 0.57, 0.19, 0.19, 1),
            0.1,
        ),
        ("gnm-100k-b0.1", gen::gnm(100_000, 400_000, 1), 0.1),
    ];
    for (name, g, beta) in &graphs {
        let mut group = c.benchmark_group(format!("partition/determinism_{name}"));
        for mode in [Determinism::BitExact, Determinism::Fast] {
            let mut session = DecomposerBuilder::new(*beta)
                .seed(1)
                .determinism(mode)
                .build(g)
                .unwrap();
            group.bench_function(mode.as_str(), |b| b.iter(|| session.run()));
        }
        group.finish();
    }
}

/// Zero-copy views vs materialized subgraphs: partitioning ~70% of a graph
/// through an `InducedView` against paying `induced_subgraph` + partition.
/// The view skips the CSR rebuild but filters neighbors on the fly; this
/// group is the honest accounting of that trade (see the HST notes in
/// `benches/apps.rs` for the recursive, repeated-split case where the view
/// wins outright).
fn bench_view_vs_materialized(c: &mut Criterion) {
    let graphs = vec![
        ("grid200", gen::grid2d(200, 200)),
        ("rmat-s13", gen::rmat(13, 8 << 13, 0.57, 0.19, 0.19, 2)),
    ];
    for (name, g) in &graphs {
        let keep: Vec<bool> = (0..g.num_vertices() as u64)
            .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % 10 < 7)
            .collect();
        let opts = DecompOptions::new(0.2).with_seed(3);
        let top_down = opts.clone().with_traversal(Traversal::TopDownPar);
        let mut group = c.benchmark_group(format!("partition/view_vs_csr_{name}"));
        group.bench_function("induced_view", |b| {
            b.iter(|| {
                let view = InducedView::from_mask(g, &keep);
                partition(&view, &opts)
            })
        });
        group.bench_function("materialize_then_partition", |b| {
            b.iter(|| {
                let (sub, _) = g.induced_subgraph(&keep);
                partition(&sub, &top_down)
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench_beta_sweep, bench_graph_families, bench_vs_baselines,
        bench_traversal_strategies, bench_determinism_modes,
        bench_view_vs_materialized
}
criterion_main!(benches);
