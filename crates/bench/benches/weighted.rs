//! Criterion bench: the weighted (Section 6) engine — sequential
//! multi-source Dijkstra vs bucketed Δ-stepping, the Δ bucket-width
//! sensitivity, session amortization, and the weighted apps built on top.

use criterion::{criterion_group, criterion_main, Criterion};
use mpx_decomp::{partition_weighted, DecompOptions, DecomposerBuilder, Traversal};
use mpx_graph::{gen, CsrGraph, Vertex, WeightedCsrGraph};
use mpx_par::rng::hash_index;
use std::time::Duration;

fn configure(c: Criterion) -> Criterion {
    c.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

/// Deterministic `U[0.25, 4]` lengths keyed by `(seed, u, v)` — the same
/// model `mpx bench --weighted` and the T12 table use.
fn random_lengths(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r = (hash_index(seed, ((u as u64) << 32) | v as u64) >> 11) as f64
                / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

/// Sequential Dijkstra vs Δ-stepping on the graph families the unweighted
/// benches use. The outputs are bit-identical (asserted in the test
/// suites); this group is the wall-clock side of that equivalence.
fn bench_engines(c: &mut Criterion) {
    let graphs = vec![
        ("grid200", random_lengths(&gen::grid2d(200, 200), 9)),
        (
            "rmat-s14",
            random_lengths(&gen::rmat(14, 8 << 14, 0.57, 0.19, 0.19, 1), 9),
        ),
    ];
    for (name, g) in &graphs {
        let opts = DecompOptions::new(0.1).with_seed(1);
        let mut group = c.benchmark_group(format!("weighted/engines_{name}"));
        for (label, strategy) in [
            ("dijkstra_seq", Traversal::TopDownSeq),
            ("delta_stepping", Traversal::TopDownPar),
        ] {
            let opts = opts.clone().with_traversal(strategy);
            group.bench_function(label, |b| b.iter(|| partition_weighted(g, &opts)));
        }
        group.finish();
    }
}

/// Δ sensitivity: bucket width is a pure wall-clock knob (labels are
/// invariant). `None` is the average-weight heuristic the engine defaults
/// to; the explicit points bracket it from both sides.
fn bench_delta_sweep(c: &mut Criterion) {
    let g = random_lengths(&gen::rmat(13, 8 << 13, 0.57, 0.19, 0.19, 2), 5);
    let builder = DecomposerBuilder::new(0.2)
        .seed(1)
        .traversal(Traversal::TopDownPar);
    let mut group = c.benchmark_group("weighted/delta_rmat-s13");
    for delta in [None, Some(0.5), Some(2.0), Some(8.0)] {
        let label = delta.map_or("auto".to_string(), |d: f64| d.to_string());
        group.bench_function(label.as_str(), |b| {
            b.iter(|| builder.build_weighted(&g).unwrap().with_delta(delta).run());
        });
    }
    group.finish();
}

/// Session reuse for the weighted engine: fresh workspace per run vs one
/// `WeightedDecomposer` serving every seed (the weighted twin of
/// `benches/session.rs`).
fn bench_session_amortization(c: &mut Criterion) {
    let g = random_lengths(&gen::grid2d(150, 150), 3);
    let seeds: Vec<u64> = (0..8).collect();
    let builder = DecomposerBuilder::new(0.1)
        .seed(1)
        .traversal(Traversal::TopDownPar);
    let mut group = c.benchmark_group("weighted/session_grid150");
    group.bench_function("fresh_per_run", |b| {
        b.iter(|| {
            seeds
                .iter()
                .map(|&s| {
                    let mut session = builder.build_weighted(&g).unwrap();
                    session.run_with_seed(s)
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("amortized_session", |b| {
        b.iter(|| {
            let mut session = builder.build_weighted(&g).unwrap();
            session.run_many(&seeds)
        })
    });
    group.finish();
}

/// The weighted apps end-to-end: spanner, low-stretch tree, and distance
/// oracle on one mid-size weighted RMAT.
fn bench_weighted_apps(c: &mut Criterion) {
    let g = random_lengths(&gen::rmat(12, 8 << 12, 0.57, 0.19, 0.19, 4), 7);
    let mut group = c.benchmark_group("weighted/apps_rmat-s12");
    group.bench_function("spanner", |b| {
        b.iter(|| mpx_apps::spanner_weighted(&g, 0.2, 1))
    });
    group.bench_function("low_stretch_tree", |b| {
        b.iter(|| mpx_apps::low_stretch_tree_weighted(&g, 0.1, 1))
    });
    group.bench_function("distance_oracle_build", |b| {
        b.iter(|| mpx_apps::WeightedDistanceOracle::new(&g, 0.1, 1))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench_engines, bench_delta_sweep, bench_session_amortization, bench_weighted_apps
}
criterion_main!(benches);
