//! The weighted (Section 6) engine equivalence sweep: bucketed
//! Δ-stepping ≡ the per-root exact reference, bit for bit, across
//! traversal strategies, bucket widths, graph families, pool sizes, and
//! in-memory vs memory-mapped weighted snapshots. The CI matrix also
//! reruns this file under `MPX_THREADS=1` and `MPX_THREADS=4`.

use mpx::decomp::wengine::partition_weighted_view_reusing;
use mpx::decomp::{
    compute_parents_weighted, partition, partition_weighted, partition_weighted_exact,
    verify_weighted, DecompOptions, DecomposerBuilder, ExpShifts, Traversal, WeightedDecomposition,
    WeightedScratch,
};
use mpx::graph::{gen, snapshot, CsrGraph, MappedWeightedCsr, Vertex, WeightedCsrGraph};
use mpx::runtime::Pool;
use proptest::prelude::*;

/// Deterministic `U[0.25, 4]` lengths hashed from seed + endpoints — the
/// same model `mpx gen --weighted` writes.
fn random_lengths(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r = (mpx::par::rng::hash_index(seed, ((u as u64) << 32) | v as u64) >> 11) as f64
                / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

const STRATEGIES: [Traversal; 2] = [Traversal::Auto, Traversal::TopDownPar];

/// One Δ-stepping run with bucket width `delta` (`None` = the width the
/// sessions use, the mean length).
fn delta_stepping(
    g: &WeightedCsrGraph,
    opts: &DecompOptions,
    delta: Option<f64>,
) -> WeightedDecomposition {
    let shifts = ExpShifts::generate(g.num_vertices(), opts);
    partition_weighted_view_reusing(
        g,
        &shifts,
        opts.traversal,
        delta,
        opts.determinism,
        &mut WeightedScratch::new(),
    )
    .0
}

fn assert_bit_identical(a: &WeightedDecomposition, b: &WeightedDecomposition, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignments differ");
    assert_eq!(a.centers, b.centers, "{what}: centers differ");
    assert_eq!(
        a.dist_to_center.len(),
        b.dist_to_center.len(),
        "{what}: dist length"
    );
    for (v, (x, y)) in a.dist_to_center.iter().zip(&b.dist_to_center).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: dist[{v}] {x} vs {y} not bit-identical"
        );
    }
    assert_eq!(a.arrival.len(), b.arrival.len(), "{what}: arrival length");
    for (v, (x, y)) in a.arrival.iter().zip(&b.arrival).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: arrival[{v}] {x} vs {y} not bit-identical"
        );
    }
}

/// Every traversal strategy, on every graph family and pool size, against
/// the exact per-root reference: one engine-visible answer. Δ-stepping
/// only materializes requests that beat their target's current label, so
/// it generates at most about one request per edge, not one per arc.
#[test]
fn all_strategies_match_exact_reference_across_families() {
    let families: Vec<(&str, CsrGraph)> = vec![
        ("grid", gen::grid2d(14, 14)),
        ("gnm", gen::gnm(180, 700, 11)),
        ("rmat", gen::rmat(8, 3 << 8, 0.57, 0.19, 0.19, 4)),
        ("path", gen::path(120)),
        ("sbm", gen::sbm(160, 4, 0.1, 0.005, 2)),
    ];
    for (name, skeleton) in &families {
        let g = random_lengths(skeleton, 17);
        let m = g.num_edges() as u64;
        let opts = DecompOptions::new(0.15).with_seed(5);
        let exact = partition_weighted_exact(&g, &opts);
        verify_weighted(&g, &exact).unwrap_or_else(|e| panic!("{name}: exact invalid: {e}"));
        for threads in [1, 2, 8] {
            for strategy in STRATEGIES {
                let what = format!("{name}/{}/{threads} threads", strategy.as_str());
                let (d, telemetry) = Pool::new(threads).install(|| {
                    DecomposerBuilder::new(0.15)
                        .seed(5)
                        .traversal(strategy)
                        .build_weighted(&g)
                        .expect("valid weighted graph")
                        .run_instrumented()
                });
                assert_bit_identical(&exact, &d, &what);
                assert!(
                    telemetry.relaxations <= m,
                    "{what}: {} requests for {m} edges",
                    telemetry.relaxations
                );
            }
        }
    }
}

/// The Δ bucket width is a pure wall-clock knob: any positive width gives
/// the same labels and distances as the exact reference.
#[test]
fn bucket_width_never_changes_the_answer() {
    let g = random_lengths(&gen::gnm(200, 800, 3), 23);
    let opts = DecompOptions::new(0.2).with_seed(9);
    let reference = partition_weighted_exact(&g, &opts);
    for delta in [None, Some(1e-9), Some(0.1), Some(1.0), Some(7.5), Some(1e6)] {
        let d = delta_stepping(&g, &opts, delta);
        assert_bit_identical(&reference, &d, &format!("delta={delta:?}"));
    }
}

/// Tiny lengths, or a tiny β, make `δ_max` huge against the mean length.
/// Δ-stepping's bucket width is at least `δ_max / n`, so it holds at most
/// `n + 1` buckets instead of one per mean length of start time, and its
/// labels stay bit-identical to the exact reference. The outputs pass
/// the verifier and yield parents even where start times near `1e12`
/// (the second of two components at β = 1e-12) leave `dist_to_center`
/// too coarse to tie with a relative tolerance.
#[test]
fn tiny_lengths_and_tiny_beta_match_dijkstra() {
    let skeleton = gen::grid2d(20, 20);
    let scaled = |factor: f64| {
        let edges: Vec<(Vertex, Vertex, f64)> = random_lengths(&skeleton, 3)
            .edges()
            .map(|(u, v, w)| (u, v, w * factor))
            .collect();
        WeightedCsrGraph::from_edges(skeleton.num_vertices(), &edges)
    };
    // Two disjoint copies of `mpx gen grid:20 g.txt 1 --weighted`.
    let two_components = {
        let n = skeleton.num_vertices() as Vertex;
        let edges: Vec<(Vertex, Vertex, f64)> = random_lengths(&skeleton, 1)
            .edges()
            .flat_map(|(u, v, w)| [(u, v, w), (u + n, v + n, w)])
            .collect();
        WeightedCsrGraph::from_edges(2 * n as usize, &edges)
    };
    let cases = [
        ("lengths x1e-8", scaled(1e-8), 0.1),
        (
            "beta 1e-12",
            WeightedCsrGraph::unit_weights(&skeleton),
            1e-12,
        ),
        ("two components, beta 1e-12", two_components, 1e-12),
    ];
    for (what, g, beta) in &cases {
        let opts = DecompOptions::new(*beta).with_seed(1);
        let reference = partition_weighted_exact(g, &opts);
        assert_bit_identical(&reference, &delta_stepping(g, &opts, None), what);
        verify_weighted(g, &reference).unwrap_or_else(|e| panic!("{what}: {e}"));
        let parents = compute_parents_weighted(g, &reference);
        assert_eq!(parents.len(), g.num_vertices(), "{what}");
    }
}

/// A weighted snapshot fed back through the engine — memory-mapped,
/// traversed zero-copy — answers bit-identically to the in-memory graph
/// it was written from, and the one-shot `partition_weighted` over either
/// source equals the session run, under every strategy.
#[test]
fn mmap_snapshot_matches_in_memory_graph() {
    let g = random_lengths(&gen::gnm(250, 900, 6), 31);
    let mut path = std::env::temp_dir();
    path.push(format!("mpx-wtest-{}.mpx", std::process::id()));
    snapshot::write_weighted_snapshot(&g, &path).expect("write snapshot");
    let mapped = MappedWeightedCsr::open(&path).expect("map snapshot");
    for strategy in STRATEGIES {
        let builder = DecomposerBuilder::new(0.12).seed(13).traversal(strategy);
        let owned = builder.build_weighted(&g).expect("owned session").run();
        let zero_copy = builder.build_weighted(&mapped).expect("mmap session").run();
        assert_bit_identical(&owned, &zero_copy, strategy.as_str());
        verify_weighted(&mapped, &zero_copy).expect("valid over the mapping");
        let opts = builder.options().unwrap();
        let what = format!("one-shot {}", strategy.as_str());
        assert_bit_identical(&owned, &partition_weighted(&g, &opts), &what);
        assert_bit_identical(&owned, &partition_weighted(&mapped, &opts), &what);
    }
    std::fs::remove_file(&path).ok();
}

/// Unit weights collapse the weighted problem onto the unweighted one:
/// the weighted engine must then reproduce the unweighted engine's
/// clustering exactly.
#[test]
fn unit_weights_reproduce_the_unweighted_engine() {
    for seed in [1u64, 5, 12] {
        let skeleton = gen::gnm(220, 850, seed);
        let g = WeightedCsrGraph::unit_weights(&skeleton);
        let opts = DecompOptions::new(0.25).with_seed(seed);
        let unweighted = partition(&skeleton, &opts);
        let weighted = partition_weighted(&g, &opts);
        assert_eq!(
            weighted.assignment,
            unweighted.assignment().to_vec(),
            "seed {seed}: unit-weight clustering diverged from the unweighted engine"
        );
    }
}

/// Strategy: an arbitrary simple weighted graph — random edge records
/// (dedup'd by the builder) with positive quarter-integer lengths.
fn arb_weighted_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = WeightedCsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex, 1u32..40), 0..max_m).prop_map(
            move |records| {
                let edges: Vec<(Vertex, Vertex, f64)> = records
                    .into_iter()
                    .map(|(u, v, k)| (u, v, k as f64 * 0.25))
                    .collect();
                WeightedCsrGraph::from_edges(n, &edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On *any* weighted graph, β, seed, and bucket width: Δ-stepping at
    /// that width, the one-shot call, and the exact reference agree bit
    /// for bit, and the result passes the Section 6 verifier.
    #[test]
    fn engines_agree_on_arbitrary_weighted_graphs(
        g in arb_weighted_graph(90, 280),
        beta in 0.02f64..0.9,
        seed in 0u64..1_000_000,
        delta_k in 0u32..5,
    ) {
        // 0 = engine-chosen width; 1..4 = explicit widths spanning
        // under- and over-bucketed regimes.
        let delta = (delta_k > 0).then_some(delta_k as f64 * delta_k as f64 * 0.75);
        let opts = DecompOptions::new(beta).with_seed(seed);
        let dij = partition_weighted(&g, &opts);
        let ds = delta_stepping(&g, &opts, delta);
        let exact = partition_weighted_exact(&g, &opts);
        prop_assert_eq!(&dij.assignment, &ds.assignment);
        prop_assert_eq!(&dij.assignment, &exact.assignment);
        for ((a, b), c) in dij
            .dist_to_center
            .iter()
            .zip(&ds.dist_to_center)
            .zip(&exact.dist_to_center)
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
        prop_assert!(verify_weighted(&g, &dij).is_ok());
    }
}
