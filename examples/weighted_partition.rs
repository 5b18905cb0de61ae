//! The Section 6 weighted pipeline end-to-end: exponentially shifted
//! *Dijkstra* decomposition of a weighted graph by bucketed Δ-stepping
//! (bit-identical on one thread and on the default pool), the weighted
//! session API, and the weighted applications stacked on top (spanner,
//! low-stretch tree, distance oracle).
//!
//! ```sh
//! cargo run --release --example weighted_partition
//! ```

use mpx::apps::{spanner_weighted, WeightedDistanceOracle};
use mpx::decomp::{partition_weighted, verify_weighted, DecompOptions, DecomposerBuilder};
use mpx::graph::{algo, gen, Vertex, WeightedCsrGraph};
use mpx::runtime::Pool;

/// Deterministic `U[0.25, 4]` edge lengths hashed from seed + endpoints —
/// the same length model `mpx gen --weighted` writes.
fn random_lengths(g: &mpx::graph::CsrGraph, seed: u64) -> WeightedCsrGraph {
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

fn main() {
    let g = random_lengths(&gen::grid2d(100, 100), 99);
    println!(
        "weighted graph: n={}, m={}, total length {:.1}",
        g.num_vertices(),
        g.num_edges(),
        g.total_weight()
    );

    // One-shot call on a 1-thread pool: the same Δ-stepping engine with
    // a single worker.
    let opts = DecompOptions::new(0.1).with_seed(7);
    let d = Pool::new(1).install(|| partition_weighted(&g, &opts));
    println!(
        "\n1 thread:      {} clusters, max radius {:.3}, cut fraction {:.4}",
        d.num_clusters(),
        d.max_radius(),
        d.cut_fraction(&g)
    );
    verify_weighted(&g, &d).expect("Section 6 guarantees");

    // Session API: the same Δ-stepping engine on the default pool through
    // a reusable workspace — same labels, bit for bit.
    let builder = DecomposerBuilder::new(0.1).seed(7);
    let mut session = builder.build_weighted(&g).expect("valid weighted graph");
    let (dp, telemetry) = session.run_instrumented();
    println!(
        "default pool:  {} buckets, {} phases, {} relaxations (Δ = {:.3})",
        telemetry.buckets, telemetry.phases, telemetry.relaxations, telemetry.delta
    );
    assert_eq!(
        d.assignment, dp.assignment,
        "thread counts must agree exactly"
    );
    assert!(d
        .dist_to_center
        .iter()
        .zip(&dp.dist_to_center)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("1 thread and the default pool agree bit-for-bit.");

    // Weighted spanner: cluster shortest-path trees + lightest
    // representative edges, additive surplus ≤ 4·max_radius.
    let s = spanner_weighted(&g, 0.1, 3);
    println!(
        "\nspanner: {} of {} edges kept, additive surplus ≤ {:.3}",
        s.size(),
        g.num_edges(),
        s.stretch_bound
    );

    // Weighted distance oracle: brackets from one quotient Dijkstra.
    let oracle = WeightedDistanceOracle::new(&g, 0.1, 5);
    let source: Vertex = 0;
    let truth = algo::dijkstra(&g, source);
    let bounds = oracle.bounds_from(source);
    for v in [500usize, 5_000, 9_900] {
        let (lo, hi) = bounds[v].expect("connected grid");
        println!(
            "dist({source}, {v}): true {:>8.3}   bracket [{lo:>8.3}, {hi:>8.3}]",
            truth[v]
        );
        assert!(lo <= truth[v] + 1e-9 && truth[v] <= hi + 1e-9);
    }
    println!("\nall weighted guarantees verified.");
}
