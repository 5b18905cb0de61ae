//! Quickstart: one front door — build a `Decomposer` session, run it,
//! inspect the guarantees, then serve repeated requests from it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mpx::graph::gen;
use mpx::prelude::*;

fn main() {
    // A 200×200 grid — the paper's Figure 1 workload, scaled down.
    let g = gen::grid2d(200, 200);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Configure once (typed validation), bind the graph, run.
    let beta = 0.05;
    let mut session = DecomposerBuilder::new(beta)
        .seed(42)
        .build(&g)
        .expect("valid configuration");
    let d = session.run();

    // Inspect the (β, O(log n/β)) guarantees.
    println!("clusters: {}", d.num_clusters());
    println!(
        "max radius: {} (ln(n)/β = {:.0})",
        d.max_radius(),
        (g.num_vertices() as f64).ln() / beta
    );
    println!(
        "cut edges: {} of {} ({:.2}% — β = {:.0}%)",
        d.cut_edges(&g),
        g.num_edges(),
        100.0 * d.cut_fraction(&g),
        100.0 * beta
    );

    // Every piece is connected with exact intra-cluster distances — the
    // strong-diameter property of Definition 1.1 / Lemma 4.1. The verifier
    // re-derives all of it from scratch:
    let report = verify_decomposition(&g, &d);
    assert!(report.is_valid(), "{:?}", report.errors);
    println!("verified: partition ok, strong diameter ok, Lemma 4.1 ok");

    // The hot path of spanner/hopset pipelines: many runs over one graph
    // with fresh shifts. The session reuses its workspace — no per-run
    // arena allocation — and each run is bit-identical to an independent
    // fresh run with that seed.
    let seeds: Vec<u64> = (0..8).collect();
    let runs = session.run_many(&seeds);
    let best = runs
        .iter()
        .min_by_key(|d| d.cut_edges(&g))
        .expect("non-empty batch");
    println!(
        "best of {} runs: {} cut edges ({} clusters); workspace reused {} times",
        runs.len(),
        best.cut_edges(&g),
        best.num_clusters(),
        session.workspace().runs(),
    );

    // For a single decomposition, the one-shot call runs the same engine
    // on a fresh workspace; both traversal strategies return identical
    // labels.
    for strategy in [Traversal::Auto, Traversal::TopDownPar] {
        let opts = DecompOptions::new(beta)
            .with_seed(42)
            .with_traversal(strategy);
        assert_eq!(d, partition(&g, &opts), "{strategy:?}");
    }
    println!("one-shot partition: identical output under both strategies");
}
