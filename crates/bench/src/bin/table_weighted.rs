//! **T12** — Section 6's weighted extension: the shifted-Dijkstra partition
//! should show the same β trade-off shape as the unweighted algorithm
//! (cut fraction ∝ β, radius ∝ 1/β), and the Δ-stepping parallel variant
//! must agree with the sequential Dijkstra one.
//!
//! Usage: `table_weighted [side] [trials]` (defaults 60, 3).

use mpx_bench::{arg_or, f, time, Table};
use mpx_decomp::{partition_weighted, DecompOptions, Traversal};
use mpx_graph::{gen, Vertex, WeightedCsrGraph};
use mpx_par::rng::hash_index;

fn random_lengths(g: &mpx_graph::CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r =
                (hash_index(seed, (u as u64) << 32 | v as u64) >> 11) as f64 / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

fn main() {
    let side: usize = arg_or(1, 60);
    let trials: u64 = arg_or(2, 3);
    println!("# T12: weighted (Section 6) partitions, grid-{side}x{side} with U[0.25,4] lengths");
    let g = random_lengths(&gen::grid2d(side, side), 99);
    let mut table = Table::new(&[
        "beta",
        "clusters",
        "max_radius",
        "cut_frac",
        "cut/beta",
        "dij_secs",
        "dstep_secs",
        "agree",
    ]);
    for &beta in &[0.02, 0.05, 0.1, 0.2, 0.4] {
        let mut clusters = 0.0;
        let mut radius = 0.0;
        let mut cut = 0.0;
        let mut t_dij = 0.0;
        let mut t_ds = 0.0;
        let mut agree = true;
        for seed in 0..trials {
            let opts = DecompOptions::new(beta).with_seed(seed * 3 + 1);
            let seq = opts.clone().with_traversal(Traversal::TopDownSeq);
            let (d, secs) = time(|| partition_weighted(&g, &seq));
            t_dij += secs;
            let par = opts.with_traversal(Traversal::TopDownPar);
            let (dp, secs2) = time(|| partition_weighted(&g, &par));
            t_ds += secs2;
            agree &= d.assignment == dp.assignment;
            clusters += d.num_clusters() as f64;
            radius += d.max_radius();
            cut += d.cut_fraction(&g);
        }
        let t = trials as f64;
        table.row(&[
            format!("{beta}"),
            f(clusters / t, 0),
            f(radius / t, 1),
            f(cut / t, 4),
            f(cut / t / beta, 2),
            f(t_dij / t, 3),
            f(t_ds / t, 3),
            agree.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nSection 6 expectation: same shape as the unweighted tables —\n\
         cut/beta roughly constant, radius ~ 1/beta — and the Δ-stepping\n\
         variant agrees exactly with shifted Dijkstra."
    );
}
