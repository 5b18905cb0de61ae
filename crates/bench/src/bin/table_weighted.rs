//! **T12** — Section 6's weighted extension: the shifted-Dijkstra partition
//! should show the same β trade-off shape as the unweighted algorithm
//! (cut fraction ∝ β, radius ∝ 1/β), and the Δ-stepping engine must agree
//! with the per-center reference oracle. Δ-stepping is timed on a 1-thread
//! pool and on the default pool.
//!
//! Usage: `table_weighted [side] [trials]` (defaults 60, 3).

use mpx_bench::{arg_or, f, time, Table};
use mpx_decomp::{partition_weighted, partition_weighted_exact, DecompOptions};
use mpx_graph::{gen, Vertex, WeightedCsrGraph};
use mpx_par::rng::hash_index;
use mpx_runtime::Pool;

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
    let one_thread = Pool::new(1);
    let mut table = Table::new(&[
        "beta",
        "clusters",
        "max_radius",
        "cut_frac",
        "cut/beta",
        "secs_1t",
        "secs",
        "agree",
    ]);
    for &beta in &[0.02, 0.05, 0.1, 0.2, 0.4] {
        let mut clusters = 0.0;
        let mut radius = 0.0;
        let mut cut = 0.0;
        let mut t_one = 0.0;
        let mut t_pool = 0.0;
        let mut agree = true;
        for seed in 0..trials {
            let opts = DecompOptions::new(beta).with_seed(seed * 3 + 1);
            let (d, secs) = time(|| one_thread.install(|| partition_weighted(&g, &opts)));
            t_one += secs;
            let (dp, secs2) = time(|| partition_weighted(&g, &opts));
            t_pool += secs2;
            agree &= d == dp && d == partition_weighted_exact(&g, &opts);
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
            f(t_one / t, 3),
            f(t_pool / t, 3),
            agree.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nSection 6 expectation: same shape as the unweighted tables —\n\
         cut/beta roughly constant, radius ~ 1/beta — and the Δ-stepping\n\
         engine agrees exactly with the per-center reference oracle."
    );
}
