//! **T7** — thread scaling of the one-BFS partition (the paper's whole
//! point: no sequential ball-carving chain, so the single BFS
//! parallelizes).
//!
//! Level-synchronous BFS parallelizes over the frontier, so scaling needs
//! fat frontiers: we use a dense power-law graph (millions of edges, tens
//! of rounds). High-diameter meshes keep frontiers thin — rounds dominate
//! and speedup saturates early; the second table shows that honestly.
//!
//! Usage: `table_scaling [rmat_scale] [reps]` (defaults 19, 3).

use mpx_bench::{arg_or, f, time, Table};
use mpx_decomp::{partition, DecompOptions, Traversal};
use mpx_graph::gen;
use mpx_runtime::Pool;

fn thread_levels() -> Vec<usize> {
    let max_t = mpx_runtime::default_threads();
    let mut levels = Vec::new();
    let mut t = 1usize;
    while t < max_t {
        levels.push(t);
        t *= 2;
    }
    levels.push(max_t);
    levels
}

fn scaling_table(name: &str, g: &mpx_graph::CsrGraph, beta: f64, reps: usize) {
    println!(
        "\n## {name}: n={}, m={}, beta={beta} (best of {reps})",
        g.num_vertices(),
        g.num_edges()
    );
    let opts = |t: Traversal| DecompOptions::new(beta).with_seed(11).with_traversal(t);
    let mut table = Table::new(&["config", "seconds", "speedup vs seq"]);
    let seq = opts(Traversal::TopDownSeq);
    let mut best_seq = f64::INFINITY;
    for _ in 0..reps {
        let (_, secs) = time(|| partition(g, &seq));
        best_seq = best_seq.min(secs);
    }
    table.row(&["sequential".into(), f(best_seq, 3), f(1.0, 2)]);
    for (label, strategy) in [
        ("parallel", Traversal::TopDownPar),
        ("hybrid", Traversal::Auto),
    ] {
        let o = opts(strategy);
        for &t in &thread_levels() {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let (_, secs) = time(|| Pool::new(t).install(|| partition(g, &o)));
                best = best.min(secs);
            }
            table.row(&[format!("{label} x{t}"), f(best, 3), f(best_seq / best, 2)]);
        }
    }
    table.print();
}

fn main() {
    let scale: u32 = arg_or(1, 19);
    let reps: usize = arg_or(2, 3);
    println!("# T7: thread scaling of Partition");

    // Fat-frontier workload: dense RMAT (low diameter, huge frontiers).
    let rmat = gen::rmat(scale, 16 << scale, 0.57, 0.19, 0.19, 3);
    scaling_table(&format!("rmat-s{scale}-ef16"), &rmat, 0.5, reps);

    // Thin-frontier workload: a mesh; rounds dominate, scaling saturates.
    let grid = gen::grid2d(1000, 1000);
    scaling_table("grid-1000x1000", &grid, 0.05, reps);

    println!(
        "\nExpectation: near-linear gains on the fat-frontier graph until\n\
         memory bandwidth saturates; limited gains on the mesh, whose\n\
         O(log n / beta) rounds keep frontiers thin (this is the PRAM\n\
         depth/work distinction, not a defect of the algorithm)."
    );
}
