//! **T4** — Theorem 1.2 depth/work proxies: the number of level-synchronous
//! BFS rounds should scale like `log n / β` (the PRAM depth bound divided
//! by the per-round `O(log n)` factor), and the number of edge relaxations
//! should stay `O(m)` — independent of β.
//!
//! Usage: `table_depth_work [trials]` (default 3).

use mpx_bench::{arg_or, f, Table};
use mpx_decomp::{DecompOptions, PartitionTelemetry, Traversal, Workspace};
use mpx_graph::{gen, CsrGraph};

/// Telemetry of one top-down run (the relaxation counts are those of
/// pure top-down rounds).
fn telemetry(g: &CsrGraph, beta: f64, seed: u64) -> PartitionTelemetry {
    let opts = DecompOptions::new(beta)
        .with_seed(seed)
        .with_traversal(Traversal::TopDownPar);
    Workspace::new().partition_view(g, &opts).1
}

fn main() {
    let trials: u64 = arg_or(1, 3);
    println!("# T4: depth & work proxies (avg of {trials} seeds)");
    let mut table = Table::new(&[
        "graph",
        "n",
        "m",
        "beta",
        "rounds",
        "rounds*beta/ln(n)",
        "relaxations",
        "relax/m",
    ]);
    let sides = [100usize, 200, 400];
    let betas = [0.02f64, 0.1, 0.4];
    for &side in &sides {
        let g = gen::grid2d(side, side);
        let ln_n = (g.num_vertices() as f64).ln();
        for &beta in &betas {
            let mut rounds = 0.0;
            let mut relax = 0.0;
            for seed in 0..trials {
                let t = telemetry(&g, beta, seed + 5);
                rounds += t.rounds as f64;
                relax += t.relaxations as f64;
            }
            let t = trials as f64;
            table.row(&[
                format!("grid-{side}x{side}"),
                g.num_vertices().to_string(),
                g.num_edges().to_string(),
                format!("{beta}"),
                f(rounds / t, 0),
                f((rounds / t) * beta / ln_n, 2),
                f(relax / t, 0),
                f(relax / t / g.num_edges() as f64, 2),
            ]);
        }
    }
    // A skewed low-diameter graph for contrast.
    let g = gen::rmat(16, 8 << 16, 0.57, 0.19, 0.19, 3);
    let ln_n = (g.num_vertices() as f64).ln();
    for &beta in &betas {
        let t = telemetry(&g, beta, 1);
        table.row(&[
            "rmat-s16".into(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            format!("{beta}"),
            t.rounds.to_string(),
            f(t.rounds as f64 * beta / ln_n, 2),
            t.relaxations.to_string(),
            f(t.relaxations as f64 / g.num_edges() as f64, 2),
        ]);
    }
    table.print();
    println!(
        "\nTheorem 1.2: rounds*beta/ln(n) should be O(1) across n and beta\n\
         (depth O(log n/beta) per BFS); relax/m should be <= 2 (work O(m))."
    );
}
