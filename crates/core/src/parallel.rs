//! The paper's Algorithm 1: parallel partition by exponentially shifted
//! BFS — the top-down operating point of the unified engine.
//!
//! Since the engine refactor, this module is a thin wrapper pinning
//! [`Traversal::TopDownPar`]; the wake/expand/finalize round loop itself
//! lives in [`crate::engine`] (one implementation shared with the
//! sequential twin, the direction-optimizing hybrid, and the pure
//! bottom-up strategy). The algorithmic story is unchanged:
//!
//! * **Wake** (round `r`): every not-yet-claimed vertex `u` with
//!   `⌊δ_max − δ_u⌋ = r` bids to start its own cluster.
//! * **Expand**: every frontier vertex bids to claim its unvisited
//!   neighbours on behalf of its cluster.
//! * Bids are resolved by an atomic `fetch_min` on a packed 64-bit key
//!   `(tie_key(cluster), center_id)` — smaller keys win. Because the winner
//!   depends only on key values, never on thread interleaving, the result is
//!   **deterministic**: identical to the sequential twin
//!   ([`crate::partition_sequential`]) and independent of thread count.
//!
//! The integer part of a cluster's shifted distance to a vertex is exactly
//! the round in which the cluster's frontier arrives, so distances come out
//! as `round − wake_round(center)` for free; the fractional parts, constant
//! per cluster, are the tie keys (paper Section 5).
//!
//! Work is `O(n + m)`: every vertex is claimed once and every arc is
//! scanned at most twice (once from each endpoint's settling round).
//! Rounds are bounded by `⌊δ_max⌋ + max cluster radius = O(log n / β)`
//! w.h.p. (Lemma 4.2), which is the paper's depth bound modulo the
//! per-round `O(log n)` PRAM factor.

use crate::decomposition::Decomposition;
use crate::engine;
use crate::options::{DecompOptions, Traversal, DEFAULT_ALPHA};
use crate::shift::ExpShifts;
use mpx_graph::CsrGraph;

pub use crate::engine::PartitionTelemetry;

/// Computes a `(β, O(log n / β))` decomposition with the parallel shifted
/// BFS (paper Algorithm 1, Theorem 1.2).
///
/// Convenience wrapper over the session API: one fresh
/// [`crate::Workspace`], traversal pinned to [`Traversal::TopDownPar`].
/// Sessions serving repeated requests should hold a [`crate::Decomposer`]
/// instead and amortize the scratch.
pub fn partition(g: &CsrGraph, opts: &DecompOptions) -> Decomposition {
    partition_instrumented(g, opts).0
}

/// [`partition`] plus telemetry.
pub fn partition_instrumented(
    g: &CsrGraph,
    opts: &DecompOptions,
) -> (Decomposition, PartitionTelemetry) {
    crate::decomposer::Workspace::new()
        .partition_view(g, &opts.clone().with_traversal(Traversal::TopDownPar))
}

/// Runs the top-down parallel shifted BFS under externally supplied shifts.
/// This is the entry point the tests use to drive all implementations with
/// identical randomness.
pub fn partition_with_shifts(
    g: &CsrGraph,
    shifts: &ExpShifts,
) -> (Decomposition, PartitionTelemetry) {
    engine::partition_view_with_shifts(g, shifts, Traversal::TopDownPar, DEFAULT_ALPHA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TieBreak;
    use mpx_graph::gen;

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    #[test]
    fn covers_every_vertex() {
        let g = gen::grid2d(30, 30);
        let d = partition(&g, &opts(0.2, 1));
        assert_eq!(d.num_vertices(), 900);
        let total: usize = d.cluster_sizes().iter().sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 2);
        let a = partition(&g, &opts(0.1, 5));
        let b = partition(&g, &opts(0.1, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = gen::grid2d(40, 40);
        let o = opts(0.15, 9);
        let single = mpx_par::with_threads(1, || partition(&g, &o));
        let multi = mpx_par::with_threads(8, || partition(&g, &o));
        assert_eq!(single, multi);
    }

    #[test]
    fn different_seeds_differ() {
        let g = gen::grid2d(25, 25);
        let a = partition(&g, &opts(0.2, 1));
        let b = partition(&g, &opts(0.2, 2));
        assert_ne!(a.assignment(), b.assignment());
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (4, 5)]);
        let d = partition(&g, &opts(0.3, 3));
        // Every vertex assigned; clusters never span components.
        for (u, v) in g.edges() {
            let _ = (u, v);
        }
        for v in 0..7u32 {
            let c = d.center_of(v);
            assert!(c < 7);
        }
        // Isolated vertices form singleton clusters.
        assert_eq!(d.center_of(3), 3);
        assert_eq!(d.center_of(6), 6);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let e = CsrGraph::empty(0);
        let d = partition(&e, &opts(0.2, 0));
        assert_eq!(d.num_clusters(), 0);

        let s = CsrGraph::empty(1);
        let d = partition(&s, &opts(0.2, 0));
        assert_eq!(d.num_clusters(), 1);
        assert_eq!(d.center_of(0), 0);
    }

    #[test]
    fn telemetry_work_is_linear() {
        let g = gen::grid2d(50, 50);
        let (_, t) = partition_instrumented(&g, &opts(0.2, 4));
        // Every arc is scanned at most once from each endpoint.
        assert!(t.relaxations <= 2 * g.num_arcs() as u64);
        assert!(t.rounds > 0);
        assert!(t.clusters > 0);
        // The wrapper pins pure top-down.
        assert_eq!(t.bottom_up_rounds, 0);
    }

    #[test]
    fn radius_bounded_by_delta_max() {
        // dist(v, center) ≤ δ_center ≤ δ_max (paper Section 4).
        let g = gen::grid2d(40, 40);
        let o = opts(0.1, 8);
        let shifts = ExpShifts::generate(g.num_vertices(), &o);
        let (d, _) = partition_with_shifts(&g, &shifts);
        assert!(d.max_radius() as f64 <= shifts.delta_max + 1.0);
    }

    #[test]
    fn low_beta_gives_fewer_clusters() {
        let g = gen::grid2d(40, 40);
        let coarse = partition(&g, &opts(0.02, 11)).num_clusters();
        let fine = partition(&g, &opts(0.4, 11)).num_clusters();
        assert!(
            coarse < fine,
            "β=0.02 gave {coarse} clusters, β=0.4 gave {fine}"
        );
    }

    #[test]
    fn all_tie_breaks_produce_valid_partitions() {
        let g = gen::gnm(400, 1200, 6);
        for tb in [
            TieBreak::FractionalShift,
            TieBreak::Permutation,
            TieBreak::Lexicographic,
        ] {
            let d = partition(&g, &opts(0.2, 5).with_tie_break(tb));
            let report = crate::verify::verify_decomposition(&g, &d);
            assert!(report.is_valid(), "{tb:?}: {report:?}");
        }
    }

    use mpx_graph::CsrGraph;
}
