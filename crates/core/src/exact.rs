//! Literal implementation of the paper's Algorithm 2, used as a testing
//! oracle.
//!
//! "Compute S_u by assigning each vertex v to the vertex that minimizes
//! dist_{−δ}(u, v), breaking ties lexicographically."
//!
//! We evaluate this definition directly: one BFS per candidate center
//! (`O(n·m)` total) and an argmin per vertex under the same
//! `(arrival_round, tie_key, center_id)` comparator the BFS implementations
//! use. Minimizing `(⌊start_u⌋ + dist, frac(start_u))` lexicographically is
//! the same as minimizing the real number `start_u + dist = dist − δ_u +
//! δ_max`, so up to the 32-bit quantization of the fractional part this *is*
//! the paper's real-valued rule; quantization ties fall back to center id,
//! the "rounding" case the paper's Lemma 4.1 explicitly covers.
//!
//! Only use on small graphs.

use crate::decomposition::Decomposition;
use crate::engine::compute_parents_view;
use crate::options::DecompOptions;
use crate::shift::ExpShifts;
use mpx_graph::algo::bfs;
use mpx_graph::{CsrGraph, Dist, Vertex, INFINITY, NO_VERTEX};

/// Algorithm 2 evaluated literally. `O(n·m)` — testing oracle only.
pub fn partition_exact(g: &CsrGraph, opts: &DecompOptions) -> Decomposition {
    let shifts = ExpShifts::generate(g.num_vertices(), opts);
    partition_exact_with_shifts(g, &shifts)
}

/// Algorithm 2 under externally supplied shifts.
pub fn partition_exact_with_shifts(g: &CsrGraph, shifts: &ExpShifts) -> Decomposition {
    let n = g.num_vertices();
    assert_eq!(shifts.len(), n);
    if n == 0 {
        return Decomposition::from_raw(Vec::new(), Vec::new(), Vec::new());
    }

    // best[v] = (arrival_round, tie_key, center, dist) of the minimizer.
    let mut best: Vec<(u32, u32, Vertex, Dist)> = vec![(u32::MAX, u32::MAX, NO_VERTEX, 0); n];
    for u in 0..n as Vertex {
        let d = bfs(g, u);
        let wake = shifts.start_round[u as usize];
        let key = shifts.frac_key[u as usize];
        for v in 0..n {
            if d[v] == INFINITY {
                continue;
            }
            let arrival = wake + d[v];
            let cand = (arrival, key, u, d[v]);
            let cur = best[v];
            if (cand.0, cand.1, cand.2) < (cur.0, cur.1, cur.2) {
                best[v] = cand;
            }
        }
    }

    let assignment: Vec<Vertex> = best.iter().map(|b| b.2).collect();
    let dist: Vec<Dist> = best.iter().map(|b| b.3).collect();
    let parent = compute_parents_view(g, &assignment, &dist);
    Decomposition::from_raw(assignment, dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::partition_view_with_shifts;
    use crate::options::TieBreak;
    use crate::options::{Traversal, DEFAULT_ALPHA};
    use mpx_graph::gen;

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    /// The central equivalence theorem of the implementation: the BFS-based
    /// Algorithm 1 realizes the argmin-based Algorithm 2 exactly.
    #[test]
    fn exact_matches_bfs_implementations_on_random_graphs() {
        for seed in 0..15u64 {
            let g = gen::gnm(60, 150, seed);
            let o = opts(0.05 + 0.03 * (seed % 8) as f64, seed * 7 + 1);
            let shifts = ExpShifts::generate(g.num_vertices(), &o);
            let exact = partition_exact_with_shifts(&g, &shifts);
            let (par, _) =
                partition_view_with_shifts(&g, &shifts, Traversal::TopDownPar, DEFAULT_ALPHA);
            let (auto, _) = partition_view_with_shifts(&g, &shifts, Traversal::Auto, DEFAULT_ALPHA);
            assert_eq!(exact, par, "exact vs parallel, seed {seed}");
            assert_eq!(exact, auto, "exact vs auto, seed {seed}");
        }
    }

    #[test]
    fn exact_matches_bfs_on_structured_graphs() {
        let graphs = vec![
            gen::grid2d(8, 9),
            gen::cycle(30),
            gen::complete(12),
            gen::star(25),
            gen::hypercube(5),
            gen::path(40),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            let o = opts(0.2, i as u64 + 100);
            let shifts = ExpShifts::generate(g.num_vertices(), &o);
            let exact = partition_exact_with_shifts(&g, &shifts);
            let (par, _) =
                partition_view_with_shifts(&g, &shifts, Traversal::TopDownPar, DEFAULT_ALPHA);
            assert_eq!(exact, par, "graph #{i}");
        }
    }

    #[test]
    fn exact_matches_bfs_under_all_tie_breaks() {
        let g = gen::gnm(50, 120, 9);
        for tb in [
            TieBreak::FractionalShift,
            TieBreak::Permutation,
            TieBreak::Lexicographic,
        ] {
            let o = opts(0.15, 33).with_tie_break(tb);
            let shifts = ExpShifts::generate(g.num_vertices(), &o);
            let exact = partition_exact_with_shifts(&g, &shifts);
            let (par, _) =
                partition_view_with_shifts(&g, &shifts, Traversal::TopDownPar, DEFAULT_ALPHA);
            assert_eq!(exact, par, "{tb:?}");
        }
    }

    #[test]
    fn exact_on_disconnected_graph() {
        let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (5, 6)]);
        let o = opts(0.3, 2);
        let shifts = ExpShifts::generate(g.num_vertices(), &o);
        let exact = partition_exact_with_shifts(&g, &shifts);
        let (par, _) =
            partition_view_with_shifts(&g, &shifts, Traversal::TopDownPar, DEFAULT_ALPHA);
        assert_eq!(exact, par);
        // Clusters never cross components.
        for v in [3u32, 4, 7] {
            assert_eq!(exact.center_of(v), v);
        }
    }

    /// The paper's real-valued minimization, checked directly against the
    /// quantized comparator on a small graph: whenever the real-valued
    /// argmin is unique after a safety margin, both agree.
    #[test]
    fn quantized_comparator_matches_real_valued_rule() {
        let g = gen::gnm(40, 90, 77);
        let o = opts(0.2, 55);
        let shifts = ExpShifts::generate(g.num_vertices(), &o);
        let exact = partition_exact_with_shifts(&g, &shifts);
        for v in 0..g.num_vertices() as Vertex {
            // Real-valued shifted distances to all centers.
            let mut best_center = NO_VERTEX;
            let mut best_val = f64::INFINITY;
            for u in 0..g.num_vertices() as Vertex {
                let d = mpx_graph::algo::bfs(&g, u)[v as usize];
                if d == INFINITY {
                    continue;
                }
                let val = d as f64 - shifts.delta[u as usize];
                if val < best_val - 1e-9 {
                    best_val = val;
                    best_center = u;
                }
            }
            // Skip vertices where the margin is too small to distinguish
            // (quantization may tip those either way).
            let margin_ok = (0..g.num_vertices() as Vertex).all(|u| {
                if u == best_center {
                    return true;
                }
                let d = mpx_graph::algo::bfs(&g, u)[v as usize];
                d == INFINITY || (d as f64 - shifts.delta[u as usize]) > best_val + 1e-7
            });
            if margin_ok {
                assert_eq!(exact.center_of(v), best_center, "vertex {v}");
            }
        }
    }

    use mpx_graph::CsrGraph;
}
