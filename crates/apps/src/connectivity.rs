//! Parallel connected components via decomposition + contraction.
//!
//! A classic use of low-diameter decompositions (and the way modern
//! shared-memory frameworks in the GBBS lineage implement connectivity):
//! with constant `β`, each decomposition round groups every vertex with at
//! least one neighbour w.h.p., so contracting clusters shrinks each
//! component geometrically; `O(log n)` rounds of `O(n + m)` work flatten
//! every component to a single supernode. Labels are propagated back down
//! through the contraction maps.
//!
//! **Round 0 is zero-copy**: it runs the engine directly on the borrowed
//! input graph (a [`CsrGraph`] *is* a [`mpx_graph::GraphView`]), where the
//! old implementation started from a full `g.clone()`. The later rounds
//! deliberately stay **materialized**: contraction is exactly what makes
//! them cheap (the quotient shrinks geometrically, so all rounds after the
//! first cost `O(n)` combined), whereas an edge-filtered view of the
//! original graph keeps paying `Ω(n + m)` per round — measured at ~2×
//! end-to-end on grids. This is the one pipeline where a view measurably
//! loses to materialization.

use crate::coarsen::{coarsen, coarsen_view};
use mpx_decomp::{DecompOptions, Traversal, Workspace};
use mpx_graph::{CsrGraph, GraphView, Vertex};
use rayon::prelude::*;

/// Decomposition options for one connectivity round. Top-down is pinned:
/// the quotient rounds are small and the auto heuristic's bottom-up scans
/// pay `O(unsettled)` per round on graphs dominated by already-flattened
/// singleton supernodes.
fn round_opts(base: &DecompOptions, round: u64) -> DecompOptions {
    base.clone()
        .with_seed(base.seed.wrapping_add(round))
        .with_traversal(Traversal::TopDownPar)
}

/// Connected-component labels via repeated MPX decomposition+contraction.
///
/// Returns `(labels, count)`: `labels[v]` is a dense component id in
/// `0..count`. Equivalent to [`mpx_graph::algo::connected_components`]
/// (which is the oracle it is tested against) but built from `O(log n)`
/// parallel decomposition rounds instead of one sequential BFS. Accepts
/// any [`GraphView`] — an in-memory CSR or a memory-mapped snapshot.
///
/// ```
/// let g = mpx_graph::CsrGraph::from_edges(5, &[(0, 1), (2, 3)]);
/// let (labels, count) = mpx_apps::parallel_components(&g, 0.3, 1);
/// assert_eq!(count, 3);
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[2]);
/// ```
pub fn parallel_components<V: GraphView>(g: &V, beta: f64, seed: u64) -> (Vec<Vertex>, usize) {
    parallel_components_with_options(g, &DecompOptions::new(beta).with_seed(seed))
}

/// [`parallel_components`] under full [`DecompOptions`] (tie-break, shift
/// strategy, and alpha are honored; the traversal is pinned top-down per
/// the module docs). The per-round seeds are `opts.seed + round`.
pub fn parallel_components_with_options<V: GraphView>(
    g: &V,
    opts: &DecompOptions,
) -> (Vec<Vertex>, usize) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    // One workspace serves every round: the full-size round 0 sizes it,
    // the shrinking quotient rounds reuse it without allocating.
    let mut ws = Workspace::new();
    // Round 0 on the borrowed view itself — the only full-size round, so
    // the only one where avoiding a materialized copy matters.
    let mut maps: Vec<Vec<Vertex>> = Vec::new();
    let mut current: CsrGraph;
    let mut rounds = 0u64;
    {
        if g.total_degree() == 0 {
            return ((0..n as Vertex).collect(), n);
        }
        let d = ws.partition_view(g, &round_opts(opts, 0)).0;
        let c = coarsen_view(g, &d);
        maps.push(c.map);
        current = c.quotient;
        rounds += 1;
    }
    // Later rounds on geometrically shrinking quotients.
    while current.num_edges() > 0 {
        let d = ws.partition_view(&current, &round_opts(opts, rounds)).0;
        let c = coarsen(&current, &d);
        maps.push(c.map);
        current = c.quotient;
        rounds += 1;
        assert!(
            rounds < 64 + (n as u64),
            "contraction failed to make progress"
        );
    }
    // The final graph is edgeless: its vertices are the components.
    let count = current.num_vertices();
    // Compose the maps down to the original vertices.
    let mut labels: Vec<Vertex> = (0..n as Vertex).collect();
    for map in &maps {
        labels = labels.par_iter().map(|&l| map[l as usize]).collect();
    }
    (labels, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::{algo, gen};

    /// Two labelings agree iff they induce the same partition.
    fn same_partition(a: &[Vertex], b: &[Vertex]) -> bool {
        use std::collections::HashMap;
        let mut fwd: HashMap<Vertex, Vertex> = HashMap::new();
        let mut bwd: HashMap<Vertex, Vertex> = HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    #[test]
    fn matches_sequential_oracle_on_connected_graphs() {
        for g in [
            gen::grid2d(20, 20),
            gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 1),
        ] {
            let (labels, count) = parallel_components(&g, 0.3, 7);
            let (oracle, k) = algo::connected_components(&g);
            assert_eq!(count, k);
            assert!(same_partition(&labels, &oracle));
        }
    }

    #[test]
    fn matches_oracle_on_fragmented_graph() {
        // Many components of varied shapes.
        let mut edges = Vec::new();
        // Component A: triangle 0,1,2. B: path 3-4-5-6. Singletons 7..12.
        edges.extend([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]);
        let g = CsrGraph::from_edges(12, &edges);
        let (labels, count) = parallel_components(&g, 0.4, 3);
        let (oracle, k) = algo::connected_components(&g);
        assert_eq!(count, k);
        assert!(same_partition(&labels, &oracle));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::gnm(400, 700, 5);
        assert_eq!(
            parallel_components(&g, 0.3, 9),
            parallel_components(&g, 0.3, 9)
        );
    }

    #[test]
    fn empty_and_edgeless() {
        let (l, c) = parallel_components(&CsrGraph::empty(0), 0.3, 0);
        assert!(l.is_empty());
        assert_eq!(c, 0);
        let (l, c) = parallel_components(&CsrGraph::empty(5), 0.3, 0);
        assert_eq!(c, 5);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn labels_are_dense() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (3, 4)]);
        let (labels, count) = parallel_components(&g, 0.5, 1);
        let max = labels.iter().copied().max().unwrap() as usize;
        assert!(max < count);
    }

    #[test]
    fn oracle_agreement_across_betas_and_seeds() {
        let g = gen::sbm(400, 5, 0.08, 0.002, 11);
        let (oracle, k) = algo::connected_components(&g);
        for beta in [0.2, 0.5] {
            for seed in [1u64, 9] {
                let (labels, count) = parallel_components(&g, beta, seed);
                assert_eq!(count, k, "beta {beta} seed {seed}");
                assert!(same_partition(&labels, &oracle), "beta {beta} seed {seed}");
            }
        }
    }

    use mpx_graph::CsrGraph;
}
