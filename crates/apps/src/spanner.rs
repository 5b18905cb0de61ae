//! Sparse spanners from low-diameter decompositions.
//!
//! The construction the paper's introduction attributes to Cohen \[12\]:
//! decompose with parameter `β`, keep every cluster's internal BFS tree,
//! and add one representative edge between every pair of adjacent
//! clusters. For any edge `(u, v)` of `G`:
//!
//! * same cluster: the tree path has length ≤ `2·radius`;
//! * different clusters: route `u → rep edge → v` through the two cluster
//!   trees: ≤ `4·radius + 1`.
//!
//! so the result is a `(4·radius + 1)`-spanner with
//! `n − k + (#adjacent cluster pairs)` edges, `radius = O(log n / β)`
//! w.h.p. Smaller `β` ⇒ sparser but longer-stretch — the trade-off
//! `beta_controls_size_stretch_tradeoff` asserts.

use crate::coarsen::{coarsen_view, coarsen_weighted};
use mpx_decomp::{
    compute_parents_weighted, partition, partition_weighted, DecompOptions, Decomposition,
    Traversal, WeightedDecomposition,
};
use mpx_graph::{CsrGraph, GraphView, Vertex, WeightedCsrGraph, WeightedGraphView, NO_VERTEX};

/// A spanner subgraph together with its provenance and guarantee.
#[derive(Clone, Debug)]
pub struct Spanner {
    /// The spanner edges (subset of the input graph's edges).
    pub edges: Vec<(Vertex, Vertex)>,
    /// The decomposition that produced it.
    pub decomposition: Decomposition,
    /// Upper bound on the multiplicative stretch: `4·max_radius + 1`.
    pub stretch_bound: u32,
}

impl Spanner {
    /// Spanner as a graph on the same vertex set.
    pub fn as_graph(&self, n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, &self.edges)
    }

    /// Number of spanner edges.
    pub fn size(&self) -> usize {
        self.edges.len()
    }
}

/// Builds an LDD-based spanner of `g` with decomposition parameter `beta`.
/// `g` is any [`GraphView`] — an in-memory CSR or a mmap'd snapshot.
///
/// ```
/// let g = mpx_graph::gen::gnm(300, 3000, 2);
/// let s = mpx_apps::spanner(&g, 0.2, 1);
/// assert!(s.size() < g.num_edges());          // sparser
/// assert!(s.stretch_bound >= 1);              // certified stretch
/// ```
pub fn spanner<V: GraphView>(g: &V, beta: f64, seed: u64) -> Spanner {
    spanner_with_options(g, &DecompOptions::new(beta).with_seed(seed))
}

/// [`spanner`] under full [`DecompOptions`] (the decomposition runs
/// top-down like the historical construction; labels are
/// strategy-invariant anyway).
pub fn spanner_with_options<V: GraphView>(g: &V, opts: &DecompOptions) -> Spanner {
    let _span = mpx_trace::span!("apps.spanner", n = g.num_vertices());
    let d = partition(g, &opts.clone().with_traversal(Traversal::TopDownPar));
    let mut edges: Vec<(Vertex, Vertex)> = d
        .tree_edges()
        .into_iter()
        .map(|(c, p)| if c < p { (c, p) } else { (p, c) })
        .collect();
    let coarse = coarsen_view(g, &d);
    edges.extend(coarse.rep.values().copied());
    edges.sort_unstable();
    edges.dedup();
    let stretch_bound = 4 * d.max_radius() + 1;
    Spanner {
        edges,
        decomposition: d,
        stretch_bound,
    }
}

/// A weighted spanner subgraph with its provenance and additive guarantee.
#[derive(Clone, Debug)]
pub struct WeightedSpanner {
    /// The spanner edges with their weights (a subset of the input's edges).
    pub edges: Vec<(Vertex, Vertex, f64)>,
    /// The weighted decomposition that produced it.
    pub decomposition: WeightedDecomposition,
    /// Additive surplus bound: for every input edge `(u, v)` of length `w`,
    /// the spanner contains a `u`–`v` path of length `≤ w + stretch_bound`
    /// (`= 4·max_radius`; same cluster: `≤ 2·max_radius`).
    pub stretch_bound: f64,
}

impl WeightedSpanner {
    /// Spanner as a weighted graph on the same vertex set.
    pub fn as_graph(&self, n: usize) -> WeightedCsrGraph {
        WeightedCsrGraph::from_edges(n, &self.edges)
    }

    /// Number of spanner edges.
    pub fn size(&self) -> usize {
        self.edges.len()
    }
}

/// Weighted (Section 6) analogue of [`spanner`]: keep every cluster's
/// shortest-path tree plus the *lightest* representative edge between
/// adjacent clusters. `g` is any [`WeightedGraphView`].
///
/// For an edge `(u, v)` of length `w`: same cluster routes through the
/// cluster SPT (`≤ 2r`); different clusters route tree-path → lightest
/// representative (`≤ w`) → tree-path, so `dist_S(u, v) ≤ w + 4r` with
/// `r = max_radius` — an additive surplus where the unweighted version's
/// bound is multiplicative in hops.
pub fn spanner_weighted<W: WeightedGraphView>(g: &W, beta: f64, seed: u64) -> WeightedSpanner {
    spanner_weighted_with_options(g, &DecompOptions::new(beta).with_seed(seed))
}

/// [`spanner_weighted`] under full [`DecompOptions`] (the decomposition
/// runs through the parallel weighted session, Δ-stepping pinned; labels
/// are strategy-invariant anyway).
pub fn spanner_weighted_with_options<W: WeightedGraphView>(
    g: &W,
    opts: &DecompOptions,
) -> WeightedSpanner {
    let d = partition_weighted(g, &opts.clone().with_traversal(Traversal::TopDownPar));
    let parents = compute_parents_weighted(g, &d);
    let mut edges: Vec<(Vertex, Vertex, f64)> = Vec::new();
    for (v, &p) in parents.iter().enumerate() {
        if p == NO_VERTEX {
            continue;
        }
        let v = v as Vertex;
        let w = g
            .neighbors_weighted_iter(v)
            .find(|&(u, _)| u == p)
            .expect("parent is a neighbor")
            .1;
        edges.push(if v < p { (v, p, w) } else { (p, v, w) });
    }
    let coarse = coarsen_weighted(g, &d);
    for (&(a, b), &(u, v)) in &coarse.rep {
        let w = coarse.quotient.edge_weight(a, b).expect("quotient edge");
        edges.push(if u < v { (u, v, w) } else { (v, u, w) });
    }
    edges.sort_unstable_by_key(|e| (e.0, e.1));
    edges.dedup_by_key(|e| (e.0, e.1));
    let stretch_bound = 4.0 * d.max_radius();
    WeightedSpanner {
        edges,
        decomposition: d,
        stretch_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::{algo, gen, INFINITY};

    /// Exhaustively checks the stretch guarantee on every edge of `g`.
    fn max_edge_stretch(g: &CsrGraph, s: &Spanner) -> u32 {
        let sg = s.as_graph(g.num_vertices());
        let mut max_stretch = 0;
        // BFS in the spanner from each vertex that has an edge (small
        // graphs only).
        for u in 0..g.num_vertices() as Vertex {
            if g.degree(u) == 0 {
                continue;
            }
            let d = algo::bfs(&sg, u);
            for &v in g.neighbors(u) {
                assert_ne!(d[v as usize], INFINITY, "spanner disconnected {u}-{v}");
                max_stretch = max_stretch.max(d[v as usize]);
            }
        }
        max_stretch
    }

    #[test]
    fn stretch_bound_holds_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gen::gnm(120, 500, seed);
            let s = spanner(&g, 0.3, seed);
            let got = max_edge_stretch(&g, &s);
            assert!(
                got <= s.stretch_bound,
                "seed {seed}: stretch {got} > bound {}",
                s.stretch_bound
            );
        }
    }

    #[test]
    fn stretch_bound_holds_on_grid_and_hypercube() {
        for g in [gen::grid2d(12, 12), gen::hypercube(7)] {
            let s = spanner(&g, 0.25, 3);
            assert!(max_edge_stretch(&g, &s) <= s.stretch_bound);
        }
    }

    #[test]
    fn spanner_is_subgraph() {
        let g = gen::rmat(8, 4 << 8, 0.57, 0.19, 0.19, 2);
        let s = spanner(&g, 0.2, 1);
        for &(u, v) in &s.edges {
            assert!(g.has_edge(u, v), "({u},{v}) not an original edge");
        }
    }

    #[test]
    fn spanner_sparsifies_dense_graphs() {
        let g = gen::gnm(300, 6000, 7);
        let s = spanner(&g, 0.1, 2);
        assert!(
            s.size() < g.num_edges() / 2,
            "spanner kept {}/{} edges",
            s.size(),
            g.num_edges()
        );
    }

    #[test]
    fn beta_controls_size_stretch_tradeoff() {
        let g = gen::gnm(400, 8000, 9);
        // Average over seeds: smaller beta ⇒ fewer clusters ⇒ fewer
        // inter-cluster edges ⇒ sparser spanner.
        let avg_size = |beta: f64| -> f64 {
            (0..4u64)
                .map(|s| spanner(&g, beta, s).size() as f64)
                .sum::<f64>()
                / 4.0
        };
        assert!(avg_size(0.05) < avg_size(0.8));
    }

    #[test]
    fn tree_input_spanner_is_whole_tree() {
        let g = gen::random_tree(100, 3);
        let s = spanner(&g, 0.3, 1);
        assert_eq!(s.size(), 99, "a tree is its only spanner");
    }

    fn random_weighted(g: &CsrGraph, salt: u64) -> WeightedCsrGraph {
        let edges: Vec<(Vertex, Vertex, f64)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| (u, v, 0.5 + ((i as u64 * 7 + salt) % 13) as f64 * 0.25))
            .collect();
        WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
    }

    #[test]
    fn weighted_spanner_additive_bound_holds() {
        for seed in 0..3u64 {
            let g = random_weighted(&gen::gnm(120, 500, seed), seed);
            let s = spanner_weighted(&g, 0.3, seed);
            let sg = s.as_graph(g.num_vertices());
            for u in 0..g.num_vertices() as Vertex {
                if g.degree(u) == 0 {
                    continue;
                }
                let d = mpx_graph::algo::dijkstra(&sg, u);
                for (v, w) in g.neighbors_weighted(u) {
                    let got = d[v as usize];
                    assert!(
                        got <= w + s.stretch_bound + 1e-9,
                        "seed {seed} edge ({u},{v}): {got} > {w} + {}",
                        s.stretch_bound
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_spanner_is_subgraph_and_sparsifies() {
        let g = random_weighted(&gen::gnm(300, 6000, 4), 1);
        let s = spanner_weighted(&g, 0.1, 2);
        for &(u, v, w) in &s.edges {
            assert_eq!(
                g.edge_weight(u, v).map(f64::to_bits),
                Some(w.to_bits()),
                "({u},{v}) not an original edge"
            );
        }
        assert!(
            s.size() < g.num_edges() / 2,
            "weighted spanner kept {}/{} edges",
            s.size(),
            g.num_edges()
        );
    }

    #[test]
    fn weighted_spanner_on_unit_weights_matches_unweighted_skeleton() {
        // Unit weights: the weighted decomposition is bit-identical to the
        // unweighted one, so the spanner's cluster trees have the same
        // vertices-per-cluster structure and the edge count is comparable.
        let g = gen::gnm(200, 1200, 9);
        let wg = WeightedCsrGraph::unit_weights(&g);
        let s = spanner_weighted(&wg, 0.25, 3);
        let su = spanner(&g, 0.25, 3);
        assert_eq!(
            s.decomposition.assignment,
            su.decomposition.assignment().to_vec()
        );
    }
}
