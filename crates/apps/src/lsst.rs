//! Low-stretch spanning trees in the AKPW style (\[3\], refined by \[15, 1, 2\]).
//!
//! This is the pipeline the paper names as its main application: the
//! nearly-linear-work parallel SDD solver of Blelloch et al. \[9\] builds its
//! preconditioning trees by repeatedly decomposing and contracting, and the
//! final tree "is formed by combining the shortest path tree in each of the
//! pieces" — strong diameter is what makes that sound.
//!
//! Construction: starting from `G`, repeatedly
//!
//! 1. decompose the current graph with parameter `β`,
//! 2. add every cluster's internal BFS-tree edges (mapped back to original
//!    edges) to the spanning forest,
//! 3. contract clusters and keep one representative original edge per
//!    quotient edge.
//!
//! Each round multiplies the vertex count by roughly the cluster rate, so
//! `O(log n)` rounds suffice; the union of the per-round forests is a
//! spanning forest of `G` (per component, a spanning tree).

use crate::coarsen::{coarsen, coarsen_view, coarsen_weighted, Coarsened};
use crate::lca::TreePathOracle;
use mpx_decomp::{compute_parents_weighted, DecompOptions, Decomposition, Traversal, Workspace};
use mpx_graph::{
    algo, view_edges, weighted_view_edges, CsrGraph, GraphView, Vertex, WeightedGraphView,
    NO_VERTEX,
};
use std::collections::HashMap;

/// Builds a spanning forest of `g` with the AKPW-via-MPX construction.
/// Returns the forest's edge list (original-graph edges; one spanning tree
/// per connected component). `g` is any [`GraphView`]: round 0 runs
/// zero-copy on the borrowed view (including a memory-mapped snapshot);
/// the geometrically shrinking contraction rounds are materialized.
///
/// ```
/// let g = mpx_graph::gen::grid2d(15, 15);
/// let forest = mpx_apps::low_stretch_tree(&g, 0.25, 3);
/// assert_eq!(forest.len(), g.num_vertices() - 1); // spanning tree
/// let stats = mpx_apps::stretch_stats(&g, &forest);
/// assert!(stats.avg >= 1.0);
/// ```
pub fn low_stretch_tree<V: GraphView>(g: &V, beta: f64, seed: u64) -> Vec<(Vertex, Vertex)> {
    low_stretch_tree_with_options(g, &DecompOptions::new(beta).with_seed(seed))
}

/// [`low_stretch_tree`] under full [`DecompOptions`] (tie-break, shift
/// strategy and alpha honored; the traversal is pinned top-down, matching
/// the historical construction). Round `r` decomposes with seed
/// `opts.seed + r`.
pub fn low_stretch_tree_with_options<V: GraphView>(
    g: &V,
    opts: &DecompOptions,
) -> Vec<(Vertex, Vertex)> {
    let mut forest: Vec<(Vertex, Vertex)> = Vec::new();
    // One workspace serves the full-size round 0 and every quotient round.
    let mut ws = Workspace::new();
    let round_opts = |round: u64| {
        opts.clone()
            .with_seed(opts.seed.wrapping_add(round))
            .with_traversal(Traversal::TopDownPar)
    };
    // Harvests one round: pushes the decomposition's intra-cluster tree
    // edges (mapped back to original edges) and rewires `rep_of` onto the
    // quotient. `rep_of` maps a current-graph edge to an original edge
    // realizing it.
    fn harvest(
        d: &Decomposition,
        c: &Coarsened,
        rep_of: &HashMap<(Vertex, Vertex), (Vertex, Vertex)>,
        forest: &mut Vec<(Vertex, Vertex)>,
    ) -> HashMap<(Vertex, Vertex), (Vertex, Vertex)> {
        for (child, parent) in d.tree_edges() {
            let key = if child < parent {
                (child, parent)
            } else {
                (parent, child)
            };
            forest.push(rep_of[&key]);
        }
        let mut next_rep = HashMap::with_capacity(c.rep.len());
        for (&q_edge, &cur_edge) in &c.rep {
            let cur_key = if cur_edge.0 < cur_edge.1 {
                cur_edge
            } else {
                (cur_edge.1, cur_edge.0)
            };
            next_rep.insert(q_edge, rep_of[&cur_key]);
        }
        next_rep
    }

    if g.total_degree() == 0 {
        return forest;
    }
    // Round 0, zero-copy on the borrowed view; the identity mapping.
    let rep_of: HashMap<(Vertex, Vertex), (Vertex, Vertex)> =
        view_edges(g).map(|e| (e, e)).collect();
    let d = ws.partition_view(g, &round_opts(0)).0;
    let c = coarsen_view(g, &d);
    let mut rep_of = harvest(&d, &c, &rep_of, &mut forest);
    let mut current = c.quotient;
    let mut round = 1u64;
    // Contraction rounds on geometrically shrinking quotients.
    while current.num_edges() > 0 {
        let d = ws.partition_view(&current, &round_opts(round)).0;
        let c = coarsen(&current, &d);
        rep_of = harvest(&d, &c, &rep_of, &mut forest);
        current = c.quotient;
        round += 1;
    }
    forest
}

/// Weighted low-stretch spanning forest (paper Section 6 pipeline).
///
/// `g`'s weights are interpreted as **lengths** (for conductance-weighted
/// Laplacians pass `1/w`). Each round runs the weighted shifted-Dijkstra
/// partition of Section 6, keeps every cluster's shortest-path-tree edges,
/// contracts clusters keeping the *shortest* representative edge per
/// quotient pair, and repeats. Short (heavy-conductance) edges end up on
/// the tree — which is what makes the resulting tree a useful
/// preconditioner on badly conditioned systems.
pub fn low_stretch_tree_weighted<W: WeightedGraphView>(
    g: &W,
    beta: f64,
    seed: u64,
) -> Vec<(Vertex, Vertex)> {
    low_stretch_tree_weighted_with_options(g, &DecompOptions::new(beta).with_seed(seed))
}

/// [`low_stretch_tree_weighted`] under full [`DecompOptions`]. Mirrors
/// [`low_stretch_tree_with_options`]: every round runs the **parallel
/// weighted session** ([`mpx_decomp::Workspace::partition_weighted_view`],
/// bucketed Δ-stepping) sharing one workspace across rounds; round 0 runs
/// zero-copy on the borrowed view (an in-memory graph, an induced view, or
/// a mmap'd weighted snapshot), round `r` decomposes with seed
/// `opts.seed + r`.
///
/// Per round, shortest-path-tree parents come from the weighted Lemma 4.1
/// recovery ([`mpx_decomp::compute_parents_weighted`] — lightest valid
/// predecessor first, which keeps the tree light), and clusters contract
/// keeping the lightest representative edge per quotient pair
/// ([`coarsen_weighted`]).
pub fn low_stretch_tree_weighted_with_options<W: WeightedGraphView>(
    g: &W,
    opts: &DecompOptions,
) -> Vec<(Vertex, Vertex)> {
    let mut forest: Vec<(Vertex, Vertex)> = Vec::new();
    let mut ws = Workspace::new();
    let round_opts = |round: u64| {
        opts.clone()
            .with_seed(opts.seed.wrapping_add(round))
            .with_traversal(Traversal::TopDownPar)
    };
    // Harvests one round: SPT edges (mapped back to original edges) into
    // the forest, then rewires `rep_of` onto the quotient.
    fn harvest<W: WeightedGraphView>(
        view: &W,
        d: &mpx_decomp::WeightedDecomposition,
        c: &crate::coarsen::WeightedCoarsened,
        rep_of: &HashMap<(Vertex, Vertex), (Vertex, Vertex)>,
        forest: &mut Vec<(Vertex, Vertex)>,
    ) -> HashMap<(Vertex, Vertex), (Vertex, Vertex)> {
        let parents = compute_parents_weighted(view, d);
        for (v, &p) in parents.iter().enumerate() {
            if p == NO_VERTEX {
                continue;
            }
            let v = v as Vertex;
            let key = if v < p { (v, p) } else { (p, v) };
            forest.push(rep_of[&key]);
        }
        let mut next_rep = HashMap::with_capacity(c.rep.len());
        for (&q_edge, &cur_edge) in &c.rep {
            next_rep.insert(q_edge, rep_of[&cur_edge]);
        }
        next_rep
    }

    if g.total_degree() == 0 {
        return forest;
    }
    // Round 0, zero-copy on the borrowed view; the identity mapping.
    let rep_of: HashMap<(Vertex, Vertex), (Vertex, Vertex)> = weighted_view_edges(g)
        .map(|(u, v, _)| ((u, v), (u, v)))
        .collect();
    let d = ws.partition_weighted_view(g, &round_opts(0)).0;
    let c = coarsen_weighted(g, &d);
    let mut rep_of = harvest(g, &d, &c, &rep_of, &mut forest);
    let mut current = c.quotient;
    let mut round = 1u64;
    // Contraction rounds on geometrically shrinking weighted quotients.
    while current.num_edges() > 0 {
        let d = ws.partition_weighted_view(&current, &round_opts(round)).0;
        let c = coarsen_weighted(&current, &d);
        rep_of = harvest(&current, &d, &c, &rep_of, &mut forest);
        current = c.quotient;
        round += 1;
    }
    forest
}

/// Plain BFS spanning forest (rooted at the smallest vertex of each
/// component) — the baseline trees are compared against.
pub fn bfs_spanning_tree(g: &CsrGraph) -> Vec<(Vertex, Vertex)> {
    let n = g.num_vertices();
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut visited = vec![false; n];
    for root in 0..n as Vertex {
        if visited[root as usize] {
            continue;
        }
        let (dist, parent) = algo::bfs_parents(g, root);
        for v in 0..n as Vertex {
            if dist[v as usize] != mpx_graph::INFINITY && parent[v as usize] != NO_VERTEX {
                edges.push((v, parent[v as usize]));
                visited[v as usize] = true;
            }
        }
        visited[root as usize] = true;
    }
    edges
}

/// Stretch statistics of a spanning forest with respect to the edges of
/// `g`: for each original edge `(u, v)`, its stretch is the tree path
/// length between `u` and `v`.
#[derive(Clone, Debug, PartialEq)]
pub struct StretchStats {
    /// Average stretch over all edges.
    pub avg: f64,
    /// Maximum stretch.
    pub max: u32,
    /// Number of edges evaluated.
    pub edges: usize,
}

/// Computes exact stretch statistics via the Euler-tour LCA oracle.
///
/// Panics if some graph edge connects two different trees of the forest
/// (i.e. the forest does not span the components of `g`).
pub fn stretch_stats(g: &CsrGraph, forest: &[(Vertex, Vertex)]) -> StretchStats {
    let oracle = TreePathOracle::new(g.num_vertices(), forest);
    let mut sum = 0u64;
    let mut max = 0u32;
    let mut m = 0usize;
    for (u, v) in g.edges() {
        let s = oracle
            .path_len(u, v)
            .unwrap_or_else(|| panic!("forest does not span edge ({u},{v})"));
        sum += s as u64;
        max = max.max(s);
        m += 1;
    }
    StretchStats {
        avg: if m == 0 { 0.0 } else { sum as f64 / m as f64 },
        max,
        edges: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::algo::UnionFind;
    use mpx_graph::{gen, WeightedCsrGraph};

    fn assert_spanning_forest(g: &CsrGraph, forest: &[(Vertex, Vertex)]) {
        // Forest edges are original edges, acyclic, and connect exactly the
        // components of g.
        let mut uf = UnionFind::new(g.num_vertices());
        for &(u, v) in forest {
            assert!(g.has_edge(u, v), "({u},{v}) not in g");
            assert!(uf.union(u, v), "cycle at ({u},{v})");
        }
        assert_eq!(
            uf.num_sets(),
            algo::num_components(g),
            "forest does not span"
        );
    }

    #[test]
    fn spans_varied_graphs() {
        for (i, g) in [
            gen::grid2d(15, 15),
            gen::gnm(200, 700, 3),
            gen::rmat(8, 3 << 8, 0.57, 0.19, 0.19, 1),
            gen::random_tree(150, 4),
        ]
        .into_iter()
        .enumerate()
        {
            let forest = low_stretch_tree(&g, 0.2, i as u64);
            assert_spanning_forest(&g, &forest);
        }
    }

    #[test]
    fn spans_disconnected_graphs() {
        let g = CsrGraph::from_edges(9, &[(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]);
        let forest = low_stretch_tree(&g, 0.3, 2);
        assert_spanning_forest(&g, &forest);
    }

    #[test]
    fn bfs_tree_spans() {
        let g = gen::gnm(300, 1000, 8);
        let forest = bfs_spanning_tree(&g);
        assert_spanning_forest(&g, &forest);
    }

    #[test]
    fn stretch_of_tree_input_is_one() {
        let g = gen::random_tree(120, 6);
        let forest = low_stretch_tree(&g, 0.2, 0);
        let s = stretch_stats(&g, &forest);
        assert_eq!(s.max, 1);
        assert_eq!(s.avg, 1.0);
        assert_eq!(s.edges, 119);
    }

    #[test]
    fn stretch_finite_and_recorded_on_grid() {
        let g = gen::grid2d(20, 20);
        let forest = low_stretch_tree(&g, 0.25, 5);
        let s = stretch_stats(&g, &forest);
        assert!(s.avg >= 1.0);
        assert!(s.max >= 1);
        assert_eq!(s.edges, g.num_edges());
    }

    #[test]
    fn weighted_tree_spans_and_prefers_short_edges() {
        // Anisotropic grid lengths: horizontal edges short (0.01), vertical
        // long (1.0). The weighted construction should produce a much
        // *lighter* tree (total length) than the length-oblivious one.
        let side = 12;
        let grid = gen::grid2d(side, side);
        let edges: Vec<(Vertex, Vertex, f64)> = grid
            .edges()
            .map(|(u, v)| {
                let horizontal = v == u + 1 && (u as usize % side) != side - 1;
                (u, v, if horizontal { 0.01 } else { 1.0 })
            })
            .collect();
        let wg = WeightedCsrGraph::from_edges(side * side, &edges);
        let total_len = |forest: &[(Vertex, Vertex)]| -> f64 {
            forest
                .iter()
                .map(|&(u, v)| wg.edge_weight(u, v).unwrap())
                .sum()
        };
        let mut weighted_total = 0.0;
        let mut oblivious_total = 0.0;
        for seed in 0..3u64 {
            let wf = low_stretch_tree_weighted(&wg, 0.1, seed);
            assert_spanning_forest(&grid, &wf);
            weighted_total += total_len(&wf);
            oblivious_total += total_len(&low_stretch_tree(&grid, 0.1, seed));
        }
        assert!(
            weighted_total < 0.7 * oblivious_total,
            "weighted {weighted_total:.2} vs oblivious {oblivious_total:.2}"
        );
    }

    #[test]
    fn weighted_tree_matches_unweighted_on_unit_lengths() {
        let g = gen::gnm(150, 450, 12);
        let wg = WeightedCsrGraph::unit_weights(&g);
        let forest = low_stretch_tree_weighted(&wg, 0.25, 3);
        assert_spanning_forest(&g, &forest);
    }

    #[test]
    fn beats_or_matches_bfs_tree_on_grid_on_average() {
        // The motivation for AKPW trees: BFS trees have terrible stretch on
        // meshes. Average both over a few seeds.
        let g = gen::grid2d(30, 30);
        let mut akpw = 0.0;
        for seed in 0..3u64 {
            let forest = low_stretch_tree(&g, 0.25, seed);
            akpw += stretch_stats(&g, &forest).avg;
        }
        akpw /= 3.0;
        let bfs = stretch_stats(&g, &bfs_spanning_tree(&g)).avg;
        assert!(
            akpw < bfs,
            "AKPW avg stretch {akpw:.2} not below BFS tree {bfs:.2}"
        );
    }

    use mpx_graph::CsrGraph;
}
