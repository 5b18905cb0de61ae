//! Cluster-graph distance oracles — the Cohen \[13\] direction the paper's
//! introduction cites ("parallel approximations of shortest path in
//! undirected graphs").
//!
//! A `(β, r)` decomposition turns shortest-path queries into quotient-graph
//! queries: a path of length `L` in `G` crosses clusters at most `L` times,
//! so `hops_Q(C(u), C(v)) ≤ dist_G(u, v)`; conversely any quotient path can
//! be realized by stitching cluster-internal paths of length `≤ 2r` plus
//! the crossing edges, so
//!
//! ```text
//! hops_Q ≤ dist_G(u, v) ≤ (hops_Q + 1)·(2r + 1) − 1 .
//! ```
//!
//! The oracle answers *all-targets bracket queries* from a source in
//! `O(n + m_Q)` after one quotient BFS — a multiplicative `O(r)` ≈
//! `O(log n / β)` approximation, which is exactly the quality/depth
//! trade-off the paper's framework provides (a full Cohen hopset pipeline
//! would sharpen the constant; this is the LDD core of it).

use crate::coarsen::{coarsen_view, coarsen_weighted};
use mpx_decomp::{
    partition, partition_weighted, DecompOptions, Decomposition, Traversal, WeightedDecomposition,
};
use mpx_graph::{
    algo, CsrGraph, Dist, GraphView, Vertex, WeightedCsrGraph, WeightedGraphView, INFINITY,
};

/// Distance-bracket oracle built on one decomposition.
#[derive(Clone, Debug)]
pub struct DistanceOracle {
    decomposition: Decomposition,
    quotient: CsrGraph,
    /// Max distance to center over all clusters (the `r` in the bracket).
    radius: Dist,
}

impl DistanceOracle {
    /// Builds the oracle: one partition + one contraction. `g` is any
    /// [`GraphView`] — an in-memory CSR or a mmap'd snapshot.
    pub fn new<V: GraphView>(g: &V, beta: f64, seed: u64) -> Self {
        Self::with_options(g, &DecompOptions::new(beta).with_seed(seed))
    }

    /// [`DistanceOracle::new`] under full [`DecompOptions`] (top-down
    /// pinned, matching the historical construction).
    pub fn with_options<V: GraphView>(g: &V, opts: &DecompOptions) -> Self {
        let d = partition(g, &opts.clone().with_traversal(Traversal::TopDownPar));
        let quotient = coarsen_view(g, &d).quotient;
        let radius = d.max_radius();
        DistanceOracle {
            decomposition: d,
            quotient,
            radius,
        }
    }

    /// The decomposition backing the oracle.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomposition
    }

    /// The cluster radius `r` controlling the approximation quality.
    pub fn radius(&self) -> Dist {
        self.radius
    }

    /// Lower/upper distance brackets from `source` to every vertex
    /// (`None` where unreachable). One quotient BFS, `O(n + m_Q)`.
    pub fn bounds_from(&self, source: Vertex) -> Vec<Option<(Dist, Dist)>> {
        let cs = self.decomposition.cluster_of(source);
        let qdist = algo::bfs(&self.quotient, cs);
        (0..self.decomposition.num_vertices() as Vertex)
            .map(|v| {
                let h = qdist[self.decomposition.cluster_of(v) as usize];
                if h == INFINITY {
                    return None;
                }
                let upper = (h + 1)
                    .saturating_mul(2 * self.radius + 1)
                    .saturating_sub(1);
                Some((h, upper))
            })
            .collect()
    }
}

/// Weighted distance-bracket oracle: the Section 6 twin of
/// [`DistanceOracle`], built on one **parallel weighted** decomposition.
///
/// The quotient keeps the lightest crossing edge per adjacent cluster pair
/// ([`coarsen_weighted`]), so a shortest quotient path under-estimates the
/// true distance (crossing edges only get lighter, intra-cluster travel is
/// dropped), while stitching its `k` crossing edges back together with
/// `≤ 2r` of intra-cluster travel around each of the `k + 1` clusters
/// over-estimates it:
///
/// ```text
/// dist_Q ≤ dist_G(u, v) ≤ dist_Q + (hops_Q + 1)·2r .
/// ```
#[derive(Clone, Debug)]
pub struct WeightedDistanceOracle {
    decomposition: WeightedDecomposition,
    quotient: WeightedCsrGraph,
    /// Fine vertex → dense cluster id.
    map: Vec<Vertex>,
    /// Max weighted distance to center over all clusters (the `r` above).
    radius: f64,
}

impl WeightedDistanceOracle {
    /// Builds the oracle: one weighted partition + one weighted
    /// contraction. `g` is any [`WeightedGraphView`] — an in-memory
    /// weighted CSR, a mmap'd weighted snapshot, or an induced view.
    pub fn new<W: WeightedGraphView>(g: &W, beta: f64, seed: u64) -> Self {
        Self::with_options(g, &DecompOptions::new(beta).with_seed(seed))
    }

    /// [`WeightedDistanceOracle::new`] under full [`DecompOptions`] (the
    /// partition runs through [`partition_weighted`], Δ-stepping
    /// pinned, like the unweighted oracle pins top-down).
    pub fn with_options<W: WeightedGraphView>(g: &W, opts: &DecompOptions) -> Self {
        let d = partition_weighted(g, &opts.clone().with_traversal(Traversal::TopDownPar));
        let coarse = coarsen_weighted(g, &d);
        let radius = d.max_radius();
        WeightedDistanceOracle {
            decomposition: d,
            quotient: coarse.quotient,
            map: coarse.map,
            radius,
        }
    }

    /// The weighted decomposition backing the oracle.
    pub fn decomposition(&self) -> &WeightedDecomposition {
        &self.decomposition
    }

    /// The cluster radius `r` controlling the approximation quality.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Lower/upper distance brackets from `source` to every vertex
    /// (`None` where unreachable). One quotient Dijkstra tracking, per
    /// cluster, the hop count of its shortest-weight path (ties prefer
    /// fewer hops, tightening the upper bound), `O(n + m_Q log n_Q)`.
    pub fn bounds_from(&self, source: Vertex) -> Vec<Option<(f64, f64)>> {
        let cs = self.map[source as usize];
        let nq = self.quotient.num_vertices();
        let mut dist = vec![f64::INFINITY; nq];
        let mut hops = vec![u32::MAX; nq];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(ordered::F64, u32, Vertex)>> =
            std::collections::BinaryHeap::new();
        dist[cs as usize] = 0.0;
        hops[cs as usize] = 0;
        heap.push(std::cmp::Reverse((ordered::F64(0.0), 0, cs)));
        while let Some(std::cmp::Reverse((ordered::F64(du), hu, u))) = heap.pop() {
            if du > dist[u as usize] || (du == dist[u as usize] && hu > hops[u as usize]) {
                continue;
            }
            for (v, w) in self.quotient.neighbors_weighted(u) {
                let (cand, h) = (du + w, hu + 1);
                if cand < dist[v as usize] || (cand == dist[v as usize] && h < hops[v as usize]) {
                    dist[v as usize] = cand;
                    hops[v as usize] = h;
                    heap.push(std::cmp::Reverse((ordered::F64(cand), h, v)));
                }
            }
        }
        (0..self.decomposition.assignment.len() as Vertex)
            .map(|v| {
                let c = self.map[v as usize] as usize;
                if !dist[c].is_finite() {
                    return None;
                }
                let upper = dist[c] + (hops[c] as f64 + 1.0) * 2.0 * self.radius;
                Some((dist[c], upper))
            })
            .collect()
    }
}

/// Total order on finite non-negative `f64`s for the oracle's heap keys.
mod ordered {
    #[derive(Clone, Copy, PartialEq, PartialOrd)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.partial_cmp(other).unwrap_or(std::cmp::Ordering::Equal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::gen;

    fn check_brackets(g: &CsrGraph, oracle: &DistanceOracle, source: Vertex) {
        let truth = algo::bfs(g, source);
        let bounds = oracle.bounds_from(source);
        for v in 0..g.num_vertices() {
            match (truth[v], bounds[v]) {
                (INFINITY, None) => {}
                (t, Some((lo, hi))) => {
                    assert!(lo <= t, "vertex {v}: lower {lo} > true {t}");
                    assert!(t <= hi, "vertex {v}: true {t} > upper {hi}");
                }
                (t, b) => panic!("vertex {v}: reachability mismatch {t} vs {b:?}"),
            }
        }
    }

    #[test]
    fn brackets_valid_on_grid() {
        let g = gen::grid2d(30, 30);
        let oracle = DistanceOracle::new(&g, 0.15, 3);
        for source in [0u32, 450, 899] {
            check_brackets(&g, &oracle, source);
        }
    }

    #[test]
    fn brackets_valid_on_random_graphs() {
        for seed in 0..4u64 {
            let g = gen::gnm(400, 1200, seed);
            let oracle = DistanceOracle::new(&g, 0.2, seed);
            check_brackets(&g, &oracle, 0);
        }
    }

    #[test]
    fn brackets_valid_on_disconnected_graph() {
        let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (5, 6)]);
        let oracle = DistanceOracle::new(&g, 0.3, 1);
        check_brackets(&g, &oracle, 0);
        assert!(oracle.bounds_from(0)[5].is_none());
    }

    #[test]
    fn smaller_beta_coarser_but_fewer_hops() {
        let g = gen::grid2d(40, 40);
        let fine = DistanceOracle::new(&g, 0.4, 2);
        let coarse = DistanceOracle::new(&g, 0.02, 2);
        assert!(coarse.decomposition().num_clusters() < fine.decomposition().num_clusters());
        assert!(coarse.radius() > fine.radius());
    }

    fn check_weighted_brackets(
        g: &WeightedCsrGraph,
        oracle: &WeightedDistanceOracle,
        source: Vertex,
    ) {
        let truth = algo::dijkstra(g, source);
        let bounds = oracle.bounds_from(source);
        for v in 0..g.num_vertices() {
            match (truth[v].is_finite(), bounds[v]) {
                (false, None) => {}
                (true, Some((lo, hi))) => {
                    assert!(
                        lo <= truth[v] + 1e-9,
                        "vertex {v}: lower {lo} > true {}",
                        truth[v]
                    );
                    assert!(
                        truth[v] <= hi + 1e-9,
                        "vertex {v}: true {} > upper {hi}",
                        truth[v]
                    );
                }
                (t, b) => panic!("vertex {v}: reachability mismatch {t} vs {b:?}"),
            }
        }
    }

    #[test]
    fn weighted_brackets_valid_on_random_graphs() {
        for seed in 0..4u64 {
            let skeleton = gen::gnm(300, 900, seed);
            let edges: Vec<(Vertex, Vertex, f64)> = skeleton
                .edges()
                .enumerate()
                .map(|(i, (u, v))| (u, v, 0.25 + ((i as u64 * 11 + seed) % 16) as f64 * 0.25))
                .collect();
            let g = WeightedCsrGraph::from_edges(skeleton.num_vertices(), &edges);
            let oracle = WeightedDistanceOracle::new(&g, 0.2, seed);
            check_weighted_brackets(&g, &oracle, 0);
            check_weighted_brackets(&g, &oracle, 123);
        }
    }

    #[test]
    fn weighted_brackets_valid_on_disconnected_graph() {
        let g = WeightedCsrGraph::from_edges(8, &[(0, 1, 0.5), (1, 2, 1.5), (5, 6, 2.0)]);
        let oracle = WeightedDistanceOracle::new(&g, 0.3, 1);
        check_weighted_brackets(&g, &oracle, 0);
        assert!(oracle.bounds_from(0)[5].is_none());
        assert!(oracle.radius() >= 0.0);
    }

    #[test]
    fn same_cluster_bracket_tight_at_zero_hops() {
        let g = gen::complete(20);
        let oracle = DistanceOracle::new(&g, 0.05, 7);
        if oracle.decomposition().num_clusters() == 1 {
            let bounds = oracle.bounds_from(0);
            for b in &bounds[1..20] {
                let (lo, hi) = b.unwrap();
                assert_eq!(lo, 0);
                assert!(hi >= 1);
            }
        }
    }

    use mpx_graph::CsrGraph;
}
