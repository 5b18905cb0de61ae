//! Weighted-graph extension of the partition routine (paper Section 6).
//!
//! The analysis of Section 4 "can be readily extended to the weighted
//! case": draw `δ_u ~ Exp(β)` as before and assign each vertex to the
//! center minimizing the *weighted* shifted distance `dist_w(u, v) − δ_u`.
//! The super-source reduction of Section 5 turns this into one
//! multi-source Dijkstra where every vertex `u` enters the queue with
//! initial distance `start_u = δ_max − δ_u`, carrying its own id as the
//! cluster *root*; the root label propagates along settled shortest paths.
//!
//! The paper leaves the *parallel* weighted case open ("the depth of the
//! algorithm is harder to control since hop count is no longer closely
//! related to diameter"). As an engineering extension the workspace has a
//! bucketed Δ-stepping implementation whose relaxations run in parallel
//! through an order-independent lock-free reduction; it produces
//! **bit-identical** decompositions to the sequential Dijkstra.
//!
//! This module holds the output type ([`WeightedDecomposition`]) and the
//! verifier. The strategy-routed engine lives in [`crate::wengine`]; it
//! runs through [`crate::partition_weighted`] and the weighted session
//! ([`crate::DecomposerBuilder::build_weighted`]).

use crate::decomposition::cut_edges_of_view;
use mpx_graph::{GraphView, Vertex, WeightedGraphView};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A low-diameter decomposition of a weighted graph.
#[must_use = "a WeightedDecomposition carries the labels the partition computed"]
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedDecomposition {
    /// Center assigned to each vertex.
    pub assignment: Vec<Vertex>,
    /// Weighted distance from each vertex to its center (within cluster, by
    /// the weighted analogue of Lemma 4.1).
    pub dist_to_center: Vec<f64>,
    /// Sorted list of distinct centers.
    pub centers: Vec<Vertex>,
}

impl WeightedDecomposition {
    pub(crate) fn from_raw(assignment: Vec<Vertex>, dist_to_center: Vec<f64>) -> Self {
        let mut centers = assignment.clone();
        centers.sort_unstable();
        centers.dedup();
        WeightedDecomposition {
            assignment,
            dist_to_center,
            centers,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Maximum weighted radius over all clusters.
    pub fn max_radius(&self) -> f64 {
        self.dist_to_center.iter().cloned().fold(0.0, f64::max)
    }

    /// Number of edges crossing between clusters, over any [`GraphView`]
    /// (a [`mpx_graph::WeightedCsrGraph`], a mapped snapshot, an induced
    /// view, …). Shares the parallel view-edge enumeration with
    /// [`crate::Decomposition::cut_edges_view`].
    pub fn cut_edges<V: GraphView>(&self, g: &V) -> usize {
        cut_edges_of_view(&self.assignment, g)
    }

    /// `cut_edges / m`.
    pub fn cut_fraction<V: GraphView>(&self, g: &V) -> f64 {
        let m = (g.total_degree() / 2) as usize;
        if m == 0 {
            0.0
        } else {
            self.cut_edges(g) as f64 / m as f64
        }
    }
}

/// Verifies a weighted decomposition: partition well-formedness, the
/// strong-diameter property (restricted intra-cluster Dijkstra reproduces
/// the recorded distances). A malformed decomposition — wrong-length
/// vectors, a center out of range — is reported as an error, never
/// indexed.
pub fn verify_weighted<W: WeightedGraphView>(
    g: &W,
    d: &WeightedDecomposition,
) -> Result<(), String> {
    let n = g.num_vertices();
    if d.assignment.len() != n {
        return Err("assignment length mismatch".into());
    }
    if d.dist_to_center.len() != n {
        return Err("dist_to_center length mismatch".into());
    }
    for &c in &d.centers {
        if c as usize >= n {
            return Err(format!("center {c} out of range (n = {n})"));
        }
        if d.assignment[c as usize] != c {
            return Err(format!("center {c} not self-assigned"));
        }
    }
    // Restricted multi-source Dijkstra from all centers within clusters.
    // Lengths are positive and finite (every in-tree weighted view rejects
    // others), so distances are non-negative and their bits order as
    // `u64`s: the heap is keyed by `(dist bits, vertex)`.
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    for &c in &d.centers {
        dist[c as usize] = 0.0;
        heap.push(Reverse((0.0f64.to_bits(), c)));
    }
    while let Some(Reverse((bits, u))) = heap.pop() {
        let du = f64::from_bits(bits);
        if du > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors_weighted_iter(u) {
            if d.assignment[v as usize] != d.assignment[u as usize] {
                continue;
            }
            let cand = du + w;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(Reverse((cand.to_bits(), v)));
            }
        }
    }
    for (v, &dv) in dist.iter().enumerate() {
        if !dv.is_finite() {
            return Err(format!(
                "vertex {v} disconnected from its center within cluster"
            ));
        }
        if (dv - d.dist_to_center[v]).abs() > 1e-6 * (1.0 + dv.abs()) {
            return Err(format!(
                "vertex {v}: recorded dist {} vs intra-cluster dist {}",
                d.dist_to_center[v], dv
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DecompOptions, Traversal};
    use crate::{partition_weighted, DecomposerBuilder};
    use mpx_graph::gen;
    use mpx_graph::{CsrGraph, WeightedCsrGraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    fn random_weighted(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(Vertex, Vertex, f64)> = g
            .edges()
            .map(|(u, v)| (u, v, rng.gen_range(0.1..4.0)))
            .collect();
        WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
    }

    #[test]
    fn weighted_partition_is_valid() {
        let g = random_weighted(&gen::grid2d(20, 20), 1);
        let d = partition_weighted(&g, &opts(0.1, 2));
        assert!(verify_weighted(&g, &d).is_ok());
        assert!(d.num_clusters() >= 1);
    }

    #[test]
    fn unit_weights_match_unweighted_partition() {
        // With unit weights the weighted rule equals the unweighted one:
        // same shifts, and comparing `start_u + hops` as a real number is
        // what the integer engine's (round, fractional tie-break) pair
        // encodes. The labels must agree bit-for-bit except where two
        // fractional parts collide in the unweighted engine's 32-bit
        // quantization — absent on these fixed seeds.
        for seed in [7, 8, 9] {
            let g = gen::grid2d(15, 15);
            let wg = WeightedCsrGraph::unit_weights(&g);
            let o = opts(0.2, seed);
            let wd = partition_weighted(&wg, &o);
            let ud = crate::partition(&g, &o);
            for v in 0..g.num_vertices() {
                assert_eq!(
                    wd.assignment[v],
                    ud.center_of(v as Vertex),
                    "seed {seed} vertex {v}"
                );
                assert_eq!(
                    wd.dist_to_center[v],
                    ud.dist_to_center(v as Vertex) as f64,
                    "seed {seed} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn parallel_delta_stepping_matches_dijkstra() {
        for seed in 0..6u64 {
            let g = random_weighted(&gen::gnm(200, 600, seed), seed + 50);
            let o = opts(0.15, seed);
            let a = partition_weighted(&g, &o.clone().with_traversal(Traversal::TopDownSeq));
            let b = partition_weighted(&g, &o.with_traversal(Traversal::TopDownPar));
            assert_eq!(a.assignment, b.assignment, "seed {seed}");
            for v in 0..g.num_vertices() {
                assert_eq!(
                    a.dist_to_center[v].to_bits(),
                    b.dist_to_center[v].to_bits(),
                    "seed {seed} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn delta_stepping_various_widths() {
        let g = random_weighted(&gen::grid2d(12, 12), 3);
        let o = opts(0.2, 4);
        let reference = partition_weighted(&g, &o.clone().with_traversal(Traversal::TopDownSeq));
        for delta in [0.05, 0.5, 2.0, 100.0] {
            let d = DecomposerBuilder::from_options(o.clone())
                .build_weighted(&g)
                .unwrap()
                .with_delta(Some(delta))
                .run();
            assert_eq!(reference.assignment, d.assignment, "delta {delta}");
        }
    }

    #[test]
    fn weighted_cut_scales_with_beta() {
        let g = random_weighted(&gen::grid2d(30, 30), 9);
        let runs = 4;
        let avg_cut = |beta: f64| -> f64 {
            (0..runs)
                .map(|s| partition_weighted(&g, &opts(beta, s)).cut_fraction(&g))
                .sum::<f64>()
                / runs as f64
        };
        assert!(avg_cut(0.02) < avg_cut(0.4));
    }

    #[test]
    fn cut_helpers_agree_with_unweighted_twin() {
        // Satellite check for the shared view-edge enumeration: the weighted
        // cut over the weighted graph equals the unweighted cut of the same
        // assignment over the skeleton.
        let skeleton = gen::gnm(120, 360, 11);
        let g = random_weighted(&skeleton, 12);
        let d = partition_weighted(&g, &opts(0.25, 3));
        let brute = g
            .edges()
            .filter(|&(u, v, _)| d.assignment[u as usize] != d.assignment[v as usize])
            .count();
        assert_eq!(d.cut_edges(&g), brute);
        assert_eq!(d.cut_edges(&skeleton), brute);
        assert!((d.cut_fraction(&g) - brute as f64 / g.num_edges() as f64).abs() < 1e-12);
    }

    #[test]
    fn weighted_verifier_detects_bad_distances() {
        let g = random_weighted(&gen::path(5), 1);
        let mut d = partition_weighted(&g, &opts(0.3, 1));
        if d.dist_to_center.len() > 1 {
            d.dist_to_center[1] += 10.0;
        }
        assert!(verify_weighted(&g, &d).is_err());
    }

    #[test]
    fn empty_weighted_graph() {
        let g = WeightedCsrGraph::from_edges(0, &[]);
        let d = partition_weighted(&g, &opts(0.2, 0));
        assert_eq!(d.num_clusters(), 0);
    }
}
