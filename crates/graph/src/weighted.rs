//! Weighted undirected graphs in CSR form.
//!
//! [`WeightedCsrGraph`] mirrors [`CsrGraph`] with a parallel
//! `f64` weight per stored arc. It backs two parts of the workspace:
//!
//! * the paper's **Section 6** extension of the partition routine to
//!   weighted graphs (shifted Dijkstra / Δ-stepping), and
//! * the Laplacian solver crate, where weights are edge conductances.
//!
//! Weights must be finite and strictly positive.

use crate::builder::{prefix_offsets, zeroed};
use crate::csr::{CsrGraph, Vertex};
use std::collections::TryReserveError;

/// An immutable, undirected, weighted simple graph in CSR form.
///
/// The same symmetry/sortedness invariants as [`CsrGraph`] hold; in addition
/// the weight stored with arc `(u → v)` equals the weight stored with
/// `(v → u)`.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedCsrGraph {
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
    weights: Vec<f64>,
}

impl WeightedCsrGraph {
    /// Builds a weighted graph from `(u, v, w)` triples.
    ///
    /// Duplicate edges keep the smallest weight; self-loops are dropped.
    /// Panics on non-finite or non-positive weights or out-of-range ids.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex, f64)]) -> Self {
        let mut b = WeightedGraphBuilder::with_capacity(n, edges.len());
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// A weighted view of an unweighted graph with all weights `1.0`.
    pub fn unit_weights(g: &CsrGraph) -> Self {
        WeightedCsrGraph {
            offsets: g.offsets().to_vec(),
            targets: g.targets().to_vec(),
            weights: vec![1.0; g.targets().len()],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn weights_of(&self, v: Vertex) -> &[f64] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: Vertex) -> impl Iterator<Item = (Vertex, f64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<f64> {
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.weights_of(u)[idx])
    }

    /// Iterator over undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex, f64)> + '_ {
        (0..self.num_vertices() as Vertex).flat_map(move |u| {
            self.neighbors_weighted(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Drops weights, returning the underlying unweighted graph.
    pub fn to_unweighted(&self) -> CsrGraph {
        let edges: Vec<(Vertex, Vertex)> = self.edges().map(|(u, v, _)| (u, v)).collect();
        CsrGraph::from_edges(self.num_vertices(), &edges)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum::<f64>() / 2.0
    }

    /// The raw CSR offset array (`n + 1` entries, ascending).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw arc target array (`2m` entries).
    #[inline]
    pub fn targets(&self) -> &[Vertex] {
        &self.targets
    }

    /// The raw per-arc weight array, parallel to [`Self::targets`].
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Assembles a graph from already-validated CSR arrays (snapshot
    /// loaders). The caller must guarantee every invariant `validate`
    /// checks.
    pub(crate) fn from_parts(offsets: Vec<usize>, targets: Vec<Vertex>, weights: Vec<f64>) -> Self {
        let g = WeightedCsrGraph {
            offsets,
            targets,
            weights,
        };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Checks every invariant of [`CsrGraph::validate`] plus finite,
    /// strictly positive weights with equal bits on both directions of an
    /// edge, in the same linear audit; the error names the offending
    /// vertex.
    pub fn validate(&self) -> Result<(), String> {
        crate::snapshot::audit_csr(&self.offsets, &self.targets, Some(&self.weights))
    }
}

/// Incremental builder for [`WeightedCsrGraph`].
#[derive(Clone, Debug, Default)]
pub struct WeightedGraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex, f64)>,
}

impl WeightedGraphBuilder {
    /// New builder on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// New builder with reserved capacity.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        WeightedGraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds undirected edge `{u, v}` with weight `w > 0`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex, w: f64) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        assert!(
            w.is_finite() && w > 0.0,
            "weight must be finite positive, got {w}"
        );
        if u != v {
            self.edges.push(if u < v { (u, v, w) } else { (v, u, w) });
        }
    }

    /// Finalizes the graph. Duplicate edges keep the minimum weight.
    ///
    /// Panics if the CSR arrays cannot be allocated;
    /// [`try_build`](WeightedGraphBuilder::try_build) returns that as an
    /// error.
    pub fn build(self) -> WeightedCsrGraph {
        self.try_build()
            .unwrap_or_else(|e| panic!("cannot allocate the graph: {e}"))
    }

    /// [`build`](WeightedGraphBuilder::build), returning a failed
    /// allocation of the `O(n + m)` CSR arrays as an error instead of
    /// aborting the process: a text header can claim billions of vertices
    /// in a few bytes.
    pub fn try_build(self) -> Result<WeightedCsrGraph, TryReserveError> {
        let WeightedGraphBuilder { n, mut edges } = self;
        edges.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.partial_cmp(&b.2).unwrap())
        });
        edges.dedup_by_key(|e| (e.0, e.1));

        let mut degree = zeroed(n, 0usize)?;
        for &(u, v, _) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let offsets = prefix_offsets(&degree)?;
        let acc = offsets[n];
        // The same two-pass scatter as `GraphBuilder::try_build`: smaller
        // neighbours first, then larger ones, so every list comes out
        // ascending without a sort. Reuse `degree` as per-vertex cursors.
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..n]);
        let mut targets = zeroed(acc, 0 as Vertex)?;
        let mut weights = zeroed(acc, 0f64)?;
        for &(u, v, w) in &edges {
            targets[cursor[v as usize]] = u;
            weights[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        for &(u, v, w) in &edges {
            targets[cursor[u as usize]] = v;
            weights[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
        }
        let g = WeightedCsrGraph {
            offsets,
            targets,
            weights,
        };
        debug_assert!(g.validate().is_ok());
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn weighted_triangle() {
        let g = WeightedCsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 1), Some(2.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.validate().is_ok());
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let g = WeightedCsrGraph::from_edges(2, &[(0, 1, 5.0), (1, 0, 2.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn unit_weight_view_roundtrip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let wg = WeightedCsrGraph::unit_weights(&g);
        assert_eq!(wg.num_edges(), 3);
        assert!(wg.edges().all(|(_, _, w)| w == 1.0));
        assert_eq!(wg.to_unweighted(), g);
        assert!(wg.validate().is_ok());
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        let _ = WeightedCsrGraph::from_edges(2, &[(0, 1, 0.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_weight() {
        let _ = WeightedCsrGraph::from_edges(2, &[(0, 1, f64::NAN)]);
    }
}
