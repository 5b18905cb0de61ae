//! Zero-copy **weighted** graph views.
//!
//! [`WeightedGraphView`] is the weighted twin of [`GraphView`]: exactly the
//! surface a shifted multi-source Dijkstra / Δ-stepping traversal needs —
//! vertex count, degree, and ascending `(neighbor, weight)` iteration. One
//! weighted engine (in `mpx-decomp`) runs over
//!
//! * a [`WeightedCsrGraph`] — the whole in-memory graph,
//! * an [`InducedView`] of any weighted view — a **vertex subset** under
//!   dense ids, neighbors filtered on the fly, no CSR copy (the same type
//!   that serves unweighted graphs), and
//! * a memory-mapped weighted `.mpx` snapshot
//!   ([`crate::snapshot::MappedWeightedCsr`]) — the engine traverses the
//!   file's pages.
//!
//! [`GraphView`] is a supertrait: every weighted view also presents the
//! unweighted traversal surface (weights dropped), so the unweighted
//! helpers — cut-edge counting, the shared [`crate::view_edges`]
//! enumeration, BFS oracles — apply to weighted graphs unchanged. That is
//! what lets the weighted and unweighted decompositions share one
//! cut-statistics implementation.
//!
//! # Id spaces
//!
//! As with the unweighted views, every view presents a dense id space
//! `0..num_vertices()`; for an [`InducedView`] the dense id of an active
//! vertex is its rank in the ascending active list.

use crate::csr::Vertex;
use crate::view::{GraphView, InducedView};
use crate::weighted::WeightedCsrGraph;

/// The read-only traversal surface of a **weighted** graph: the weighted
/// engine contract.
///
/// Same invariants as [`GraphView`] (symmetric, ascending, loop-free,
/// duplicate-free neighbor lists) plus: the weight iterated with arc
/// `(u → v)` equals the weight iterated with `(v → u)`, and all weights
/// are finite and strictly positive. The engine's session entry points
/// enforce the weight invariant with a typed error; implementations built
/// from [`WeightedCsrGraph`] or a validated snapshot satisfy it by
/// construction.
pub trait WeightedGraphView: GraphView {
    /// `(neighbor, weight)` iterator of one vertex, neighbors ascending.
    type WeightedNeighbors<'a>: Iterator<Item = (Vertex, f64)> + 'a
    where
        Self: 'a;

    /// Ascending `(neighbor, weight)` pairs of `v` within the view.
    fn neighbors_weighted_iter(&self, v: Vertex) -> Self::WeightedNeighbors<'_>;

    /// Sum of all edge weights within the view (each undirected edge
    /// counted once). The default implementation sweeps every arc; CSR
    /// implementations override it with a cheaper direct sum.
    fn total_weight(&self) -> f64 {
        (0..self.num_vertices() as Vertex)
            .map(|v| self.neighbors_weighted_iter(v).map(|(_, w)| w).sum::<f64>())
            .sum::<f64>()
            / 2.0
    }
}

/// Ascending undirected weighted edges `(u, v, w)` with `u < v` of any
/// weighted view — the weighted twin of [`crate::view_edges`], and the
/// shared enumeration the weighted coarsening/spanner/cut pipelines use so
/// they visit edges identically whether the graph is in memory, a mapped
/// snapshot, or an induced view.
pub fn weighted_view_edges<W: WeightedGraphView>(
    view: &W,
) -> impl Iterator<Item = (Vertex, Vertex, f64)> + '_ {
    (0..view.num_vertices() as Vertex).flat_map(move |u| {
        view.neighbors_weighted_iter(u)
            .filter(move |&(v, _)| u < v)
            .map(move |(v, w)| (u, v, w))
    })
}

impl GraphView for WeightedCsrGraph {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, Vertex>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        WeightedCsrGraph::num_vertices(self)
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        WeightedCsrGraph::degree(self, v)
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        self.targets().len() as u64
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        self.neighbors(v).iter().copied()
    }
}

impl WeightedGraphView for WeightedCsrGraph {
    type WeightedNeighbors<'a> = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, Vertex>>,
        std::iter::Copied<std::slice::Iter<'a, f64>>,
    >;

    #[inline]
    fn neighbors_weighted_iter(&self, v: Vertex) -> Self::WeightedNeighbors<'_> {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    #[inline]
    fn total_weight(&self) -> f64 {
        WeightedCsrGraph::total_weight(self)
    }
}

/// Ascending active `(neighbor, weight)` pairs of one vertex of an
/// [`InducedView`] over a weighted graph, already translated to dense ids.
///
/// ```
/// use mpx_graph::{GraphView, InducedView, WeightedCsrGraph, WeightedGraphView};
/// let g = WeightedCsrGraph::from_edges(4, &[(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.0)]);
/// let view = InducedView::from_mask(&g, &[true, true, true, false]);
/// assert_eq!(view.num_vertices(), 3);
/// let nbrs: Vec<(u32, f64)> = view.neighbors_weighted_iter(1).collect();
/// assert_eq!(nbrs, vec![(0, 0.5), (2, 2.0)]);
/// ```
pub struct InducedWeightedNeighbors<'v, 'g, W: WeightedGraphView> {
    inner: W::WeightedNeighbors<'g>,
    view: &'v InducedView<'g, W>,
}

impl<W: WeightedGraphView> Iterator for InducedWeightedNeighbors<'_, '_, W> {
    type Item = (Vertex, f64);

    #[inline]
    fn next(&mut self) -> Option<(Vertex, f64)> {
        for (w, wt) in self.inner.by_ref() {
            if let Some(d) = self.view.dense_of(w) {
                return Some((d, wt));
            }
        }
        None
    }
}

impl<'g, W: WeightedGraphView> WeightedGraphView for InducedView<'g, W> {
    type WeightedNeighbors<'v>
        = InducedWeightedNeighbors<'v, 'g, W>
    where
        Self: 'v;

    #[inline]
    fn neighbors_weighted_iter(&self, v: Vertex) -> Self::WeightedNeighbors<'_> {
        InducedWeightedNeighbors {
            inner: self.graph().neighbors_weighted_iter(self.old_of(v)),
            view: self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedCsrGraph {
        WeightedCsrGraph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 0.5),
                (2, 3, 4.0),
                (1, 2, 8.0),
            ],
        )
    }

    #[test]
    fn csr_implements_both_views() {
        let g = diamond();
        assert_eq!(GraphView::num_vertices(&g), 4);
        assert_eq!(GraphView::total_degree(&g), 10);
        for v in 0..4u32 {
            assert_eq!(GraphView::degree(&g, v), g.degree(v));
            let unweighted: Vec<Vertex> = g.neighbors_iter(v).collect();
            assert_eq!(unweighted.as_slice(), g.neighbors(v));
            let weighted: Vec<(Vertex, f64)> = g.neighbors_weighted_iter(v).collect();
            let expect: Vec<(Vertex, f64)> = g.neighbors_weighted(v).collect();
            assert_eq!(weighted, expect);
        }
        assert_eq!(WeightedGraphView::total_weight(&g), g.total_weight());
    }

    #[test]
    fn weighted_view_edges_matches_csr_edges() {
        let g = diamond();
        let via_view: Vec<(Vertex, Vertex, f64)> = weighted_view_edges(&g).collect();
        let direct: Vec<(Vertex, Vertex, f64)> = g.edges().collect();
        assert_eq!(via_view, direct);
    }

    #[test]
    fn induced_view_filters_and_densifies() {
        let g = diamond();
        // Keep {0, 1, 3}: edges (0,1,1.0) and (1,3,0.5) survive.
        let view = InducedView::from_mask(&g, &[true, true, false, true]);
        assert_eq!(view.num_vertices(), 3);
        assert_eq!(view.active(), &[0, 1, 3]);
        assert_eq!(view.num_edges(), 2);
        assert_eq!(view.old_of(2), 3);
        assert_eq!(view.dense_of(3), Some(2));
        assert_eq!(view.dense_of(2), None);
        let nbrs: Vec<(Vertex, f64)> = view.neighbors_weighted_iter(1).collect();
        assert_eq!(nbrs, vec![(0, 1.0), (2, 0.5)]);
        let edges: Vec<(Vertex, Vertex, f64)> = weighted_view_edges(&view).collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 0.5)]);
        // Unweighted projection agrees.
        let unweighted: Vec<Vertex> = view.neighbors_iter(1).collect();
        assert_eq!(unweighted, vec![0, 2]);
        assert_eq!(GraphView::degree(&view, 1), 2);
        assert_eq!(view.total_degree(), 4);
        // Default total_weight sums the surviving edges.
        assert!((view.total_weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn induced_view_tolerates_stale_rank() {
        let g = diamond();
        let active: Vec<Vertex> = vec![1, 2];
        let mut rank = vec![9 as Vertex; 4];
        for (i, &v) in active.iter().enumerate() {
            rank[v as usize] = i as Vertex;
        }
        let view = InducedView::from_parts(&g, &active, &rank);
        let edges: Vec<(Vertex, Vertex, f64)> = weighted_view_edges(&view).collect();
        assert_eq!(edges, vec![(0, 1, 8.0)]);
        assert_eq!(view.graph().num_vertices(), 4);
    }

    #[test]
    fn induced_view_empty() {
        let g = diamond();
        let view = InducedView::from_mask(&g, &[false; 4]);
        assert_eq!(view.num_vertices(), 0);
        assert_eq!(view.total_degree(), 0);
        assert_eq!(weighted_view_edges(&view).count(), 0);
    }
}
