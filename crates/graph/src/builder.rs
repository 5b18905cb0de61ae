//! Incremental construction of [`CsrGraph`]s.
//!
//! The builder accumulates an edge list and finalizes it into CSR form with
//! a parallel sort + dedup, a counting pass and a two-pass scatter that
//! writes every adjacency list already ascending. Finalization cost is
//! `O(m log m)` work with rayon's parallel sort; this is where all graph
//! construction in the workspace funnels through, so it is worth keeping
//! tight.

use crate::csr::{CsrGraph, Vertex};
use rayon::prelude::*;
use std::collections::TryReserveError;

/// Accumulates edges and produces a [`CsrGraph`].
///
/// ```
/// use mpx_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// New builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// New builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently dropped.
    ///
    /// Panics if an endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
    }

    /// Finalizes into a [`CsrGraph`], deduplicating and symmetrizing.
    ///
    /// Panics if the CSR arrays cannot be allocated;
    /// [`try_build`](GraphBuilder::try_build) returns that as an error.
    pub fn build(self) -> CsrGraph {
        self.try_build()
            .unwrap_or_else(|e| panic!("cannot allocate the graph: {e}"))
    }

    /// [`build`](GraphBuilder::build), returning a failed allocation of the
    /// `O(n + m)` CSR arrays as an error instead of aborting the process:
    /// a text header can claim billions of vertices in a few bytes.
    pub fn try_build(self) -> Result<CsrGraph, TryReserveError> {
        let GraphBuilder { n, mut edges } = self;
        // Sort + dedup the canonical (u < v) pairs.
        if edges.len() > 1 << 14 {
            edges.par_sort_unstable();
        } else {
            edges.sort_unstable();
        }
        edges.dedup();

        // Count degrees (each edge contributes to both endpoints).
        let mut degree = zeroed(n, 0usize)?;
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let offsets = prefix_offsets(&degree)?;
        let acc = offsets[n];

        // Scatter without sorting: the edges are sorted by (u, v), so one
        // pass writing each `u` into `v`'s list gives every vertex its
        // smaller neighbours in ascending order, and a second pass writing
        // each `v` into `u`'s list appends its larger neighbours, also
        // ascending. Reuse `degree` as per-vertex cursors.
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..n]);
        let mut targets = zeroed(acc, 0 as Vertex)?;
        for &(u, v) in &edges {
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for &(u, v) in &edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        Ok(CsrGraph::from_parts(offsets, targets))
    }
}

/// `len` copies of `zero`, reserved fallibly.
pub(crate) fn zeroed<T: Clone>(len: usize, zero: T) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)?;
    v.resize(len, zero);
    Ok(v)
}

/// CSR offsets `[0, d0, d0 + d1, …]` of a degree array, reserved
/// fallibly.
pub(crate) fn prefix_offsets(degree: &[usize]) -> Result<Vec<usize>, TryReserveError> {
    let mut offsets = Vec::new();
    offsets.try_reserve_exact(degree.len() + 1)?;
    offsets.push(0);
    let mut acc = 0usize;
    for d in degree {
        acc += d;
        offsets.push(acc);
    }
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_and_symmetrizes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 1);
        b.add_edge(1, 3);
        b.add_edge(0, 1);
        b.add_edge(2, 2); // dropped
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(3), &[1]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn neighbor_lists_sorted_on_large_random_input() {
        // Exercise the parallel sort path with > 2^14 edge records.
        let n = 2000u32;
        let mut b = GraphBuilder::new(n as usize);
        let mut state = 0x12345678u64;
        for _ in 0..40_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 16) % n as u64) as u32;
            let v = ((state >> 40) % n as u64) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }
}
