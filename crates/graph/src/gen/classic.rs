//! Classic deterministic graph families.
//!
//! These small, structured graphs exercise the extremes that the paper's
//! analysis talks about: the [`path`] maximizes the sequential-dependency
//! chain of naive ball growing (Ω(n) pieces), while [`complete`] is the
//! opposite extreme where one piece must swallow the whole graph.

use crate::csr::{CsrGraph, Vertex};
use crate::GraphBuilder;

/// Path graph `0 — 1 — … — (n-1)`.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge((i - 1) as Vertex, i as Vertex);
    }
    b.build()
}

/// Cycle graph on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 0..n {
        b.add_edge(i as Vertex, ((i + 1) % n) as Vertex);
    }
    b.build()
}

/// Star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> CsrGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(0, i as Vertex);
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i as Vertex, j as Vertex);
        }
    }
    b.build()
}

/// `dim`-dimensional hypercube on `2^dim` vertices; vertices adjacent iff
/// their ids differ in exactly one bit.
pub fn hypercube(dim: u32) -> CsrGraph {
    assert!(dim <= 24, "hypercube dimension too large");
    let n = 1usize << dim;
    let mut b = GraphBuilder::with_capacity(n, n * dim as usize / 2);
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v as Vertex, u as Vertex);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_degrees() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn path_of_one_and_zero() {
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(path(0).num_vertices(), 0);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(6);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn star_structure() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert!((1..6).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(7);
        assert_eq!(g.num_edges(), 21);
        assert!(g.vertices().all(|v| g.degree(v) == 6));
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.num_vertices(), 16);
        assert_eq!(g.num_edges(), 32);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert!(g.has_edge(0b0000, 0b1000));
        assert!(!g.has_edge(0b0000, 0b0011));
    }
}
