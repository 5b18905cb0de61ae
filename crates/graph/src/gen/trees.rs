//! Tree generators. Trees are boundary cases for decompositions (`m = n-1`,
//! every piece boundary is a single edge) and are the substrate for the
//! low-stretch spanning tree application.

use crate::csr::{CsrGraph, Vertex};
use crate::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random recursive tree: vertex `i ≥ 1` attaches to a uniform
/// random earlier vertex.
pub fn random_tree(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(parent as Vertex, i as Vertex);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tree_is_tree() {
        let g = random_tree(100, 9);
        assert_eq!(g.num_edges(), 99);
        let dist = crate::algo::bfs(&g, 0);
        assert!(dist.iter().all(|&d| d != crate::INFINITY), "tree connected");
    }
}
