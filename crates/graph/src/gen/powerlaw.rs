//! Power-law / scale-free generators: RMAT and Barabási–Albert.
//!
//! These supply the low-diameter, skewed-degree workloads on which parallel
//! BFS behaviour differs most from meshes — the regime where the paper's
//! single-pass algorithm shines because `δ_max` (not the graph diameter)
//! bounds the number of BFS rounds.

use crate::csr::{CsrGraph, Vertex};
use crate::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RMAT (recursive-matrix) generator after Chakrabarti–Zhan–Faloutsos.
///
/// Generates `num_edges` edge samples over `2^scale` vertices by recursively
/// descending into one of the four adjacency-matrix quadrants with
/// probabilities `(a, b, c, 1-a-b-c)`. Duplicates and self-loops are removed,
/// so the final simple-edge count is somewhat below `num_edges`. Standard
/// Graph500-like parameters are `a=0.57, b=c=0.19`.
pub fn rmat(scale: u32, num_edges: usize, a: f64, b: f64, c: f64, seed: u64) -> CsrGraph {
    assert!(scale <= 30, "rmat scale too large");
    let d = 1.0 - a - b - c;
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0,
        "rmat probabilities must be a distribution"
    );
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, num_edges);
    // Noise the quadrant probabilities per level ("smoothing") like the
    // Graph500 reference to avoid exact power-law staircases.
    for _ in 0..num_edges {
        let (mut u, mut v) = (0usize, 0usize);
        for _level in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            builder.add_edge(u as Vertex, v as Vertex);
        }
    }
    builder.build()
}

/// Barabási–Albert preferential attachment: starts from a small clique on
/// `m + 1` vertices, then each new vertex attaches `m` edges to existing
/// vertices chosen proportionally to their degree (via the repeated-endpoint
/// trick: sample uniformly from the flat edge-endpoint list).
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(m >= 1, "attachment count must be >= 1");
    assert!(n > m, "need n > m");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, n * m);
    // Flat list of edge endpoints; sampling uniformly from it realizes
    // degree-proportional sampling.
    let mut endpoints: Vec<Vertex> = Vec::with_capacity(2 * n * m);
    // Seed clique on m+1 vertices.
    for i in 0..=(m as Vertex) {
        for j in (i + 1)..=(m as Vertex) {
            builder.add_edge(i, j);
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    let mut chosen: Vec<Vertex> = Vec::with_capacity(m);
    for v in (m + 1)..n {
        // Rejection-sample m distinct targets, kept in draw order: their
        // order feeds `endpoints` and so every later draw, which must be a
        // function of the seed alone.
        chosen.clear();
        while chosen.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            builder.add_edge(v as Vertex, t);
            endpoints.push(v as Vertex);
            endpoints.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_basic() {
        let g = rmat(8, 2048, 0.57, 0.19, 0.19, 1);
        assert_eq!(g.num_vertices(), 256);
        assert!(
            g.num_edges() > 512,
            "too many duplicates: {}",
            g.num_edges()
        );
        assert!(g.num_edges() <= 2048);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn rmat_deterministic() {
        assert_eq!(
            rmat(7, 1000, 0.57, 0.19, 0.19, 9),
            rmat(7, 1000, 0.57, 0.19, 0.19, 9)
        );
    }

    #[test]
    fn ba_deterministic() {
        assert_eq!(barabasi_albert(200, 3, 7), barabasi_albert(200, 3, 7));
        assert_eq!(barabasi_albert(60, 2, 1), barabasi_albert(60, 2, 1));
    }

    #[test]
    fn rmat_skews_degrees() {
        // With a=0.57 the low-id corner should accumulate much higher degree
        // than the median vertex.
        let g = rmat(10, 8 << 10, 0.57, 0.19, 0.19, 4);
        let mut degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        let max = *degs.last().unwrap();
        let median = degs[degs.len() / 2];
        assert!(
            max > 8 * (median.max(1)),
            "expected skew, max={max} median={median}"
        );
    }

    #[test]
    fn uniform_rmat_is_unskewed() {
        let g = rmat(9, 4 << 9, 0.25, 0.25, 0.25, 5);
        let max = g.max_degree();
        assert!(max < 40, "uniform rmat should look like gnm, max={max}");
    }

    #[test]
    fn ba_edge_count() {
        let n = 500;
        let m = 3;
        let g = barabasi_albert(n, m, 7);
        assert_eq!(g.num_vertices(), n);
        // Seed clique C(4,2)=6 edges + (n - m - 1) * m attachments, minus any
        // rare duplicates (there should be none since targets are distinct
        // per new vertex and new vertex ids are fresh).
        assert_eq!(g.num_edges(), 6 + (n - m - 1) * m);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn ba_hubs_exist() {
        let g = barabasi_albert(2000, 2, 13);
        assert!(g.max_degree() > 40, "expected hubs, max={}", g.max_degree());
    }

    #[test]
    fn ba_connected() {
        let g = barabasi_albert(300, 1, 21);
        let dist = crate::algo::bfs(&g, 0);
        assert!(dist.iter().all(|&d| d != crate::INFINITY));
    }
}
