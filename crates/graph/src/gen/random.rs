//! Erdős–Rényi and random-regular generators.

use crate::csr::{CsrGraph, Vertex};
use crate::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges sampled uniformly.
///
/// Rejection-samples pairs; requires `m` at most half the number of possible
/// pairs to keep rejection cheap (panics otherwise).
pub fn gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= total / 2 || total <= 64,
        "gnm: m={m} too close to max {total}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(n, m);
    if n < 2 {
        return b.build();
    }
    while seen.len() < m.min(total) {
        let u = rng.gen_range(0..n as Vertex);
        let v = rng.gen_range(0..n as Vertex);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Random `d`-regular graph via the configuration (pairing) model with
/// retries until a simple matching is found. `n * d` must be even.
///
/// For constant `d` the expected number of retries is about
/// `e^{(d²-1)/4}`: roughly 40 at `d = 4` and 400 at `d = 5`, but
/// thousands at `d = 6`. The retry budget is 1000 attempts, so `d ≤ 5` is
/// the practical range; larger degrees usually exhaust it and panic.
pub fn random_regular(n: usize, d: usize, seed: u64) -> CsrGraph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be < n");
    let mut rng = StdRng::seed_from_u64(seed);
    'retry: for _attempt in 0..1000 {
        // Stubs: d copies of each vertex, shuffled, then paired up.
        let mut stubs: Vec<Vertex> = (0..n as Vertex)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        // Fisher-Yates.
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let mut seen = std::collections::HashSet::with_capacity(n * d / 2 * 2);
        let mut edges = Vec::with_capacity(n * d / 2);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue 'retry;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                continue 'retry;
            }
            edges.push((u, v));
        }
        return CsrGraph::from_edges(n, &edges);
    }
    panic!("random_regular: failed to generate simple graph after 1000 attempts (n={n}, d={d})");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_edge_count() {
        let g = gnm(300, 900, 3);
        assert_eq!(g.num_edges(), 900);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn gnm_tiny() {
        let g = gnm(2, 1, 0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(gnm(1, 0, 0).num_edges(), 0);
    }

    #[test]
    fn random_regular_degrees() {
        let g = random_regular(50, 4, 11);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(g.num_edges(), 100);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn random_regular_odd_degree_even_n() {
        let g = random_regular(20, 3, 2);
        assert!(g.vertices().all(|v| g.degree(v) == 3));
    }

    #[test]
    #[should_panic]
    fn random_regular_rejects_odd_product() {
        let _ = random_regular(5, 3, 0);
    }
}
