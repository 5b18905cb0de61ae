//! Erdős–Rényi and random-regular generators.

use crate::csr::{CsrGraph, Vertex};
use crate::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`. Runs in `O(n + m)` expected time by skipping geometric
/// gaps rather than flipping all `n(n-1)/2` coins.
pub fn gnp(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return b.build();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if p >= 1.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(i as Vertex, j as Vertex);
            }
        }
        return b.build();
    }
    // Ball-dropping with geometric skips over the lexicographic pair stream.
    let total = n * (n - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut idx: usize = 0;
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_q).floor() as usize;
        idx = match idx.checked_add(skip) {
            Some(i) if i < total => i,
            _ => break,
        };
        let (u, v) = pair_from_index(n, idx);
        b.add_edge(u, v);
        idx += 1;
        if idx >= total {
            break;
        }
    }
    b.build()
}

/// Maps a linear index in `0..n(n-1)/2` to the corresponding pair `(u, v)`,
/// `u < v`, in lexicographic order.
fn pair_from_index(n: usize, idx: usize) -> (Vertex, Vertex) {
    // Row u (pairs (u, v), v > u) holds n-1-u entries, so it starts at
    // offset u(2n - u - 1)/2. Solve for u from an analytic initial guess,
    // then correct by scanning (the guess is off by at most a step).
    let nf = n as f64;
    let i = idx as f64;
    let mut u = ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0) * (2.0 * nf - 1.0) - 8.0 * i).sqrt()) / 2.0)
        .floor()
        .max(0.0) as usize;
    u = u.min(n - 2);
    let row_start = |u: usize| u * (2 * n - u - 1) / 2;
    while u + 1 < n && row_start(u + 1) <= idx {
        u += 1;
    }
    while row_start(u) > idx {
        u -= 1;
    }
    let v = u + 1 + (idx - row_start(u));
    (u as Vertex, v as Vertex)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges sampled uniformly.
///
/// Rejection-samples pairs; requires `m` at most half the number of possible
/// pairs to keep rejection cheap (panics otherwise).
pub fn gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= total / 2 || total <= 64,
        "gnm: m={m} too close to max {total}; use gnp instead"
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
    fn pair_from_index_roundtrip() {
        let n = 9;
        let mut idx = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_from_index(n, idx), (u as Vertex, v as Vertex));
                idx += 1;
            }
        }
    }

    #[test]
    fn gnp_zero_and_one() {
        assert_eq!(gnp(20, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, 99);
        let expect = (n * (n - 1) / 2) as f64 * p;
        let got = g.num_edges() as f64;
        assert!(
            (got - expect).abs() < 5.0 * expect.sqrt(),
            "edges {got} far from mean {expect}"
        );
        assert!(g.validate().is_ok());
    }

    #[test]
    fn gnp_deterministic_across_seeds() {
        assert_eq!(gnp(100, 0.1, 5), gnp(100, 0.1, 5));
        assert_ne!(gnp(100, 0.1, 5), gnp(100, 0.1, 6));
    }

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
