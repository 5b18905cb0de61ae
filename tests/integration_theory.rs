//! Statistical validation of the paper's probabilistic lemmas, run at
//! integration level with enough trials to be stable (seeded, so
//! deterministic in CI).

use mpx::decomp::shift::{harmonic, ExpShifts};
use mpx::decomp::DecompOptions;
use mpx::par::rng::uniform_open01;

/// Lemma 4.2: E[δ_max] = H_n / β, and δ_max ≤ 2·ln(n)/β with
/// probability ≥ 1 − 1/n.
#[test]
fn lemma_4_2_expected_max_shift() {
    let n = 5000;
    let beta = 0.2;
    let trials = 120;
    let tail = 2.0 * (n as f64).ln() / beta;
    let mut sum = 0.0;
    for t in 0..trials {
        let s = ExpShifts::generate(n, &DecompOptions::new(beta).with_seed(31 + t));
        // Each trial exceeds the tail bound with probability < 1/n, so
        // all 120 stay below it except with probability < 2.4%.
        assert!(
            s.delta_max <= tail,
            "seed {}: δ_max {} > 2 ln n/β = {tail}",
            31 + t,
            s.delta_max
        );
        sum += s.delta_max;
    }
    let measured = sum / trials as f64;
    let predicted = harmonic(n) / beta;
    // Std dev of δ_max is ~(π/√6)/β ≈ 6.4; stderr over 120 trials ≈ 0.6,
    // predicted ≈ 45.6 — allow 5%.
    assert!(
        (measured - predicted).abs() < 0.05 * predicted,
        "measured {measured:.2} vs predicted {predicted:.2}"
    );
}

/// Lemma 4.4: for values d_i and shifts δ_i ~ Exp(β), the probability that
/// the smallest and second smallest of d_i − δ_i are within c is ≤ O(βc)
/// (more precisely ≤ e^{βc} − 1).
#[test]
fn lemma_4_4_close_minima_probability() {
    let beta = 0.1;
    let c = 1.0;
    let n = 50;
    let trials = 20_000u64;
    let mut close = 0u64;
    for t in 0..trials {
        // Arbitrary fixed distances in [0, 30]; shifts fresh per trial.
        let mut vals: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 * 0.61).rem_euclid(30.0);
                let u = uniform_open01(9_000_000 + t, i as u64);
                d - (-u.ln() / beta)
            })
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if vals[1] - vals[0] <= c {
            close += 1;
        }
    }
    let p = close as f64 / trials as f64;
    let bound = (beta * c).exp() - 1.0; // ≈ 0.105
                                        // Sampling slack: 4 standard errors.
    let slack = 4.0 * (bound * (1.0 - bound) / trials as f64).sqrt();
    assert!(
        p <= bound + slack,
        "P[within {c}] = {p:.4} exceeds Lemma 4.4 bound {bound:.4}"
    );
}

/// Fact 3.1: the gaps between consecutive order statistics of n i.i.d.
/// Exp(β) variables are independent exponentials; gap k (from the top) has
/// mean 1/(kβ). Check the top three gap means.
#[test]
fn fact_3_1_order_statistic_gaps() {
    let beta = 0.25;
    let n = 100;
    let trials = 4000;
    let mut gap_sums = [0.0f64; 3];
    for t in 0..trials {
        let s = ExpShifts::generate(n, &DecompOptions::new(beta).with_seed(777_000 + t));
        let mut d = s.delta.clone();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for k in 0..3 {
            gap_sums[k] += d[n - 1 - k] - d[n - 2 - k];
        }
    }
    for (k, &sum) in gap_sums.iter().enumerate() {
        let measured = sum / trials as f64;
        let predicted = 1.0 / ((k + 1) as f64 * beta);
        assert!(
            (measured - predicted).abs() < 0.1 * predicted,
            "gap {k}: measured {measured:.3} vs {predicted:.3}"
        );
    }
}

/// Corollary 4.5 at the statistical level: per-edge cut probability is
/// O(β) — measured on a cycle where all edges are symmetric.
#[test]
fn corollary_4_5_per_edge_cut_probability() {
    use mpx::decomp::partition;
    use mpx::graph::gen;
    let g = gen::cycle(400);
    for beta in [0.05f64, 0.2] {
        let trials = 40;
        let mut cut_edges = 0usize;
        for seed in 0..trials {
            let d = partition(&g, &DecompOptions::new(beta).with_seed(seed * 13 + 5));
            cut_edges += d.cut_edges(&g);
        }
        let per_edge = cut_edges as f64 / (trials as f64 * g.num_edges() as f64);
        let bound = (beta).exp_m1(); // e^β − 1 (Lemma 4.4 with c = 1)
        let slack = 4.0 * (bound / (trials as f64 * g.num_edges() as f64)).sqrt() + 0.01;
        assert!(
            per_edge <= bound + slack,
            "β={beta}: per-edge cut rate {per_edge:.4} > bound {bound:.4}"
        );
    }
}

/// The "start time" reduction of Section 5: δ_max − δ_u ≥ 0 with exactly
/// one vertex at 0 shift distance... i.e. at least one vertex wakes in
/// round 0, and wake rounds are bounded by ⌊δ_max⌋.
#[test]
fn section_5_wake_schedule_sanity() {
    let s = ExpShifts::generate(10_000, &DecompOptions::new(0.1).with_seed(8));
    let buckets = s.wake_buckets();
    assert!(!buckets[0].is_empty());
    assert_eq!(buckets.len() - 1, s.delta_max.floor() as usize);
    let total: usize = buckets.iter().map(|b| b.len()).sum();
    assert_eq!(total, 10_000);
}
