//! Exponentially distributed random shifts (paper Section 3).
//!
//! Each vertex `u` independently draws `δ_u ~ Exp(β)` (density
//! `β·e^{−βx}` for `x ≥ 0`). The partition assigns `v` to the center
//! minimizing `dist(u, v) − δ_u`. Equivalently — after the super-source
//! reduction of Section 5 — center `u` *starts* a BFS at time
//! `start_u = δ_max − δ_u ≥ 0`, whose integer part is its wake round and
//! whose fractional part is its tie-breaking key.
//!
//! Shifts are generated with counter-based per-vertex randomness
//! ([`mpx_par::rng::hash_index`]), matching the paper's "IN PARALLEL each
//! vertex picks δ_u" (Algorithm 1, step 1): `O(n)` work, `O(1)` depth, and
//! a result independent of evaluation order or thread count.

use crate::options::{DecompOptions, ShiftStrategy, TieBreak};
use mpx_par::rng::{hash_index, uniform_open01};
use rayon::prelude::*;

/// Domain separator so the permutation tie-break keys are independent of
/// the bits that produced the exponential shifts.
const TIEBREAK_SALT: u64 = 0x7f4a_7c15_9e37_79b9;

/// Per-vertex exponential shifts plus the derived quantities used by the
/// BFS implementations.
#[derive(Clone, Debug)]
pub struct ExpShifts {
    /// Raw shifts `δ_u ~ Exp(β)`.
    pub delta: Vec<f64>,
    /// `δ_max = max_u δ_u`.
    pub delta_max: f64,
    /// Wake round of each vertex: `⌊δ_max − δ_u⌋`.
    pub start_round: Vec<u32>,
    /// 32-bit tie-break key of each vertex, smaller wins. Depending on
    /// [`TieBreak`]: the quantized fractional part of `δ_max − δ_u`, a
    /// random priority, or zero.
    pub frac_key: Vec<u32>,
}

impl Default for ExpShifts {
    /// Shifts covering zero vertices — the state a reusable
    /// [`crate::Workspace`] starts from before its first
    /// [`regenerate`](ExpShifts::regenerate).
    fn default() -> Self {
        ExpShifts {
            delta: Vec::new(),
            delta_max: 0.0,
            start_round: Vec::new(),
            frac_key: Vec::new(),
        }
    }
}

impl ExpShifts {
    /// Samples shifts for `n` vertices under the given options.
    pub fn generate(n: usize, opts: &DecompOptions) -> Self {
        let mut shifts = ExpShifts::default();
        shifts.regenerate(n, opts);
        shifts
    }

    /// Resamples shifts for `n` vertices in place, reusing the existing
    /// buffers (no allocation once the buffers have reached capacity `n`).
    ///
    /// Bit-identical to [`ExpShifts::generate`] with the same `n` and
    /// options: every value is a pure function of `(seed, vertex id)`, so
    /// in-place filling and collecting produce the same arrays.
    pub fn regenerate(&mut self, n: usize, opts: &DecompOptions) {
        let beta = opts.beta;
        let seed = opts.seed;
        // Below this size the parallel-iterator overhead dominates; the
        // HST pipeline calls this on thousands of tiny pieces.
        const PAR_CUTOFF: usize = 4096;
        self.delta.resize(n, 0.0);
        self.start_round.resize(n, 0);
        self.frac_key.resize(n, 0);
        match opts.shift_strategy {
            // δ_u = −ln(U)/β with U uniform on (0, 1]: the inverse-CDF method.
            ShiftStrategy::SampledExponential if n >= PAR_CUTOFF => {
                self.delta
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(u, d)| *d = -uniform_open01(seed, u as u64).ln() / beta);
            }
            ShiftStrategy::SampledExponential => {
                for (u, d) in self.delta.iter_mut().enumerate() {
                    *d = -uniform_open01(seed, u as u64).ln() / beta;
                }
            }
            // Section 5 variant: rank the vertices by a random permutation
            // and hand rank k the expected (k+1)-st order statistic
            // (H_n − H_{n−k−1})/β, per Fact 3.1.
            ShiftStrategy::OrderStatisticPermutation => {
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.par_sort_unstable_by_key(|&v| hash_index(seed, v as u64));
                // Prefix of expected order statistics: gap k (0-based,
                // from the smallest) is 1/((n − k)·β).
                let mut expected = Vec::with_capacity(n);
                let mut acc = 0.0f64;
                for k in 0..n {
                    acc += 1.0 / ((n - k) as f64 * beta);
                    expected.push(acc);
                }
                for (rank, &v) in perm.iter().enumerate() {
                    self.delta[v as usize] = expected[rank];
                }
            }
        }
        self.delta_max = if n >= PAR_CUTOFF {
            self.delta.par_iter().cloned().reduce(|| 0.0, f64::max)
        } else {
            self.delta.iter().cloned().fold(0.0, f64::max)
        };
        let delta_max = self.delta_max;
        let quantize = |s: f64| -> u32 {
            // Quantize the fractional part of [0,1) to the full u32 range.
            (s.fract() * 4_294_967_296.0).min(u32::MAX as f64) as u32
        };
        let delta = &self.delta;
        for (u, r) in self.start_round.iter_mut().enumerate() {
            *r = (delta_max - delta[u]).floor() as u32;
        }
        match opts.tie_break {
            TieBreak::FractionalShift if n >= PAR_CUTOFF => {
                self.frac_key
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(u, k)| *k = quantize(delta_max - delta[u]));
            }
            TieBreak::FractionalShift => {
                for (u, k) in self.frac_key.iter_mut().enumerate() {
                    *k = quantize(delta_max - delta[u]);
                }
            }
            TieBreak::Permutation => {
                for (u, k) in self.frac_key.iter_mut().enumerate() {
                    *k = (hash_index(seed ^ TIEBREAK_SALT, u as u64) >> 32) as u32;
                }
            }
            TieBreak::Lexicographic => self.frac_key.fill(0),
        }
    }

    /// Resamples shifts for a **reordered** graph whose current id `u`
    /// names original vertex `new_to_old[u]`, such that decomposing the
    /// reordered graph and mapping the result back through `new_to_old`
    /// is bit-identical to decomposing the original graph (see
    /// `Decomposition::remap_labels`).
    ///
    /// Per-vertex quantities are gathered through the permutation
    /// (`delta'[u] = delta[new_to_old[u]]`, likewise `start_round`), so
    /// every vertex keeps the shift its original id drew. `frac_key`
    /// cannot simply be gathered: the engine's claim keys fall back to the
    /// low 32 **current-id** bits on full ties ([`ExpShifts::claim_key`]),
    /// and original ids are not available there. Instead each vertex's
    /// key becomes the dense rank of its original claim key — ranks are
    /// unique, so claim-key order under the new ids reduces to exactly the
    /// original claim-key order and the lexicographic fallback never
    /// fires.
    pub fn regenerate_permuted(&mut self, n: usize, opts: &DecompOptions, new_to_old: &[u32]) {
        assert_eq!(new_to_old.len(), n, "permutation length != n");
        self.regenerate(n, opts);
        // Claim keys are unique and carry their vertex id in the low 32
        // bits, so sorting the keys themselves yields the vertex order.
        let mut keys: Vec<u64> = (0..n as u32)
            .into_par_iter()
            .map(|u| self.claim_key(u))
            .collect();
        keys.par_sort_unstable();
        let mut rank = vec![0u32; n];
        for (r, &key) in keys.iter().enumerate() {
            rank[(key & u64::from(u32::MAX)) as usize] = r as u32;
        }
        let delta: Vec<f64> = new_to_old
            .par_iter()
            .map(|&o| self.delta[o as usize])
            .collect();
        let start_round: Vec<u32> = new_to_old
            .par_iter()
            .map(|&o| self.start_round[o as usize])
            .collect();
        let frac_key: Vec<u32> = new_to_old.par_iter().map(|&o| rank[o as usize]).collect();
        // Copy back instead of assigning so the workspace keeps its
        // amortized buffer capacity.
        self.delta.copy_from_slice(&delta);
        self.start_round.copy_from_slice(&start_round);
        self.frac_key.copy_from_slice(&frac_key);
    }

    /// Bytes of buffer capacity currently reserved (the quantity a
    /// reusable workspace amortizes across runs).
    pub fn capacity_bytes(&self) -> usize {
        self.delta.capacity() * std::mem::size_of::<f64>()
            + self.start_round.capacity() * std::mem::size_of::<u32>()
            + self.frac_key.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.delta.len()
    }

    /// True when generated for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// The packed 64-bit claim key of center `u`: `(frac_key[u] << 32) | u`.
    /// Strictly smaller keys win claims; the low 32 bits implement the
    /// lexicographic fallback of Lemma 4.1 (case 2).
    #[inline]
    pub fn claim_key(&self, u: u32) -> u64 {
        ((self.frac_key[u as usize] as u64) << 32) | u as u64
    }

    /// Buckets vertices by wake round: entry `r` lists the vertices with
    /// `start_round == r`.
    pub fn wake_buckets(&self) -> Vec<Vec<u32>> {
        let max_round = self.start_round.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_round + 1];
        for (u, &r) in self.start_round.iter().enumerate() {
            buckets[r as usize].push(u as u32);
        }
        buckets
    }
}

/// `n`-th harmonic number `H_n = 1 + 1/2 + … + 1/n` (Lemma 4.2 states
/// `E[δ_max] = H_n / β`).
pub fn harmonic(n: usize) -> f64 {
    // Exact summation below a threshold; the asymptotic expansion
    // H_n ≈ ln n + γ + 1/(2n) − 1/(12n²) above it (error < 1e-12).
    const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
    if n == 0 {
        return 0.0;
    }
    if n <= 100_000 {
        (1..=n).map(|i| 1.0 / i as f64).sum()
    } else {
        let nf = n as f64;
        nf.ln() + EULER_MASCHERONI + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    #[test]
    fn shifts_nonnegative_and_start_rounds_consistent() {
        let s = ExpShifts::generate(1000, &opts(0.2, 3));
        assert_eq!(s.len(), 1000);
        for (u, &d) in s.delta.iter().enumerate() {
            assert!(d >= 0.0);
            assert!(d <= s.delta_max);
            let start = s.delta_max - d;
            assert_eq!(s.start_round[u], start.floor() as u32);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ExpShifts::generate(500, &opts(0.1, 42));
        let b = ExpShifts::generate(500, &opts(0.1, 42));
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.frac_key, b.frac_key);
        let c = ExpShifts::generate(500, &opts(0.1, 43));
        assert_ne!(a.delta, c.delta);
    }

    #[test]
    fn mean_matches_exponential() {
        // E[Exp(β)] = 1/β; with n = 200k samples the sample mean is within
        // a few standard errors.
        let beta = 0.25;
        let s = ExpShifts::generate(200_000, &opts(beta, 7));
        let mean = s.delta.iter().sum::<f64>() / s.len() as f64;
        let expect = 1.0 / beta;
        let stderr = expect / (s.len() as f64).sqrt();
        assert!(
            (mean - expect).abs() < 6.0 * stderr,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn max_shift_matches_lemma_4_2() {
        // Lemma 4.2: E[δ_max] = H_n / β. Average δ_max over independent
        // seeds and compare. Var(δ_max) = (π²/6 − o(1))/β², so 40 trials
        // give standard error ≈ 1.28/(β√40) ≈ 0.2/β.
        let beta = 1.0 / 2.0;
        let n = 2000;
        let trials = 60;
        let avg: f64 = (0..trials)
            .map(|t| ExpShifts::generate(n, &opts(beta, 1000 + t)).delta_max)
            .sum::<f64>()
            / trials as f64;
        let expect = harmonic(n) / beta;
        assert!(
            (avg - expect).abs() < 0.25 * expect,
            "E[δ_max] ≈ {avg}, Lemma 4.2 predicts {expect}"
        );
    }

    #[test]
    fn memoryless_property_statistical() {
        // P(X > s + t | X > s) = P(X > t) for exponentials: compare the
        // conditional survival frequency against the unconditional one.
        let beta = 0.5;
        let s = ExpShifts::generate(300_000, &opts(beta, 11));
        let (s0, t0) = (1.0, 2.0);
        let beyond_s = s.delta.iter().filter(|&&d| d > s0).count() as f64;
        let beyond_st = s.delta.iter().filter(|&&d| d > s0 + t0).count() as f64;
        let beyond_t = s.delta.iter().filter(|&&d| d > t0).count() as f64;
        let conditional = beyond_st / beyond_s;
        let unconditional = beyond_t / s.len() as f64;
        assert!(
            (conditional - unconditional).abs() < 0.01,
            "memoryless violated: {conditional} vs {unconditional}"
        );
    }

    #[test]
    fn order_statistic_gaps_match_fact_3_1() {
        // Fact 3.1: X_(k+1) − X_(k) ~ Exp((n−k)β). Check the mean of the
        // top gap (k = n−1): E = 1/β, across independent trials.
        let beta = 0.5;
        let n = 50;
        let trials = 4000;
        let mut sum_gap = 0.0;
        for t in 0..trials {
            let s = ExpShifts::generate(n, &opts(beta, 77_000 + t));
            let mut d = s.delta.clone();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sum_gap += d[n - 1] - d[n - 2];
        }
        let mean_gap = sum_gap / trials as f64;
        let expect = 1.0 / beta;
        assert!(
            (mean_gap - expect).abs() < 0.1 * expect,
            "top-gap mean {mean_gap} vs Fact 3.1 prediction {expect}"
        );
    }

    #[test]
    fn tie_break_variants_share_shifts() {
        let base = opts(0.3, 5);
        let frac = ExpShifts::generate(100, &base);
        let perm = ExpShifts::generate(100, &base.clone().with_tie_break(TieBreak::Permutation));
        let lex = ExpShifts::generate(100, &base.with_tie_break(TieBreak::Lexicographic));
        assert_eq!(frac.delta, perm.delta);
        assert_eq!(frac.start_round, lex.start_round);
        assert!(lex.frac_key.iter().all(|&k| k == 0));
        assert_ne!(frac.frac_key, perm.frac_key);
    }

    #[test]
    fn claim_keys_are_unique() {
        let s = ExpShifts::generate(10_000, &opts(0.1, 9));
        let mut keys: Vec<u64> = (0..10_000u32).map(|u| s.claim_key(u)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000, "low 32 bits guarantee distinctness");
    }

    #[test]
    fn wake_buckets_partition_vertices() {
        let s = ExpShifts::generate(777, &opts(0.2, 1));
        let buckets = s.wake_buckets();
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 777);
        for (r, b) in buckets.iter().enumerate() {
            for &u in b {
                assert_eq!(s.start_round[u as usize] as usize, r);
            }
        }
        // The vertex achieving δ_max wakes in round 0.
        assert!(!buckets[0].is_empty());
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(10) - 2.9289682539682538).abs() < 1e-12);
        // Asymptotic branch agrees with direct summation.
        let direct: f64 = (1..=200_000u64).map(|i| 1.0 / i as f64).sum();
        assert!((harmonic(200_000) - direct).abs() < 1e-9);
    }

    #[test]
    fn order_statistic_strategy_max_is_harmonic() {
        // The permutation-derived shifts are the deterministic expected
        // order statistics: δ_max = H_n/β exactly.
        use crate::options::ShiftStrategy;
        let n = 1000;
        let beta = 0.25;
        let s = ExpShifts::generate(
            n,
            &opts(beta, 3).with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
        );
        assert!((s.delta_max - harmonic(n) / beta).abs() < 1e-9);
        // All n expected order statistics are present (as a multiset the
        // delta values are the same for every seed; seeds only permute).
        let mut a = s.delta.clone();
        let s2 = ExpShifts::generate(
            n,
            &opts(beta, 99).with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
        );
        let mut b = s2.delta.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
        assert_ne!(s.delta, s2.delta, "seed must permute the assignment");
    }

    #[test]
    fn order_statistic_strategy_mean_matches_exponential() {
        use crate::options::ShiftStrategy;
        let n = 10_000;
        let beta = 0.5;
        let s = ExpShifts::generate(
            n,
            &opts(beta, 1).with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
        );
        let mean = s.delta.iter().sum::<f64>() / n as f64;
        // Mean of the expected order statistics = the distribution mean 1/β.
        assert!((mean - 1.0 / beta).abs() < 0.02 / beta, "mean {mean}");
    }

    #[test]
    fn regenerate_reuses_buffers_bit_identically() {
        use crate::options::ShiftStrategy;
        let mut s = ExpShifts::default();
        // Shrinks, grows, crosses the parallel cutoff, and switches
        // strategies/tie-breaks — always identical to a fresh generate.
        for (n, seed) in [(500usize, 1u64), (200, 9), (5000, 3), (500, 1)] {
            for o in [
                opts(0.2, seed),
                opts(0.2, seed).with_tie_break(TieBreak::Permutation),
                opts(0.2, seed).with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
            ] {
                s.regenerate(n, &o);
                let fresh = ExpShifts::generate(n, &o);
                assert_eq!(s.delta, fresh.delta, "n {n} seed {seed}");
                assert_eq!(s.delta_max, fresh.delta_max);
                assert_eq!(s.start_round, fresh.start_round);
                assert_eq!(s.frac_key, fresh.frac_key);
            }
        }
        assert!(s.capacity_bytes() >= 5000 * 16);
    }

    #[test]
    fn permuted_shifts_gather_values_and_preserve_claim_order() {
        use mpx_par::rng::hash_index;
        for tb in [TieBreak::FractionalShift, TieBreak::Permutation] {
            let n = 600usize;
            let o = opts(0.3, 11).with_tie_break(tb);
            let base = ExpShifts::generate(n, &o);
            // A deterministic pseudo-random permutation new id → old id.
            let mut new_to_old: Vec<u32> = (0..n as u32).collect();
            new_to_old.sort_unstable_by_key(|&v| hash_index(99, v as u64));
            let mut p = ExpShifts::default();
            p.regenerate_permuted(n, &o, &new_to_old);
            for (u, &old) in new_to_old.iter().enumerate() {
                assert_eq!(p.delta[u], base.delta[old as usize]);
                assert_eq!(p.start_round[u], base.start_round[old as usize]);
            }
            assert_eq!(p.delta_max, base.delta_max);
            // Claim-key comparisons under new ids must reduce to the
            // original comparisons under old ids, for every pair ordering.
            for u in 0..n as u32 {
                for v in (u + 1)..(u + 17).min(n as u32) {
                    let permuted = p.claim_key(u) < p.claim_key(v);
                    let original = base.claim_key(new_to_old[u as usize])
                        < base.claim_key(new_to_old[v as usize]);
                    assert_eq!(permuted, original, "tie_break {tb:?} pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn empty_shifts() {
        let s = ExpShifts::generate(0, &opts(0.1, 0));
        assert!(s.is_empty());
        assert_eq!(s.delta_max, 0.0);
        assert_eq!(s.wake_buckets().len(), 1);
    }
}
