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

/// Smallest number of vertices one parallel chunk of a pass handles:
/// below it the pass runs inline, since the pool fan-out would dominate
/// (the HST pipeline draws shifts for thousands of tiny pieces).
const PAR_CUTOFF: usize = 4096;

/// Per-vertex exponential shifts plus the derived quantities used by the
/// BFS implementations. The default covers zero vertices — the state a
/// reusable [`crate::Workspace`] starts from before its first
/// [`regenerate`](ExpShifts::regenerate).
#[derive(Clone, Debug, Default)]
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
    /// Buffers of [`ExpShifts::regenerate_permuted`]'s claim-key rank.
    rank: ClaimRank,
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
    /// Two passes over the vertices, each parallel above 4,096 of them:
    /// the first draws every `δ_u` and reduces `δ_max`, the second writes
    /// wake rounds and tie keys — `O(n)` work, no sort (the
    /// order-statistic strategy sorts `n` hashes). Bit-identical to
    /// [`ExpShifts::generate`] with the same `n` and options: every value
    /// is a pure function of `(seed, vertex id)`, so in-place filling and
    /// collecting produce the same arrays.
    pub fn regenerate(&mut self, n: usize, opts: &DecompOptions) {
        self.fill(n, opts, false, |u| u as u32);
    }

    /// Resamples shifts for a **reordered** graph whose current id `u`
    /// names original vertex `new_to_old[u]`, such that decomposing the
    /// reordered graph and mapping the result back through `new_to_old`
    /// is bit-identical to decomposing the original graph (see
    /// `Decomposition::remap_labels`).
    ///
    /// Vertex `u` draws its shift under its original id, in the same two
    /// passes as [`ExpShifts::regenerate`], so `delta[u]` and
    /// `start_round[u]` are the values `new_to_old[u]` draws there.
    /// `frac_key` cannot carry over as drawn: the engine's claim keys fall
    /// back to the low 32 **current-id** bits on full ties
    /// ([`ExpShifts::claim_key`]), and original ids are not available
    /// there. Instead each vertex's key becomes the dense rank of its
    /// `(tie key, original id)` pair — ranks are unique, so claim-key
    /// order under the new ids reduces to exactly the original claim-key
    /// order and the lexicographic fallback never fires. One counting
    /// pass on the keys' top bits orders the pairs, so the whole call is
    /// `O(n)` expected work with no comparison sort (for
    /// [`TieBreak::Lexicographic`] the rank is the original id itself).
    ///
    /// # Panics
    ///
    /// Panics if `new_to_old` is not a permutation of `0..n`, naming the
    /// out-of-range or repeated id.
    pub fn regenerate_permuted(&mut self, n: usize, opts: &DecompOptions, new_to_old: &[u32]) {
        assert_eq!(new_to_old.len(), n, "permutation length != n");
        self.fill(n, opts, true, |u| match new_to_old[u] {
            old if (old as usize) < n => old,
            old => not_a_permutation("names out-of-range", old),
        });
    }

    /// Draws the shifts of vertices `0..n`, vertex `u` under id `id(u)`,
    /// in two passes: `δ` with `δ_max`, then wake rounds with tie keys.
    /// With `permuted`, the tie keys then become the dense rank of the
    /// `(tie key, id)` pairs. That rank also proves the ids distinct,
    /// since a repeated id repeats its pair — except under the
    /// order-statistic strategy, whose own sort catches it first.
    fn fill(
        &mut self,
        n: usize,
        opts: &DecompOptions,
        permuted: bool,
        id: impl Fn(usize) -> u32 + Sync,
    ) {
        let _span = mpx_trace::span!("shift.regenerate", n = n, permuted = permuted);
        let (beta, seed) = (opts.beta, opts.seed);
        self.delta.resize(n, 0.0);
        self.start_round.resize(n, 0);
        self.frac_key.resize(n, 0);
        self.delta_max = match opts.shift_strategy {
            // δ_u = −ln(U)/β with U uniform on (0, 1]: the inverse-CDF method.
            ShiftStrategy::SampledExponential => self
                .delta
                .par_iter_mut()
                .enumerate()
                .with_min_len(PAR_CUTOFF)
                .map(|(u, d)| {
                    *d = -uniform_open01(seed, u64::from(id(u))).ln() / beta;
                    *d
                })
                .reduce(|| 0.0, f64::max),
            // Section 5 variant: rank the vertices by a random permutation
            // and hand rank k the expected (k+1)-st order statistic
            // (H_n − H_{n−k−1})/β, per Fact 3.1. The prefix is increasing,
            // so its last entry is δ_max.
            ShiftStrategy::OrderStatisticPermutation => {
                let mut order: Vec<(u64, u32)> = (0..n)
                    .into_par_iter()
                    .with_min_len(PAR_CUTOFF)
                    .map(|u| (hash_index(seed, u64::from(id(u))), u as u32))
                    .collect();
                order.par_sort_unstable();
                // Gap k (0-based, from the smallest) is 1/((n − k)·β).
                let mut acc = 0.0f64;
                for (k, &(hash, u)) in order.iter().enumerate() {
                    // The hash is a bijection of the id, so a repeated id
                    // sorts next to its twin.
                    if k > 0 && order[k - 1].0 == hash {
                        not_a_permutation("repeats", id(u as usize));
                    }
                    acc += 1.0 / ((n - k) as f64 * beta);
                    self.delta[u as usize] = acc;
                }
                acc
            }
        };
        let (delta, delta_max) = (&self.delta, self.delta_max);
        let (rounds, keys) = (&mut self.start_round[..], &mut self.frac_key[..]);
        match opts.tie_break {
            // Quantize the fractional part of [0,1) to the full u32 range.
            TieBreak::FractionalShift => {
                fill_rounds_and_keys(rounds, keys, delta, delta_max, |_, frac| {
                    (frac * 4_294_967_296.0).min(u32::MAX as f64) as u32
                })
            }
            TieBreak::Permutation => {
                fill_rounds_and_keys(rounds, keys, delta, delta_max, |u, _| {
                    (hash_index(seed ^ TIEBREAK_SALT, u64::from(id(u))) >> 32) as u32
                })
            }
            // Every tie key is zero, so claims fall back to original ids
            // alone. A reordered graph keys each vertex by its original id
            // shifted to the top bits, which spreads the rank's buckets
            // evenly; the rank of that key is the id itself.
            TieBreak::Lexicographic if permuted => {
                let spread = 32 - n.next_power_of_two().trailing_zeros();
                fill_rounds_and_keys(rounds, keys, delta, delta_max, |u, _| {
                    (u64::from(id(u)) << spread) as u32
                })
            }
            TieBreak::Lexicographic => {
                fill_rounds_and_keys(rounds, keys, delta, delta_max, |_, _| 0)
            }
        }
        if permuted {
            self.rank.rank(&mut self.frac_key, &id);
        }
    }

    /// Bytes of buffer capacity currently reserved (the quantity a
    /// reusable workspace amortizes across runs).
    pub fn capacity_bytes(&self) -> usize {
        self.delta.capacity() * std::mem::size_of::<f64>()
            + self.start_round.capacity() * std::mem::size_of::<u32>()
            + self.frac_key.capacity() * std::mem::size_of::<u32>()
            + self.rank.capacity_bytes()
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

/// The panic of a `new_to_old` that is not a permutation, kept out of
/// line so the loops that check ids stay small.
#[cold]
#[inline(never)]
pub(crate) fn not_a_permutation(what: &str, id: u32) -> ! {
    panic!("permutation {what} original id {id}")
}

/// Writes `start_round[u] = ⌊s⌋` and `frac_key[u] = key(u, s − ⌊s⌋)` for
/// each start time `s = δ_max − δ_u ≥ 0`, in one pass over the vertices.
fn fill_rounds_and_keys(
    start_round: &mut [u32],
    frac_key: &mut [u32],
    delta: &[f64],
    delta_max: f64,
    key: impl Fn(usize, f64) -> u32 + Sync,
) {
    let slots = start_round.par_iter_mut().zip(frac_key.par_iter_mut());
    slots
        .enumerate()
        .with_min_len(PAR_CUTOFF)
        .for_each(|(u, (round, k))| {
            let start = delta_max - delta[u];
            // For a start ≥ 0 the truncating cast is the floor, exact below
            // 2^64 (every f64 from 2^53 up is whole); it saturates above,
            // where the fraction is 0. No libm call, unlike `floor`.
            let whole = start as u64;
            let frac = if whole < u64::MAX {
                start - whole as f64
            } else {
                0.0
            };
            *round = whole.min(u64::from(u32::MAX)) as u32;
            *k = key(u, frac);
        });
}

/// Buffers of the dense rank [`ExpShifts::regenerate_permuted`] takes of
/// its `(tie key, original id)` pairs, kept so that a warm workspace
/// allocates nothing per run.
#[derive(Clone, Debug, Default)]
struct ClaimRank {
    /// `(tie key << 32) | current id`, in full order once ranked.
    sorted: Vec<u64>,
    /// One counter per bucket of top key bits, turned into offsets.
    counts: Vec<u32>,
}

impl ClaimRank {
    fn capacity_bytes(&self) -> usize {
        self.sorted.capacity() * std::mem::size_of::<u64>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
    }

    /// Replaces every `keys[u]` by the dense rank of the pair
    /// `(keys[u], id(u))` among all `n` pairs.
    ///
    /// One counting pass on the top `⌈log₂ n⌉ + 1` key bits and a stable
    /// scatter group the pairs into buckets in key order, two buckets per
    /// pair; one insertion pass then sorts every bucket by the full pair.
    /// Near-uniform keys (fractional shifts, hashed priorities) leave
    /// under one pair per bucket, so this is `O(n)` expected. Keys that
    /// share their top bits (tiny β) fill large buckets, which are
    /// comparison-sorted first, so the worst case is one sort. It runs
    /// on the calling thread: measured on 2 cores, splitting it across
    /// the pool cost more in wake-ups and shared cache lines than it
    /// saved.
    ///
    /// Panics naming the id if two pairs are equal: ids drawn from a
    /// permutation are distinct.
    fn rank(&mut self, keys: &mut [u32], id: &impl Fn(usize) -> u32) {
        /// Buckets above this size are sorted before the insertion pass.
        const SMALL_BUCKET: u32 = 16;
        let n = keys.len();
        // Two buckets per pair, and at most 2^32 buckets.
        let bits = (n.next_power_of_two().trailing_zeros() + 1).min(32);
        let bucket = |k: u32| (u64::from(k) >> (32 - bits)) as usize;
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(1 << bits, 0);
        for &k in keys.iter() {
            counts[bucket(k)] += 1;
        }
        let (mut start, mut largest) = (0, 0);
        for c in counts.iter_mut() {
            largest = largest.max(*c);
            (*c, start) = (start, start + *c);
        }
        // The scatter leaves counts[b] at the end of bucket b.
        self.sorted.resize(n, 0);
        let sorted = &mut self.sorted[..];
        for (u, &k) in keys.iter().enumerate() {
            let slot = &mut counts[bucket(k)];
            sorted[*slot as usize] = u64::from(k) << 32 | u as u64;
            *slot += 1;
        }
        let original = |pair: u64| id(pair as u32 as usize);
        let order = |a: &u64, b: &u64| {
            (a >> 32)
                .cmp(&(b >> 32))
                .then_with(|| original(*a).cmp(&original(*b)))
        };
        if largest > SMALL_BUCKET {
            let mut start = 0;
            for &end in counts.iter() {
                let run = &mut sorted[start..end as usize];
                if run.len() > SMALL_BUCKET as usize {
                    run.sort_unstable_by(order);
                }
                start = end as usize;
            }
        }
        // Buckets are in key order, so no pair moves past its bucket's
        // start.
        for i in 1..n {
            let x = sorted[i];
            let mut j = i;
            while j > 0 && order(&x, &sorted[j - 1]).is_lt() {
                sorted[j] = sorted[j - 1];
                j -= 1;
            }
            sorted[j] = x;
        }
        for (r, &pair) in sorted.iter().enumerate() {
            if r > 0 && order(&sorted[r - 1], &pair).is_eq() {
                not_a_permutation("repeats", original(pair));
            }
            keys[pair as u32 as usize] = r as u32;
        }
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

    /// `regenerate_permuted` composed from public calls: shifts drawn
    /// under the original ids, the dense rank of their claim keys by a
    /// plain sort, and a gather through the permutation.
    fn permuted_reference(n: usize, o: &DecompOptions, new_to_old: &[u32]) -> ExpShifts {
        let base = ExpShifts::generate(n, o);
        let mut keys: Vec<u64> = (0..n as u32).map(|v| base.claim_key(v)).collect();
        keys.sort_unstable();
        let mut rank = vec![0u32; n];
        for (r, &key) in keys.iter().enumerate() {
            rank[key as u32 as usize] = r as u32;
        }
        let gathered = |values: &[u32]| new_to_old.iter().map(|&v| values[v as usize]).collect();
        ExpShifts {
            delta: new_to_old.iter().map(|&v| base.delta[v as usize]).collect(),
            delta_max: base.delta_max,
            start_round: gathered(&base.start_round),
            frac_key: gathered(&rank),
            rank: ClaimRank::default(),
        }
    }

    #[test]
    fn permuted_shifts_equal_the_gathered_reference() {
        use crate::options::ShiftStrategy;
        let mut p = ExpShifts::default();
        // n = 20,000 crosses the parallel cutoff; β = 1e-12 leaves the
        // fractional keys about 9 significant bits, so most pairs share
        // a bucket with others and many tie on the key alone.
        for n in [1usize, 600, 20_000] {
            let mut new_to_old: Vec<u32> = (0..n as u32).collect();
            new_to_old.sort_unstable_by_key(|&v| hash_index(99, v as u64));
            for strategy in [
                ShiftStrategy::SampledExponential,
                ShiftStrategy::OrderStatisticPermutation,
            ] {
                for tb in [
                    TieBreak::FractionalShift,
                    TieBreak::Permutation,
                    TieBreak::Lexicographic,
                ] {
                    for beta in [0.3, 1e-12] {
                        let o = opts(beta, 11)
                            .with_tie_break(tb)
                            .with_shift_strategy(strategy);
                        p.regenerate_permuted(n, &o, &new_to_old);
                        let r = permuted_reference(n, &o, &new_to_old);
                        let case = format!("n {n} {strategy:?} {tb:?} β {beta}");
                        assert_eq!(p.delta, r.delta, "{case}");
                        assert_eq!(p.delta_max, r.delta_max, "{case}");
                        assert_eq!(p.start_round, r.start_round, "{case}");
                        assert_eq!(p.frac_key, r.frac_key, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn claim_rank_matches_a_sort_on_crafted_keys() {
        let n = 5000u32;
        let shuffled: Vec<u32> = {
            let mut ids: Vec<u32> = (0..n).collect();
            ids.sort_unstable_by_key(|&v| hash_index(3, v as u64));
            ids
        };
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![7], vec![0]),
            // All keys equal: id order alone, one large bucket.
            (vec![5; 40], (0..40).rev().collect()),
            // Ties at both ends of the key range.
            (vec![u32::MAX, 0, u32::MAX, 0, 1 << 31], vec![4, 3, 2, 1, 0]),
            // Eight distinct keys: a few large buckets.
            ((0..n).map(|i| (i % 8) << 29).collect(), shuffled.clone()),
            // Near-uniform keys, as fractional shifts give.
            (
                (0..n)
                    .map(|i| (hash_index(5, i as u64) >> 32) as u32)
                    .collect(),
                shuffled,
            ),
        ];
        for (keys, ids) in cases {
            let mut by_sort: Vec<usize> = (0..keys.len()).collect();
            by_sort.sort_by_key(|&u| (keys[u], ids[u]));
            let mut expect = vec![0u32; keys.len()];
            for (r, &u) in by_sort.iter().enumerate() {
                expect[u] = r as u32;
            }
            let mut ranked = keys.clone();
            ClaimRank::default().rank(&mut ranked, &|u| ids[u]);
            assert_eq!(ranked, expect, "keys {:?}…", &keys[..keys.len().min(5)]);
        }
    }

    #[test]
    #[should_panic(expected = "permutation repeats original id 3")]
    fn claim_rank_rejects_equal_pairs() {
        let ids = [0, 3, 1, 3];
        ClaimRank::default().rank(&mut [9, 4, 9, 4], &|u| ids[u]);
    }

    #[test]
    fn permuted_shifts_reject_non_permutations_under_every_option() {
        use crate::options::ShiftStrategy;
        for n in [16usize, 5000] {
            let mut repeated: Vec<u32> = (0..n as u32).collect();
            repeated[7] = 5;
            let mut out_of_range: Vec<u32> = (0..n as u32).collect();
            out_of_range[3] = n as u32;
            for strategy in [
                ShiftStrategy::SampledExponential,
                ShiftStrategy::OrderStatisticPermutation,
            ] {
                for tb in [
                    TieBreak::FractionalShift,
                    TieBreak::Permutation,
                    TieBreak::Lexicographic,
                ] {
                    let o = opts(0.3, 2)
                        .with_tie_break(tb)
                        .with_shift_strategy(strategy);
                    for (p, expect) in [
                        (&repeated, "permutation repeats original id 5".to_string()),
                        (
                            &out_of_range,
                            format!("permutation names out-of-range original id {n}"),
                        ),
                    ] {
                        let caught = std::panic::catch_unwind(|| {
                            ExpShifts::default().regenerate_permuted(n, &o, p)
                        });
                        let case = format!("n {n} {strategy:?} {tb:?}: {expect}");
                        let payload = caught.expect_err(&case);
                        let message = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_default();
                        assert_eq!(message, expect, "{case}");
                    }
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
