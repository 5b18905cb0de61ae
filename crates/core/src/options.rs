//! Configuration for the partition routines.

/// Tie-breaking rule between clusters whose shifted distances land in the
/// same integer BFS round (paper Sections 4–5).
///
/// Lemma 4.1 holds for *any* fixed total order on centers, so all three
/// choices produce valid decompositions; they differ only in distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// The paper's Algorithm 1: compare the fractional parts of the start
    /// times `δ_max − δ_u` (quantized to 32 bits; exact quantization ties
    /// fall back to center id, the "rounding" case of Lemma 4.1).
    #[default]
    FractionalShift,
    /// Section 5's alternative: a random permutation of the vertices,
    /// realized as independent 32-bit priorities.
    Permutation,
    /// Deterministic baseline: lowest center id wins. Still valid, but the
    /// tie-break no longer carries randomness (used in ablations).
    Lexicographic,
}

/// How the per-vertex shifts `δ_u` are generated (paper Sections 3 and 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShiftStrategy {
    /// The paper's Algorithm 1/2: sample `δ_u ~ Exp(β)` independently per
    /// vertex (inverse-CDF over counter-based uniforms).
    #[default]
    SampledExponential,
    /// The Section 5 suggestion: "generate a random permutation of the
    /// vertices, and assign the shift values based on positions in the
    /// permutation". The vertex at rank `k` (0-based, ascending) receives
    /// the *expected* `k+1`-st order statistic of `n` i.i.d. `Exp(β)`
    /// draws, `(H_n − H_{n−k−1})/β` (Fact 3.1). The paper conjectures "the
    /// slight changes in distributions could be accounted for … but might
    /// be more easily studied empirically" — the integration test
    /// `tie_break_rules_valid_and_similar_quality` is that study: on a
    /// grid, the mean cut fraction of these shifts and of the sampled
    /// shifts under each tie-break must agree within 25%.
    OrderStatisticPermutation,
}

/// Frontier-traversal strategy of the shifted-BFS engine
/// ([`crate::engine`]). Both strategies produce **bit-identical**
/// decompositions — claims are resolved by content-based key minima, never
/// by schedule — so this is purely a wall-clock choice. Within either one
/// the engine decides how each round runs: inline or on the worker pool
/// from the round's read count, and under `Auto` also its direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Traversal {
    /// Direction optimization: a round goes bottom-up only when that reads
    /// fewer entries than `alpha` times what top-down would read (see
    /// [`DecompOptions::alpha`]), which keeps the work `O(n + m)`. Meshes
    /// stay top-down throughout; fat frontiers on low-diameter graphs go
    /// bottom-up.
    #[default]
    Auto,
    /// Always top-down: the paper's Algorithm 1 verbatim (thin rounds
    /// still run inline — a scheduling detail with no output effect).
    TopDownPar,
}

impl Traversal {
    /// Canonical CLI token (`--strategy <token>`).
    pub fn as_str(self) -> &'static str {
        match self {
            Traversal::Auto => "auto",
            Traversal::TopDownPar => "parallel",
        }
    }
}

impl std::str::FromStr for Traversal {
    type Err = String;

    /// Parses a CLI token. `hybrid` is accepted as an alias of `auto` (the
    /// direction-optimizing top-down/bottom-up engine), `topdown` as an
    /// alias of `parallel`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" | "hybrid" => Ok(Traversal::Auto),
            "parallel" | "topdown" => Ok(Traversal::TopDownPar),
            other => Err(format!(
                "unknown strategy '{other}' (expected auto|parallel|hybrid|topdown)"
            )),
        }
    }
}

/// Scheduler choice of the engines (see [`crate::engine`]).
///
/// Both modes run the same protocols: the unweighted engine resolves
/// every claim by a content-based key minimum settled at a round barrier,
/// and the weighted Δ-stepping engine resolves requests with an
/// order-independent lock-free reduction. Labels are therefore
/// byte-identical across thread counts, traversal strategies, runs and
/// modes. The mode picks only the runtime scheduler of the engines'
/// parallel regions: [`Determinism::BitExact`] (the default) runs them on
/// the fixed chunk layout, [`Determinism::Fast`] on the work-stealing
/// scheduler, which can keep workers busier on skewed frontiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Determinism {
    /// The fixed deterministic chunk layout.
    #[default]
    BitExact,
    /// The work-stealing scheduler; the output equals
    /// [`Determinism::BitExact`]'s.
    Fast,
}

impl Determinism {
    /// Canonical CLI token (`--determinism <token>`).
    pub fn as_str(self) -> &'static str {
        match self {
            Determinism::BitExact => "bitexact",
            Determinism::Fast => "fast",
        }
    }
}

impl std::str::FromStr for Determinism {
    type Err = String;

    /// Parses a CLI token (`bitexact` / `fast`; `bit-exact` and `exact`
    /// are accepted as aliases of `bitexact`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "bitexact" | "bit-exact" | "exact" => Ok(Determinism::BitExact),
            "fast" => Ok(Determinism::Fast),
            other => Err(format!(
                "unknown determinism '{other}' (expected bitexact|fast)"
            )),
        }
    }
}

/// Default cost of one top-down read relative to one bottom-up read, the
/// constant of [`Traversal::Auto`]'s switch (see [`DecompOptions::alpha`]).
///
/// Measured, not taken from the BFS literature, whose 12 assumes that a
/// bottom-up scan stops at its first settled neighbour. Per-read costs do
/// not settle it alone: a traced 400×400 grid run (2 threads on a 2-core
/// Xeon VM) spent 26 ns per top-down arc, settle included, against 5.5 ns
/// per bottom-up read, while top-down rounds out of RMAT hubs cost less
/// per arc. The value comes from an end-to-end sweep on the same host: the
/// median over 5 reps of the p50 of shift generation plus engine over 40
/// warm runs at β = 0.1, in ms.
///
/// | α | rmat:16 | grid:400 | rmat:16, BFS-reordered v2 file |
/// |---:|---:|---:|---:|
/// | 2 | 11.9 | 27.1 | 15.3 |
/// | 3 | 11.7 | 27.8 | 15.3 |
/// | 4 | 11.9 | 28.0 | 16.5 |
/// | 6 | 12.4 | 27.4 | 16.9 |
/// | 12 | 15.5 | 27.5 | 19.6 |
///
/// Every α up to 6 keeps grid:400 top-down throughout, so that column
/// differs by noise only. α = 2–4 are within noise of each other, and 3,
/// the middle of that range, was fastest on both rmat:16 files. The
/// earlier rule, which charged neither the unsettled list nor the wake
/// bucket, read 16.4, 35.7 and 21.6 ms at α = 12.
pub const DEFAULT_ALPHA: u64 = 3;

/// Hard cap on the vertex/edge count a decomposition request may touch:
/// oversized generator workloads (CLI) and oversized session bindings
/// ([`DecompOptions::validate_for`], called by `DecomposerBuilder::build`)
/// get a clean [`ConfigError::TooLarge`] instead of a capacity-overflow
/// panic or a doomed multi-gigabyte allocation.
pub const MAX_GRAPH_SIZE: usize = 1 << 31;

/// Typed validation error for decomposition configuration.
///
/// This is the single source of truth for parameter sanity: the
/// [`crate::DecomposerBuilder`], [`DecompOptions::validate`], and the CLI
/// all reject bad configurations through it instead of scattering ad-hoc
/// checks.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `beta` was not a positive finite number.
    InvalidBeta(f64),
    /// `alpha` was zero (the switch predicate would never trigger
    /// meaningfully; `0` almost always indicates a mis-parsed flag).
    InvalidAlpha,
    /// A requested graph or workload implies more than
    /// [`MAX_GRAPH_SIZE`] vertices or edges (`implied == None` means the
    /// size computation already overflowed `usize`).
    TooLarge {
        /// What quantity was too large (e.g. `"edge count n*m"`).
        what: String,
        /// The implied size, when it did not overflow.
        implied: Option<usize>,
    },
    /// A weighted view carried a non-finite or non-positive edge weight
    /// (reported by [`crate::wengine::validate_weights`], through which
    /// every weighted partition entry point routes, so bad weights are
    /// rejected up front instead of silently producing NaN distances).
    InvalidWeight {
        /// One endpoint of the first offending edge.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// The offending weight.
        weight: f64,
    },
    /// A [`RetryPolicy`] allowed zero attempts, so
    /// [`crate::Decomposer::run_with_retry`] would have nothing to return.
    ZeroRetryAttempts,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidBeta(b) => {
                write!(f, "beta must be positive and finite, got {b}")
            }
            ConfigError::InvalidAlpha => write!(f, "alpha must be positive"),
            ConfigError::TooLarge { what, implied } => match implied {
                Some(s) => write!(f, "{what} too large: {s} exceeds 2^31"),
                None => write!(f, "{what} too large: overflows usize"),
            },
            ConfigError::InvalidWeight { u, v, weight } => write!(
                f,
                "edge ({u},{v}) has invalid weight {weight} (edge weights must be finite and positive)"
            ),
            ConfigError::ZeroRetryAttempts => {
                write!(f, "retry policy max_attempts must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Options for one partition invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct DecompOptions {
    /// The decomposition parameter `β > 0`. Smaller `β` gives larger
    /// pieces with fewer cut edges; pieces have strong diameter
    /// `O(log n / β)` w.h.p. The paper's cut bound assumes `β ≤ 1/2`.
    pub beta: f64,
    /// RNG seed; every run with the same seed (and tie-break rule) is
    /// bit-identical across traversals, the exact oracles and thread
    /// counts.
    pub seed: u64,
    /// Tie-breaking rule (see [`TieBreak`]).
    pub tie_break: TieBreak,
    /// Shift generation rule (see [`ShiftStrategy`]).
    pub shift_strategy: ShiftStrategy,
    /// Traversal strategy of the engine (see [`Traversal`]). Affects only
    /// wall-clock, never output.
    pub traversal: Traversal,
    /// Scheduler choice (see [`Determinism`]): `BitExact` (default)
    /// uses fixed chunks, `Fast` work stealing. Affects only wall-clock,
    /// never output.
    pub determinism: Determinism,
    /// Cost of one top-down read relative to one bottom-up read, the
    /// constant of [`Traversal::Auto`]'s switch: a round goes bottom-up
    /// when `alpha × (wake bucket + frontier arcs)` exceeds `unsettled
    /// list + unsettled arcs`. Larger values switch earlier (more
    /// bottom-up rounds); a run reads at most `alpha · (n + 2m)` entries
    /// whatever it switches to. Output never depends on it. The default
    /// ([`DEFAULT_ALPHA`]) is measured once for all graphs, not tuned per
    /// workload.
    pub alpha: u64,
}

impl DecompOptions {
    /// Options with the given `β`, seed 0 and fractional-shift tie-breaks.
    ///
    /// Panics unless `β > 0` and finite. The paper's `(β, O(log n/β))`
    /// guarantee assumes `β ≤ 1/2`; larger values (used e.g. by the spanner
    /// pipeline on dense low-diameter graphs, where tiny radii are needed)
    /// still produce valid decompositions, but the `O(β)` cut constant
    /// degrades toward `1 − e^{−β}`.
    pub fn new(beta: f64) -> Self {
        Self::try_new(beta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking counterpart of [`DecompOptions::new`]: rejects a bad
    /// `β` with a typed [`ConfigError`] instead of panicking.
    pub fn try_new(beta: f64) -> Result<Self, ConfigError> {
        let opts = DecompOptions {
            beta,
            seed: 0,
            tie_break: TieBreak::default(),
            shift_strategy: ShiftStrategy::default(),
            traversal: Traversal::default(),
            determinism: Determinism::default(),
            alpha: DEFAULT_ALPHA,
        };
        opts.validate()?;
        Ok(opts)
    }

    /// Centralized parameter validation: `β` positive and finite, `alpha`
    /// nonzero. The [`crate::DecomposerBuilder`], every session run, and
    /// the CLI all route through this single check.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(ConfigError::InvalidBeta(self.beta));
        }
        if self.alpha == 0 {
            return Err(ConfigError::InvalidAlpha);
        }
        Ok(())
    }

    /// [`validate`](DecompOptions::validate) plus the n/m sanity check
    /// against the graph the options are about to run on: vertex and edge
    /// counts above [`MAX_GRAPH_SIZE`] are rejected as
    /// [`ConfigError::TooLarge`]. `DecomposerBuilder::build` applies this
    /// to the bound view; the CLI applies the same cap to generator
    /// workload specs before building the graph at all.
    pub fn validate_for(&self, n: usize, m: usize) -> Result<(), ConfigError> {
        self.validate()?;
        for (what, size) in [("vertex count", n), ("edge count", m)] {
            if size > MAX_GRAPH_SIZE {
                return Err(ConfigError::TooLarge {
                    what: what.to_string(),
                    implied: Some(size),
                });
            }
        }
        Ok(())
    }

    /// [`validate`](DecompOptions::validate), panicking on violation — the
    /// single panic point for infallible entry layers (the one-shot
    /// [`crate::partition`] calls and `(beta, seed)` convenience
    /// signatures) whose signatures predate the typed [`ConfigError`]. Fallible callers
    /// should prefer `DecomposerBuilder` and get the error as a value.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid decomposition options: {e}");
        }
    }

    /// Sets `β` without immediate checking (validated at the next
    /// [`DecompOptions::validate`] boundary — every engine entry point).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine traversal strategy.
    pub fn with_traversal(mut self, t: Traversal) -> Self {
        self.traversal = t;
        self
    }

    /// Sets the scheduler choice (see [`Determinism`]).
    pub fn with_determinism(mut self, d: Determinism) -> Self {
        self.determinism = d;
        self
    }

    /// Sets the per-read cost ratio of [`Traversal::Auto`]'s switch (see
    /// [`DecompOptions::alpha`]).
    ///
    /// Panics if `alpha == 0` (the switch predicate would never trigger
    /// meaningfully and `0` almost always indicates a mis-parsed flag).
    pub fn with_alpha(mut self, alpha: u64) -> Self {
        assert!(alpha > 0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Sets the tie-break rule.
    pub fn with_tie_break(mut self, tb: TieBreak) -> Self {
        self.tie_break = tb;
        self
    }

    /// Sets the shift-generation strategy.
    pub fn with_shift_strategy(mut self, s: ShiftStrategy) -> Self {
        self.shift_strategy = s;
        self
    }
}

/// Policy for [`crate::Decomposer::run_with_retry`] (the proof of Theorem 1.2
/// repeats the partition until both guarantees hold; each attempt succeeds
/// with constant probability, so the expected number of repeats is `O(1)`).
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Accept when `cut_edges ≤ cut_slack · β · m`.
    pub cut_slack: f64,
    /// Accept when `max_radius ≤ radius_slack · ln(n) / β`.
    pub radius_slack: f64,
    /// Give up (and return the best attempt seen) after this many tries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // cut: E[cut] ≤ (e^β − 1)m ≤ 1.3 βm for β ≤ 1/2; slack 4 makes the
        // acceptance probability > 1/2 by Markov. radius: Lemma 4.2 gives
        // δ_max ≤ 2 ln n / β with probability 1 − 1/n.
        RetryPolicy {
            cut_slack: 4.0,
            radius_slack: 2.0,
            max_attempts: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_pattern() {
        let o = DecompOptions::new(0.25)
            .with_seed(99)
            .with_tie_break(TieBreak::Permutation);
        assert_eq!(o.beta, 0.25);
        assert_eq!(o.seed, 99);
        assert_eq!(o.tie_break, TieBreak::Permutation);
    }

    #[test]
    fn default_tiebreak_is_fractional() {
        assert_eq!(DecompOptions::new(0.1).tie_break, TieBreak::FractionalShift);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_beta() {
        let _ = DecompOptions::new(0.0);
    }

    #[test]
    fn accepts_beta_above_one() {
        // Large β = tiny shifts = small radii; used by the spanner pipeline.
        assert_eq!(DecompOptions::new(4.0).beta, 4.0);
    }

    #[test]
    #[should_panic]
    fn rejects_infinite_beta() {
        let _ = DecompOptions::new(f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_beta() {
        let _ = DecompOptions::new(f64::NAN);
    }

    #[test]
    fn traversal_defaults_and_builders() {
        let o = DecompOptions::new(0.2);
        assert_eq!(o.traversal, Traversal::Auto);
        assert_eq!(o.alpha, DEFAULT_ALPHA);
        let o = o
            .with_traversal(Traversal::TopDownPar)
            .with_alpha(5)
            .with_seed(1);
        assert_eq!(o.traversal, Traversal::TopDownPar);
        assert_eq!(o.alpha, 5);
    }

    #[test]
    fn traversal_parses_cli_tokens() {
        for (token, want) in [
            ("auto", Traversal::Auto),
            ("hybrid", Traversal::Auto),
            ("parallel", Traversal::TopDownPar),
            ("topdown", Traversal::TopDownPar),
        ] {
            assert_eq!(token.parse::<Traversal>().unwrap(), want, "{token}");
        }
        for gone in ["bogus", "sequential", "seq", "bottomup", "bottom-up"] {
            assert!(gone.parse::<Traversal>().is_err(), "{gone}");
        }
        // Canonical tokens round-trip.
        for t in [Traversal::Auto, Traversal::TopDownPar] {
            assert_eq!(t.as_str().parse::<Traversal>().unwrap(), t);
        }
    }

    #[test]
    fn determinism_parses_cli_tokens() {
        for (token, want) in [
            ("bitexact", Determinism::BitExact),
            ("bit-exact", Determinism::BitExact),
            ("exact", Determinism::BitExact),
            ("fast", Determinism::Fast),
        ] {
            assert_eq!(token.parse::<Determinism>().unwrap(), want, "{token}");
        }
        assert!("bogus".parse::<Determinism>().is_err());
        for d in [Determinism::BitExact, Determinism::Fast] {
            assert_eq!(d.as_str().parse::<Determinism>().unwrap(), d);
        }
        // The default contract is the historical byte-identical one.
        assert_eq!(DecompOptions::new(0.1).determinism, Determinism::BitExact);
        let o = DecompOptions::new(0.1).with_determinism(Determinism::Fast);
        assert_eq!(o.determinism, Determinism::Fast);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_alpha() {
        let _ = DecompOptions::new(0.1).with_alpha(0);
    }

    #[test]
    fn validate_reports_typed_errors() {
        assert_eq!(
            DecompOptions::try_new(0.0).unwrap_err(),
            ConfigError::InvalidBeta(0.0)
        );
        assert!(matches!(
            DecompOptions::try_new(f64::NAN).unwrap_err(),
            ConfigError::InvalidBeta(_)
        ));
        let mut o = DecompOptions::new(0.2);
        o.alpha = 0;
        assert_eq!(o.validate().unwrap_err(), ConfigError::InvalidAlpha);
        o.alpha = 1;
        assert!(o.validate().is_ok());
        // Errors render as human-readable messages for the CLI.
        let msg = ConfigError::InvalidBeta(-1.0).to_string();
        assert!(msg.contains("beta"), "{msg}");
        let msg = ConfigError::TooLarge {
            what: "edge count".into(),
            implied: Some(1 << 40),
        }
        .to_string();
        assert!(msg.contains("too large"), "{msg}");
        let msg = ConfigError::InvalidWeight {
            u: 3,
            v: 7,
            weight: f64::NAN,
        }
        .to_string();
        assert!(msg.contains("invalid weight"), "{msg}");
    }

    #[test]
    fn validate_for_rejects_oversized_graphs() {
        let o = DecompOptions::new(0.2);
        assert!(o.validate_for(1000, 5000).is_ok());
        assert!(matches!(
            o.validate_for(MAX_GRAPH_SIZE + 1, 0).unwrap_err(),
            ConfigError::TooLarge { .. }
        ));
        assert!(matches!(
            o.validate_for(10, MAX_GRAPH_SIZE + 1).unwrap_err(),
            ConfigError::TooLarge { .. }
        ));
        // Parameter errors still win over size errors.
        let bad = DecompOptions::new(0.2).with_beta(-1.0);
        assert!(matches!(
            bad.validate_for(10, 10).unwrap_err(),
            ConfigError::InvalidBeta(_)
        ));
    }

    #[test]
    fn retry_default_sane() {
        let r = RetryPolicy::default();
        assert!(r.cut_slack > 1.0);
        assert!(r.radius_slack >= 1.0);
        assert!(r.max_attempts >= 1);
    }
}
