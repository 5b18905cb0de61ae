//! The session front door: build a [`Decomposer`] once, run it many times.
//!
//! The pipelines the paper motivates — spanners, hopsets, low-stretch
//! trees, solver preconditioners — do not call the decomposition once:
//! they call it **many times over the same graph with fresh shifts**
//! (Miller–Peng–Vladu–Xu run it per level of a spanner/hopset recursion;
//! the Theorem 1.2 retry loop reruns it until the guarantee holds). For
//! that hot path, per-call allocation and a `CsrGraph`-only surface are
//! the wrong API. This module provides the session shape:
//!
//! ```text
//! DecomposerBuilder::new(beta)      configure: seed / traversal / tie-break
//!     .seed(7)                        / shift-strategy / alpha / retry policy
//!     .build(&view)?                validate (typed ConfigError), bind a view,
//!                                     allocate the reusable Workspace
//! decomposer.run()                  decompose; repeated runs reuse the
//! decomposer.run_with_seed(s)         Workspace arenas and allocate only
//! decomposer.run_many(&seeds)         the returned Decompositions
//! ```
//!
//! The view is anything implementing [`GraphView`]: an in-memory
//! [`mpx_graph::CsrGraph`], a zero-copy [`mpx_graph::MappedCsr`] snapshot
//! (serve decompositions straight off a file's pages), or an
//! [`mpx_graph::InducedView`] / [`mpx_graph::EdgeFilteredView`] of either.
//!
//! Beside the sessions this module holds the only two one-shot calls,
//! [`partition`] and [`partition_weighted`]: a fresh [`Workspace`], one
//! run, labels bit-identical to a session run with the same options.
//!
//! # Amortization
//!
//! A [`Workspace`] owns every scratch arena one run needs: the shift
//! buffers ([`ExpShifts`]), the engine's claim/assignment/distance/
//! wake-schedule arenas ([`EngineScratch`]), and the weighted engine's
//! bucket/label arenas ([`WeightedScratch`]). Buffers are reset in place
//! per run and grow only when a larger view arrives, so a session's steady
//! state allocates nothing but the returned [`Decomposition`]s — pinned by
//! the workspace-reuse test suite with a counting allocator.
//!
//! The weighted path (paper Section 6) runs through the same shapes:
//! [`DecomposerBuilder::build_weighted`] binds any
//! [`WeightedGraphView`] — an in-memory
//! [`mpx_graph::WeightedCsrGraph`], a zero-copy
//! [`mpx_graph::MappedWeightedCsr`] snapshot, or an
//! [`mpx_graph::InducedView`] of either — into a [`WeightedDecomposer`]
//! session whose runs share the same [`Workspace`].

use crate::decomposition::Decomposition;
use crate::engine::{self, EngineScratch, PartitionTelemetry};
use crate::options::{
    ConfigError, DecompOptions, Determinism, RetryPolicy, ShiftStrategy, TieBreak, Traversal,
};
use crate::shift::ExpShifts;
use crate::weighted::WeightedDecomposition;
use crate::wengine::{self, WeightedScratch, WeightedTelemetry};
use mpx_graph::{GraphView, WeightedGraphView};

/// Computes a `(β, O(log n / β))` decomposition of `view` in one call
/// (paper Algorithm 1, Theorem 1.2), under `opts.traversal`.
///
/// Runs on a fresh [`Workspace`] and returns what
/// `Workspace::new().partition_view(view, opts).0` returns. Every
/// [`Traversal`] gives the same labels. Callers that decompose one graph
/// repeatedly should hold a [`Decomposer`] and reuse its scratch.
///
/// ```
/// use mpx_decomp::{partition, DecompOptions, Traversal};
/// let g = mpx_graph::gen::gnm(500, 4000, 1);
/// let opts = DecompOptions::new(0.3).with_seed(9);
/// let d = partition(&g, &opts);
/// assert_eq!(d, partition(&g, &opts.with_traversal(Traversal::TopDownPar)));
/// ```
///
/// # Panics
///
/// Panics if `opts` fails [`DecompOptions::validate`]; build a session
/// through [`DecomposerBuilder`] to get a typed error instead.
pub fn partition<V: GraphView>(view: &V, opts: &DecompOptions) -> Decomposition {
    Workspace::new().partition_view(view, opts).0
}

/// Computes a weighted decomposition of `view` in one call (paper
/// Section 6: exponentially shifted multi-source shortest paths).
///
/// Returns what `Workspace::new().partition_weighted_view(view, opts).0`
/// returns: bucketed Δ-stepping at the width the engine computes (the
/// mean edge length, raised to `δ_max / n`).
///
/// # Panics
///
/// Panics on invalid options or on a view carrying a non-finite or
/// non-positive weight (the message of the typed [`ConfigError`]);
/// [`DecomposerBuilder::build_weighted`] returns the error as a value.
pub fn partition_weighted<W: WeightedGraphView>(
    view: &W,
    opts: &DecompOptions,
) -> WeightedDecomposition {
    if let Err(e) = wengine::validate_weights(view) {
        panic!("invalid weighted graph: {e}");
    }
    Workspace::new().partition_weighted_view(view, opts).0
}

/// Outcome of [`Decomposer::run_with_retry`].
#[must_use = "check accepted/attempts — an ignored outcome defeats the retry loop"]
#[derive(Clone, Debug)]
pub struct RetryOutcome {
    /// The accepted (or best-seen) decomposition.
    pub decomposition: Decomposition,
    /// Attempts consumed (1 = first try accepted).
    pub attempts: u32,
    /// Whether the returned decomposition met both thresholds.
    pub accepted: bool,
    /// Cut-edge threshold used (`cut_slack · β · m`).
    pub cut_threshold: f64,
    /// Radius threshold used (`radius_slack · ln n / β`).
    pub radius_threshold: f64,
}

/// Reusable scratch arenas for repeated decomposition runs.
///
/// A workspace is view-agnostic: one instance can serve runs over
/// different views (a recursion over thousands of induced pieces shares
/// one workspace and its buffers simply stay sized for the largest piece
/// seen). [`Decomposer`] owns one internally; pipelines that partition a
/// *sequence* of views hold a `Workspace` directly and call
/// [`Workspace::partition_view`].
#[must_use = "a Workspace only pays off when reused across runs"]
#[derive(Default)]
pub struct Workspace {
    shifts: ExpShifts,
    scratch: EngineScratch,
    wscratch: WeightedScratch,
    runs: u64,
}

impl Workspace {
    /// An empty workspace; arenas are sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of decomposition runs this workspace has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Bytes of scratch capacity currently reserved (shift buffers plus
    /// engine arenas). After the first run over a view, repeated runs over
    /// the same view leave this value unchanged — the capacity-reuse
    /// assertion of the session test suite.
    pub fn scratch_bytes(&self) -> usize {
        self.shifts.capacity_bytes()
            + self.scratch.capacity_bytes()
            + self.wscratch.capacity_bytes()
    }

    /// Partitions `view` under `opts`, reusing this workspace's arenas.
    ///
    /// This is the reusable form of [`partition`]: identical output, no
    /// per-call arena allocation once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if `opts` fails [`DecompOptions::validate`] — construct
    /// options through [`DecomposerBuilder`] or `DecompOptions`'s checked
    /// constructors to get a typed error instead.
    pub fn partition_view<V: GraphView>(
        &mut self,
        view: &V,
        opts: &DecompOptions,
    ) -> (Decomposition, PartitionTelemetry) {
        opts.assert_valid();
        self.runs += 1;
        self.shifts.regenerate(view.num_vertices(), opts);
        engine::partition_view_reusing(
            view,
            &self.shifts,
            opts.traversal,
            opts.alpha,
            opts.determinism,
            &mut self.scratch,
        )
    }

    /// Partitions a **reordered** view whose current id `u` names
    /// original vertex `new_to_old[u]` (the permutation section of a
    /// reordered `.mpx` v2 snapshot).
    ///
    /// Shifts are drawn per **original** id
    /// ([`ExpShifts::regenerate_permuted`]), so the returned
    /// decomposition — still in the view's current id space, matching the
    /// view for telemetry, cut and radius queries — maps back through
    /// [`Decomposition::remap_labels`]`(new_to_old)` to assignments and
    /// distances bit-identical to partitioning the original graph
    /// directly. (Parent pointers are the one legitimate difference: both
    /// runs build valid shortest-path trees, but the engine breaks
    /// equal-distance predecessor ties by smallest *current* id.)
    ///
    /// ```
    /// # use mpx_decomp::{DecompOptions, Workspace};
    /// # use mpx_graph::{gen, CsrGraph};
    /// # let g = gen::grid2d(8, 8);
    /// # let new_to_old: Vec<u32> = (0..64).rev().collect();
    /// # let old_to_new: Vec<u32> = (0..64).rev().collect();
    /// # let edges: Vec<(u32, u32)> = g
    /// #     .edges()
    /// #     .map(|(u, v)| (old_to_new[u as usize], old_to_new[v as usize]))
    /// #     .collect();
    /// # let reordered = CsrGraph::from_edges(64, &edges);
    /// # let opts = DecompOptions::new(0.4).with_seed(7);
    /// let (original, _) = Workspace::new().partition_view(&g, &opts);
    /// let (permuted, _) =
    ///     Workspace::new().partition_view_permuted(&reordered, &opts, &new_to_old);
    /// let remapped = permuted.remap_labels(&new_to_old);
    /// assert_eq!(remapped.assignment(), original.assignment());
    /// assert_eq!(remapped.distances(), original.distances());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `opts` fails [`DecompOptions::validate`], or if
    /// `new_to_old` is not a permutation of `0..n`, naming the
    /// out-of-range or repeated id.
    pub fn partition_view_permuted<V: GraphView>(
        &mut self,
        view: &V,
        opts: &DecompOptions,
        new_to_old: &[mpx_graph::Vertex],
    ) -> (Decomposition, PartitionTelemetry) {
        opts.assert_valid();
        self.runs += 1;
        self.shifts
            .regenerate_permuted(view.num_vertices(), opts, new_to_old);
        engine::partition_view_reusing(
            view,
            &self.shifts,
            opts.traversal,
            opts.alpha,
            opts.determinism,
            &mut self.scratch,
        )
    }

    /// Weighted twin of [`Workspace::partition_view`]: partitions a
    /// [`WeightedGraphView`] under `opts` (Section 6 shifted multi-source
    /// shortest paths, run as bucketed Δ-stepping at the width the engine
    /// computes), reusing this workspace's arenas.
    ///
    /// # Panics
    ///
    /// Panics if `opts` fails [`DecompOptions::validate`]. Weights are
    /// **not** re-validated here (that is the entry layers' job —
    /// [`DecomposerBuilder::build_weighted`] and [`partition_weighted`]
    /// check once via [`crate::wengine::validate_weights`]); non-finite
    /// weights would propagate NaN distances.
    pub fn partition_weighted_view<W: WeightedGraphView>(
        &mut self,
        view: &W,
        opts: &DecompOptions,
    ) -> (WeightedDecomposition, WeightedTelemetry) {
        opts.assert_valid();
        self.runs += 1;
        self.shifts.regenerate(view.num_vertices(), opts);
        wengine::partition_weighted_view_reusing(
            view,
            &self.shifts,
            opts.traversal,
            None,
            opts.determinism,
            &mut self.wscratch,
        )
    }
}

/// Configuration builder for a [`Decomposer`] session, and through
/// [`build_weighted`](DecomposerBuilder::build_weighted) for a
/// [`WeightedDecomposer`].
///
/// All knobs of [`DecompOptions`] plus a [`RetryPolicy`]; nothing is
/// validated until [`build`](DecomposerBuilder::build) (or
/// [`options`](DecomposerBuilder::options)) runs
/// [`DecompOptions::validate`] and reports a typed [`ConfigError`].
///
/// ```
/// use mpx_decomp::{DecomposerBuilder, Traversal};
/// let g = mpx_graph::gen::grid2d(40, 40);
/// let mut dec = DecomposerBuilder::new(0.2)
///     .seed(7)
///     .traversal(Traversal::TopDownPar)
///     .build(&g)
///     .unwrap();
/// let d = dec.run();
/// assert_eq!(d, mpx_decomp::partition(&g, dec.options()));
/// ```
#[must_use = "a DecomposerBuilder does nothing until built into a Decomposer"]
#[derive(Clone, Debug, PartialEq)]
pub struct DecomposerBuilder {
    opts: DecompOptions,
    retry: RetryPolicy,
}

impl DecomposerBuilder {
    /// Starts a configuration with the given `β` and every other knob at
    /// its default. `β` is *not* checked here — validation happens at
    /// [`build`](DecomposerBuilder::build) time with a typed error.
    pub fn new(beta: f64) -> Self {
        DecomposerBuilder {
            opts: DecompOptions {
                beta,
                seed: 0,
                tie_break: TieBreak::default(),
                shift_strategy: ShiftStrategy::default(),
                traversal: Traversal::default(),
                determinism: Determinism::default(),
                alpha: crate::options::DEFAULT_ALPHA,
            },
            retry: RetryPolicy::default(),
        }
    }

    /// Starts from existing options (e.g. options parsed by the CLI).
    pub fn from_options(opts: DecompOptions) -> Self {
        DecomposerBuilder {
            opts,
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the RNG seed of [`Decomposer::run`] (and the base seed of the
    /// retry loop).
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Sets the engine traversal strategy (wall-clock only; every strategy
    /// returns identical labels).
    pub fn traversal(mut self, t: Traversal) -> Self {
        self.opts.traversal = t;
        self
    }

    /// Sets the scheduler choice: [`Determinism::BitExact`] (default,
    /// fixed chunks) or [`Determinism::Fast`] (work stealing). Wall-clock
    /// only; both return identical labels.
    pub fn determinism(mut self, d: Determinism) -> Self {
        self.opts.determinism = d;
        self
    }

    /// Sets the tie-break rule between clusters arriving in the same round.
    pub fn tie_break(mut self, tb: TieBreak) -> Self {
        self.opts.tie_break = tb;
        self
    }

    /// Sets the shift-generation strategy (paper Sections 3 and 5).
    pub fn shift_strategy(mut self, s: ShiftStrategy) -> Self {
        self.opts.shift_strategy = s;
        self
    }

    /// Sets the per-read cost ratio of [`Traversal::Auto`]'s switch (see
    /// [`DecompOptions::alpha`]). Zero is rejected at
    /// [`build`](DecomposerBuilder::build) time.
    pub fn alpha(mut self, alpha: u64) -> Self {
        self.opts.alpha = alpha;
        self
    }

    /// Sets the acceptance policy of [`Decomposer::run_with_retry`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Validates the configuration and returns the resulting options.
    pub fn options(&self) -> Result<DecompOptions, ConfigError> {
        self.opts.validate()?;
        Ok(self.opts.clone())
    }

    /// Validates the configuration and binds it to `view`, allocating a
    /// fresh [`Workspace`]. A [`RetryPolicy`] with `max_attempts == 0` is
    /// rejected with [`ConfigError::ZeroRetryAttempts`].
    pub fn build<'g, V: GraphView>(&self, view: &'g V) -> Result<Decomposer<'g, V>, ConfigError> {
        self.build_in(view, Workspace::new())
    }

    /// Like [`build`](DecomposerBuilder::build), but adopts an existing
    /// [`Workspace`] — e.g. one recovered from a finished session via
    /// [`Decomposer::into_workspace`] — so even the first run over the new
    /// view reuses warm arenas.
    pub fn build_in<'g, V: GraphView>(
        &self,
        view: &'g V,
        workspace: Workspace,
    ) -> Result<Decomposer<'g, V>, ConfigError> {
        let opts = self.opts.clone();
        opts.validate_for(view.num_vertices(), (view.total_degree() / 2) as usize)?;
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        Ok(Decomposer {
            view,
            opts,
            retry: self.retry.clone(),
            workspace,
        })
    }

    /// Validates the configuration **and the view's weights** and binds
    /// them into a reusable [`WeightedDecomposer`] session — the weighted
    /// twin of [`build`](DecomposerBuilder::build).
    pub fn build_weighted<'g, W: WeightedGraphView>(
        &self,
        view: &'g W,
    ) -> Result<WeightedDecomposer<'g, W>, ConfigError> {
        self.build_weighted_in(view, Workspace::new())
    }

    /// Like [`build_weighted`](DecomposerBuilder::build_weighted), but
    /// adopts an existing [`Workspace`] so even the first run reuses warm
    /// arenas.
    pub fn build_weighted_in<'g, W: WeightedGraphView>(
        &self,
        view: &'g W,
        workspace: Workspace,
    ) -> Result<WeightedDecomposer<'g, W>, ConfigError> {
        let opts = self.opts.clone();
        opts.validate_for(view.num_vertices(), (view.total_degree() / 2) as usize)?;
        wengine::validate_weights(view)?;
        Ok(WeightedDecomposer {
            view,
            opts,
            workspace,
        })
    }
}

/// A decomposition session over one graph view: validated options plus a
/// reusable [`Workspace`], so [`run`](Decomposer::run) /
/// [`run_with_seed`](Decomposer::run_with_seed) /
/// [`run_many`](Decomposer::run_many) over the same view allocate
/// (almost) nothing after the first run.
///
/// Built by [`DecomposerBuilder::build`]. Outputs are bit-identical to
/// [`partition`] under the same options, across strategies, thread
/// counts, and `CsrGraph`-vs-`MappedCsr` sources.
///
/// ```
/// use mpx_decomp::DecomposerBuilder;
/// let g = mpx_graph::gen::gnm(500, 2000, 3);
/// let mut dec = DecomposerBuilder::new(0.3).build(&g).unwrap();
/// // Serve three requests with fresh shifts; the workspace is reused.
/// let runs = dec.run_many(&[1, 2, 3]);
/// assert_eq!(runs.len(), 3);
/// assert_ne!(runs[0], runs[1]);
/// ```
#[must_use = "a Decomposer does nothing until one of its run methods is called"]
pub struct Decomposer<'g, V: GraphView> {
    view: &'g V,
    opts: DecompOptions,
    retry: RetryPolicy,
    workspace: Workspace,
}

impl<'g, V: GraphView> Decomposer<'g, V> {
    /// The validated options this session runs under.
    pub fn options(&self) -> &DecompOptions {
        &self.opts
    }

    /// The bound graph view.
    pub fn view(&self) -> &'g V {
        self.view
    }

    /// The session's workspace (inspect reuse counters/capacity).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Releases the workspace for adoption by another session
    /// ([`DecomposerBuilder::build_in`]).
    pub fn into_workspace(self) -> Workspace {
        self.workspace
    }

    /// Decomposes under the configured seed.
    pub fn run(&mut self) -> Decomposition {
        self.run_with_seed(self.opts.seed)
    }

    /// [`run`](Decomposer::run) plus engine telemetry.
    pub fn run_instrumented(&mut self) -> (Decomposition, PartitionTelemetry) {
        self.run_with_seed_instrumented(self.opts.seed)
    }

    /// Decomposes with fresh shifts drawn from `seed` (the configured seed
    /// is unchanged — this is the "many runs, fresh shifts" hot path).
    pub fn run_with_seed(&mut self, seed: u64) -> Decomposition {
        self.run_with_seed_instrumented(seed).0
    }

    /// [`run_with_seed`](Decomposer::run_with_seed) plus engine telemetry.
    pub fn run_with_seed_instrumented(&mut self, seed: u64) -> (Decomposition, PartitionTelemetry) {
        let opts = self.opts.clone().with_seed(seed);
        self.workspace.partition_view(self.view, &opts)
    }

    /// Batched multi-seed run: one decomposition per seed, in order, each
    /// identical to an independent fresh run with that seed — but sharing
    /// this session's workspace, so only the outputs allocate.
    pub fn run_many(&mut self, seeds: &[u64]) -> Vec<Decomposition> {
        seeds.iter().map(|&s| self.run_with_seed(s)).collect()
    }

    /// [`run_with_seed_instrumented`](Decomposer::run_with_seed_instrumented)
    /// under a trace session: returns the labels, the telemetry, and the
    /// collected [`mpx_trace::Trace`] with per-round engine spans plus the
    /// telemetry and epoch-scoped runtime-stats deltas absorbed as
    /// counters. Labels are bit-identical to the untraced run. If an
    /// outer trace session is already active the returned trace is empty
    /// (the spans flow to the outer collector).
    pub fn run_with_seed_traced(
        &mut self,
        seed: u64,
    ) -> (Decomposition, PartitionTelemetry, mpx_trace::Trace) {
        let session = mpx_trace::start();
        let rt_epoch = mpx_runtime::stats::begin_epoch();
        let started = std::time::Instant::now();
        let (d, telemetry) = self.run_with_seed_instrumented(seed);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let rt = rt_epoch.finish();
        let mut trace = session.finish();
        trace.set_counter("ms", ms);
        trace.set_counter("rounds", telemetry.rounds as f64);
        trace.set_counter("relaxations", telemetry.relaxations as f64);
        trace.set_counter("clusters", telemetry.clusters as f64);
        trace.set_counter("bottom_up_rounds", telemetry.bottom_up_rounds as f64);
        trace.set_counter("runtime.regions", rt.regions as f64);
        trace.set_counter("runtime.participations", rt.participations as f64);
        trace.set_counter("runtime.chunks", rt.chunks as f64);
        (d, telemetry, trace)
    }

    /// [`run_many`](Decomposer::run_many) with per-seed timing: returns
    /// the decompositions plus a [`crate::profile::ProfileReport`]
    /// aggregating per-seed wall times into a p50/p99 latency
    /// distribution alongside the round/relaxation counters.
    pub fn run_many_profiled(
        &mut self,
        seeds: &[u64],
    ) -> (Vec<Decomposition>, crate::profile::ProfileReport) {
        let mut outputs = Vec::with_capacity(seeds.len());
        let mut samples = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let started = std::time::Instant::now();
            let (d, telemetry) = self.run_with_seed_instrumented(seed);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            samples.push(crate::profile::RunSample::new(seed, ms, &telemetry));
            outputs.push(d);
        }
        (
            outputs,
            crate::profile::ProfileReport::from_samples(samples),
        )
    }

    /// The Theorem 1.2 driver over this session: retries with seeds
    /// `seed, seed+1, …` until the configured [`RetryPolicy`] accepts,
    /// reusing the workspace across attempts; after
    /// `policy.max_attempts` tries it returns the attempt with the
    /// smallest cut.
    ///
    /// Each attempt satisfies both thresholds with constant probability
    /// (Lemma 4.2 bounds the radius w.h.p.; Corollary 4.5 plus Markov
    /// bounds the cut), so the expected number of attempts is `O(1)` —
    /// how the proof of Theorem 1.2 turns per-run expectations into the
    /// stated guarantees.
    pub fn run_with_retry(&mut self) -> RetryOutcome {
        let n = self.view.num_vertices().max(2);
        let m = (self.view.total_degree() / 2) as usize;
        let cut_threshold = self.retry.cut_slack * self.opts.beta * m as f64;
        let radius_threshold = self.retry.radius_slack * (n as f64).ln() / self.opts.beta;

        let mut best: Option<(usize, Decomposition)> = None;
        let max_attempts = self.retry.max_attempts;
        for attempt in 0..max_attempts {
            let d = self.run_with_seed(self.opts.seed.wrapping_add(attempt as u64));
            let cut = d.cut_edges_view(self.view);
            let radius = d.max_radius();
            if cut as f64 <= cut_threshold && (radius as f64) <= radius_threshold {
                return RetryOutcome {
                    decomposition: d,
                    attempts: attempt + 1,
                    accepted: true,
                    cut_threshold,
                    radius_threshold,
                };
            }
            if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                best = Some((cut, d));
            }
        }
        RetryOutcome {
            decomposition: best.expect("build rejects max_attempts == 0").1,
            attempts: max_attempts,
            accepted: false,
            cut_threshold,
            radius_threshold,
        }
    }
}

/// A **weighted** decomposition session over one [`WeightedGraphView`]:
/// validated options, validated weights, and a reusable [`Workspace`] —
/// the Section 6 path through the same session machinery as
/// [`Decomposer`].
///
/// Built by [`DecomposerBuilder::build_weighted`]. Every run is the
/// bucketed Δ-stepping engine at the width it computes (the mean edge
/// length, raised to `δ_max / n`); the configured [`Traversal`] does not
/// change it.
///
/// ```
/// use mpx_decomp::{partition_weighted, DecomposerBuilder};
/// let g = mpx_graph::gen::gnm(300, 900, 1);
/// let wg = mpx_graph::WeightedCsrGraph::unit_weights(&g);
/// let mut dec = DecomposerBuilder::new(0.2).seed(5).build_weighted(&wg).unwrap();
/// let d = dec.run();
/// assert_eq!(d, partition_weighted(&wg, dec.options()));
/// ```
#[must_use = "a WeightedDecomposer does nothing until one of its run methods is called"]
pub struct WeightedDecomposer<'g, W: WeightedGraphView> {
    view: &'g W,
    opts: DecompOptions,
    workspace: Workspace,
}

impl<'g, W: WeightedGraphView> WeightedDecomposer<'g, W> {
    /// The validated options this session runs under.
    pub fn options(&self) -> &DecompOptions {
        &self.opts
    }

    /// The bound weighted view.
    pub fn view(&self) -> &'g W {
        self.view
    }

    /// The session's workspace (inspect reuse counters/capacity).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Releases the workspace for adoption by another session (weighted or
    /// unweighted — the arenas are shared).
    pub fn into_workspace(self) -> Workspace {
        self.workspace
    }

    /// Decomposes under the configured seed.
    pub fn run(&mut self) -> WeightedDecomposition {
        self.run_with_seed(self.opts.seed)
    }

    /// [`run`](WeightedDecomposer::run) plus engine telemetry.
    pub fn run_instrumented(&mut self) -> (WeightedDecomposition, WeightedTelemetry) {
        self.run_with_seed_instrumented(self.opts.seed)
    }

    /// Decomposes with fresh shifts drawn from `seed` (the configured seed
    /// is unchanged — the "many runs, fresh shifts" hot path).
    pub fn run_with_seed(&mut self, seed: u64) -> WeightedDecomposition {
        self.run_with_seed_instrumented(seed).0
    }

    /// [`run_with_seed`](WeightedDecomposer::run_with_seed) plus telemetry.
    pub fn run_with_seed_instrumented(
        &mut self,
        seed: u64,
    ) -> (WeightedDecomposition, WeightedTelemetry) {
        let opts = self.opts.clone().with_seed(seed);
        self.workspace.partition_weighted_view(self.view, &opts)
    }

    /// Batched multi-seed run: one decomposition per seed, in order, each
    /// identical to an independent fresh run with that seed — but sharing
    /// this session's workspace, so only the outputs allocate.
    pub fn run_many(&mut self, seeds: &[u64]) -> Vec<WeightedDecomposition> {
        seeds.iter().map(|&s| self.run_with_seed(s)).collect()
    }

    /// [`run_with_seed_instrumented`](WeightedDecomposer::run_with_seed_instrumented)
    /// under a trace session: labels, telemetry, and the collected
    /// [`mpx_trace::Trace`] with per-bucket/per-phase Δ-stepping spans
    /// plus the [`WeightedTelemetry`] fields
    /// (buckets/phases/relaxations/delta) and epoch-scoped runtime-stats
    /// deltas absorbed as counters. Labels are bit-identical to the
    /// untraced run.
    pub fn run_with_seed_traced(
        &mut self,
        seed: u64,
    ) -> (WeightedDecomposition, WeightedTelemetry, mpx_trace::Trace) {
        let session = mpx_trace::start();
        let rt_epoch = mpx_runtime::stats::begin_epoch();
        let started = std::time::Instant::now();
        let (d, telemetry) = self.run_with_seed_instrumented(seed);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let rt = rt_epoch.finish();
        let mut trace = session.finish();
        trace.set_counter("ms", ms);
        trace.set_counter("buckets", telemetry.buckets as f64);
        trace.set_counter("phases", telemetry.phases as f64);
        trace.set_counter("relaxations", telemetry.relaxations as f64);
        trace.set_counter("clusters", telemetry.clusters as f64);
        trace.set_counter("delta", telemetry.delta);
        trace.set_counter("runtime.regions", rt.regions as f64);
        trace.set_counter("runtime.participations", rt.participations as f64);
        trace.set_counter("runtime.chunks", rt.chunks as f64);
        (d, telemetry, trace)
    }

    /// [`run_many`](WeightedDecomposer::run_many) with per-seed timing:
    /// the weighted twin of [`Decomposer::run_many_profiled`].
    pub fn run_many_profiled(
        &mut self,
        seeds: &[u64],
    ) -> (
        Vec<WeightedDecomposition>,
        crate::profile::WeightedProfileReport,
    ) {
        let mut outputs = Vec::with_capacity(seeds.len());
        let mut samples = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let started = std::time::Instant::now();
            let (d, telemetry) = self.run_with_seed_instrumented(seed);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            samples.push(crate::profile::WeightedRunSample::new(seed, ms, &telemetry));
            outputs.push(d);
        }
        (
            outputs,
            crate::profile::WeightedProfileReport::from_samples(samples),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::gen;
    use mpx_graph::{CsrGraph, WeightedCsrGraph};

    const ALL_STRATEGIES: [Traversal; 2] = [Traversal::Auto, Traversal::TopDownPar];

    /// A pseudo-random permutation `new id → original id` of `0..n`.
    fn shuffled(n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        p.sort_unstable_by_key(|&v| mpx_par::rng::hash_index(17, u64::from(v)));
        p
    }

    #[test]
    #[should_panic(expected = "permutation repeats original id 5")]
    fn permuted_partition_rejects_a_repeated_id() {
        let mut p: Vec<u32> = (0..16).collect();
        p[7] = 5;
        let _ = Workspace::new().partition_view_permuted(
            &gen::grid2d(4, 4),
            &DecompOptions::new(0.3),
            &p,
        );
    }

    #[test]
    #[should_panic(expected = "permutation names out-of-range original id 16")]
    fn permuted_partition_rejects_an_out_of_range_id() {
        let mut p: Vec<u32> = (0..16).collect();
        p[3] = 16;
        let _ = Workspace::new().partition_view_permuted(
            &gen::grid2d(4, 4),
            &DecompOptions::new(0.3),
            &p,
        );
    }

    #[test]
    fn warm_permuted_runs_keep_scratch_constant() {
        // 6,400 vertices: above the shifts' parallel cutoff.
        let g = gen::grid2d(80, 80);
        let p = shuffled(g.num_vertices() as u32);
        let opts = |seed| DecompOptions::new(0.2).with_seed(seed);
        let mut ws = Workspace::new();
        let _ = ws.partition_view_permuted(&g, &opts(1), &p);
        let warm = ws.scratch_bytes();
        for seed in 2..6 {
            let _ = ws.partition_view_permuted(&g, &opts(seed), &p);
            assert_eq!(ws.scratch_bytes(), warm, "seed {seed}");
        }
    }

    #[test]
    fn builder_rejects_bad_config_with_typed_errors() {
        let g = gen::path(10);
        assert_eq!(
            DecomposerBuilder::new(0.0).build(&g).err(),
            Some(ConfigError::InvalidBeta(0.0))
        );
        assert_eq!(
            DecomposerBuilder::new(f64::INFINITY).options().err(),
            Some(ConfigError::InvalidBeta(f64::INFINITY))
        );
        assert_eq!(
            DecomposerBuilder::new(0.2).alpha(0).build(&g).err(),
            Some(ConfigError::InvalidAlpha)
        );
        assert!(DecomposerBuilder::new(0.2).alpha(3).build(&g).is_ok());
        let wg = WeightedCsrGraph::unit_weights(&g);
        assert_eq!(
            DecomposerBuilder::new(-1.0).build_weighted(&wg).err(),
            Some(ConfigError::InvalidBeta(-1.0))
        );
    }

    #[test]
    fn zero_attempt_retry_policy_is_rejected_at_build() {
        // run_with_retry would have no attempt to return.
        let g = gen::grid2d(10, 10);
        let builder = DecomposerBuilder::new(0.2).retry_policy(RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        });
        assert_eq!(
            builder.build(&g).err(),
            Some(ConfigError::ZeroRetryAttempts)
        );
        assert_eq!(
            builder.build_in(&g, Workspace::new()).err(),
            Some(ConfigError::ZeroRetryAttempts)
        );
    }

    #[test]
    fn one_shot_partition_matches_session_for_every_strategy() {
        let g = gen::gnm(400, 1600, 5);
        for traversal in ALL_STRATEGIES {
            let mut dec = DecomposerBuilder::new(0.2)
                .seed(9)
                .traversal(traversal)
                .build(&g)
                .unwrap();
            let opts = DecompOptions::new(0.2).with_seed(9);
            assert_eq!(dec.run(), partition(&g, &opts), "{traversal:?}");
        }
    }

    #[test]
    fn one_shot_partition_edge_cases() {
        let d = partition(&CsrGraph::empty(0), &DecompOptions::new(0.2));
        assert_eq!(d.num_clusters(), 0);
        let d = partition(&CsrGraph::empty(1), &DecompOptions::new(0.2));
        assert_eq!(d.num_clusters(), 1);
        assert_eq!(d.center_of(0), 0);

        let g = gen::grid2d(40, 40);
        let a = partition(&g, &DecompOptions::new(0.2).with_seed(1));
        let b = partition(&g, &DecompOptions::new(0.2).with_seed(2));
        assert_ne!(a.assignment(), b.assignment());
        let coarse = partition(&g, &DecompOptions::new(0.02).with_seed(11)).num_clusters();
        let fine = partition(&g, &DecompOptions::new(0.4).with_seed(11)).num_clusters();
        assert!(
            coarse < fine,
            "β=0.02 gave {coarse} clusters, β=0.4 gave {fine}"
        );
    }

    #[test]
    fn run_many_matches_independent_runs_and_reuses_arenas() {
        let g = gen::grid2d(30, 30);
        let mut dec = DecomposerBuilder::new(0.15).build(&g).unwrap();
        let seeds: Vec<u64> = (0..10).collect();
        let batch = dec.run_many(&seeds);
        let bytes_after_batch = dec.workspace().scratch_bytes();
        assert_eq!(dec.workspace().runs(), 10);
        for (i, &s) in seeds.iter().enumerate() {
            let fresh = partition(&g, &DecompOptions::new(0.15).with_seed(s));
            assert_eq!(batch[i], fresh, "seed {s}");
        }
        // Re-running the same seeds grows nothing.
        let again = dec.run_many(&seeds);
        assert_eq!(batch, again);
        assert_eq!(dec.workspace().scratch_bytes(), bytes_after_batch);
    }

    #[test]
    fn workspace_survives_rebinding_to_another_view() {
        let g1 = gen::grid2d(25, 25);
        let g2 = gen::gnm(300, 900, 2);
        let builder = DecomposerBuilder::new(0.25).seed(4);
        let mut dec = builder.build(&g1).unwrap();
        let d1 = dec.run();
        let ws = dec.into_workspace();
        assert_eq!(ws.runs(), 1);
        let mut dec2 = builder.build_in(&g2, ws).unwrap();
        let d2 = dec2.run();
        let opts = DecompOptions::new(0.25).with_seed(4);
        assert_eq!(d1, partition(&g1, &opts));
        assert_eq!(d2, partition(&g2, &opts));
        assert_eq!(dec2.workspace().runs(), 2);
    }

    fn retry(g: &CsrGraph, beta: f64, seed: u64, policy: RetryPolicy) -> RetryOutcome {
        DecomposerBuilder::new(beta)
            .seed(seed)
            .retry_policy(policy)
            .build(g)
            .unwrap()
            .run_with_retry()
    }

    #[test]
    fn retry_accepts_quickly_on_typical_inputs() {
        let g = gen::grid2d(40, 40);
        let out = retry(&g, 0.1, 3, RetryPolicy::default());
        assert!(out.accepted);
        assert!(out.attempts <= 3, "needed {} attempts", out.attempts);
        assert!(out.decomposition.cut_edges(&g) as f64 <= out.cut_threshold);
        assert!((out.decomposition.max_radius() as f64) <= out.radius_threshold);
        for (g, seed) in [
            (gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 2), 1u64),
            (gen::random_regular(500, 4, 9), 2),
            (gen::path(2000), 3),
        ] {
            let out = retry(&g, 0.2, seed, RetryPolicy::default());
            assert!(out.accepted, "not accepted on a typical input");
        }
    }

    #[test]
    fn impossible_retry_policy_returns_best_effort() {
        let g = gen::complete(30); // every nontrivial partition cuts many edges
        let policy = RetryPolicy {
            cut_slack: 1e-9,
            radius_slack: 1e-9,
            max_attempts: 3,
        };
        let out = retry(&g, 0.4, 0, policy);
        assert!(!out.accepted);
        assert_eq!(out.attempts, 3);
        // Still a valid decomposition.
        let r = crate::verify::verify_decomposition(&g, &out.decomposition);
        assert!(r.is_valid());
    }

    #[test]
    fn retry_thresholds_scale_with_beta() {
        let g = gen::grid2d(10, 10);
        let o1 = retry(&g, 0.1, 0, RetryPolicy::default());
        let o2 = retry(&g, 0.2, 0, RetryPolicy::default());
        assert!(o1.cut_threshold < o2.cut_threshold);
        assert!(o1.radius_threshold > o2.radius_threshold);
    }

    #[test]
    fn exact_oracle_and_weighted_one_shot_match_sessions() {
        let g = gen::gnm(60, 150, 1);
        let builder = DecomposerBuilder::new(0.2).seed(11);
        let opts = builder.options().unwrap();
        let mut dec = builder.build(&g).unwrap();
        assert_eq!(crate::partition_exact(&g, &opts), dec.run());

        let wg = WeightedCsrGraph::unit_weights(&g);
        for traversal in ALL_STRATEGIES {
            let mut wdec = builder
                .clone()
                .traversal(traversal)
                .build_weighted(&wg)
                .unwrap();
            assert_eq!(wdec.run(), partition_weighted(&wg, &opts), "{traversal:?}");
        }
    }

    #[test]
    fn weighted_session_matches_one_shot_and_reuses_arenas() {
        let g = gen::gnm(250, 800, 4);
        let wg = WeightedCsrGraph::unit_weights(&g);
        let builder = DecomposerBuilder::new(0.2).seed(6);
        let mut dec = builder.build_weighted(&wg).unwrap();
        let seeds: Vec<u64> = (0..6).collect();
        let batch = dec.run_many(&seeds);
        let bytes = dec.workspace().scratch_bytes();
        assert_eq!(dec.workspace().runs(), 6);
        for (i, &s) in seeds.iter().enumerate() {
            let opts = DecompOptions::new(0.2).with_seed(s);
            assert_eq!(batch[i], partition_weighted(&wg, &opts), "seed {s}");
        }
        // Repeats reuse arenas and stay bit-identical; the top-down
        // traversal changes nothing.
        let again = dec.run_many(&seeds);
        assert_eq!(batch, again);
        assert_eq!(dec.workspace().scratch_bytes(), bytes);
        let ws = dec.into_workspace();
        let mut top_down = builder
            .traversal(Traversal::TopDownPar)
            .build_weighted_in(&wg, ws)
            .unwrap();
        assert_eq!(top_down.run_many(&seeds), batch);
        // The workspace moves freely between weighted and unweighted runs.
        let ws = top_down.into_workspace();
        let mut udec = DecomposerBuilder::new(0.2)
            .seed(6)
            .build_in(&g, ws)
            .unwrap();
        assert_eq!(
            udec.run(),
            partition(&g, &DecompOptions::new(0.2).with_seed(6))
        );
    }
}
