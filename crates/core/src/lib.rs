//! # mpx-decomp — low-diameter decompositions via exponentially shifted shortest paths
//!
//! This crate is the reproduction of the core contribution of Miller, Peng &
//! Xu, *Parallel Graph Decompositions Using Random Shifts* (SPAA 2013,
//! arXiv:1307.3692).
//!
//! ## The algorithm
//!
//! Given an undirected unweighted graph `G = (V, E)` and `0 < β ≤ 1/2`:
//!
//! 1. Every vertex `u` draws a shift `δ_u ~ Exp(β)` independently
//!    ([`shift::ExpShifts`]).
//! 2. Every vertex `v` is assigned to the vertex `u` that minimizes the
//!    *shifted distance* `dist(u, v) − δ_u`, ties broken by a fixed total
//!    order on centers (Algorithm 2 of the paper).
//! 3. Implemented as **one parallel BFS**: vertex `u` wakes at time
//!    `δ_max − δ_u`; arrivals in the same integer round are ordered by the
//!    fractional parts of the start times, which are constant per cluster
//!    (Algorithm 1 / Section 5 of the paper).
//!
//! The result is a `(β, O(log n / β))` decomposition: every piece has
//! strong diameter `O(log n / β)` w.h.p., and the expected fraction of
//! edges between pieces is `O(β)` — see [`verify_decomposition`] which
//! checks all of this on concrete outputs.
//!
//! ## Architecture: one engine, two strategies, any view
//!
//! All shifted-BFS variants are **one** implementation: the round loop in
//! [`engine`] (wake → expand → finalize), parameterized along two
//! independent axes.
//!
//! **Traversal strategy** ([`Traversal`], selectable via
//! [`DecompOptions::traversal`]) decides which directions the rounds may
//! take — never what they compute; both strategies are bit-identical in
//! output. Whether a round runs inline or on the worker pool the engine
//! decides itself, from the round's read count:
//!
//! | strategy | when to pick it |
//! |----------|-----------------|
//! | [`Traversal::Auto`] | default; each round takes the direction that reads less ([`DecompOptions::alpha`]): bottom-up on fat low-diameter frontiers, top-down throughout on meshes |
//! | [`Traversal::TopDownPar`] | the paper's Algorithm 1 verbatim; predictable `O(m)` scans |
//!
//! **Graph view** ([`mpx_graph::GraphView`]) decides what the engine
//! traverses: the whole [`mpx_graph::CsrGraph`], a zero-copy
//! [`mpx_graph::MappedCsr`] snapshot, an [`mpx_graph::InducedView`] of a
//! vertex subset, or an [`mpx_graph::EdgeFilteredView`] of an edge subset.
//! Recursive pipelines (HSTs, block decompositions, connectivity)
//! partition views of the original graph instead of materializing induced
//! subgraphs at every level — see [`Workspace::partition_view`].
//!
//! ## One front door
//!
//! There are two call shapes. A **session** — configure a
//! [`DecomposerBuilder`] (β / seed / traversal / tie-break /
//! shift-strategy / alpha / retry policy — validated once, with a typed
//! [`ConfigError`]), bind it to any view, and run as many decompositions
//! as you need. The session's [`Workspace`] holds every scratch arena, so
//! repeated [`Decomposer::run`] / [`Decomposer::run_with_seed`] /
//! [`Decomposer::run_many`] calls over one view allocate (almost) nothing
//! after the first — the hot path of the spanner/hopset/solver pipelines
//! that invoke the decomposition many times with fresh shifts. And a
//! **one-shot call** per graph kind, for a single decomposition:
//!
//! | entry | paper reference | notes |
//! |-------|-----------------|-------|
//! | [`partition`] | Algorithm 1 | one-shot, any [`mpx_graph::GraphView`], follows `opts.traversal` |
//! | [`partition_weighted`] | Section 6 | one-shot, any [`mpx_graph::WeightedGraphView`], follows `opts.traversal` |
//! | [`DecomposerBuilder`] → [`Decomposer`] | Algorithm 1 | session: any [`Traversal`] × any view, amortized scratch |
//! | [`Decomposer::run_with_retry`] | Theorem 1.2 proof | retries until the `(β, O(log n/β))` guarantee holds |
//! | [`DecomposerBuilder::build_weighted`] → [`WeightedDecomposer`] | Section 6 | weighted session: bucketed Δ-stepping at the width the engine computes |
//! | [`Workspace::partition_view`] / [`Workspace::partition_weighted_view`] | Algorithm 1 / Section 6 | session machinery for pipelines that partition a *sequence* of views |
//! | [`engine::partition_view_with_shifts`] | Algorithm 1 | the engine under externally supplied shifts |
//! | [`partition_exact`] | Algorithm 2 | `O(nm)` literal reference oracle, for testing |
//! | [`wengine::partition_weighted_exact`] | Section 6 | per-center Dijkstra reference oracle, for testing |
//!
//! All variants are deterministic given `DecompOptions::seed` — every
//! strategy, every view, every thread count, and both call shapes return
//! **identical** assignments, which the test suite exploits heavily.
//!
//! ## Example
//!
//! ```
//! use mpx_decomp::{verify_decomposition, DecomposerBuilder};
//! use mpx_graph::gen;
//!
//! let g = gen::grid2d(60, 60);
//! let mut session = DecomposerBuilder::new(0.1).seed(7).build(&g).unwrap();
//! let d = session.run();
//! let report = verify_decomposition(&g, &d);
//! assert!(report.is_valid());
//! // Strong diameter bounded, few edges cut:
//! assert!(report.max_radius <= (2.0 * (g.num_vertices() as f64).ln() / 0.1) as u32);
//! // Serve more requests from the same session (workspace reused):
//! let more = session.run_many(&[1, 2, 3]);
//! assert_eq!(more.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod decomposer;
pub mod decomposition;
pub mod engine;
pub mod exact;
pub mod options;
pub mod profile;
pub mod shift;
pub mod stats;
pub mod verify;
pub mod weighted;
pub mod wengine;

pub use decomposer::{
    partition, partition_weighted, Decomposer, DecomposerBuilder, RetryOutcome, WeightedDecomposer,
    Workspace,
};
pub use decomposition::Decomposition;
pub use engine::{
    partition_view_reusing, partition_view_with_shifts, EngineScratch, PartitionTelemetry,
};
pub use exact::partition_exact;
pub use options::{
    ConfigError, DecompOptions, Determinism, RetryPolicy, ShiftStrategy, TieBreak, Traversal,
    DEFAULT_ALPHA, MAX_GRAPH_SIZE,
};
pub use profile::{
    LatencySummary, ProfileReport, RunSample, WeightedProfileReport, WeightedRunSample,
};
pub use shift::ExpShifts;
pub use stats::DecompositionStats;
pub use verify::{verify_decomposition, VerifyReport};
pub use weighted::{verify_weighted, WeightedDecomposition};
pub use wengine::{
    compute_parents_weighted, partition_weighted_exact, validate_weights, WeightedScratch,
    WeightedTelemetry,
};
