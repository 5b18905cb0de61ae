//! # mpx — Parallel Graph Decompositions Using Random Shifts
//!
//! A production-quality Rust reproduction of Miller, Peng & Xu, *Parallel
//! Graph Decompositions Using Random Shifts* (SPAA 2013, arXiv:1307.3692),
//! together with the substrates the paper depends on and the applications it
//! motivates.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR graphs, generators, I/O, sequential oracles.
//! * [`par`] — counter-based per-index randomness (the shifts' RNG).
//! * [`runtime`] — the std-only work pool underneath the rayon facade:
//!   dedicated pools ([`runtime::Pool`]), schedulers (fixed-chunk,
//!   work-stealing) and utilization counters ([`runtime::stats`]).
//! * [`decomp`] — **the paper's contribution**: low-diameter decompositions
//!   via exponentially shifted shortest paths — one engine with two
//!   traversal strategies (`auto` and `parallel`), a weighted engine, and
//!   exact reference oracles.
//! * [`apps`] — spanners, low-stretch spanning trees, Linial–Saks block
//!   decompositions, coarsening.
//! * [`solver`] — Laplacian (SDD) solver substrate with spanning-tree
//!   preconditioning.
//! * [`viz`] — figure rendering (reproduces the paper's Figure 1).
//! * [`compress`] — delta-varint compressed `.mpx` v2 snapshots: a
//!   parallel byte-code encoder, zero-copy decode views that drive the
//!   engine straight off compressed pages, offline locality reordering
//!   (`mpx convert --compress --reorder`), and `Snapshot::open`, the one
//!   opener for every `.mpx` format.
//! * [`trace`] — structured tracing and metrics: spans through every
//!   layer, p50/p99 profiling, human/JSON/Chrome exporters (see
//!   `mpx profile` and `mpx partition --trace`).
//! * [`serve`] — the decomposition service: a TCP server over shared
//!   mmap'd `.mpx` snapshots with a warm session pool, a versioned
//!   binary protocol, a client library, and a load generator (see
//!   `mpx serve` / `mpx loadgen` and `docs/PROTOCOL.md`).
//!
//! ## Quickstart
//!
//! The front door is the [`decomp::Decomposer`] session: configure once,
//! bind a graph view, then run as many decompositions as you need — the
//! session's scratch arenas are reused across runs, so serving repeated
//! requests over one graph allocates (almost) nothing after the first.
//! For a single decomposition there is one one-shot call per graph kind,
//! [`decomp::partition`] and [`decomp::partition_weighted`], each bit-identical
//! to a session run with the same options.
//!
//! ```
//! use mpx::prelude::*;
//!
//! // The paper's Figure 1 workload, scaled down.
//! let g = mpx::graph::gen::grid2d(100, 100);
//! let mut session = DecomposerBuilder::new(0.1).seed(42).build(&g).unwrap();
//! let d = session.run();
//!
//! // Every vertex is assigned, pieces are connected with bounded strong
//! // diameter, and few edges are cut.
//! let report = verify_decomposition(&g, &d);
//! assert!(report.is_valid());
//! println!(
//!     "{} clusters, cut fraction {:.3}, max radius {}",
//!     d.num_clusters(),
//!     report.cut_fraction,
//!     report.max_radius
//! );
//!
//! // Serve three more requests with fresh shifts, reusing the workspace;
//! // each is bit-identical to an independent run with that seed.
//! let runs = session.run_many(&[1, 2, 3]);
//! assert_eq!(runs[1], partition(&g, &DecompOptions::new(0.1).with_seed(2)));
//! ```

#![deny(missing_docs)]

pub use mpx_apps as apps;
pub use mpx_compress as compress;
pub use mpx_decomp as decomp;
pub use mpx_graph as graph;
pub use mpx_par as par;
pub use mpx_runtime as runtime;
pub use mpx_serve as serve;
pub use mpx_solver as solver;
pub use mpx_trace as trace;
pub use mpx_viz as viz;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use mpx_compress::{MappedCompressedCsr, Reorder, Snapshot};
    pub use mpx_decomp::{
        partition, partition_exact, partition_weighted, verify_decomposition, ConfigError,
        DecompOptions, Decomposer, DecomposerBuilder, Decomposition, DecompositionStats,
        RetryPolicy, ShiftStrategy, TieBreak, Traversal, VerifyReport, Workspace,
    };
    pub use mpx_graph::{
        CsrGraph, EdgeFilteredView, GraphBuilder, GraphFormat, GraphView, InducedView, MappedCsr,
        Vertex, WeightedCsrGraph,
    };
}
