//! # mpx-graph — graph substrate for the MPX workspace
//!
//! This crate provides the graph representation and supporting machinery
//! used by every other crate in the reproduction of Miller, Peng & Xu,
//! *Parallel Graph Decompositions Using Random Shifts* (SPAA 2013):
//!
//! * [`CsrGraph`] — a compact, immutable, symmetric adjacency structure in
//!   Compressed Sparse Row form. This is the unweighted, undirected graph
//!   `G = (V, E)` of the paper.
//! * [`WeightedCsrGraph`] — the weighted counterpart used by the paper's
//!   Section 6 extension and by the Laplacian solver crate.
//! * [`GraphBuilder`] — incremental edge-list construction with parallel
//!   finalization (sort + dedup + CSR assembly via rayon).
//! * [`gen`] — a suite of graph generators (grids, random graphs, power-law
//!   graphs, trees, …) that provide every workload used in the paper's
//!   Figure 1, the test suites and the CLI.
//! * [`view`] — zero-copy graph views: the [`GraphView`] traversal trait
//!   plus [`InducedView`] (vertex subsets) and [`EdgeFilteredView`] (edge
//!   subsets) over a borrowed [`CsrGraph`], so recursive pipelines can
//!   decompose pieces without materializing induced subgraphs.
//! * [`io`] — plain edge-list, DIMACS `.gr` and METIS readers/writers and
//!   format auto-detection: one line-at-a-time reader per text format,
//!   feeding a [`GraphBuilder`] directly, that loads a file the same way
//!   at every thread count.
//! * [`wview`] — the weighted twin of [`view`]: the [`WeightedGraphView`]
//!   traversal trait with GAT `(neighbor, weight)` iterators, implemented
//!   by [`WeightedCsrGraph`], [`InducedView`] over any weighted view
//!   (zero-copy vertex subsets) and [`MappedWeightedCsr`] (mmap'd weighted
//!   snapshots).
//! * [`snapshot`] — the `.mpx` binary CSR snapshot format: versioned,
//!   checksummed, and loadable zero-copy via [`MappedCsr`] (`mmap`, with
//!   an owned aligned buffer where `mmap` is refused); a flags bit adds an
//!   `f64` weight payload, loadable via [`MappedWeightedCsr`]. The
//!   compressed version 2 and `Snapshot::open`, which picks the reader a
//!   header needs, live in `mpx-compress`.
//! * [`algo`] — sequential oracles (BFS, Dijkstra, connected components,
//!   union-find, diameter estimation) used to verify the parallel code.
//!
//! Vertices are `u32` ids in `0..n`. All graphs are stored symmetrically:
//! if `v` appears in `neighbors(u)` then `u` appears in `neighbors(v)`.
//! Self-loops and parallel edges are removed at construction time.

// `deny` rather than `forbid`: one contained `#[allow(unsafe_code)]`
// island exists — the snapshot file buffer (mmap FFI + aligned reinterpret
// casts). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod algo;
pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
pub mod properties;
pub mod snapshot;
pub mod view;
pub mod weighted;
pub mod wview;

pub use builder::GraphBuilder;
pub use csr::{induced_materializations, CsrGraph, Vertex, NO_VERTEX};
pub use io::GraphFormat;
pub use snapshot::{MappedCsr, MappedWeightedCsr};
pub use view::{view_edges, EdgeFilteredView, GraphView, InducedView};
pub use weighted::{WeightedCsrGraph, WeightedGraphBuilder};
pub use wview::{weighted_view_edges, WeightedGraphView};

/// Distance value used by unweighted BFS; `u32::MAX` means unreachable.
pub type Dist = u32;

/// Sentinel distance for unreachable vertices.
pub const INFINITY: Dist = u32::MAX;
