//! # mpx-apps — applications of low-diameter decompositions
//!
//! The paper's introduction motivates LDDs through the algorithms built on
//! top of them; this crate implements those pipelines on top of
//! `mpx-decomp`:
//!
//! * [`spanner()`](spanner::spanner) — sparse spanners à la Cohen \[12\]: keep each cluster's BFS
//!   tree plus one representative edge between adjacent clusters; stretch
//!   is governed by the cluster radii (`O(log n / β)`).
//! * [`lsst`] — low-stretch spanning trees in the AKPW \[3\] style: repeated
//!   decompose-and-contract rounds whose union of intra-cluster BFS trees
//!   forms the tree; this is the pipeline that turned the paper's routine
//!   into faster SDD solvers \[9\]. Includes an Euler-tour/LCA oracle for
//!   exact stretch evaluation.
//! * [`blocks`] — Linial–Saks block decompositions \[22\] via the paper's
//!   Section 2 recipe: iterate a `(1/2, O(log n))` decomposition; the edges
//!   cut by round `i` feed round `i+1`, halving each time, so `O(log m)`
//!   blocks suffice.
//! * [`coarsen()`](coarsen::coarsen) — quotient-graph coarsening with representative-edge
//!   tracking, the shared substrate of the spanner and LSST pipelines.
//!
//! The recursive pipelines ([`Hst`], [`blocks`], [`connectivity`]) run
//! every level on zero-copy [`mpx_graph::InducedView`] /
//! [`mpx_graph::EdgeFilteredView`] views of the original graph through
//! [`mpx_decomp::engine`] — no per-level induced-subgraph or residual-graph
//! materialization.
//!
//! The **weighted** (paper Section 6) pipelines —
//! [`WeightedDistanceOracle`], [`spanner_weighted()`](spanner::spanner_weighted),
//! [`low_stretch_tree_weighted()`](lsst::low_stretch_tree_weighted), and the
//! [`coarsen_weighted()`](coarsen::coarsen_weighted) substrate — are generic
//! over [`mpx_graph::WeightedGraphView`] and run through the parallel
//! weighted session ([`mpx_decomp::Workspace::partition_weighted_view`],
//! bucketed Δ-stepping, bit-identical to the per-center reference oracle
//! [`mpx_decomp::partition_weighted_exact`]), sharing
//! the intra-cluster shortest-path-tree recovery of
//! [`mpx_decomp::compute_parents_weighted`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod approx_sssp;
pub mod blocks;
pub mod coarsen;
pub mod connectivity;
pub mod hst;
pub mod lca;
pub mod lsst;
pub mod separator;
pub mod spanner;

pub use approx_sssp::{DistanceOracle, WeightedDistanceOracle};
pub use blocks::{block_decomposition, block_decomposition_with_options, BlockDecomposition};
pub use coarsen::{coarsen, coarsen_view, coarsen_weighted, Coarsened, WeightedCoarsened};
pub use connectivity::{parallel_components, parallel_components_with_options};
pub use hst::Hst;
pub use lca::TreePathOracle;
pub use lsst::{
    bfs_spanning_tree, low_stretch_tree, low_stretch_tree_weighted,
    low_stretch_tree_weighted_with_options, low_stretch_tree_with_options, stretch_stats,
    StretchStats,
};
pub use separator::{
    decomposition_separator, decomposition_separator_with_options, verify_separator, Separator,
};
pub use spanner::{
    spanner, spanner_weighted, spanner_weighted_with_options, spanner_with_options, Spanner,
    WeightedSpanner,
};
