//! # mpx-compress — delta-varint compressed `.mpx` v2 snapshots
//!
//! The raw-CSR `.mpx` format (version 1, `mpx_graph::snapshot`) stores one
//! `u32` per arc; for big graphs the decomposition engine is memory-bandwidth
//! bound, so those four bytes per arc are the ceiling. This crate adds the
//! **version-2** snapshot: each vertex's sorted neighbor list is byte-coded
//! as a signed delta from the vertex id followed by gap varints (the
//! parlaylib byte-code scheme), typically well under two bytes per arc on
//! power-law graphs. "Space and Time Efficient Parallel Graph Decomposition,
//! Clustering, and Diameter Approximation" (arXiv 1407.3144) targets exactly
//! this space/time frontier for shifted decompositions.
//!
//! * [`write_compressed_snapshot`] — parallel encoder (per-vertex length
//!   pass, prefix sum, disjoint-slice fill), optionally persisting a
//!   `new id → original id` permutation section for reordered graphs.
//! * [`MappedCompressedCsr`] — zero-copy reader over the mmap'd file (an
//!   owned aligned buffer where `mmap` is refused): the engine's streaming
//!   decode iterators run straight off the file's pages. It implements
//!   [`mpx_graph::GraphView`], so every session, app and `mpx serve` runs
//!   off compressed pages unchanged — with labels bit-identical to the v1
//!   path.
//! * [`Snapshot`] — the one opener for every `.mpx` file: the header
//!   picks the reader (raw v1, weighted v1 or compressed v2).
//! * [`reorder`] — offline locality passes (degree sort, BFS order) whose
//!   permutation rides in the optional v2 section so labels can be mapped
//!   back to original ids.
//!
//! Opening validates everything the v1 readers validate: header, exact
//! file length, payload checksum, and the full adjacency structure decoded
//! from the byte stream (strictly ascending, in-range, loop-free,
//! symmetric, exact per-vertex byte consumption) — a corrupt-but-
//! checksummed file fails with a clean `InvalidData` error, never a panic
//! or an out-of-range neighbor.
//!
//! ```
//! use mpx_compress::{write_compressed_snapshot, Snapshot};
//! use mpx_graph::{gen, GraphView};
//! let g = gen::grid2d(8, 8);
//! let mut path = std::env::temp_dir();
//! path.push(format!("doc-v2-{}.mpx", std::process::id()));
//! write_compressed_snapshot(&g, None, &path).unwrap();
//! // The header says version 2, so the compressed reader opens it.
//! let Snapshot::Compressed(c) = Snapshot::open(&path).unwrap() else {
//!     panic!("not a v2 snapshot")
//! };
//! assert_eq!(c.num_vertices(), 64);
//! let nbrs: Vec<u32> = c.neighbors_iter(0).collect();
//! assert_eq!(nbrs.as_slice(), g.neighbors(0));
//! # std::fs::remove_file(&path).ok();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod reorder;
pub mod snapshot;
pub mod snapshot2;

pub use codec::DecodeNeighbors;
pub use reorder::{apply_permutation, reorder_permutation, Reorder};
pub use snapshot::Snapshot;
pub use snapshot2::{write_compressed_snapshot, MappedCompressedCsr};
