//! One opener for every `.mpx` file: [`Snapshot::open`] reads the header
//! and hands the file to the reader of its format — raw v1
//! ([`MappedCsr`]), weighted v1 ([`MappedWeightedCsr`]) or compressed v2
//! ([`MappedCompressedCsr`]). It lives here rather than in `mpx-graph`
//! because the v2 reader does.

use crate::MappedCompressedCsr;
use mpx_graph::snapshot::{read_header, MappedCsr, MappedWeightedCsr, SnapshotHeader, VERSION2};
use std::io;
use std::path::Path;

/// A fully validated `.mpx` snapshot of any format, mapped zero-copy (or
/// held in an owned aligned buffer where `mmap` is refused).
#[derive(Debug)]
pub enum Snapshot {
    /// Raw v1 CSR.
    Unweighted(MappedCsr),
    /// Raw v1 CSR with `f64` edge weights, which the open audited
    /// (finite, positive, symmetric), so runs over it need not re-check.
    Weighted(MappedWeightedCsr),
    /// Delta-varint compressed v2, optionally reordered: its permutation
    /// maps labels computed in the file's ids back to original ids.
    Compressed(MappedCompressedCsr),
}

impl Snapshot {
    /// Opens `path` through the reader its header names; that reader runs
    /// the format's full audit (exact length, checksum, structure, and the
    /// weights or the permutation).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Snapshot> {
        let path = path.as_ref();
        let header = read_header(path)?;
        Ok(if header.version == VERSION2 {
            Snapshot::Compressed(MappedCompressedCsr::open(path)?)
        } else if header.is_weighted() {
            Snapshot::Weighted(MappedWeightedCsr::open(path)?)
        } else {
            Snapshot::Unweighted(MappedCsr::open(path)?)
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &SnapshotHeader {
        match self {
            Snapshot::Unweighted(m) => m.header(),
            Snapshot::Weighted(m) => m.topology().header(),
            Snapshot::Compressed(m) => m.header(),
        }
    }

    /// Whether the bytes are an actual `mmap` (vs the owned fallback).
    pub fn is_mapped(&self) -> bool {
        match self {
            Snapshot::Unweighted(m) => m.is_mapped(),
            Snapshot::Weighted(m) => m.topology().is_mapped(),
            Snapshot::Compressed(m) => m.is_mapped(),
        }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.header().n as usize
    }

    /// Undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.header().m as usize
    }

    /// True for weighted snapshots.
    pub fn is_weighted(&self) -> bool {
        matches!(self, Snapshot::Weighted(_))
    }
}
