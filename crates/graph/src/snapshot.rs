//! Binary CSR snapshots: the `.mpx` on-disk graph format.
//!
//! Text formats (edge lists, DIMACS, METIS) pay integer parsing on every
//! load. A snapshot instead stores the CSR arrays of a [`CsrGraph`]
//! verbatim — little-endian, aligned, checksummed — so loading is one
//! `mmap` ([`MappedCsr`]) and the arrays are cast in place; where `mmap`
//! is refused the same reader holds the bytes in an owned aligned buffer.
//! A mapped snapshot implements [`crate::GraphView`], so the decomposition
//! engine traverses the file's pages directly; nothing is parsed and
//! nothing is copied. Because the arrays are cast, not decoded, the
//! readers refuse big-endian targets with an `Unsupported` error.
//!
//! # File layout (version 1)
//!
//! Full byte-level specification in `docs/FORMATS.md`. Summary:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0..8  | magic `"MPXCSR1\n"` |
//! | 8..12 | version (`u32` LE, = 1) |
//! | 12..16 | flags (`u32` LE, 0 or [`FLAG_WEIGHTED`]) |
//! | 16..24 | `n` — vertex count (`u64` LE) |
//! | 24..32 | `m` — undirected edge count (`u64` LE) |
//! | 32..40 | payload checksum (`u64` LE, chunked FNV-1a) |
//! | 40..64 | reserved, must be zero |
//! | 64..64+8(n+1) | CSR offsets, `n+1` × `u64` LE |
//! | …     | CSR targets, `2m` × `u32` LE |
//! | …end  | per-arc weights, `2m` × `f64` LE — only when [`FLAG_WEIGHTED`] |
//!
//! The header is 64 bytes so every array starts naturally aligned in any
//! page-aligned mapping (the weights start at `64 + 8(n+1) + 8m`, a
//! multiple of 8), which is what makes the zero-copy casts sound.
//!
//! Weighted snapshots set the [`FLAG_WEIGHTED`] flags bit and append one
//! `f64` per arc, parallel to the targets array. They are written by
//! [`write_weighted_snapshot`] and loaded by [`MappedWeightedCsr::open`];
//! the unweighted reader refuses them with a clear error rather than
//! silently dropping the weights.
//!
//! **Version 2** ([`VERSION2`], [`FLAG_COMPRESSED`]) keeps the same
//! 64-byte header shape but stores the adjacency delta-varint byte-coded
//! (see `docs/FORMATS.md`). This module parses v2 headers, but the codec,
//! writer and reader live in the `mpx-compress` crate, whose
//! `Snapshot::open` picks the reader any header needs; the readers here
//! refuse v2 files with an error naming it.
//!
//! ```
//! use mpx_graph::{gen, snapshot, GraphView};
//! let g = gen::grid2d(8, 8);
//! let mut path = std::env::temp_dir();
//! path.push(format!("doc-snap-{}.mpx", std::process::id()));
//! snapshot::write_snapshot(&g, &path).unwrap();
//!
//! // The engine traverses the mapped file directly.
//! let mapped = snapshot::MappedCsr::open(&path).unwrap();
//! assert_eq!(mapped.num_vertices(), 64);
//! assert_eq!(mapped.neighbors(0), g.neighbors(0));
//! // An owned copy, for callers that need the full `CsrGraph` API.
//! assert_eq!(mapped.to_graph(), g);
//! # std::fs::remove_file(&path).ok();
//! ```

use crate::csr::{CsrGraph, Vertex};
use crate::weighted::WeightedCsrGraph;
use rayon::prelude::*;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// First eight bytes of every snapshot. The trailing newline makes text
/// tools fail fast on binary input.
pub const MAGIC: [u8; 8] = *b"MPXCSR1\n";

/// The raw-CSR format version written by [`write_snapshot`] /
/// [`write_weighted_snapshot`].
pub const VERSION: u32 = 1;

/// The compressed format version (delta-varint adjacency, written and
/// read by the `mpx-compress` crate). This crate only parses its header;
/// the payload codec lives entirely in `mpx-compress`.
pub const VERSION2: u32 = 2;

/// Flags bit: the payload carries one `f64` weight per arc after the
/// targets array. Set by [`write_weighted_snapshot`]; files with this bit
/// must be loaded through the weighted loaders. Version 1 only.
pub const FLAG_WEIGHTED: u32 = 1;

/// Flags bit (version 2, required): the adjacency payload is
/// delta-varint byte-coded. Always set in a v2 header — the bit exists so
/// `flags` alone identifies what the payload is.
pub const FLAG_COMPRESSED: u32 = 2;

/// Flags bit (version 2, optional): the graph was reordered for locality
/// and the file carries a `new id → original id` permutation section.
pub const FLAG_PERMUTED: u32 = 4;

/// All flag bits a version-1 reader understands; anything else is
/// rejected (an unknown optional feature cannot be proven safe to
/// ignore).
const KNOWN_FLAGS: u32 = FLAG_WEIGHTED;

/// All flag bits a version-2 reader understands.
const KNOWN_FLAGS_V2: u32 = FLAG_COMPRESSED | FLAG_PERMUTED;

/// Header size in bytes; also the byte offset of the offsets array.
pub const HEADER_LEN: usize = 64;

/// Checksum chunk granularity: the payload is hashed in independent 1 MiB
/// pieces (parallelizable) whose digests are folded in order.
const CHECKSUM_CHUNK: usize = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a over one chunk.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The snapshot checksum: FNV-1a digests of consecutive
/// 1 MiB payload pieces, folded left-to-right with an
/// FNV step. Chunk digests are independent, so verification parallelizes;
/// the ordered fold keeps the result sensitive to chunk order.
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let digests: Vec<u64> = payload
        .par_chunks(CHECKSUM_CHUNK)
        .map(fnv1a)
        .collect::<Vec<_>>();
    digests
        .iter()
        .fold(FNV_OFFSET, |acc, &h| (acc ^ h).wrapping_mul(FNV_PRIME))
}

/// Streaming twin of [`payload_checksum`] used by the writer: feeds bytes
/// through the same chunking without materializing the payload.
struct ChunkedFnv {
    acc: u64,
    cur: u64,
    in_chunk: usize,
}

impl ChunkedFnv {
    fn new() -> Self {
        ChunkedFnv {
            acc: FNV_OFFSET,
            cur: FNV_OFFSET,
            in_chunk: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (CHECKSUM_CHUNK - self.in_chunk).min(bytes.len());
            for &b in &bytes[..take] {
                self.cur = (self.cur ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            self.in_chunk += take;
            if self.in_chunk == CHECKSUM_CHUNK {
                self.fold();
            }
            bytes = &bytes[take..];
        }
    }

    fn fold(&mut self) {
        self.acc = (self.acc ^ self.cur).wrapping_mul(FNV_PRIME);
        self.cur = FNV_OFFSET;
        self.in_chunk = 0;
    }

    fn finish(mut self) -> u64 {
        // A partial final chunk folds; an empty payload folds nothing,
        // matching `payload_checksum` (zero digests → `FNV_OFFSET`).
        if self.in_chunk > 0 {
            self.fold();
        }
        self.acc
    }
}

/// Decoded snapshot header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version ([`VERSION`] or [`VERSION2`]).
    pub version: u32,
    /// Feature flags; zero or [`FLAG_WEIGHTED`] in version 1,
    /// [`FLAG_COMPRESSED`] (plus optionally [`FLAG_PERMUTED`]) in
    /// version 2.
    pub flags: u32,
    /// Vertex count.
    pub n: u64,
    /// Undirected edge count (the targets array holds `2m` arcs).
    pub m: u64,
    /// Chunked-FNV checksum of the payload (both arrays).
    pub checksum: u64,
    /// Length in bytes of the delta-varint encoded adjacency stream.
    /// Version 2 only (stored in the former reserved bytes 40..48);
    /// always zero in version 1.
    pub enc_len: u64,
}

impl SnapshotHeader {
    /// Parses and validates the fixed-size header, rejecting wrong magic,
    /// unknown versions, unknown flags and nonzero reserved bytes. Does
    /// *not* check the payload — see [`SnapshotHeader::expected_file_len`]
    /// and [`payload_checksum`] for that.
    pub fn parse(bytes: &[u8]) -> io::Result<SnapshotHeader> {
        if bytes.len() < HEADER_LEN {
            return Err(bad(format!(
                "truncated snapshot header: {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(bad("not an .mpx snapshot (bad magic)"));
        }
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let mut header = SnapshotHeader {
            version: u32_at(8),
            flags: u32_at(12),
            n: u64_at(16),
            m: u64_at(24),
            checksum: u64_at(32),
            enc_len: 0,
        };
        match header.version {
            VERSION => {
                if header.flags & !KNOWN_FLAGS != 0 {
                    return Err(bad(format!(
                        "snapshot uses unknown feature flags {:#x}",
                        header.flags
                    )));
                }
                if bytes[40..HEADER_LEN].iter().any(|&b| b != 0) {
                    return Err(bad("nonzero reserved bytes in snapshot header"));
                }
            }
            VERSION2 => {
                if header.flags & !KNOWN_FLAGS_V2 != 0 {
                    return Err(bad(format!(
                        "snapshot uses unknown feature flags {:#x}",
                        header.flags
                    )));
                }
                if header.flags & FLAG_COMPRESSED == 0 {
                    return Err(bad(
                        "version-2 snapshot without FLAG_COMPRESSED (the bit is required)",
                    ));
                }
                header.enc_len = u64_at(40);
                if bytes[48..HEADER_LEN].iter().any(|&b| b != 0) {
                    return Err(bad("nonzero reserved bytes in snapshot header"));
                }
            }
            v => {
                return Err(bad(format!(
                    "unsupported snapshot version {v} (this reader understands \
                     {VERSION} and {VERSION2})"
                )));
            }
        }
        Ok(header)
    }

    /// Serializes the header into its 64-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.n.to_le_bytes());
        out[24..32].copy_from_slice(&self.m.to_le_bytes());
        out[32..40].copy_from_slice(&self.checksum.to_le_bytes());
        // Bytes 40..48 are reserved-zero in v1 and `enc_len` in v2; the
        // field is kept zero for v1 headers so one store covers both.
        out[40..48].copy_from_slice(&self.enc_len.to_le_bytes());
        out
    }

    /// Exact file length this header implies, or an error when the counts
    /// overflow the address space (a garbled header must produce a clean
    /// error, never an arithmetic panic or a huge allocation).
    pub fn expected_file_len(&self) -> io::Result<usize> {
        let n: usize = self
            .n
            .try_into()
            .map_err(|_| bad("snapshot n overflows usize"))?;
        let m: usize = self
            .m
            .try_into()
            .map_err(|_| bad("snapshot m overflows usize"))?;
        let offsets = n
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| bad("snapshot offsets array overflows usize"))?;
        if self.version == VERSION2 {
            // 64-byte header, byte-offsets u64[n+1], degrees u32[n],
            // optional permutation u32[n], encoded stream u8[enc_len].
            let degrees = n
                .checked_mul(4)
                .ok_or_else(|| bad("snapshot degrees array overflows usize"))?;
            let perm = if self.is_permuted() { degrees } else { 0 };
            let enc: usize = self
                .enc_len
                .try_into()
                .map_err(|_| bad("snapshot enc_len overflows usize"))?;
            return HEADER_LEN
                .checked_add(offsets)
                .and_then(|t| t.checked_add(degrees))
                .and_then(|t| t.checked_add(perm))
                .and_then(|t| t.checked_add(enc))
                .ok_or_else(|| bad("snapshot file length overflows usize"));
        }
        let targets = m
            .checked_mul(8) // 2m arcs × 4 bytes
            .ok_or_else(|| bad("snapshot targets array overflows usize"))?;
        let weights = if self.is_weighted() {
            m.checked_mul(16) // 2m arcs × 8 bytes
                .ok_or_else(|| bad("snapshot weights array overflows usize"))?
        } else {
            0
        };
        HEADER_LEN
            .checked_add(offsets)
            .and_then(|t| t.checked_add(targets))
            .and_then(|t| t.checked_add(weights))
            .ok_or_else(|| bad("snapshot file length overflows usize"))
    }

    /// Whether the payload carries the per-arc weight array.
    pub fn is_weighted(&self) -> bool {
        self.flags & FLAG_WEIGHTED != 0
    }

    /// Whether the adjacency payload is delta-varint compressed
    /// (version 2).
    pub fn is_compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED != 0
    }

    /// Whether the file carries a `new id → original id` permutation
    /// section (version 2, reordered snapshots).
    pub fn is_permuted(&self) -> bool {
        self.flags & FLAG_PERMUTED != 0
    }

    /// Byte offset where the targets array starts.
    fn targets_start(&self) -> usize {
        HEADER_LEN + 8 * (self.n as usize + 1)
    }

    /// Byte offset where the weights array starts (weighted files only).
    /// A multiple of 8: `64 + 8(n+1) + 4·2m`.
    fn weights_start(&self) -> usize {
        self.targets_start() + 8 * self.m as usize
    }
}

/// Writes `g` as a version-1 `.mpx` snapshot.
///
/// Single pass over the CSR arrays: values are serialized block-wise,
/// hashed and written, then the checksum is patched into the header.
///
/// ```
/// use mpx_graph::{gen, snapshot};
/// let g = gen::cycle(10);
/// let mut path = std::env::temp_dir();
/// path.push(format!("doc-write-{}.mpx", std::process::id()));
/// snapshot::write_snapshot(&g, &path).unwrap();
/// let header = snapshot::read_header(&path).unwrap();
/// assert_eq!((header.n, header.m), (10, 10));
/// # std::fs::remove_file(&path).ok();
/// ```
pub fn write_snapshot<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    write_v1(path.as_ref(), g.offsets(), g.targets(), None)
}

/// Writes `g` as a **weighted** version-1 `.mpx` snapshot: the
/// [`FLAG_WEIGHTED`] flags bit plus one `f64` LE weight per arc appended
/// after the targets array. Same single-pass streaming checksum as
/// [`write_snapshot`].
///
/// ```
/// use mpx_graph::{snapshot, WeightedCsrGraph};
/// let g = WeightedCsrGraph::from_edges(3, &[(0, 1, 0.5), (1, 2, 2.5)]);
/// let mut path = std::env::temp_dir();
/// path.push(format!("doc-wsnap-{}.mpx", std::process::id()));
/// snapshot::write_weighted_snapshot(&g, &path).unwrap();
/// let mapped = snapshot::MappedWeightedCsr::open(&path).unwrap();
/// assert_eq!(mapped.to_graph(), g);
/// # std::fs::remove_file(&path).ok();
/// ```
pub fn write_weighted_snapshot<P: AsRef<Path>>(g: &WeightedCsrGraph, path: P) -> io::Result<()> {
    write_v1(path.as_ref(), g.offsets(), g.targets(), Some(g.weights()))
}

/// The one version-1 writer body: the header, then each array in file
/// order, then the checksum patched into the header.
fn write_v1(
    path: &Path,
    offsets: &[usize],
    targets: &[Vertex],
    weights: Option<&[f64]>,
) -> io::Result<()> {
    let (n, m) = (offsets.len() - 1, targets.len() / 2);
    let _span = mpx_trace::span!("snapshot.write", n = n, m = m);
    let mut file = File::create(path)?;
    let mut header = SnapshotHeader {
        version: VERSION,
        flags: if weights.is_some() { FLAG_WEIGHTED } else { 0 },
        n: n as u64,
        m: m as u64,
        checksum: 0,
        enc_len: 0,
    };
    file.write_all(&header.encode())?;
    let mut hasher = ChunkedFnv::new();
    write_blocks(
        offsets,
        |o| (o as u64).to_le_bytes(),
        &mut hasher,
        &mut file,
    )?;
    write_blocks(targets, Vertex::to_le_bytes, &mut hasher, &mut file)?;
    if let Some(weights) = weights {
        write_blocks(weights, f64::to_le_bytes, &mut hasher, &mut file)?;
    }
    header.checksum = hasher.finish();
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header.encode())?;
    file.flush()
}

/// Serializes `values` in ~512 KiB blocks, feeding each block to the
/// streaming checksum and then to the file.
fn write_blocks<T: Copy, const W: usize>(
    values: &[T],
    to_le: impl Fn(T) -> [u8; W],
    hasher: &mut ChunkedFnv,
    file: &mut File,
) -> io::Result<()> {
    const BLOCK_VALUES: usize = 64 * 1024;
    let mut buf = Vec::with_capacity(BLOCK_VALUES * W);
    for chunk in values.chunks(BLOCK_VALUES) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&to_le(v));
        }
        hasher.update(&buf);
        file.write_all(&buf)?;
    }
    Ok(())
}

/// Reads just the header of a snapshot (cheap: 64 bytes).
pub fn read_header<P: AsRef<Path>>(path: P) -> io::Result<SnapshotHeader> {
    let mut file = File::open(path)?;
    let mut buf = [0u8; HEADER_LEN];
    let mut read = 0;
    while read < HEADER_LEN {
        match file.read(&mut buf[read..])? {
            0 => break,
            k => read += k,
        }
    }
    SnapshotHeader::parse(&buf[..read])
}

/// Checks the exact file length the header implies and the payload
/// checksum: the first audit of every snapshot reader, v1 and v2, run
/// before any typed cast of the payload (the casts check bounds only in
/// debug builds).
pub fn check_payload(header: &SnapshotHeader, bytes: &[u8]) -> io::Result<()> {
    let expect = header.expected_file_len()?;
    if bytes.len() != expect {
        return Err(bad(format!(
            "snapshot length mismatch: file has {} bytes, header implies {expect}",
            bytes.len()
        )));
    }
    let got = payload_checksum(&bytes[HEADER_LEN..]);
    if got != header.checksum {
        return Err(bad(format!(
            "snapshot checksum mismatch: stored {:#018x}, computed {got:#018x}",
            header.checksum
        )));
    }
    Ok(())
}

/// The one version-1 open body: the header, the format and kind, the
/// exact length and checksum, and only then [`audit_csr`] over the cast
/// arrays. A checksum only proves the bytes are what some writer
/// produced, so an open snapshot satisfies every [`CsrGraph`] invariant.
fn check_v1(buf: &filebuf::FileBytes, weighted: bool) -> io::Result<SnapshotHeader> {
    let header = SnapshotHeader::parse(buf.bytes())?;
    if header.version != VERSION {
        return Err(bad(
            "snapshot is compressed (version 2); open it with Snapshot::open or \
             MappedCompressedCsr::open from the mpx-compress crate",
        ));
    }
    match (header.is_weighted(), weighted) {
        (true, false) => return Err(bad("snapshot is weighted; open it with MappedWeightedCsr")),
        (false, true) => return Err(bad("snapshot is unweighted; open it with MappedCsr")),
        _ => {}
    }
    check_payload(&header, buf.bytes())?;
    let offsets = buf.as_u64s(HEADER_LEN, header.n as usize + 1);
    let targets = buf.as_u32s(header.targets_start(), 2 * header.m as usize);
    let weights = weighted.then(|| buf.as_f64s(header.weights_start(), targets.len()));
    audit_csr(offsets, targets, weights).map_err(|e| bad(format!("snapshot {e}")))?;
    Ok(header)
}

/// A CSR offset as stored: `u64` in a file, `usize` in memory.
pub(crate) trait Offset: Copy + PartialOrd + Sync {
    /// The offset as a `u64`.
    fn get(self) -> u64;
}

impl Offset for u64 {
    fn get(self) -> u64 {
        self
    }
}

impl Offset for usize {
    fn get(self) -> u64 {
        self as u64
    }
}

/// The structural audit of raw CSR arrays, shared by the v1 readers and
/// the in-memory validators ([`CsrGraph::validate`],
/// [`WeightedCsrGraph::validate`]), in this order: the offsets run from 0
/// to the arc count without decreasing; every list is strictly ascending
/// (so duplicate-free), in range and loop-free, with finite positive
/// weights, checked in parallel by [`first_bad_list`]; and every arc has
/// its reverse with the same weight bits, checked by the
/// [`check_reverse_arcs`] merge. The error names the offending vertex.
pub(crate) fn audit_csr<O: Offset>(
    offsets: &[O],
    targets: &[Vertex],
    weights: Option<&[f64]>,
) -> Result<(), String> {
    let arcs = targets.len() as u64;
    match (offsets.first(), offsets.last()) {
        (Some(first), Some(last)) if first.get() == 0 && last.get() == arcs => {}
        _ => return Err(format!("offsets do not run from 0 to the {arcs} arcs")),
    }
    if weights.is_some_and(|w| w.len() != targets.len()) {
        return Err("targets/weights length mismatch".into());
    }
    if !offsets.par_windows(2).all(|w| w[0] <= w[1]) {
        return Err("offsets not non-decreasing".into());
    }
    // The offsets are now ascending and end at `targets.len()`, so every
    // range below is in bounds.
    let n = offsets.len() - 1;
    let range = |v: usize| offsets[v].get() as usize..offsets[v + 1].get() as usize;
    first_bad_list(n, |v| {
        if let Some(fault) = list_fault(v, &targets[range(v)], n) {
            return Err(format!("adjacency invalid: vertex {v}: {fault}"));
        }
        let weights = weights.map_or(&[][..], |w| &w[range(v)]);
        match weights.iter().find(|&&x| !(x.is_finite() && x > 0.0)) {
            Some(x) => Err(format!(
                "weights invalid: vertex {v}: weight {x} is not finite and positive"
            )),
            None => Ok(()),
        }
    })?;
    check_reverse_arcs(
        n,
        |v| offsets[v].get(),
        |_| 0,
        |at, _| {
            let i = *at as usize;
            *at += 1;
            let tag = match weights {
                Some(w) => w.get(i)?.to_bits(),
                None => 0,
            };
            Some((*targets.get(i)?, tag))
        },
    )
    .map_err(|e| e.to_string())
}

/// The first way the raw list `nbrs` of vertex `v` breaks the per-list
/// rules: strictly ascending (so duplicate-free), in `0..n`, loop-free.
fn list_fault(v: usize, nbrs: &[Vertex], n: usize) -> Option<String> {
    if nbrs.windows(2).any(|w| w[0] >= w[1]) {
        return Some("neighbors not strictly ascending".into());
    }
    let t = *nbrs.iter().find(|&&t| t as usize >= n || t as usize == v)?;
    Some(if t as usize == v {
        "self-loop".into()
    } else {
        format!("neighbor {t} out of range 0..{n}")
    })
}

/// Runs the per-list check `check` on every vertex `0..n` in parallel and
/// returns the error of the lowest vertex that fails it. Each parallel
/// chunk stops at its first failure, so even input whose lists are all
/// invalid costs at most one error string per chunk.
pub fn first_bad_list(
    n: usize,
    check: impl Fn(usize) -> Result<(), String> + Sync + Send,
) -> Result<(), String> {
    match (0..n).into_par_iter().find_first(|&v| check(v).is_err()) {
        Some(v) => check(v),
        None => Ok(()),
    }
}

/// Why [`check_reverse_arcs`] refused a set of adjacency lists. The
/// `Display` form starts with what is broken: "adjacency asymmetric",
/// "weights invalid" or "adjacency invalid".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReverseArcError {
    /// Vertex `u` lists `v`, but `v` does not list `u`.
    Missing {
        /// The vertex whose list holds the arc.
        u: Vertex,
        /// The arc's target, whose list lacks `u`.
        v: Vertex,
    },
    /// `u` lists `v` and `v` lists `u`, with different tags: different
    /// weight bits in a weighted graph.
    TagMismatch {
        /// The lower endpoint.
        u: Vertex,
        /// The upper endpoint.
        v: Vertex,
    },
    /// The entry at `u`'s cursor does not decode, which the per-list
    /// checks that run first rule out.
    Undecodable {
        /// The vertex whose list does not decode.
        u: Vertex,
    },
}

impl std::fmt::Display for ReverseArcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReverseArcError::Missing { u, v } => write!(
                f,
                "adjacency asymmetric: vertex {u} lists {v}, but {v} does not list {u}"
            ),
            ReverseArcError::TagMismatch { u, v } => write!(
                f,
                "weights invalid: arcs {u} -> {v} and {v} -> {u} carry different weights"
            ),
            ReverseArcError::Undecodable { u } => {
                write!(
                    f,
                    "adjacency invalid: the list of vertex {u} does not decode"
                )
            }
        }
    }
}

/// The symmetry audit of every snapshot reader and in-memory validator:
/// one exact, sequential merge over all adjacency lists in O(n + m) time.
///
/// List `v` spans positions `offsets(v)..offsets(v + 1)` of its format's
/// storage: arc indices of a raw CSR, byte offsets of a v2 stream. The
/// format supplies only `read(&mut at, prev)`, which decodes the entry at
/// position `at` and advances `at` past it, returning the neighbor and its
/// tag (0 for unweighted lists, the weight's bits for weighted ones), or
/// `None` where the bytes do not decode. `prev` is the entry before `at`,
/// which a v2 gap decodes against, and `base(v)` stands in for it before
/// `v`'s first entry.
///
/// The pass visits u = 0, 1, …, n − 1 with one cursor per vertex into its
/// own list. At step u, each entry left in u's list must be some v > u,
/// and v's cursor must yield exactly u next, with the same tag. Each arc
/// is decoded once: an upper arc u → v by u's cursor at step u, its
/// reverse by v's cursor at the same moment.
///
/// * **It never accepts a missing reverse**, whatever the lists: an
///   accepted run pairs each upper arc with the reverse it consumed from
///   the target's cursor, and every lower arc is consumed that way, since
///   one still left at its own vertex's step is refused.
/// * **It accepts every symmetric input whose lists are strictly
///   ascending and loop-free**, which the per-list checks establish first:
///   before step u, every cursor sits just past its entries below u, so
///   v's next entry is its smallest one not below u — which is u, if v
///   lists u.
///
/// The state is a position and the last vertex matched, 12 bytes per
/// vertex, allocated here and freed on return. Reads are checked: any
/// input yields `Ok` or a typed error, never a panic.
pub fn check_reverse_arcs(
    n: usize,
    offsets: impl Fn(usize) -> u64,
    base: impl Fn(usize) -> Vertex,
    read: impl Fn(&mut u64, Vertex) -> Option<(Vertex, u64)>,
) -> Result<(), ReverseArcError> {
    let mut cursors = Cursors::new(n, |v| Cursor {
        at: offsets(v),
        last: base(v),
    });
    for u in 0..n {
        let uid = u as Vertex;
        let end = offsets(u + 1);
        let Cursor { mut at, mut last } = *cursors.get(u);
        while at < end {
            let (v, tag) = read(&mut at, last).ok_or(ReverseArcError::Undecodable { u: uid })?;
            last = v;
            let vi = v as usize;
            // A lower entry left here is a neighbor that never claimed u;
            // an exhausted cursor at v means v lists no u.
            if v <= uid || vi >= n {
                return Err(ReverseArcError::Missing { u: uid, v });
            }
            let cursor = cursors.get(vi);
            let Cursor {
                at: mut vat,
                last: vlast,
            } = *cursor;
            if vat >= offsets(vi + 1) {
                return Err(ReverseArcError::Missing { u: uid, v });
            }
            let (w, back) = read(&mut vat, vlast).ok_or(ReverseArcError::Undecodable { u: v })?;
            *cursor = Cursor { at: vat, last: w };
            if w < uid {
                // v lists w, whose step passed without claiming v.
                return Err(ReverseArcError::Missing { u: v, v: w });
            }
            if w > uid {
                // v's list skips past u.
                return Err(ReverseArcError::Missing { u: uid, v });
            }
            if back != tag {
                return Err(ReverseArcError::TagMismatch { u: uid, v });
            }
        }
    }
    Ok(())
}

/// One vertex's place in [`check_reverse_arcs`]: the position of its next
/// unread entry and the last entry read, packed into 12 bytes.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Cursor {
    at: u64,
    last: Vertex,
}

const _: () = assert!(std::mem::size_of::<Cursor>() == 12);

/// The merge's cursors, in blocks of 8,192 (96 KiB each). One flat array
/// would take its memory from `mmap`, and glibc raises its mmap threshold
/// to the size of any mapped block it frees; a server's later
/// allocations then stayed on the heap, and `serve-rmat16-v2` read 16%
/// more peak RSS. Blocks under the 128 KiB default never move it.
struct Cursors(Vec<Box<[Cursor; Cursors::BLOCK]>>);

impl Cursors {
    const BLOCK: usize = 8192;

    fn new(n: usize, init: impl Fn(usize) -> Cursor) -> Cursors {
        let unused = Cursor { at: 0, last: 0 };
        let block = |lo: usize| {
            let mut b = Box::new([unused; Self::BLOCK]);
            for (v, c) in (lo..n).zip(b.iter_mut()) {
                *c = init(v);
            }
            b
        };
        Cursors((0..n).step_by(Self::BLOCK).map(block).collect())
    }

    fn get(&mut self, v: usize) -> &mut Cursor {
        &mut self.0[v / Self::BLOCK][v % Self::BLOCK]
    }
}

/// The one place in this crate that needs `unsafe`: a read-only file
/// buffer that is either a private `mmap` (unix) or an owned 8-byte-aligned
/// allocation, plus the aligned reinterpret casts over it. Everything is
/// bounds- and alignment-checked at construction; the exposed API is safe.
#[allow(unsafe_code)]
pub mod filebuf {
    use std::fs::File;
    use std::io::{self, Read};
    use std::path::Path;

    #[cfg(all(unix, target_pointer_width = "64"))]
    mod sys {
        use std::ffi::c_void;
        use std::fs::File;
        use std::io;
        use std::os::fd::AsRawFd;

        extern "C" {
            fn mmap(
                addr: *mut c_void,
                length: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut c_void;
            fn munmap(addr: *mut c_void, length: usize) -> i32;
        }

        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;

        /// Maps `len` bytes of `file` read-only/private. `len` must be > 0.
        pub fn map(file: &File, len: usize) -> io::Result<*const u8> {
            // SAFETY: anonymous-address read-only private mapping of an
            // open fd; failure is reported via MAP_FAILED (-1).
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if p as isize == -1 {
                Err(io::Error::last_os_error())
            } else {
                Ok(p as *const u8)
            }
        }

        pub fn unmap(ptr: *const u8, len: usize) {
            // SAFETY: `ptr`/`len` came from a successful `map` call and are
            // unmapped exactly once (owned by FileBytes::Mapped).
            unsafe {
                munmap(ptr as *mut c_void, len);
            }
        }
    }

    /// Read-only bytes of a snapshot file with an 8-byte-aligned base.
    pub enum FileBytes {
        /// A private read-only memory mapping (page-aligned base).
        #[cfg(all(unix, target_pointer_width = "64"))]
        Mapped {
            /// Mapping base address.
            ptr: *const u8,
            /// Mapping length in bytes.
            len: usize,
        },
        /// Owned fallback: file bytes copied into a `u64` allocation so the
        /// base is 8-aligned like a mapping.
        Owned {
            /// Backing words holding the raw file bytes in native order.
            words: Vec<u64>,
            /// Real byte length (the last word may be partially used).
            len: usize,
        },
    }

    // SAFETY: the mapping is private and read-only for its whole lifetime
    // and the struct has no interior mutability, so shared references can
    // cross threads freely.
    unsafe impl Send for FileBytes {}
    unsafe impl Sync for FileBytes {}

    impl Drop for FileBytes {
        fn drop(&mut self) {
            #[cfg(all(unix, target_pointer_width = "64"))]
            if let FileBytes::Mapped { ptr, len } = *self {
                sys::unmap(ptr, len);
            }
        }
    }

    impl FileBytes {
        /// Memory-maps `path` when possible, falling back to an owned
        /// aligned read (non-unix, or `mmap` refusal e.g. on pseudo-files).
        /// Snapshot payloads are cast in place, not decoded, so a
        /// big-endian target gets an `Unsupported` error here, before any
        /// byte is read.
        pub fn map_or_read(path: &Path) -> io::Result<FileBytes> {
            if cfg!(target_endian = "big") {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    ".mpx snapshots require a little-endian target",
                ));
            }
            let mut file = File::open(path)?;
            let len: usize = file
                .metadata()?
                .len()
                .try_into()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
            #[cfg(all(unix, target_pointer_width = "64"))]
            if len > 0 {
                if let Ok(ptr) = sys::map(&file, len) {
                    return Ok(FileBytes::Mapped { ptr, len });
                }
            }
            let mut bytes = Vec::with_capacity(len);
            file.read_to_end(&mut bytes)?;
            Ok(FileBytes::owned(&bytes))
        }

        /// Copies `bytes` into an owned buffer with the 8-aligned base a
        /// mapping has.
        pub(crate) fn owned(bytes: &[u8]) -> FileBytes {
            let words = bytes
                .chunks(8)
                .map(|chunk| {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    // Native order: the in-memory bytes must equal the file's.
                    u64::from_ne_bytes(w)
                })
                .collect();
            FileBytes::Owned {
                words,
                len: bytes.len(),
            }
        }

        /// Whether the bytes are an actual `mmap` (vs the owned fallback).
        pub fn is_mapped(&self) -> bool {
            match self {
                #[cfg(all(unix, target_pointer_width = "64"))]
                FileBytes::Mapped { .. } => true,
                FileBytes::Owned { .. } => false,
            }
        }

        /// The file bytes.
        pub fn bytes(&self) -> &[u8] {
            match self {
                #[cfg(all(unix, target_pointer_width = "64"))]
                FileBytes::Mapped { ptr, len } => {
                    // SAFETY: the mapping covers exactly `len` readable
                    // bytes and lives as long as `self`.
                    unsafe { std::slice::from_raw_parts(*ptr, *len) }
                }
                FileBytes::Owned { words, len } => {
                    // SAFETY: `words` holds at least `len` initialized
                    // bytes; u8 has no alignment requirement.
                    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
                }
            }
        }

        /// Reinterprets `bytes()[start..start + 8 * count]` as `u64`s.
        ///
        /// These accessors sit on the engine's hot path (every `degree`/
        /// `neighbors` call of a mapped graph), so bounds and alignment
        /// are debug assertions only: every caller derives `start`/`count`
        /// from a header that [`super::check_payload`] validated against
        /// the exact file length, and the buffer base is 8-aligned by
        /// construction (page-aligned mapping / `Vec<u64>` fallback).
        pub fn as_u64s(&self, start: usize, count: usize) -> &[u64] {
            let b = self.bytes();
            debug_assert!(
                start
                    .checked_add(count * 8)
                    .is_some_and(|end| end <= b.len()),
                "u64 range out of bounds"
            );
            let ptr = b[start..].as_ptr();
            debug_assert_eq!(ptr.align_offset(8), 0, "u64 range misaligned");
            // SAFETY: in-bounds and aligned per the validated-header
            // contract above; u64 tolerates any bit pattern.
            unsafe { std::slice::from_raw_parts(ptr as *const u64, count) }
        }

        /// Reinterprets `bytes()[start..start + 4 * count]` as `u32`s
        /// (same validated-header contract as [`FileBytes::as_u64s`]).
        pub fn as_u32s(&self, start: usize, count: usize) -> &[u32] {
            let b = self.bytes();
            debug_assert!(
                start
                    .checked_add(count * 4)
                    .is_some_and(|end| end <= b.len()),
                "u32 range out of bounds"
            );
            let ptr = b[start..].as_ptr();
            debug_assert_eq!(ptr.align_offset(4), 0, "u32 range misaligned");
            // SAFETY: in-bounds and aligned per the validated-header
            // contract above; u32 tolerates any bit pattern.
            unsafe { std::slice::from_raw_parts(ptr as *const u32, count) }
        }

        /// Reinterprets `bytes()[start..start + 8 * count]` as `f64`s
        /// (same validated-header contract as [`FileBytes::as_u64s`]).
        pub fn as_f64s(&self, start: usize, count: usize) -> &[f64] {
            let b = self.bytes();
            debug_assert!(
                start
                    .checked_add(count * 8)
                    .is_some_and(|end| end <= b.len()),
                "f64 range out of bounds"
            );
            let ptr = b[start..].as_ptr();
            debug_assert_eq!(ptr.align_offset(8), 0, "f64 range misaligned");
            // SAFETY: in-bounds and aligned per the validated-header
            // contract above; f64 tolerates any bit pattern (NaN payloads
            // included — the loader's weight audit rejects them anyway).
            unsafe { std::slice::from_raw_parts(ptr as *const f64, count) }
        }
    }
}

/// A zero-copy, memory-mapped `.mpx` snapshot.
///
/// Implements [`crate::GraphView`], so it plugs straight into the decomposition
/// engine: `partition(&mapped, &opts)` traverses the file's pages
/// without materializing a [`CsrGraph`]. Opening validates everything:
/// the header, the exact file length, the payload checksum, and the full
/// adjacency structure (monotonic offsets; sorted, deduplicated,
/// loop-free, in-range, symmetric neighbor lists) — an open `MappedCsr`
/// satisfies every [`CsrGraph`] invariant, so downstream algorithms can
/// never be driven out of bounds by a corrupt-but-checksummed file.
///
/// When no real mapping is available — non-unix targets, 32-bit unix
/// (where the raw `mmap` FFI's `off_t` width would mismatch the C ABI),
/// or an `mmap` call that fails — the bytes are held in an owned aligned
/// buffer instead: same API, same zero-parse loads. Version-1 arrays are
/// little-endian on disk, so a big-endian target gets an `Unsupported`
/// error.
pub struct MappedCsr {
    buf: filebuf::FileBytes,
    header: SnapshotHeader,
}

impl MappedCsr {
    /// Opens and fully checks a snapshot (see type docs for what is and is
    /// not verified).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedCsr> {
        let _span = mpx_trace::span!("snapshot.mmap_open");
        Self::from_buf(filebuf::FileBytes::map_or_read(path.as_ref())?)
    }

    /// Audits file bytes however they were loaded: mapped, or the owned
    /// copy an `mmap` refusal leaves.
    fn from_buf(buf: filebuf::FileBytes) -> io::Result<MappedCsr> {
        let header = check_v1(&buf, false)?;
        Ok(MappedCsr { buf, header })
    }

    /// The decoded header.
    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// Whether the bytes are an actual `mmap` (vs the owned fallback).
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// Vertex count `n`.
    pub fn num_vertices(&self) -> usize {
        self.header.n as usize
    }

    /// Undirected edge count `m`.
    pub fn num_edges(&self) -> usize {
        self.header.m as usize
    }

    /// Directed arc count `2m`.
    pub fn num_arcs(&self) -> usize {
        2 * self.num_edges()
    }

    /// The raw offsets array (`n + 1` values).
    pub fn offsets(&self) -> &[u64] {
        self.buf.as_u64s(HEADER_LEN, self.num_vertices() + 1)
    }

    /// The raw targets array (`2m` values).
    pub fn targets(&self) -> &[Vertex] {
        self.buf
            .as_u32s(self.header.targets_start(), self.num_arcs())
    }

    /// Sorted neighbor slice of `v` — a view straight into the file.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let offsets = self.offsets();
        let lo = offsets[v as usize] as usize;
        let hi = offsets[v as usize + 1] as usize;
        &self.targets()[lo..hi]
    }

    /// Materializes an owned [`CsrGraph`] (for callers that need the full
    /// owned API, e.g. the decomposition verifier).
    pub fn to_graph(&self) -> CsrGraph {
        let offsets: Vec<usize> = self.offsets().iter().map(|&o| o as usize).collect();
        let targets: Vec<Vertex> = self.targets().to_vec();
        CsrGraph::from_parts(offsets, targets)
    }

    /// Re-runs the structural audit of [`MappedCsr::open`] over the mapped
    /// arrays, in place. Redundant with the open — useful as a guard
    /// against the backing file being modified after opening.
    pub fn validate(&self) -> Result<(), String> {
        audit_csr(self.offsets(), self.targets(), None)
    }
}

impl std::fmt::Debug for MappedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCsr")
            .field("n", &self.header.n)
            .field("m", &self.header.m)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl crate::view::GraphView for MappedCsr {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, Vertex>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        MappedCsr::num_vertices(self)
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        let offsets = self.offsets();
        (offsets[v as usize + 1] - offsets[v as usize]) as usize
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        2 * self.header.m
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        self.neighbors(v).iter().copied()
    }
}

/// A zero-copy, memory-mapped **weighted** `.mpx` snapshot: a version-1
/// snapshot ([`Self::topology`]) whose payload ends in one `f64` per arc.
///
/// Implements both [`crate::GraphView`] and [`crate::WeightedGraphView`],
/// so the weighted decomposition engine traverses the file's pages
/// directly. Opening validates everything [`MappedCsr::open`] does plus
/// the weight invariants (finite, strictly positive, bit-identical on both
/// arc directions) — an open `MappedWeightedCsr` satisfies every
/// [`WeightedCsrGraph`] invariant.
#[derive(Debug)]
pub struct MappedWeightedCsr {
    csr: MappedCsr,
}

impl MappedWeightedCsr {
    /// Opens and fully checks a weighted snapshot (see type docs).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedWeightedCsr> {
        let _span = mpx_trace::span!("snapshot.mmap_open", weighted = true);
        Self::from_buf(filebuf::FileBytes::map_or_read(path.as_ref())?)
    }

    /// Audits file bytes however they were loaded (see
    /// [`MappedCsr::from_buf`]).
    fn from_buf(buf: filebuf::FileBytes) -> io::Result<MappedWeightedCsr> {
        let header = check_v1(&buf, true)?;
        Ok(MappedWeightedCsr {
            csr: MappedCsr { buf, header },
        })
    }

    /// The graph without its weights: header, offsets, targets and
    /// neighbor slices, over the same mapped bytes.
    pub fn topology(&self) -> &MappedCsr {
        &self.csr
    }

    /// Undirected edge count `m`.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// The raw per-arc weights array (`2m` values), parallel to the
    /// topology's targets.
    pub fn weights(&self) -> &[f64] {
        let csr = &self.csr;
        csr.buf.as_f64s(csr.header.weights_start(), csr.num_arcs())
    }

    /// Weights parallel to the neighbors of `v`.
    #[inline]
    pub fn weights_of(&self, v: Vertex) -> &[f64] {
        let offsets = self.csr.offsets();
        &self.weights()[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
    }

    /// Materializes an owned [`WeightedCsrGraph`].
    pub fn to_graph(&self) -> WeightedCsrGraph {
        let offsets = self.csr.offsets().iter().map(|&o| o as usize).collect();
        let targets = self.csr.targets().to_vec();
        WeightedCsrGraph::from_parts(offsets, targets, self.weights().to_vec())
    }

    /// Re-runs the structure and weight audit of
    /// [`MappedWeightedCsr::open`] over the mapped arrays, in place (guard
    /// against the backing file changing after open).
    pub fn validate(&self) -> Result<(), String> {
        audit_csr(self.csr.offsets(), self.csr.targets(), Some(self.weights()))
    }
}

impl crate::view::GraphView for MappedWeightedCsr {
    type Neighbors<'a> = <MappedCsr as crate::view::GraphView>::Neighbors<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.csr.degree(v)
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        self.csr.total_degree()
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        self.csr.neighbors_iter(v)
    }
}

impl crate::wview::WeightedGraphView for MappedWeightedCsr {
    type WeightedNeighbors<'a> = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, Vertex>>,
        std::iter::Copied<std::slice::Iter<'a, f64>>,
    >;

    #[inline]
    fn neighbors_weighted_iter(&self, v: Vertex) -> Self::WeightedNeighbors<'_> {
        self.csr
            .neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    #[inline]
    fn total_weight(&self) -> f64 {
        self.weights().iter().sum::<f64>() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::view::GraphView;
    use crate::wview::WeightedGraphView;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mpx-snap-{}-{name}", std::process::id()));
        p
    }

    /// The owned buffer an `mmap` refusal falls back to, over `p`'s bytes.
    fn owned_copy(p: &Path) -> filebuf::FileBytes {
        filebuf::FileBytes::owned(&std::fs::read(p).unwrap())
    }

    /// The mapped and owned-buffer opens of one file must read the same
    /// graph or fail with the same typed error; returns the mapped one.
    fn agree<G: PartialEq + std::fmt::Debug>(
        mapped: io::Result<G>,
        owned: io::Result<G>,
    ) -> io::Result<G> {
        match (&mapped, &owned) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => {
                assert_eq!((a.kind(), a.to_string()), (b.kind(), b.to_string()))
            }
            _ => panic!("mapped open gave {mapped:?}, owned gave {owned:?}"),
        }
        mapped
    }

    fn open(p: &Path) -> io::Result<CsrGraph> {
        agree(
            MappedCsr::open(p).map(|g| g.to_graph()),
            MappedCsr::from_buf(owned_copy(p)).map(|g| g.to_graph()),
        )
    }

    fn open_weighted(p: &Path) -> io::Result<WeightedCsrGraph> {
        agree(
            MappedWeightedCsr::open(p).map(|g| g.to_graph()),
            MappedWeightedCsr::from_buf(owned_copy(p)).map(|g| g.to_graph()),
        )
    }

    #[test]
    fn roundtrip_mapped_and_owned() {
        for (name, g) in [
            ("grid", gen::grid2d(17, 9)),
            ("rmat", gen::rmat(8, 1500, 0.57, 0.19, 0.19, 5)),
            ("empty", CsrGraph::empty(12)),
            ("null", CsrGraph::empty(0)),
        ] {
            let p = tmp(&format!("rt-{name}.mpx"));
            write_snapshot(&g, &p).unwrap();
            assert_eq!(open(&p).unwrap(), g, "{name}");
            let mapped = MappedCsr::open(&p).unwrap();
            let owned = MappedCsr::from_buf(owned_copy(&p)).unwrap();
            assert!(!owned.is_mapped());
            if cfg!(all(unix, target_pointer_width = "64")) {
                assert!(mapped.is_mapped(), "{name}: not an actual mmap");
            }
            for c in [&mapped, &owned] {
                assert_eq!(c.num_vertices(), g.num_vertices());
                assert_eq!(c.num_edges(), g.num_edges());
                assert!(c.validate().is_ok());
                for v in 0..g.num_vertices() as Vertex {
                    let nbrs: Vec<Vertex> = c.neighbors_iter(v).collect();
                    assert_eq!(nbrs, g.neighbors(v));
                    assert_eq!(GraphView::degree(c, v), g.degree(v));
                }
                assert_eq!(c.total_degree(), g.num_arcs() as u64);
            }
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn rejects_bad_magic_version_flags_reserved() {
        let g = gen::path(6);
        let p = tmp("garble.mpx");
        write_snapshot(&g, &p).unwrap();
        let good = std::fs::read(&p).unwrap();

        let mut cases: Vec<(Vec<u8>, &str)> = Vec::new();
        let mut b = good.clone();
        b[0] = b'X';
        cases.push((b, "magic"));
        let mut b = good.clone();
        b[8] = 99;
        cases.push((b, "version"));
        let mut b = good.clone();
        b[12] = 1;
        cases.push((b, "flags"));
        let mut b = good.clone();
        b[50] = 7;
        cases.push((b, "reserved"));
        // Garbled n implying an absurd length.
        let mut b = good.clone();
        b[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        cases.push((b, "n overflow"));

        for (bytes, what) in cases {
            std::fs::write(&p, &bytes).unwrap();
            let e = open(&p).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_payload_corruption_and_truncation() {
        let g = gen::grid2d(12, 12);
        let p = tmp("corrupt.mpx");
        write_snapshot(&g, &p).unwrap();
        let good = std::fs::read(&p).unwrap();

        // Flip one payload byte: checksum must catch it.
        let mut b = good.clone();
        let i = HEADER_LEN + b.len() / 2;
        b[i] ^= 0x40;
        std::fs::write(&p, &b).unwrap();
        let e = open(&p).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");

        // Truncate the payload: length check must catch it.
        std::fs::write(&p, &good[..good.len() - 3]).unwrap();
        let e = open(&p).unwrap_err();
        assert!(e.to_string().contains("length mismatch"), "{e}");
        std::fs::remove_file(p).ok();
    }

    /// Every truncation and every byte flip of a file — a superset of the
    /// workspace's v1 corruption matrix, same file — is refused the same
    /// way by the owned fallback as by the mapping.
    #[test]
    fn owned_fallback_fails_like_the_mapping_on_every_corruption() {
        let p = tmp("matrix.mpx");
        write_snapshot(&gen::grid2d(10, 10), &p).unwrap();
        let good = std::fs::read(&p).unwrap();
        for at in 0..good.len() {
            std::fs::write(&p, &good[..at]).unwrap();
            let e = open(&p).unwrap_err();
            if at < HEADER_LEN {
                assert!(e.to_string().contains("truncated"), "{at}: {e}");
            }
            let mut bytes = good.clone();
            bytes[at] ^= 0xa5;
            std::fs::write(&p, &bytes).unwrap();
            assert!(open(&p).is_err(), "accepted a flip at byte {at}");
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_checksummed_but_unsorted_adjacency() {
        // A dishonest writer: valid header and checksum, but vertex 1's
        // neighbor list is descending. The reader must refuse cleanly
        // (a checksum only authenticates the bytes, not the structure).
        let g = gen::path(3); // offsets [0,1,3,4], targets [1, 0, 2, 1]
        let p = tmp("evil.mpx");
        write_snapshot(&g, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let targets_start = HEADER_LEN + 8 * 4;
        for i in 0..4 {
            // Swap arcs 1 and 2: neighbors(1) becomes [2, 0].
            bytes.swap(targets_start + 4 + i, targets_start + 8 + i);
        }
        let sum = payload_checksum(&bytes[HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let e = open(&p).unwrap_err();
        assert!(e.to_string().contains("adjacency invalid"), "{e}");
        std::fs::remove_file(p).ok();
    }

    /// Called without the per-list checks, the merge still pairs every arc
    /// with a distinct reverse: a self-loop or a repeated arc is refused.
    #[test]
    fn merge_alone_refuses_loops_and_repeats() {
        let merge = |offsets: &[u64], targets: &[Vertex]| {
            check_reverse_arcs(
                offsets.len() - 1,
                |v| offsets[v],
                |_| 0,
                |at, _| {
                    let i = *at as usize;
                    *at += 1;
                    Some((*targets.get(i)?, 0))
                },
            )
        };
        assert_eq!(merge(&[0, 1, 2], &[1, 0]), Ok(()));
        let missing = |u, v| Err(ReverseArcError::Missing { u, v });
        assert_eq!(merge(&[0, 1], &[0]), missing(0, 0));
        assert_eq!(merge(&[0, 2, 3], &[1, 1, 0]), missing(0, 1));
        assert_eq!(merge(&[0, 1, 3], &[1, 0, 0]), missing(1, 0));
    }

    #[test]
    fn checksum_streaming_matches_chunked() {
        // Cross 1 MiB chunk boundaries to exercise the fold.
        let sizes = [
            0,
            1,
            1000,
            CHECKSUM_CHUNK,
            CHECKSUM_CHUNK + 1,
            3 * CHECKSUM_CHUNK + 17,
        ];
        for len in sizes {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let mut h = ChunkedFnv::new();
            // Feed in awkward pieces.
            for piece in payload.chunks(4099) {
                h.update(piece);
            }
            assert_eq!(h.finish(), payload_checksum(&payload), "len {len}");
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = SnapshotHeader {
            version: VERSION,
            flags: 0,
            n: 123,
            m: 456,
            checksum: 0xdead_beef,
            enc_len: 0,
        };
        assert_eq!(SnapshotHeader::parse(&h.encode()).unwrap(), h);
    }

    fn random_weighted(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
        let edges: Vec<(Vertex, Vertex, f64)> = (0..g.num_vertices() as Vertex)
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
            .enumerate()
            .map(|(i, (u, v))| {
                // splitmix64 on (seed, index): deterministic test weights.
                let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let r = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
                (u, v, 0.25 + 3.75 * r)
            })
            .collect();
        WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
    }

    #[test]
    fn weighted_roundtrip_mapped_and_owned() {
        for (name, g) in [
            ("grid", random_weighted(&gen::grid2d(11, 7), 3)),
            ("gnm", random_weighted(&gen::gnm(120, 400, 5), 9)),
            ("empty", WeightedCsrGraph::from_edges(8, &[])),
            ("null", WeightedCsrGraph::from_edges(0, &[])),
        ] {
            let p = tmp(&format!("wrt-{name}.mpx"));
            write_weighted_snapshot(&g, &p).unwrap();
            let header = read_header(&p).unwrap();
            assert!(header.is_weighted(), "{name}: flags bit");
            assert_eq!(open_weighted(&p).unwrap(), g, "{name}");
            let mapped = MappedWeightedCsr::open(&p).unwrap();
            let owned = MappedWeightedCsr::from_buf(owned_copy(&p)).unwrap();
            assert!(!owned.topology().is_mapped());
            for c in [&mapped, &owned] {
                assert_eq!(c.topology().num_vertices(), g.num_vertices());
                assert_eq!(c.topology().num_edges(), g.num_edges());
                assert!(c.validate().is_ok());
                for v in 0..g.num_vertices() as Vertex {
                    assert_eq!(c.topology().neighbors(v), g.neighbors(v));
                    assert_eq!(c.weights_of(v), g.weights_of(v));
                    let it: Vec<(Vertex, f64)> = c.neighbors_weighted_iter(v).collect();
                    let want: Vec<(Vertex, f64)> = g.neighbors_weighted(v).collect();
                    assert_eq!(it, want);
                }
                assert_eq!(c.total_weight().to_bits(), {
                    let s: f64 = g.weights().iter().sum::<f64>() / 2.0;
                    s.to_bits()
                });
            }
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn weighted_and_unweighted_loaders_reject_each_other() {
        let wg = random_weighted(&gen::grid2d(5, 5), 1);
        let p = tmp("cross.mpx");
        write_weighted_snapshot(&wg, &p).unwrap();
        let msg = open(&p).unwrap_err().to_string();
        assert!(msg.contains("weighted"), "{msg}");
        write_snapshot(&wg.to_unweighted(), &p).unwrap();
        let msg = open_weighted(&p).unwrap_err().to_string();
        assert!(msg.contains("unweighted"), "{msg}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn weighted_rejects_dishonest_weights() {
        // Valid header + checksum but a NaN weight / an asymmetric weight:
        // the weight audit must refuse both.
        let wg = WeightedCsrGraph::from_edges(3, &[(0, 1, 1.5), (1, 2, 2.5)]);
        let p = tmp("evil-w.mpx");
        write_weighted_snapshot(&wg, &p).unwrap();
        let good = std::fs::read(&p).unwrap();
        let weights_start = HEADER_LEN + 8 * 4 + 4 * 4;

        let mut cases: Vec<(Vec<u8>, &str)> = Vec::new();
        let mut b = good.clone();
        b[weights_start..weights_start + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        cases.push((b, "nan"));
        let mut b = good.clone();
        b[weights_start..weights_start + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        cases.push((b, "negative"));
        let mut b = good.clone();
        // Arc (0→1) gets a different weight than (1→0): asymmetric.
        b[weights_start..weights_start + 8].copy_from_slice(&9.0f64.to_le_bytes());
        cases.push((b, "asymmetric"));

        for (mut bytes, what) in cases {
            let sum = payload_checksum(&bytes[HEADER_LEN..]);
            bytes[32..40].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&p, &bytes).unwrap();
            let e = open_weighted(&p).unwrap_err();
            assert!(e.to_string().contains("weights invalid"), "{what}: {e}");
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn weighted_length_and_checksum_checks_cover_weights() {
        let wg = random_weighted(&gen::grid2d(6, 6), 2);
        let p = tmp("wtrunc.mpx");
        write_weighted_snapshot(&wg, &p).unwrap();
        let good = std::fs::read(&p).unwrap();

        // Flip a byte inside the weights payload: checksum catches it.
        let mut b = good.clone();
        let i = b.len() - 5;
        b[i] ^= 0x10;
        std::fs::write(&p, &b).unwrap();
        let e = open_weighted(&p).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");

        // Truncate the weights array: length check catches it.
        std::fs::write(&p, &good[..good.len() - 8]).unwrap();
        let e = open_weighted(&p).unwrap_err();
        assert!(e.to_string().contains("length mismatch"), "{e}");
        std::fs::remove_file(p).ok();
    }
}
