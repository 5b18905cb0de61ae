//! The `.mpx` version-2 snapshot: writer and reader.
//!
//! Layout (full byte-level spec in `docs/FORMATS.md`): the same 64-byte
//! header as version 1 — magic, `version = 2`, flags
//! ([`FLAG_COMPRESSED`] required, [`FLAG_PERMUTED`] optional), `n`, `m`,
//! payload checksum — with the former reserved bytes 40..48 holding
//! `enc_len`, the byte length of the encoded adjacency stream. The
//! payload is four sections, in order:
//!
//! | section | type | present |
//! |---------|------|---------|
//! | byte offsets into the encoded stream | `u64[n+1]` LE | always |
//! | degrees | `u32[n]` LE | always |
//! | permutation `new id → original id` | `u32[n]` LE | [`FLAG_PERMUTED`] |
//! | encoded adjacency ([`crate::codec`]) | `u8[enc_len]` | always |
//!
//! The header alone determines the exact file length; the same chunked-FNV
//! checksum as version 1 covers the whole payload. The 64-byte header and
//! the `u64` offsets section keep every array naturally aligned for the
//! zero-copy reader.

use crate::codec;
use mpx_graph::snapshot::filebuf::FileBytes;
use mpx_graph::snapshot::{
    check_payload, check_reverse_arcs, first_bad_list, payload_checksum, SnapshotHeader,
    FLAG_COMPRESSED, FLAG_PERMUTED, HEADER_LEN, VERSION2,
};
use mpx_graph::{CsrGraph, GraphView, Vertex};
use rayon::prelude::*;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Vertices per parallel encode/decode block: big enough to amortize the
/// scheduler, small enough to balance skewed degree distributions.
const BLOCK: usize = 2048;

/// Splits `data` at the given ascending element bounds
/// (`bounds[0] == 0`, `bounds.last() == data.len()`) into per-block
/// mutable slices, so a parallel loop can fill variable-sized regions
/// without overlap.
fn split_blocks<'a, T>(mut data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    let mut prev = 0;
    for &b in &bounds[1..] {
        let (head, tail) = data.split_at_mut(b - prev);
        out.push(head);
        data = tail;
        prev = b;
    }
    out
}

/// Writes `g` as a version-2 compressed `.mpx` snapshot.
///
/// `new_to_old`, when given, is persisted as the permutation section
/// ([`FLAG_PERMUTED`]): entry `u` is the **original** id of the vertex the
/// file calls `u`. Pass the permutation produced by
/// [`crate::reorder::reorder_permutation`] together with the graph
/// returned by [`crate::apply_permutation`]; readers expose it so labels
/// computed in the file's id space can be mapped back
/// (`Decomposition::remap_labels`).
///
/// The encoder is parallel: a per-vertex length pass, a prefix sum into
/// the byte-offsets section, then disjoint-slice encoding in vertex
/// blocks.
pub fn write_compressed_snapshot<P: AsRef<Path>>(
    g: &CsrGraph,
    new_to_old: Option<&[Vertex]>,
    path: P,
) -> io::Result<()> {
    let n = g.num_vertices();
    let m = g.num_edges();
    let _span = mpx_trace::span!("compress.encode", n = n, m = m);
    if let Some(p) = new_to_old {
        if p.len() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("permutation has {} entries for {n} vertices", p.len()),
            ));
        }
    }

    // Pass 1: encoded byte length of every vertex, then a prefix sum.
    let lens: Vec<usize> = (0..n as Vertex)
        .into_par_iter()
        .map(|v| codec::encoded_list_len(v, g.neighbors(v)))
        .collect();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0u64);
    for &l in &lens {
        acc += l;
        offsets.push(acc as u64);
    }
    let enc_len = acc;

    // Pass 2: encode each block into its disjoint slice of the stream.
    let mut enc = vec![0u8; enc_len];
    let nblocks = n.div_ceil(BLOCK).max(1);
    let bounds: Vec<usize> = (0..=nblocks)
        .map(|b| offsets[(b * BLOCK).min(n)] as usize)
        .collect();
    split_blocks(&mut enc, &bounds)
        .par_iter_mut()
        .enumerate()
        .for_each(|(b, slice)| {
            let lo = b * BLOCK;
            let hi = ((b + 1) * BLOCK).min(n);
            let mut pos = 0usize;
            for v in lo..hi {
                codec::encode_list(v as Vertex, g.neighbors(v as Vertex), slice, &mut pos);
            }
        });

    // Assemble the payload (sections in file order) and checksum it.
    let perm_bytes = new_to_old.map_or(0, |p| 4 * p.len());
    let mut payload = Vec::with_capacity(8 * (n + 1) + 4 * n + perm_bytes + enc_len);
    for &o in &offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    for v in 0..n as Vertex {
        payload.extend_from_slice(&(g.degree(v) as u32).to_le_bytes());
    }
    if let Some(p) = new_to_old {
        for &o in p {
            payload.extend_from_slice(&o.to_le_bytes());
        }
    }
    payload.extend_from_slice(&enc);

    let header = SnapshotHeader {
        version: VERSION2,
        flags: FLAG_COMPRESSED
            | if new_to_old.is_some() {
                FLAG_PERMUTED
            } else {
                0
            },
        n: n as u64,
        m: m as u64,
        checksum: payload_checksum(&payload),
        enc_len: enc_len as u64,
    };
    let mut file = File::create(path)?;
    file.write_all(&header.encode())?;
    file.write_all(&payload)?;
    file.flush()
}

/// Byte offsets of the four payload sections implied by a v2 header:
/// `(offsets, degrees, permutation, encoded stream)`; the permutation
/// offset equals the stream offset when [`FLAG_PERMUTED`] is clear.
fn section_starts(h: &SnapshotHeader) -> (usize, usize, usize, usize) {
    let n = h.n as usize;
    let deg = HEADER_LEN + 8 * (n + 1);
    let perm = deg + 4 * n;
    let enc = perm + if h.is_permuted() { 4 * n } else { 0 };
    (HEADER_LEN, deg, perm, enc)
}

/// Open-time validation over the mapped sections — the compressed twin of
/// the v1 structural audit. A checksum only proves the bytes match what
/// some writer produced, so everything is re-derived: monotonic byte
/// offsets covering the stream exactly; degrees summing to `2m`; every
/// list decoding to exactly its degree of strictly ascending, in-range,
/// loop-free neighbors and consuming exactly its byte range (in parallel,
/// reporting the lowest bad vertex); when present, the permutation being a
/// bijection on `0..n` (one pass over an `n`-bit map); and last, symmetry
/// in the one sequential merge shared with the v1 readers
/// ([`check_reverse_arcs`]), which decodes every arc once.
fn validate_sections(
    n: usize,
    m: u64,
    offsets: &[u64],
    degrees: &[u32],
    perm: Option<&[Vertex]>,
    enc: &[u8],
) -> io::Result<()> {
    if offsets.first() != Some(&0) {
        return Err(bad("compressed snapshot byte-offsets[0] != 0"));
    }
    if offsets.last() != Some(&(enc.len() as u64)) {
        return Err(bad("compressed snapshot byte-offsets[n] != enc_len"));
    }
    if !offsets.par_windows(2).all(|w| w[0] <= w[1]) {
        return Err(bad("compressed snapshot byte-offsets not non-decreasing"));
    }
    // `m` is not bounded by the file length, so `2m` may overflow.
    let total: u64 = degrees.par_iter().map(|&d| d as u64).sum();
    if m.checked_mul(2) != Some(total) {
        return Err(bad(format!(
            "compressed snapshot degrees sum to {total}, header implies 2m for m = {m}"
        )));
    }
    let list = |v: usize| &enc[offsets[v] as usize..offsets[v + 1] as usize];
    first_bad_list(n, |v| {
        codec::validate_list(v as Vertex, degrees[v], list(v), n)
    })
    .map_err(|e| bad(format!("compressed snapshot adjacency invalid: {e}")))?;
    if let Some(p) = perm {
        let mut seen = vec![0u64; n.div_ceil(64)];
        for &o in p {
            let (word, bit) = (o as usize / 64, 1u64 << (o % 64));
            if o as usize >= n {
                return Err(bad(format!(
                    "compressed snapshot permutation holds {o}, out of range 0..{n}"
                )));
            }
            if seen[word] & bit != 0 {
                return Err(bad(format!(
                    "compressed snapshot permutation repeats original id {o}"
                )));
            }
            seen[word] |= bit;
        }
    }
    // Every list is now well-formed, so each entry is the previous one
    // plus a gap below 2^32, in wrapping `u32` arithmetic. The first entry
    // is `v + unzigzag(raw)`, so the base it adds its raw varint to is
    // `v + unzigzag(raw) − raw`.
    check_reverse_arcs(
        n,
        |v| offsets[v],
        |v| {
            let raw = codec::get_varint(enc, &mut (offsets[v] as usize)).unwrap_or(0);
            (v as Vertex)
                .wrapping_add(codec::unzigzag(raw) as Vertex)
                .wrapping_sub(raw as Vertex)
        },
        |at, prev| {
            let mut pos = *at as usize;
            let gap = codec::get_varint(enc, &mut pos)?;
            *at = pos as u64;
            Some((prev.wrapping_add(gap as Vertex), 0))
        },
    )
    .map_err(|e| bad(format!("compressed snapshot {e}")))
}

/// A zero-copy, memory-mapped version-2 snapshot.
///
/// The compressed twin of `mpx_graph::MappedCsr`: implements
/// [`GraphView`] with streaming decode iterators straight over the file's
/// pages, so the engine, sessions and `mpx serve` traverse the compressed
/// bytes with no materialization. Opening validates everything: header,
/// exact length, checksum, then every section — byte offsets, degrees,
/// each list's encoding, symmetry and, when present, the permutation.
/// Like the v1 reader it holds the bytes in an owned aligned buffer where
/// `mmap` is refused, and refuses big-endian targets.
pub struct MappedCompressedCsr {
    buf: FileBytes,
    header: SnapshotHeader,
}

impl MappedCompressedCsr {
    /// Opens and fully checks a compressed snapshot (see type docs).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedCompressedCsr> {
        let _span = mpx_trace::span!("compress.decode");
        Self::from_buf(FileBytes::map_or_read(path.as_ref())?)
    }

    /// Audits file bytes however they were loaded: mapped, or the owned
    /// copy an `mmap` refusal leaves. Length and checksum come before any
    /// typed cast of the sections.
    fn from_buf(buf: FileBytes) -> io::Result<MappedCompressedCsr> {
        let header = SnapshotHeader::parse(buf.bytes())?;
        if header.version != VERSION2 {
            return Err(bad(
                "snapshot is version 1 (raw CSR); open it with Snapshot::open, or with \
                 MappedCsr or MappedWeightedCsr from mpx-graph",
            ));
        }
        check_payload(&header, buf.bytes())?;
        let g = MappedCompressedCsr { buf, header };
        validate_sections(
            header.n as usize,
            header.m,
            g.offsets(),
            g.degrees(),
            g.permutation(),
            g.enc(),
        )?;
        Ok(g)
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

    /// Encoded adjacency bytes per arc (`enc_len / 2m`).
    pub fn bytes_per_arc(&self) -> f64 {
        if self.header.m == 0 {
            0.0
        } else {
            self.header.enc_len as f64 / (2 * self.header.m) as f64
        }
    }

    /// The byte-offsets section (`n + 1` values into the encoded stream).
    pub fn offsets(&self) -> &[u64] {
        self.buf.as_u64s(HEADER_LEN, self.num_vertices() + 1)
    }

    /// The degrees section (`n` values).
    pub fn degrees(&self) -> &[u32] {
        let (_, deg_at, _, _) = section_starts(&self.header);
        self.buf.as_u32s(deg_at, self.num_vertices())
    }

    /// The `new id → original id` permutation section, when the snapshot
    /// was reordered.
    pub fn permutation(&self) -> Option<&[Vertex]> {
        if !self.header.is_permuted() {
            return None;
        }
        let (_, _, perm_at, _) = section_starts(&self.header);
        Some(self.buf.as_u32s(perm_at, self.num_vertices()))
    }

    /// The encoded adjacency stream.
    pub fn enc(&self) -> &[u8] {
        let (_, _, _, enc_at) = section_starts(&self.header);
        &self.buf.bytes()[enc_at..]
    }

    /// Materializes an owned [`CsrGraph`], decoding every list in
    /// parallel vertex blocks.
    pub fn to_graph(&self) -> CsrGraph {
        let (n, offsets, degrees, enc) = (
            self.num_vertices(),
            self.offsets(),
            self.degrees(),
            self.enc(),
        );
        let mut tgt_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        tgt_offsets.push(0usize);
        for &d in degrees {
            acc += d as usize;
            tgt_offsets.push(acc);
        }
        let mut targets = vec![0 as Vertex; acc];
        let nblocks = n.div_ceil(BLOCK).max(1);
        let bounds: Vec<usize> = (0..=nblocks)
            .map(|b| tgt_offsets[(b * BLOCK).min(n)])
            .collect();
        split_blocks(&mut targets, &bounds)
            .par_iter_mut()
            .enumerate()
            .for_each(|(b, slice)| {
                let lo = b * BLOCK;
                let hi = ((b + 1) * BLOCK).min(n);
                let mut pos = 0usize;
                for v in lo..hi {
                    let range = &enc[offsets[v] as usize..offsets[v + 1] as usize];
                    for t in codec::DecodeNeighbors::new(v as Vertex, degrees[v], range) {
                        slice[pos] = t;
                        pos += 1;
                    }
                }
            });
        // The sections were fully validated at open time, so this cannot fail.
        CsrGraph::try_from_csr(tgt_offsets, targets)
            .expect("validated snapshot decoded to valid CSR")
    }
}

impl std::fmt::Debug for MappedCompressedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCompressedCsr")
            .field("n", &self.header.n)
            .field("m", &self.header.m)
            .field("enc_len", &self.header.enc_len)
            .field("permuted", &self.header.is_permuted())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl GraphView for MappedCompressedCsr {
    type Neighbors<'a> = codec::DecodeNeighbors<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        MappedCompressedCsr::num_vertices(self)
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.degrees()[v as usize] as usize
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        2 * self.header.m
    }

    /// Streams the byte-coded list of `v` straight off the file's pages.
    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        let offsets = self.offsets();
        let bytes = &self.enc()[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
        codec::DecodeNeighbors::new(v, self.degrees()[v as usize], bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::{apply_permutation, reorder_permutation, Reorder};
    use mpx_graph::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mpx-compress-{}-{name}", std::process::id()));
        p
    }

    /// The owned buffer an `mmap` refusal falls back to, over `p`'s bytes.
    fn owned_copy(p: &Path) -> FileBytes {
        let bytes = std::fs::read(p).unwrap();
        let words = bytes
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_ne_bytes(w)
            })
            .collect();
        FileBytes::Owned {
            words,
            len: bytes.len(),
        }
    }

    /// Opens `p` mapped and through the owned fallback: both must read the
    /// same graph and permutation, or fail with the same typed error.
    fn open_both(p: &Path) -> io::Result<MappedCompressedCsr> {
        let mapped = MappedCompressedCsr::open(p);
        match (&mapped, MappedCompressedCsr::from_buf(owned_copy(p))) {
            (Ok(a), Ok(b)) => {
                assert!(!b.is_mapped());
                assert_eq!(a.to_graph(), b.to_graph());
                assert_eq!(a.permutation(), b.permutation());
            }
            (Err(a), Err(b)) => {
                assert_eq!((a.kind(), a.to_string()), (b.kind(), b.to_string()))
            }
            (a, b) => panic!("mapped open gave {a:?}, owned gave {b:?}"),
        }
        mapped
    }

    #[test]
    fn roundtrip_mapped_and_owned_across_families() {
        for (name, g) in [
            ("empty", CsrGraph::empty(5)),
            ("grid", gen::grid2d(17, 9)),
            ("gnm", gen::gnm(800, 3200, 3)),
            ("rmat", gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 8)),
            ("star", {
                let edges: Vec<(Vertex, Vertex)> = (1..300).map(|v| (0, v)).collect();
                CsrGraph::from_edges(300, &edges)
            }),
        ] {
            let p = tmp(&format!("rt-{name}.mpx"));
            write_compressed_snapshot(&g, None, &p).unwrap();
            let mapped = open_both(&p).unwrap();
            assert_eq!(mapped.to_graph(), g, "{name}: decode lossy");
            assert!(mapped.permutation().is_none());
            let owned = MappedCompressedCsr::from_buf(owned_copy(&p)).unwrap();
            for c in [&mapped, &owned] {
                for v in 0..g.num_vertices() as Vertex {
                    assert_eq!(GraphView::degree(c, v), g.degree(v));
                    let nbrs: Vec<Vertex> = c.neighbors_iter(v).collect();
                    assert_eq!(nbrs.as_slice(), g.neighbors(v), "{name}: vertex {v}");
                }
            }
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn permutation_section_roundtrips() {
        let g = gen::gnm(500, 2000, 9);
        let perm = reorder_permutation(&g, Reorder::Degree).unwrap();
        let h = apply_permutation(&g, &perm);
        let p = tmp("perm.mpx");
        write_compressed_snapshot(&h, Some(&perm), &p).unwrap();
        let c = open_both(&p).unwrap();
        assert_eq!(c.permutation(), Some(perm.as_slice()));
        assert!(c.header().is_permuted());
        std::fs::remove_file(p).ok();
    }

    /// Every truncation and every byte flip of a reordered file — a
    /// superset of the workspace's v2 corruption matrix, same file — is
    /// refused the same way by the owned fallback as by the mapping.
    #[test]
    fn owned_fallback_fails_like_the_mapping_on_every_corruption() {
        let g = gen::gnm(300, 1200, 7);
        let p = tmp("matrix.mpx");
        let perm = reorder_permutation(&g, Reorder::Bfs).unwrap();
        write_compressed_snapshot(&apply_permutation(&g, &perm), Some(&perm), &p).unwrap();
        let good = std::fs::read(&p).unwrap();
        for at in 0..good.len() {
            std::fs::write(&p, &good[..at]).unwrap();
            assert!(open_both(&p).is_err(), "accepted a {at}-byte truncation");
            let mut bytes = good.clone();
            bytes[at] ^= 0xa5;
            std::fs::write(&p, &bytes).unwrap();
            assert!(open_both(&p).is_err(), "accepted a flip at byte {at}");
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn compresses_well_below_raw_on_structured_graphs() {
        let g = gen::grid2d(60, 60);
        let p = tmp("ratio.mpx");
        write_compressed_snapshot(&g, None, &p).unwrap();
        let c = MappedCompressedCsr::open(&p).unwrap();
        // Raw CSR spends 4 bytes per arc; grid gaps are tiny.
        assert!(
            c.bytes_per_arc() < 2.0,
            "grid encoded at {} bytes/arc",
            c.bytes_per_arc()
        );
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn writer_rejects_bad_permutation_length() {
        let g = gen::grid2d(4, 4);
        let p = tmp("badperm.mpx");
        let err = write_compressed_snapshot(&g, Some(&[0, 1, 2]), &p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn v1_and_v2_readers_reject_each_other() {
        let g = gen::grid2d(6, 6);
        let p1 = tmp("isv1.mpx");
        let p2 = tmp("isv2.mpx");
        mpx_graph::snapshot::write_snapshot(&g, &p1).unwrap();
        write_compressed_snapshot(&g, None, &p2).unwrap();
        let e = open_both(&p1).unwrap_err();
        assert!(e.to_string().contains("version 1"), "{e}");
        let e = mpx_graph::snapshot::MappedCsr::open(&p2).unwrap_err();
        assert!(e.to_string().contains("mpx-compress"), "{e}");
        std::fs::remove_file(p1).ok();
        std::fs::remove_file(p2).ok();
    }
}
