//! The symmetry merge every `.mpx` reader and both in-memory validators
//! share (`mpx_graph::snapshot::check_reverse_arcs`), against an oracle.
//!
//! The files here are written from raw adjacency lists, header and
//! checksum included, so a forgery needs no writer to cooperate: each
//! keeps every list sorted, loop-free and in range and every count
//! consistent, so only the merge can refuse it.

use mpx::compress::{codec, reorder_permutation, MappedCompressedCsr, Reorder, Snapshot};
use mpx::graph::snapshot::{
    payload_checksum, MappedCsr, MappedWeightedCsr, SnapshotHeader, FLAG_COMPRESSED, FLAG_PERMUTED,
    FLAG_WEIGHTED, VERSION, VERSION2,
};
use mpx::graph::{CsrGraph, Vertex};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Per-vertex `(neighbor, weight)` lists.
type Lists = Vec<Vec<(Vertex, f64)>>;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mpx-audit-{}-{name}", std::process::id()));
    p
}

/// splitmix64: deterministic choices and weights from a seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes `header` with the checksum of `payload`, then `payload`.
fn write_file(mut header: SnapshotHeader, payload: &[u8], path: &Path) {
    header.checksum = payload_checksum(payload);
    let mut bytes = header.encode().to_vec();
    bytes.extend_from_slice(payload);
    std::fs::write(path, bytes).unwrap();
}

/// Writes `lists` as a v1 snapshot, with the weights when `weighted`.
fn write_v1(lists: &Lists, weighted: bool, path: &Path) {
    let arcs: Vec<(Vertex, f64)> = lists.iter().flatten().copied().collect();
    let mut payload = Vec::new();
    let mut offset = 0u64;
    payload.extend_from_slice(&offset.to_le_bytes());
    for list in lists {
        offset += list.len() as u64;
        payload.extend_from_slice(&offset.to_le_bytes());
    }
    for &(t, _) in &arcs {
        payload.extend_from_slice(&t.to_le_bytes());
    }
    if weighted {
        for &(_, w) in &arcs {
            payload.extend_from_slice(&w.to_le_bytes());
        }
    }
    let header = SnapshotHeader {
        version: VERSION,
        flags: if weighted { FLAG_WEIGHTED } else { 0 },
        n: lists.len() as u64,
        m: arcs.len() as u64 / 2,
        checksum: 0,
        enc_len: 0,
    };
    write_file(header, &payload, path);
}

/// Writes `lists` (weights dropped) as a v2 snapshot, with `perm` as its
/// permutation section when given.
fn write_v2(lists: &Lists, perm: Option<&[Vertex]>, path: &Path) {
    let mut enc = Vec::new();
    let mut offsets = vec![0u64];
    for (v, list) in lists.iter().enumerate() {
        let nbrs: Vec<Vertex> = list.iter().map(|&(t, _)| t).collect();
        let mut buf = vec![0u8; codec::encoded_list_len(v as Vertex, &nbrs)];
        codec::encode_list(v as Vertex, &nbrs, &mut buf, &mut 0);
        enc.extend_from_slice(&buf);
        offsets.push(enc.len() as u64);
    }
    let mut payload = Vec::new();
    for o in &offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    for list in lists {
        payload.extend_from_slice(&(list.len() as u32).to_le_bytes());
    }
    for &o in perm.unwrap_or(&[]) {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(&enc);
    let header = SnapshotHeader {
        version: VERSION2,
        flags: FLAG_COMPRESSED | if perm.is_some() { FLAG_PERMUTED } else { 0 },
        n: lists.len() as u64,
        m: lists.iter().map(Vec::len).sum::<usize>() as u64 / 2,
        checksum: 0,
        enc_len: enc.len() as u64,
    };
    write_file(header, &payload, path);
}

/// The raw CSR arrays of `lists`.
fn csr(lists: &Lists) -> (Vec<usize>, Vec<Vertex>) {
    let mut offsets = vec![0];
    let mut targets = Vec::new();
    for list in lists {
        targets.extend(list.iter().map(|&(t, _)| t));
        offsets.push(targets.len());
    }
    (offsets, targets)
}

/// The oracle: every arc has its reverse, with equal weight bits when
/// `weighted`.
fn symmetric(lists: &Lists, weighted: bool) -> bool {
    let bits = |w: f64| if weighted { w.to_bits() } else { 0 };
    let arcs: BTreeSet<(Vertex, Vertex, u64)> = (0..lists.len())
        .flat_map(|u| {
            lists[u]
                .iter()
                .map(move |&(v, w)| (u as Vertex, v, bits(w)))
        })
        .collect();
    arcs.iter().all(|&(u, v, b)| arcs.contains(&(v, u, b)))
}

/// The lists of `g`, with a hashed weight in [0.25, 4) per edge.
fn weighted_lists(g: &CsrGraph, seed: u64) -> Lists {
    let weight = |u: Vertex, v: Vertex| {
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        0.25 + 3.75 * (mix(seed ^ (a << 32 | b)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..g.num_vertices() as Vertex)
        .map(|u| g.neighbors(u).iter().map(|&v| (v, weight(u, v))).collect())
        .collect()
}

/// Relabels `lists` so that new vertex `u` is old vertex `new_to_old[u]`.
fn relabel(lists: &Lists, new_to_old: &[Vertex]) -> Lists {
    let mut old_to_new = vec![0; new_to_old.len()];
    for (new, &old) in new_to_old.iter().enumerate() {
        old_to_new[old as usize] = new as Vertex;
    }
    new_to_old
        .iter()
        .map(|&old| {
            let mut list: Vec<(Vertex, f64)> = lists[old as usize]
                .iter()
                .map(|&(t, w)| (old_to_new[t as usize], w))
                .collect();
            list.sort_by_key(|&(t, _)| t);
            list
        })
        .collect()
}

/// At most one forgery, chosen by `seed`: none, one arc redirected to a
/// vertex its tail does not list, or one arc's weight bits changed. Lists
/// stay sorted, loop-free and in range, and every count stays the same.
fn forge(lists: &mut Lists, seed: u64) {
    let n = lists.len();
    let arcs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (0..lists[u].len()).map(move |i| (u, i)))
        .collect();
    let kind = seed % 3;
    if arcs.is_empty() || kind == 0 {
        return;
    }
    let (u, i) = arcs[mix(seed) as usize % arcs.len()];
    if kind == 1 {
        let free: Vec<Vertex> = (0..n as Vertex)
            .filter(|&t| t as usize != u && lists[u].iter().all(|&(x, _)| x != t))
            .collect();
        if let Some(&t) = free.get(mix(seed ^ 1) as usize % free.len().max(1)) {
            lists[u][i].0 = t;
            lists[u].sort_by_key(|&(t, _)| t);
        }
    } else {
        // The lowest mantissa bit: still finite and positive.
        let w = &mut lists[u][i].1;
        *w = f64::from_bits(w.to_bits() ^ 1);
    }
}

/// Whether an open accepted the file; a refusal must be `InvalidData`.
fn accepted<T>(what: &str, opened: io::Result<T>) -> bool {
    match opened {
        Ok(_) => true,
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
            false
        }
    }
}

/// Opens `path` through its format's reader and through `Snapshot::open`;
/// both must agree, and what they accept must read back as `lists`.
/// Returns whether they accepted it.
fn opens(path: &Path, lists: &Lists, reader: impl Fn(&Path) -> io::Result<CsrGraph>) -> bool {
    let typed = reader(path);
    if let Ok(g) = &typed {
        let (offsets, targets) = csr(lists);
        assert_eq!((g.offsets(), g.targets()), (&offsets[..], &targets[..]));
    }
    let typed = accepted("reader", typed);
    assert_eq!(typed, accepted("Snapshot::open", Snapshot::open(path)));
    std::fs::remove_file(path).ok();
    typed
}

fn v1(p: &Path) -> io::Result<CsrGraph> {
    MappedCsr::open(p).map(|g| g.to_graph())
}

fn weighted_v1(p: &Path) -> io::Result<CsrGraph> {
    MappedWeightedCsr::open(p).map(|g| g.topology().to_graph())
}

fn v2(p: &Path) -> io::Result<CsrGraph> {
    MappedCompressedCsr::open(p).map(|g| g.to_graph())
}

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v1, weighted v1, v2 (plain and BFS-reordered) and
    /// `CsrGraph::try_from_csr` accept exactly when the oracle does.
    #[test]
    fn every_reader_accepts_exactly_what_the_oracle_accepts(
        g in arb_graph(60, 240),
        seed in any::<u64>(),
    ) {
        let honest = weighted_lists(&g, seed);
        let mut lists = honest.clone();
        forge(&mut lists, seed);
        let p = tmp(&format!("prop-{seed}.mpx"));

        write_v1(&lists, false, &p);
        prop_assert_eq!(opens(&p, &lists, v1), symmetric(&lists, false), "v1");
        write_v1(&lists, true, &p);
        prop_assert_eq!(opens(&p, &lists, weighted_v1), symmetric(&lists, true), "weighted v1");
        write_v2(&lists, None, &p);
        prop_assert_eq!(opens(&p, &lists, v2), symmetric(&lists, false), "v2");
        let (offsets, targets) = csr(&lists);
        prop_assert_eq!(
            CsrGraph::try_from_csr(offsets, targets).is_ok(),
            symmetric(&lists, false),
            "try_from_csr"
        );

        // The BFS file holds the honest graph in new ids, forged there.
        let perm = reorder_permutation(&g, Reorder::Bfs).unwrap();
        let mut reordered = relabel(&honest, &perm);
        forge(&mut reordered, seed);
        write_v2(&reordered, Some(&perm), &p);
        prop_assert_eq!(opens(&p, &reordered, v2), symmetric(&reordered, false), "v2 bfs");
    }
}

/// The messages refusing `lists`: from the weighted v1 reader and, unless
/// `weighted_only`, from the v1 and v2 readers and `try_from_csr`.
fn refusals(lists: &Lists, weighted_only: bool) -> Vec<String> {
    let p = tmp("direct.mpx");
    let mut out = Vec::new();
    write_v1(lists, true, &p);
    out.push(MappedWeightedCsr::open(&p).unwrap_err().to_string());
    if !weighted_only {
        write_v1(lists, false, &p);
        out.push(MappedCsr::open(&p).unwrap_err().to_string());
        write_v2(lists, None, &p);
        out.push(MappedCompressedCsr::open(&p).unwrap_err().to_string());
        let (offsets, targets) = csr(lists);
        out.push(CsrGraph::try_from_csr(offsets, targets).unwrap_err());
    }
    std::fs::remove_file(p).ok();
    out
}

fn unit(adj: &[&[Vertex]]) -> Lists {
    adj.iter()
        .map(|l| l.iter().map(|&t| (t, 1.0)).collect())
        .collect()
}

/// Each way the merge can refuse, named by every format.
#[test]
fn each_way_the_merge_refuses_is_reported() {
    let cases: [(&str, Lists, &str); 3] = [
        (
            "an upper arc whose target's cursor is exhausted",
            unit(&[&[1], &[], &[3], &[]]),
            "adjacency asymmetric: vertex 0 lists 1, but 1 does not list 0",
        ),
        (
            "an upper arc whose target's next entry is another vertex",
            unit(&[&[2], &[3], &[3], &[2]]),
            "adjacency asymmetric: vertex 0 lists 2, but 2 does not list 0",
        ),
        (
            "a lower neighbor that no vertex claims",
            unit(&[&[], &[0], &[0], &[]]),
            "adjacency asymmetric: vertex 1 lists 0, but 0 does not list 1",
        ),
    ];
    for (what, lists, want) in cases {
        for e in refusals(&lists, false) {
            assert!(e.contains(want), "{what}: {e}");
        }
    }
    let lists = vec![vec![(1, 1.5)], vec![(0, 2.5)]];
    for e in refusals(&lists, true) {
        let want = "weights invalid: arcs 0 -> 1 and 1 -> 0 carry different weights";
        assert!(
            e.contains(want),
            "a reverse arc whose weight bits differ: {e}"
        );
    }
}

/// A file whose every list is invalid (a self-loop at each vertex) is
/// refused for the lowest vertex, with the per-list message.
#[test]
fn all_bad_lists_report_the_lowest_vertex() {
    let lists: Lists = (0..64).map(|v| vec![(v, 1.0)]).collect();
    let p = tmp("all-bad.mpx");
    write_v2(&lists, None, &p);
    let e = MappedCompressedCsr::open(&p).unwrap_err().to_string();
    assert_eq!(
        e,
        "compressed snapshot adjacency invalid: vertex 0: self-loop"
    );
    write_v1(&lists, false, &p);
    let e = MappedCsr::open(&p).unwrap_err().to_string();
    assert_eq!(e, "snapshot adjacency invalid: vertex 0: self-loop");
    std::fs::remove_file(p).ok();
}
