//! The on-disk ingestion contract, end to end: every format round-trips
//! losslessly, a text file loads the same way at every thread count,
//! mmap-loaded snapshots drive the engine to byte-identical labels under
//! both traversal strategies and through bottom-up rounds, and malformed
//! inputs die with clean errors.

use mpx::compress::{codec, write_compressed_snapshot, MappedCompressedCsr, Snapshot};
use mpx::decomp::{partition, DecompOptions, Traversal, Workspace, DEFAULT_ALPHA};
use mpx::graph::snapshot::{self, MappedCsr, MappedWeightedCsr, HEADER_LEN};
use mpx::graph::{gen, io, CsrGraph, GraphFormat, Vertex, WeightedCsrGraph};
use mpx::runtime::Pool;
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mpx-file-formats-{}-{name}", std::process::id()));
    p
}

const ALL_FORMATS: [(GraphFormat, &str); 4] = [
    (GraphFormat::Snapshot, "mpx"),
    (GraphFormat::EdgeList, "txt"),
    (GraphFormat::Dimacs, "gr"),
    (GraphFormat::Metis, "metis"),
];

/// `read` run on a dedicated pool of each size the thread-count checks
/// use, with that size.
fn at_every_thread_count<T: Send>(read: impl Fn() -> T + Sync) -> [(usize, T); 2] {
    [1, 2].map(|threads| (threads, Pool::new(threads).install(&read)))
}

/// Partition labels of a graph (fixed β/seed for comparisons).
fn labels(g: &CsrGraph) -> Vec<Vertex> {
    let opts = DecompOptions::new(0.2).with_seed(13);
    partition(g, &opts).assignment().to_vec()
}

#[test]
fn convert_round_trips_all_format_pairs_with_identical_labels() {
    // The acceptance matrix: write in every format, read back, labels
    // must match the generated graph's labels exactly.
    let g = gen::gnm(600, 2400, 21);
    let reference = labels(&g);
    for (format, ext) in ALL_FORMATS {
        let p = tmp(&format!("pair.{ext}"));
        io::write_graph(&g, &p, format).unwrap();
        assert_eq!(io::detect_format(&p).unwrap(), format);
        let h = io::read_graph(&p).unwrap();
        assert_eq!(h, g, "{format} round-trip must be lossless");
        assert_eq!(labels(&h), reference, "{format} labels must be identical");
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn mapped_snapshot_partitions_identically_under_every_strategy() {
    let g = gen::rmat(10, 8 << 10, 0.57, 0.19, 0.19, 4);
    let p = tmp("strategies.mpx");
    snapshot::write_snapshot(&g, &p).unwrap();
    let mapped = MappedCsr::open(&p).unwrap();
    // Auto at a huge alpha takes its rounds bottom-up.
    for (strategy, alpha) in [
        (Traversal::Auto, DEFAULT_ALPHA),
        (Traversal::TopDownPar, DEFAULT_ALPHA),
        (Traversal::Auto, 1_000_000),
    ] {
        let opts = DecompOptions::new(0.15)
            .with_seed(5)
            .with_traversal(strategy)
            .with_alpha(alpha);
        let (from_file, t) = Workspace::new().partition_view(&mapped, &opts);
        if alpha != DEFAULT_ALPHA {
            assert!(
                t.bottom_up_rounds > 0,
                "no bottom-up round on the mapped file"
            );
        }
        let from_memory = partition(&g, &opts);
        assert_eq!(
            from_file.assignment(),
            from_memory.assignment(),
            "{strategy:?} alpha {alpha}: mapped labels must equal in-memory labels"
        );
    }
    std::fs::remove_file(p).ok();
}

#[test]
fn text_reads_agree_across_thread_counts_on_every_workload_family() {
    for (name, g) in [
        ("grid", gen::grid2d(40, 25)),
        ("gnm", gen::gnm(5000, 20_000, 2)),
        ("ba", gen::barabasi_albert(2000, 4, 3)),
        ("path", gen::path(3000)),
        ("star-heavy", {
            // One vertex holds half of every arc.
            let edges: Vec<(Vertex, Vertex)> = (1..2000).map(|v| (0, v)).collect();
            CsrGraph::from_edges(2000, &edges)
        }),
    ] {
        for (format, ext) in &ALL_FORMATS[1..] {
            let p = tmp(&format!("agree-{name}.{ext}"));
            io::write_graph(&g, &p, *format).unwrap();
            for (threads, h) in at_every_thread_count(|| io::read_graph(&p).unwrap()) {
                assert_eq!(h, g, "{name}/{format} at {threads} threads: lossy");
            }
            std::fs::remove_file(p).ok();
        }
    }
}

/// Files at the edge of the text rules each load, at every thread count,
/// to the graph with edges {0, 1} and {2, 3}: invalid UTF-8 sits only in
/// a comment or an ignored trailing token, and a UTF-8 no-break space is
/// whitespace.
#[test]
fn quirk_files_load_identically_at_every_thread_count() {
    let expected = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
    let cases: [(&str, &[u8]); 5] = [
        ("latin1-comment.txt", b"4 2\n# caf\xe9\n0 1\n2 3\n"),
        (
            "latin1-comment.gr",
            b"c caf\xe9\np sp 4 4\na 1 2 1\na 3 4 1\n",
        ),
        ("trailing-byte.txt", b"4 2\n0 1 \xff\n2 3 w\xe9\n"),
        ("trailing-byte.gr", b"p sp 4 4\na 1 2 \xff\na 3 4 1\n"),
        ("nbsp.txt", "4 2\n0\u{a0}1\n2\u{a0}3\n".as_bytes()),
    ];
    for (name, bytes) in cases {
        let p = tmp(name);
        std::fs::write(&p, bytes).unwrap();
        for (threads, got) in at_every_thread_count(|| io::read_graph(&p)) {
            let got = got.unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            assert_eq!(got, expected, "{name} at {threads} threads");
        }
        std::fs::remove_file(p).ok();
    }
    // An invalid byte inside a number token is an error at every count.
    let p = tmp("bad-number.txt");
    std::fs::write(&p, b"4 1\n0 1\xff\n").unwrap();
    for (threads, got) in at_every_thread_count(|| io::read_graph(&p)) {
        let e = got.unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{threads}");
    }
    std::fs::remove_file(p).ok();
}

/// A header's counts cannot abort or panic the process: a vertex count
/// above `u32::MAX` is `InvalidData`, and an edge count the file cannot
/// hold reserves only what it can, so the file loads with the records it
/// has.
#[test]
fn hostile_headers_get_a_graph_or_invalid_data() {
    let huge_m = "3 1000000000000\n";
    let huge_n = "100000000000 1\n";
    // (file, contents, weighted, vertices loaded or `None` for InvalidData)
    let cases = [
        ("m.txt", huge_m, false, Some(3)),
        ("n.txt", huge_n, false, None),
        ("n-edge.txt", "4294967296 1\n0 1\n", false, None),
        ("n.gr", "p sp 100000000000 1\n", false, None),
        ("m.metis", huge_m, false, Some(3)),
        ("w-m.txt", huge_m, true, Some(3)),
        ("w-n.txt", huge_n, true, None),
    ];
    for (name, text, weighted, vertices) in cases {
        let p = tmp(&format!("header-{name}"));
        std::fs::write(&p, text).unwrap();
        let read = || match weighted {
            false => io::read_graph(&p).map(|g| (g.num_vertices(), g.num_edges())),
            true => io::read_weighted_edge_list(&p).map(|g| (g.num_vertices(), g.num_edges())),
        };
        for (threads, got) in at_every_thread_count(read) {
            match (got, vertices) {
                (Ok(got), Some(n)) => assert_eq!(got, (n, 0), "{name} at {threads} threads"),
                (Err(e), None) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
                (got, _) => panic!("{name} at {threads} threads: {got:?}"),
            }
        }
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn mixed_line_endings_and_comments_parse_identically() {
    // CRLF + LF mixed in one file, comments, blanks, duplicate records.
    let text = "6 5\r\n0 1\n1 2\r\n# dup below\n1 2\n\r\n2 3\r\n3 4\n4 5\r\n";
    let p = tmp("mixed.txt");
    std::fs::write(&p, text).unwrap();
    let g = io::read_graph(&p).unwrap();
    assert_eq!(g, gen::path(6));
    std::fs::remove_file(p).ok();
}

#[test]
fn dimacs_out_of_range_arcs_error_cleanly() {
    let p = tmp("oor.gr");
    std::fs::write(&p, "c tiny\np sp 4 4\na 1 2 1\na 2 1 1\na 3 9 1\n").unwrap();
    let err = io::read_graph(&p).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("out of range"), "{err}");
    std::fs::remove_file(p).ok();
}

#[test]
fn truncated_and_garbled_snapshots_error_cleanly() {
    let g = gen::grid2d(10, 10);
    let p = tmp("garble.mpx");
    snapshot::write_snapshot(&g, &p).unwrap();
    let good = std::fs::read(&p).unwrap();

    // Truncations at every interesting boundary.
    for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 5, good.len() - 1] {
        std::fs::write(&p, &good[..cut]).unwrap();
        assert!(
            io::read_graph(&p).is_err(),
            "read_graph accepted a {cut}-byte truncation"
        );
        assert!(
            MappedCsr::open(&p).is_err(),
            "mmap load accepted a {cut}-byte truncation"
        );
    }

    // Garbled header fields and flipped payload bits.
    for (at, what) in [
        (0usize, "magic"),
        (9, "version"),
        (13, "flags"),
        (45, "reserved"),
        (20, "n"),
        (70, "payload"),
    ] {
        let mut bytes = good.clone();
        bytes[at] ^= 0xa5;
        std::fs::write(&p, &bytes).unwrap();
        assert!(
            io::read_graph(&p).is_err(),
            "read_graph accepted bad {what}"
        );
        assert!(
            MappedCsr::open(&p).is_err(),
            "mmap load accepted bad {what}"
        );
    }
    std::fs::remove_file(p).ok();
}

/// A checksummed file whose lists are sorted, in range and loop-free but
/// not symmetric — one arc at the highest-degree vertex has no reverse —
/// is refused with `InvalidData` in every format, by the format's reader
/// and by `Snapshot::open`.
#[test]
fn asymmetric_hub_is_rejected_in_every_format() {
    // A star with hub 0 and leaves 1..=k, plus an isolated vertex k + 1.
    // The forgery redirects the hub's last arc 0 → k to 0 → k + 1.
    let k: Vertex = 40;
    let edges: Vec<(Vertex, Vertex, f64)> = (1..=k).map(|v| (0, v, 1.5)).collect();
    let wg = WeightedCsrGraph::from_edges(k as usize + 2, &edges);
    let g = wg.to_unweighted();
    let n = g.num_vertices();
    let hub: Vec<Vertex> = (1..k).chain([k + 1]).collect();

    // Overwrites `at..` with `new` and recomputes the checksum.
    let forge = |p: &std::path::Path, at: usize, new: &[u8]| {
        let mut bytes = std::fs::read(p).unwrap();
        bytes[at..at + new.len()].copy_from_slice(new);
        let sum = snapshot::payload_checksum(&bytes[HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(p, bytes).unwrap();
    };
    let (v1, weighted, v2) = (tmp("asym.v1.mpx"), tmp("asym.w.mpx"), tmp("asym.v2.mpx"));
    snapshot::write_snapshot(&g, &v1).unwrap();
    snapshot::write_weighted_snapshot(&wg, &weighted).unwrap();
    write_compressed_snapshot(&g, None, &v2).unwrap();
    let last_arc = HEADER_LEN + 8 * (n + 1) + 4 * (k as usize - 1);
    forge(&v1, last_arc, &(k + 1).to_le_bytes());
    forge(&weighted, last_arc, &(k + 1).to_le_bytes());
    let mut list = vec![0u8; codec::encoded_list_len(0, &hub)];
    codec::encode_list(0, &hub, &mut list, &mut 0);
    assert_eq!(list.len(), codec::encoded_list_len(0, g.neighbors(0)));
    forge(&v2, HEADER_LEN + 8 * (n + 1) + 4 * n, &list);

    for (p, typed) in [
        (&v1, MappedCsr::open(&v1).err()),
        (&weighted, MappedWeightedCsr::open(&weighted).err()),
        (&v2, MappedCompressedCsr::open(&v2).err()),
    ] {
        for e in [typed, Snapshot::open(p).err()] {
            let e = e.unwrap_or_else(|| panic!("{}: asymmetric hub accepted", p.display()));
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("asymmetric"), "{e}");
        }
        std::fs::remove_file(p).ok();
    }
}

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any graph survives generate → write(each format) → read →
    /// partition with bit-identical labels.
    #[test]
    fn roundtrip_preserves_partition_labels(g in arb_graph(120, 400), seed in 0u64..1000) {
        let opts = DecompOptions::new(0.25).with_seed(seed);
        let reference = partition(&g, &opts).assignment().to_vec();
        for (format, ext) in ALL_FORMATS {
            let p = tmp(&format!("prop-{seed}.{ext}"));
            io::write_graph(&g, &p, format).unwrap();
            let h = io::read_graph(&p).unwrap();
            prop_assert_eq!(&h, &g, "{:?} lossy", format);
            let got = partition(&h, &opts).assignment().to_vec();
            prop_assert_eq!(&got, &reference, "{:?} labels differ", format);
            std::fs::remove_file(p).ok();
        }
    }
}
