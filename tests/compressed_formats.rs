//! The compressed-snapshot contract, end to end: `.mpx` v2 files drive
//! the engine to labels byte-identical to the raw v1 path — for both
//! traversal strategies and for bottom-up rounds, with and without offline
//! reordering — and corrupt
//! files die with clean typed errors, never a panic or an out-of-range
//! neighbor.

use mpx::compress::{
    apply_permutation, reorder_permutation, write_compressed_snapshot, MappedCompressedCsr,
    Reorder, Snapshot,
};
use mpx::decomp::{
    partition, verify_decomposition, DecompOptions, Determinism, Traversal, Workspace,
};
use mpx::graph::{gen, snapshot, CsrGraph, Vertex};
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "mpx-compressed-formats-{}-{name}",
        std::process::id()
    ));
    p
}

/// Both strategies, plus Auto at an `alpha` so large that it takes its
/// rounds bottom-up (the `bool` marks that configuration).
const STRATEGIES: [(Traversal, u64, bool); 3] = [
    (Traversal::Auto, mpx::decomp::DEFAULT_ALPHA, false),
    (Traversal::TopDownPar, mpx::decomp::DEFAULT_ALPHA, false),
    (Traversal::Auto, 1_000_000, true),
];

/// The acceptance matrix of the v2 format: raw v1, compressed v2, and
/// compressed+reordered v2 must produce byte-identical assignments and
/// distances for every strategy under `BitExact`.
#[test]
fn v1_v2_and_reordered_v2_labels_are_byte_identical() {
    for (name, g) in [
        ("gnm", gen::gnm(1200, 6000, 17)),
        ("rmat", gen::rmat(10, 6 << 10, 0.57, 0.19, 0.19, 4)),
    ] {
        let p1 = tmp(&format!("{name}.v1.mpx"));
        let p2 = tmp(&format!("{name}.v2.mpx"));
        snapshot::write_snapshot(&g, &p1).unwrap();
        write_compressed_snapshot(&g, None, &p2).unwrap();
        let v1 = snapshot::MappedCsr::open(&p1).unwrap();
        let v2 = MappedCompressedCsr::open(&p2).unwrap();

        let mut reordered = Vec::new();
        for r in [Reorder::Degree, Reorder::Bfs] {
            let perm = reorder_permutation(&g, r).unwrap();
            let pr = tmp(&format!("{name}.{r}.mpx"));
            write_compressed_snapshot(&apply_permutation(&g, &perm), Some(&perm), &pr).unwrap();
            reordered.push((r, pr));
        }

        for (strategy, alpha, bottom_up) in STRATEGIES {
            let opts = DecompOptions::new(0.12)
                .with_seed(23)
                .with_traversal(strategy)
                .with_alpha(alpha);
            let reference = partition(&v1, &opts);
            let (compressed, t) = Workspace::new().partition_view(&v2, &opts);
            if bottom_up {
                assert!(t.bottom_up_rounds > 0, "{name}: no bottom-up round on v2");
            }
            assert_eq!(
                compressed.assignment(),
                reference.assignment(),
                "{name}/{strategy:?}: v2 labels differ from v1"
            );
            assert_eq!(compressed.distances(), reference.distances());
            assert_eq!(compressed.parents(), reference.parents());

            for (r, pr) in &reordered {
                let m = MappedCompressedCsr::open(pr).unwrap();
                let perm = m.permutation().unwrap().to_vec();
                let (permuted, t) = Workspace::new().partition_view_permuted(&m, &opts, &perm);
                if bottom_up {
                    assert!(t.bottom_up_rounds > 0, "{name}/{r}: no bottom-up round");
                }
                let remapped = permuted.remap_labels(&perm);
                assert_eq!(
                    remapped.assignment(),
                    reference.assignment(),
                    "{name}/{strategy:?}/{r}: reordered labels differ from v1"
                );
                assert_eq!(remapped.distances(), reference.distances());
            }
        }
        std::fs::remove_file(p1).ok();
        std::fs::remove_file(p2).ok();
        for (_, pr) in reordered {
            std::fs::remove_file(pr).ok();
        }
    }
}

/// `Fast` determinism only swaps the scheduler: a decomposition off a
/// compressed (and reordered) view verifies, with the radius within the
/// paper's `O(log n / β)` regime, and its remapped labels equal
/// BitExact's.
#[test]
fn fast_mode_over_compressed_views_verifies() {
    let g = gen::rmat(10, 6 << 10, 0.57, 0.19, 0.19, 11);
    let p = tmp("fast.v2.mpx");
    let perm = reorder_permutation(&g, Reorder::Degree).unwrap();
    write_compressed_snapshot(&apply_permutation(&g, &perm), Some(&perm), &p).unwrap();
    let m = MappedCompressedCsr::open(&p).unwrap();
    let beta = 0.12;
    let bitexact = DecompOptions::new(beta).with_seed(5);
    let opts = bitexact.clone().with_determinism(Determinism::Fast);
    let (d, _) = Workspace::new().partition_view_permuted(&m, &opts, &perm.clone());
    let report = verify_decomposition(&m.to_graph(), &d);
    assert!(report.is_valid(), "{:?}", report.errors);
    let bound = (4.0 / beta) * (g.num_vertices() as f64).ln();
    assert!(
        (report.max_radius as f64) <= bound,
        "radius {} above {bound}",
        report.max_radius
    );
    // Remapping is pure bookkeeping: same cluster structure either way.
    let remapped = d.remap_labels(&perm);
    assert_eq!(remapped.num_clusters(), d.num_clusters());
    assert_eq!(remapped.max_radius(), d.max_radius());
    let (exact, _) = Workspace::new().partition_view_permuted(&m, &bitexact, &perm);
    assert_eq!(
        remapped.assignment(),
        exact.remap_labels(&perm).assignment(),
        "fast labels differ from bitexact on the reordered v2 view"
    );
    std::fs::remove_file(p).ok();
}

/// Truncations at every section boundary and bit-flips in every header
/// field and section are rejected with typed errors, by the v2 reader and
/// by `Snapshot::open`.
#[test]
fn truncated_and_garbled_v2_snapshots_error_cleanly() {
    let g = gen::gnm(300, 1200, 7);
    let p = tmp("garble.mpx");
    let perm = reorder_permutation(&g, Reorder::Bfs).unwrap();
    write_compressed_snapshot(&apply_permutation(&g, &perm), Some(&perm), &p).unwrap();
    let good = std::fs::read(&p).unwrap();
    let n = g.num_vertices();
    let offsets_end = snapshot::HEADER_LEN + 8 * (n + 1);
    let degrees_end = offsets_end + 4 * n;
    let perm_end = degrees_end + 4 * n;

    for cut in [
        0,
        7,
        snapshot::HEADER_LEN - 1,
        snapshot::HEADER_LEN + 3,
        offsets_end,
        degrees_end + 1,
        perm_end,
        good.len() - 1,
    ] {
        std::fs::write(&p, &good[..cut]).unwrap();
        assert_invalid(&p, &format!("a {cut}-byte truncation"));
    }

    for (at, what) in [
        (1usize, "magic"),
        (8, "version"),
        (12, "flags"),
        (17, "n"),
        (25, "m"),
        (33, "checksum"),
        (41, "enc_len"),
        (50, "reserved"),
        (snapshot::HEADER_LEN + 2, "offsets section"),
        (degrees_end - 2, "degrees section"),
        (perm_end - 2, "permutation section"),
        (good.len() - 1, "encoded stream"),
    ] {
        let mut bytes = good.clone();
        bytes[at] ^= 0xa5;
        std::fs::write(&p, &bytes).unwrap();
        assert_invalid(&p, &format!("bad {what}"));
    }
    std::fs::remove_file(p).ok();
}

/// Asserts that the v2 reader and `Snapshot::open` both refuse `p` with
/// `InvalidData`.
fn assert_invalid(p: &std::path::Path, what: &str) {
    for e in [MappedCompressedCsr::open(p).err(), Snapshot::open(p).err()] {
        let e = e.unwrap_or_else(|| panic!("accepted {what}"));
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
    }
}

/// A permutation section that is not a bijection on `0..n`, behind a
/// recomputed checksum, is refused with an error naming the permutation:
/// relabelling through it would index out of range or collide.
#[test]
fn forged_permutations_are_refused_by_name() {
    let g = gen::gnm(300, 1200, 11);
    let n = g.num_vertices();
    let p = tmp("forged-perm.mpx");
    let perm = reorder_permutation(&g, Reorder::Bfs).unwrap();
    write_compressed_snapshot(&apply_permutation(&g, &perm), Some(&perm), &p).unwrap();
    let good = std::fs::read(&p).unwrap();
    let perm_at = snapshot::HEADER_LEN + 8 * (n + 1) + 4 * n;
    for (what, entry, value) in [
        ("a repeated entry", 1, perm[0]),
        ("an entry >= n", 0, n as Vertex),
    ] {
        let mut bytes = good.clone();
        let at = perm_at + 4 * entry;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let sum = snapshot::payload_checksum(&bytes[snapshot::HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        for e in [
            MappedCompressedCsr::open(&p).err(),
            Snapshot::open(&p).err(),
        ] {
            let e = e.unwrap_or_else(|| panic!("accepted {what}"));
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
            assert!(e.to_string().contains("permutation"), "{what}: {e}");
        }
    }
    std::fs::remove_file(p).ok();
}

/// Corruption that *passes* the checksum (flipped payload byte with the
/// checksum recomputed to match) must still be caught by the structural
/// audit — a typed `InvalidData`, never a panic or a bad neighbor.
#[test]
fn checksummed_corruption_fails_structural_validation() {
    let g = gen::gnm(300, 1200, 29);
    let p = tmp("forged.mpx");
    write_compressed_snapshot(&g, None, &p).unwrap();
    let good = std::fs::read(&p).unwrap();
    let step = (good.len() - snapshot::HEADER_LEN) / 40;
    let mut caught = 0usize;
    for i in 0..40 {
        let at = snapshot::HEADER_LEN + i * step;
        let mut bytes = good.clone();
        bytes[at] ^= 0x55;
        let sum = snapshot::payload_checksum(&bytes[snapshot::HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        match MappedCompressedCsr::open(&p) {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "byte {at}: {e}");
                caught += 1;
            }
            // A flip may land in varint slack and decode to the same
            // structure-valid graph; that is fine — but flips must never
            // produce an invalid graph, so whatever opens must validate.
            Ok(c) => assert!(c.to_graph().validate().is_ok(), "byte {at}"),
        }
    }
    assert!(caught > 0, "no corruption was structurally detected");
    std::fs::remove_file(p).ok();
}

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any graph survives write-v2 → open → decode losslessly and
    /// partitions to the same labels as the in-memory graph, with or
    /// without reordering.
    #[test]
    fn v2_roundtrip_preserves_graph_and_labels(
        g in arb_graph(120, 400),
        seed in 0u64..1000,
        reorder in prop_oneof![
            Just(Reorder::None),
            Just(Reorder::Degree),
            Just(Reorder::Bfs),
        ],
    ) {
        let opts = DecompOptions::new(0.25).with_seed(seed);
        let reference = partition(&g, &opts);
        let p = tmp(&format!("prop-{seed}-{reorder}.mpx"));
        let perm = reorder_permutation(&g, reorder);
        let stored = match &perm {
            Some(perm) => apply_permutation(&g, perm),
            None => g.clone(),
        };
        write_compressed_snapshot(&stored, perm.as_deref(), &p).unwrap();
        let c = MappedCompressedCsr::open(&p).unwrap();
        prop_assert_eq!(c.to_graph(), stored);
        let d = match c.permutation() {
            Some(perm) => {
                let perm = perm.to_vec();
                let (d, _) = Workspace::new().partition_view_permuted(&c, &opts, &perm);
                d.remap_labels(&perm)
            }
            None => partition(&c, &opts),
        };
        prop_assert_eq!(d.assignment(), reference.assignment());
        prop_assert_eq!(d.distances(), reference.distances());
        std::fs::remove_file(p).ok();
    }
}
