//! Applications end-to-end off a memory-mapped `.mpx` snapshot: the
//! decomposition pipelines accept any `GraphView`, so every app here runs
//! directly against the file's pages and must produce results identical
//! to the in-memory `CsrGraph` path.

use mpx::apps::{
    block_decomposition_with_options, decomposition_separator, low_stretch_tree,
    parallel_components, spanner, DistanceOracle, Hst,
};
use mpx::graph::{gen, snapshot, MappedCsr};
use mpx::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mpx-apps-snapshot-{}-{name}", std::process::id()));
    p
}

fn mapped(g: &CsrGraph, name: &str) -> (MappedCsr, std::path::PathBuf) {
    let path = tmp(name);
    snapshot::write_snapshot(g, &path).unwrap();
    (MappedCsr::open(&path).unwrap(), path)
}

#[test]
fn components_and_trees_identical_on_mapped_snapshot() {
    // Disconnected on purpose: several GNM blobs plus isolated vertices.
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    let blob = gen::gnm(300, 900, 5);
    edges.extend(blob.edges());
    edges.extend(gen::grid2d(12, 12).edges().map(|(u, v)| (u + 300, v + 300)));
    let g = CsrGraph::from_edges(460, &edges);
    let (m, path) = mapped(&g, "components.mpx");

    assert_eq!(
        parallel_components(&g, 0.3, 7),
        parallel_components(&m, 0.3, 7)
    );
    assert_eq!(low_stretch_tree(&g, 0.25, 3), low_stretch_tree(&m, 0.25, 3));
    std::fs::remove_file(path).ok();
}

#[test]
fn hst_oracle_spanner_separator_identical_on_mapped_snapshot() {
    let g = gen::gnm(500, 2200, 9);
    let (m, path) = mapped(&g, "apps.mpx");

    let (t_mem, t_map) = (Hst::build(&g, 2), Hst::build(&m, 2));
    assert_eq!(t_mem.num_nodes(), t_map.num_nodes());
    assert_eq!(t_mem.height, t_map.height);
    for (u, v) in [(0u32, 499u32), (7, 250), (123, 124), (3, 3)] {
        assert_eq!(t_mem.distance(u, v), t_map.distance(u, v), "({u},{v})");
    }

    let (o_mem, o_map) = (
        DistanceOracle::new(&g, 0.2, 4),
        DistanceOracle::new(&m, 0.2, 4),
    );
    assert_eq!(o_mem.radius(), o_map.radius());
    assert_eq!(o_mem.bounds_from(0), o_map.bounds_from(0));

    let (s_mem, s_map) = (spanner(&g, 0.2, 1), spanner(&m, 0.2, 1));
    assert_eq!(s_mem.edges, s_map.edges);
    assert_eq!(s_mem.stretch_bound, s_map.stretch_bound);

    let (sep_mem, sep_map) = (
        decomposition_separator(&g, 0.1, 6),
        decomposition_separator(&m, 0.1, 6),
    );
    assert_eq!(sep_mem.vertices, sep_map.vertices);
    std::fs::remove_file(path).ok();
}

#[test]
fn session_over_snapshot_feeds_block_decomposition_options_path() {
    // Blocks stay CSR-shaped (they need arc offsets), but their options
    // path shares the builder-validated knobs; check the option plumbing
    // agrees with the legacy signature, off a snapshot copied into memory.
    let g = gen::gnm(400, 1600, 11);
    let path = tmp("blocks.mpx");
    snapshot::write_snapshot(&g, &path).unwrap();
    let decoded = snapshot::MappedCsr::open(&path).unwrap().to_graph();
    let a = mpx::apps::block_decomposition(&g, 13);
    let b = block_decomposition_with_options(&decoded, &DecompOptions::new(0.5).with_seed(13));
    assert_eq!(a.rounds, b.rounds);
    for (x, y) in a.blocks.iter().zip(&b.blocks) {
        assert_eq!(x.edges, y.edges);
    }
    std::fs::remove_file(path).ok();
}
