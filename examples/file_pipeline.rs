//! The on-disk pipeline: generate → write text → convert to a binary
//! snapshot → load it back zero-copy (`mmap`) → partition straight off
//! the mapped file — and check the labels match the in-memory run
//! bit-for-bit.
//!
//! ```sh
//! cargo run --release --example file_pipeline
//! ```

use mpx::graph::{gen, io, snapshot, GraphView};
use mpx::prelude::*;

fn main() {
    let dir = std::env::temp_dir();
    let text_path = dir.join(format!("mpx-pipeline-{}.txt", std::process::id()));
    let snap_path = dir.join(format!("mpx-pipeline-{}.mpx", std::process::id()));

    // 1. Generate a workload and write it as a plain text edge list —
    //    the interchange format everything else understands.
    let g = gen::rmat(14, 8 << 14, 0.57, 0.19, 0.19, 42);
    io::write_edge_list(&g, &text_path).unwrap();
    let text_bytes = std::fs::metadata(&text_path).unwrap().len();
    println!(
        "wrote {} ({} vertices, {} edges, {text_bytes} bytes)",
        text_path.display(),
        g.num_vertices(),
        g.num_edges()
    );

    // 2. Ingest the text file. `read_graph` auto-detects the format and
    //    runs its one reader, which loads the file the same way at every
    //    thread count.
    let parsed = io::read_graph(&text_path).unwrap();
    assert_eq!(parsed, g, "text round-trip must be lossless");

    // 3. Convert to a binary `.mpx` snapshot: the CSR arrays verbatim,
    //    checksummed, loadable with zero parsing.
    snapshot::write_snapshot(&parsed, &snap_path).unwrap();
    let snap_bytes = std::fs::metadata(&snap_path).unwrap().len();
    println!(
        "wrote {} ({snap_bytes} bytes, {:.0}% of the text size)",
        snap_path.display(),
        100.0 * snap_bytes as f64 / text_bytes as f64
    );

    // 4. Memory-map the snapshot. `MappedCsr` implements `GraphView`, so
    //    the decomposition engine traverses the file's pages directly —
    //    no owned CSR copy is ever built on this path.
    let mapped = snapshot::MappedCsr::open(&snap_path).unwrap();
    println!(
        "mapped: n={} m={} zero_copy={}",
        mapped.num_vertices(),
        GraphView::total_degree(&mapped) / 2,
        mapped.is_mapped()
    );

    // 5. Partition straight off the mapping, then verify against the
    //    in-memory path: labels must be bit-identical.
    let opts = DecompOptions::new(0.1).with_seed(7);
    let from_file = partition(&mapped, &opts);
    let from_memory = partition(&g, &opts);
    assert_eq!(
        from_file.assignment(),
        from_memory.assignment(),
        "on-disk and in-memory decompositions must agree exactly"
    );
    println!(
        "partitioned from the mapped file: {} clusters, max radius {} — \
         labels identical to the in-memory run",
        from_file.num_clusters(),
        from_file.max_radius()
    );

    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&snap_path).ok();
}
