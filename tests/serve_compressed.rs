//! `mpx serve` over compressed snapshots: a server loaded with the raw
//! v1 file, the compressed v2 file, and degree- and BFS-reordered
//! compressed v2 files of the same graph must answer every request with
//! byte-identical labels — equal to an in-process run over the in-memory
//! graph — and identical aggregate stats.

mod serve_common;

use mpx::compress::{apply_permutation, reorder_permutation, write_compressed_snapshot, Reorder};
use mpx::decomp::{partition, DecompOptions, Traversal};
use mpx::graph::gen;
use mpx::serve::protocol::PartitionRequest;
use mpx::serve::Client;
use serve_common::TestServer;
use std::time::Duration;

#[test]
fn compressed_snapshots_serve_byte_identical_labels() {
    let g = gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 6);

    let v1 = serve_common::temp_snapshot("compressed-v1", &g);
    let v2 = serve_common::temp_file("compressed-v2");
    write_compressed_snapshot(&g, None, &v2).expect("write v2");
    let v2r = serve_common::temp_file("compressed-v2r");
    let perm = reorder_permutation(&g, Reorder::Degree).unwrap();
    write_compressed_snapshot(&apply_permutation(&g, &perm), Some(&perm), &v2r)
        .expect("write reordered v2");
    // The order the benchmark's served snapshot uses.
    let v2b = serve_common::temp_file("compressed-v2b");
    let bfs = reorder_permutation(&g, Reorder::Bfs).unwrap();
    write_compressed_snapshot(&apply_permutation(&g, &bfs), Some(&bfs), &v2b)
        .expect("write BFS-reordered v2");

    let server = TestServer::start(&[&v1, &v2, &v2r, &v2b], 2, 4);
    let mut client = Client::connect(server.addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    for seed in [1u64, 42] {
        for traversal in [Traversal::Auto, Traversal::TopDownPar] {
            let opts = DecompOptions::new(0.3)
                .with_seed(seed)
                .with_traversal(traversal);
            let reference = partition(&g, &opts);
            let mut replies = Vec::new();
            for snapshot in 0..4u32 {
                let mut req = PartitionRequest::new(snapshot, seed, 0.3);
                req.traversal = traversal;
                req.want_labels = true;
                let reply = client.partition(&req).expect("partition reply");
                assert!(reply.verified, "snapshot {snapshot} failed verification");
                assert_eq!(reply.n, g.num_vertices() as u64);
                assert_eq!(
                    reply.labels.as_deref(),
                    Some(reference.assignment()),
                    "snapshot {snapshot} (seed {seed}, {traversal:?}): \
                     served labels differ from the in-process run"
                );
                replies.push(reply);
            }
            // Cut, cluster count and radius are permutation-invariant:
            // all four snapshots must agree exactly.
            for r in &replies[1..] {
                assert_eq!(r.clusters, replies[0].clusters);
                assert_eq!(r.cut_edges, replies[0].cut_edges);
                assert_eq!(r.max_radius, replies[0].max_radius);
            }
        }
    }

    client.shutdown().expect("shutdown ack");
    server.join();
    for p in [v1, v2, v2r, v2b] {
        std::fs::remove_file(p).ok();
    }
}
