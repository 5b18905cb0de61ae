//! Serving repeated decomposition requests off a memory-mapped snapshot
//! — through the real server. One `.mpx` file on disk, an in-process
//! `mpx serve` instance with a pool of warm sessions over its mapped
//! pages, and a client round-tripping requests over the wire protocol:
//! the same path `mpx serve` / `mpx loadgen` exercise in production.
//!
//! ```sh
//! cargo run --release --example serve_snapshot
//! ```

use mpx::graph::{gen, snapshot};
use mpx::prelude::*;
use mpx::serve::protocol::PartitionRequest;
use mpx::serve::{Client, Server, ServerConfig};
use std::time::Instant;

fn main() {
    // Ingest once: generate a graph and persist it as a binary snapshot.
    let g = gen::rmat(13, 8 << 13, 0.57, 0.19, 0.19, 7);
    let mut path = std::env::temp_dir();
    path.push(format!("mpx-serve-snapshot-{}.mpx", std::process::id()));
    snapshot::write_snapshot(&g, &path).expect("write snapshot");
    println!(
        "snapshot: {} ({} vertices, {} edges)",
        path.display(),
        g.num_vertices(),
        g.num_edges()
    );

    // Spawn the real server in-process: it mmaps the snapshot (the
    // engine traverses the file's pages directly) and keeps two warm
    // worker sessions behind a bounded admission queue.
    let snap = Snapshot::open(&path).expect("open snapshot");
    let config = ServerConfig {
        workers: 2,
        queue_depth: 4,
        prewarm: true,
    };
    let server = Server::bind("127.0.0.1:0", vec![snap], config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    println!("server: listening on {addr} ({} workers)", config.workers);

    // Round-trip 32 requests over TCP, one per seed, asking for the
    // label arrays. Each request: fresh shifts from the request's seed,
    // same shared graph, a pool workspace reused across requests.
    let mut client = Client::connect(addr).expect("connect");
    let beta = 0.25;
    let start = Instant::now();
    let mut replies = Vec::with_capacity(32);
    for seed in 0..32u64 {
        let mut req = PartitionRequest::new(0, seed, beta);
        req.want_labels = true;
        replies.push(client.partition(&req).expect("partition request"));
    }
    let elapsed = start.elapsed();
    let avg_cut: f64 = replies
        .iter()
        .map(|r| r.cut_edges as f64 / g.num_edges() as f64)
        .sum::<f64>()
        / replies.len() as f64;
    println!(
        "served {} requests in {:.1} ms ({:.2} ms/request), avg cut fraction {:.4}, all verified: {}",
        replies.len(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / replies.len() as f64,
        avg_cut,
        replies.iter().all(|r| r.verified)
    );

    // The served labels are bit-identical to an in-memory run with the
    // same seed — the wire, the pool and the mmap are all invisible to
    // the decomposition.
    let check = DecomposerBuilder::new(beta)
        .seed(7)
        .build(&g)
        .expect("valid configuration")
        .run();
    assert_eq!(
        replies[7].labels.as_deref(),
        Some(check.assignment()),
        "served labels must equal in-memory labels"
    );
    println!("checked: server-served labels identical to in-memory labels");

    // Drain: in-flight work finishes, the listener closes, the server
    // thread joins with its final counters.
    client.shutdown().expect("shutdown");
    let stats = server_thread.join().expect("server thread");
    println!(
        "server stats: {} served over {} connections, in-flight high-water {}",
        stats.served, stats.connections, stats.in_flight_hwm
    );
    assert_eq!(stats.served, 32);

    std::fs::remove_file(&path).ok();
}
