//! Shared helpers for the serve integration suites: temp snapshots and
//! in-process servers.
//!
//! Compiled into each serve test binary; every binary uses a subset of
//! these helpers, so per-binary dead-code analysis is not meaningful.
#![allow(dead_code)]

use mpx::compress::Snapshot;
use mpx::serve::{Server, ServerConfig, ServerStats, ShutdownHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

/// Writes a generated unweighted snapshot to a unique temp path.
pub fn temp_snapshot(name: &str, g: &mpx::graph::CsrGraph) -> PathBuf {
    let path = temp_path(name);
    mpx::graph::snapshot::write_snapshot(g, &path).expect("write snapshot");
    path
}

/// Writes a generated weighted snapshot to a unique temp path.
pub fn temp_weighted_snapshot(name: &str, g: &mpx::graph::WeightedCsrGraph) -> PathBuf {
    let path = temp_path(name);
    mpx::graph::snapshot::write_weighted_snapshot(g, &path).expect("write weighted snapshot");
    path
}

/// A unique temp `.mpx` path without writing anything — for suites that
/// produce the snapshot themselves (e.g. compressed v2 writers).
pub fn temp_file(name: &str) -> PathBuf {
    temp_path(name)
}

fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mpx_serve_test_{}_{}_{unique}.mpx",
        std::process::id(),
        name
    ))
}

/// A deterministic weighted test graph: gnm topology with `U[0.25, 4]`
/// lengths hashed from seed and endpoints (same recipe as `mpx gen
/// --weighted`).
pub fn weighted_gnm(n: usize, m: usize, seed: u64) -> mpx::graph::WeightedCsrGraph {
    let g = mpx::graph::gen::gnm(n, m, seed);
    let edges: Vec<(mpx::graph::Vertex, mpx::graph::Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r = (mpx::par::rng::hash_index(seed, ((u as u64) << 32) | v as u64) >> 11) as f64
                / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    mpx::graph::WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

/// An `mpx serve` server running on a background thread of this
/// process, bound to an ephemeral localhost port.
pub struct TestServer {
    /// Address clients connect to.
    pub addr: SocketAddr,
    /// Handle that force-stops the server without a shutdown frame.
    pub handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServerStats>>,
}

impl TestServer {
    /// Binds and runs a server over `snapshot_paths` with the given
    /// pool shape.
    pub fn start(snapshot_paths: &[&std::path::Path], workers: usize, queue: usize) -> TestServer {
        Self::start_opts(snapshot_paths, workers, queue, true)
    }

    /// [`TestServer::start`] with explicit prewarm control — the stress
    /// suite disables prewarm so the in-flight high-water mark reflects
    /// client traffic alone (prewarm checks out every lease at once).
    pub fn start_opts(
        snapshot_paths: &[&std::path::Path],
        workers: usize,
        queue: usize,
        prewarm: bool,
    ) -> TestServer {
        let snapshots = snapshot_paths
            .iter()
            .map(|p| Snapshot::open(p).expect("open test snapshot"))
            .collect();
        let config = ServerConfig {
            workers,
            queue_depth: queue,
            prewarm,
        };
        let server = Server::bind("127.0.0.1:0", snapshots, config).expect("bind test server");
        let addr = server.local_addr().expect("local addr");
        let handle = server.shutdown_handle().expect("shutdown handle");
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            thread,
        }
    }

    /// Waits for the server thread to exit and returns its final
    /// counters (the server must already have been told to stop, via a
    /// shutdown frame or [`TestServer::handle`]).
    pub fn join(self) -> ServerStats {
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server run failed")
    }
}
