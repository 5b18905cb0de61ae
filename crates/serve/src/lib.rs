//! mpx-serve: a concurrent decomposition service over shared `.mpx`
//! snapshots.
//!
//! The paper's decomposition is cheap per run — O(m) work, O(log n/β)
//! depth — so the systems leverage is amortization across *many*
//! requests against the same immutable graph. This crate is that front
//! end:
//!
//! - [`protocol`] — the versioned length-prefixed wire format
//!   (requests, replies, typed errors; never panics on malformed
//!   input). Byte-level spec in `docs/PROTOCOL.md`.
//! - [`pool`] — a bounded pool of warm [`Workspace`](mpx_decomp::Workspace)
//!   sessions with admission control (reject-when-full) and graceful
//!   drain.
//! - [`server`] — the TCP accept loop: mmap'd snapshots
//!   ([`mpx_compress::Snapshot`], any `.mpx` format) shared by all
//!   workers, per-connection scoped threads, trace spans
//!   (`serve.accept` / `serve.decode` / `serve.run` / `serve.encode`)
//!   on the mpx-trace layer, drain-on-shutdown with no leaked threads.
//! - [`client`] — blocking client used by `mpx loadgen`, the example,
//!   and the test harness.
//! - [`loadgen`] — concurrent load generator emitting p50/p99 latency
//!   and requests/sec as `BENCH_serve_*.json`.
//!
//! Everything is std-only, like the rest of the workspace.
//!
//! ```no_run
//! use mpx_compress::Snapshot;
//! use mpx_serve::{client::Client, protocol::PartitionRequest};
//! use mpx_serve::server::{Server, ServerConfig};
//!
//! let snap = Snapshot::open("graph.mpx").unwrap();
//! let server = Server::bind("127.0.0.1:0", vec![snap], ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client.partition(&PartitionRequest::new(0, 42, 0.1)).unwrap();
//! assert!(reply.clusters > 0);
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod pool;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, Reply};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use pool::{AdmissionError, PoolStats, SessionPool, WorkspaceLease};
pub use protocol::{
    ErrorCode, ErrorReply, FrameKind, PartitionReply, PartitionRequest, StatsReply, WireError,
};
pub use server::{Server, ServerConfig, ServerStats, ShutdownHandle};

/// The name the repository benchmark (`perfbench/`) imports for
/// [`mpx_compress::Snapshot`].
pub use mpx_compress::Snapshot as ServeSnapshot;
