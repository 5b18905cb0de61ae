//! The TCP decomposition server: snapshot registry, accept loop,
//! per-connection frame dispatch, graceful drain.
//!
//! Design notes:
//!
//! - **Connections are cheap, sessions are scarce.** Each accepted
//!   connection gets a scoped thread that parses frames; the expensive
//!   resource — a warm [`Workspace`](mpx_decomp::Workspace) — is only
//!   held for the duration of one partition request, checked out of the
//!   bounded [`SessionPool`].
//! - **Snapshots are shared and immutable.** Every worker runs straight
//!   off the same mmap'd pages of a [`Snapshot`] (each of its readers
//!   implements `GraphView`); nothing is copied per request.
//! - **Shutdown is a drain, not an abort.** The shutdown frame (or
//!   [`ShutdownHandle::shutdown`]) closes the listener, releases queued
//!   checkouts with a typed reply, lets in-flight requests finish, and
//!   joins every connection thread before [`Server::run`] returns —
//!   which is what lets the tests assert "no leaked threads" from the
//!   returned [`ServerStats`].

use crate::pool::{AdmissionError, SessionPool};
use crate::protocol::{
    self, ErrorCode, ErrorReply, FrameKind, PartitionReply, PartitionRequest, StatsReply,
    WireError, FRAME_HEADER_LEN,
};
use mpx_compress::Snapshot;
use mpx_decomp::{verify_decomposition, verify_weighted, DecompOptions, VerifyReport};
use mpx_graph::{GraphView, Vertex};
use mpx_trace::{record_event, SpanGuard, Value};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often a blocked connection read wakes up to check the shutdown
/// flag. Bounds shutdown latency without costing steady-state work.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Warm worker sessions in the pool. Default: the runtime's default
    /// thread count.
    pub workers: usize,
    /// Bound on checkouts waiting for a session before admission
    /// control replies `overloaded`. Default: `2 × workers`.
    pub queue_depth: usize,
    /// Run one tiny decomposition per workspace at startup so the first
    /// real request doesn't pay the arena warm-up.
    pub prewarm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = mpx_runtime::default_threads().max(1);
        ServerConfig {
            workers,
            queue_depth: 2 * workers,
            prewarm: true,
        }
    }
}

/// Final counters returned by [`Server::run`] after the drain
/// completes. All connection threads are joined by then, so these are
/// exact, not racy snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Partition requests served successfully.
    pub served: u64,
    /// Framing-level protocol errors observed (bad magic/version/kind,
    /// oversized, truncated, undecodable payloads).
    pub protocol_errors: u64,
    /// Requests rejected by admission control.
    pub rejected_overload: u64,
    /// Queued requests released by the drain.
    pub drained: u64,
    /// Decompositions that failed server-side verification.
    pub verify_failures: u64,
    /// High-water mark of concurrently leased sessions (≤ configured
    /// workers, by construction — the stress suite pins this).
    pub in_flight_hwm: u32,
    /// High-water mark of the admission wait queue.
    pub waiting_hwm: u32,
    /// Total successful session checkouts.
    pub checkouts: u64,
}

/// Handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Requests a drain: sets the stop flag and pokes the listener with
    /// a throwaway connection so a parked `accept` observes it.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Failure just means the listener is already gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

struct Counters {
    connections: AtomicU64,
    served: AtomicU64,
    protocol_errors: AtomicU64,
    verify_failures: AtomicU64,
}

/// A bound-but-not-yet-running decomposition server.
pub struct Server {
    listener: TcpListener,
    snapshots: Vec<Snapshot>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener. `addr` may be `"127.0.0.1:0"` for an
    /// ephemeral port — read it back with [`local_addr`](Server::local_addr).
    ///
    /// # Errors
    ///
    /// Fails on bind errors or an empty snapshot list.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        snapshots: Vec<Snapshot>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if snapshots.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs at least one snapshot",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            snapshots,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.stop),
            addr: self.local_addr()?,
        })
    }

    /// Runs the accept loop until a shutdown frame arrives or the
    /// [`ShutdownHandle`] fires, then drains: in-flight requests
    /// complete, queued ones get `shutting_down`, every connection
    /// thread is joined. Returns the final counters.
    pub fn run(self) -> io::Result<ServerStats> {
        let pool = SessionPool::new(self.config.workers, self.config.queue_depth);
        if self.config.prewarm {
            prewarm(&pool, &self.snapshots);
        }
        let counters = Counters {
            connections: AtomicU64::new(0),
            served: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
        };
        let shared = Shared {
            pool: &pool,
            snapshots: &self.snapshots,
            config: self.config,
            stop: &self.stop,
            counters: &counters,
        };

        std::thread::scope(|scope| -> io::Result<()> {
            loop {
                let (stream, peer) = match self.listener.accept() {
                    Ok(pair) => pair,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if self.stop.load(Ordering::SeqCst) {
                    // The wake-up connection itself (or a late client);
                    // refuse politely and stop accepting.
                    let _ =
                        reply_error(&mut &stream, ErrorCode::ShuttingDown, "server is draining");
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                record_event(
                    "serve.accept",
                    &[("port", Value::U64(u64::from(peer.port())))],
                );
                let shared = &shared;
                scope.spawn(move || handle_connection(stream, shared));
            }
            // Listener closed: release queued checkouts, let in-flight
            // requests finish. Scope exit joins all handler threads —
            // each observes `stop` within POLL_INTERVAL.
            shared.pool.drain();
            shared.pool.wait_idle();
            Ok(())
        })?;

        let ps = pool.stats();
        Ok(ServerStats {
            connections: counters.connections.load(Ordering::Relaxed),
            served: counters.served.load(Ordering::Relaxed),
            protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
            rejected_overload: ps.rejected_overload,
            drained: ps.drained,
            verify_failures: counters.verify_failures.load(Ordering::Relaxed),
            in_flight_hwm: ps.in_flight_hwm,
            waiting_hwm: ps.waiting_hwm,
            checkouts: ps.checkouts,
        })
    }
}

/// Everything a connection handler needs, borrowed for the scope of
/// [`Server::run`].
struct Shared<'a> {
    pool: &'a SessionPool,
    snapshots: &'a [Snapshot],
    config: ServerConfig,
    stop: &'a AtomicBool,
    counters: &'a Counters,
}

fn prewarm(pool: &SessionPool, snapshots: &[Snapshot]) {
    // Checkout every lease at once so each distinct workspace warms up
    // (a sequential checkout/return loop would reuse the same one).
    let mut leases: Vec<_> = (0..pool.workers())
        .map(|_| pool.checkout().expect("prewarm checkout on a fresh pool"))
        .collect();
    let opts = DecompOptions::new(0.5).with_seed(0);
    for lease in &mut leases {
        for snap in snapshots {
            match snap {
                Snapshot::Unweighted(m) => {
                    let _ = lease.partition_view(m, &opts);
                }
                Snapshot::Weighted(m) => {
                    let _ = lease.partition_weighted_view(m, &opts);
                }
                Snapshot::Compressed(m) => {
                    let _ = lease.partition_view(m, &opts);
                }
            }
        }
    }
}

/// Reads exactly `buf.len()` bytes from a stream that has a read
/// timeout, polling `stop` between timeouts. Partial data survives
/// timeout wake-ups — frame sync is never lost. Returns:
///
/// - `Ok(true)` — buffer filled;
/// - `Ok(false)` — stop requested while **zero** bytes of this buffer
///   had arrived (a clean point to close);
/// - `Err(Closed | Truncated | Io)` — peer closed or socket error.
fn read_full(
    stream: &mut &TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    eof_ok_at_start: bool,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && eof_ok_at_start {
                    WireError::Closed
                } else {
                    WireError::Truncated
                })
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if filled == 0 && stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
                // Mid-frame: keep reading even during a drain — the
                // frame is already on the wire and deserves its typed
                // reply.
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

fn handle_connection(stream: TcpStream, shared: &Shared<'_>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut reader = &stream;
    loop {
        // Read one frame, poll-aware.
        let mut header = [0u8; FRAME_HEADER_LEN];
        match read_full(&mut reader, &mut header, shared.stop, true) {
            Ok(true) => {}
            Ok(false) | Err(WireError::Closed) => break,
            Err(_) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        let decode_span = SpanGuard::enter("serve.decode", &[]);
        // Framing fields (magic/version/length) first: if those are
        // broken the byte stream can't be resynchronized — reply once
        // and close. A merely unknown *kind* keeps the stream in sync,
        // so its payload is consumed and the connection stays usable.
        let (kind_raw, len) = match protocol::parse_header_prefix(&header) {
            Ok(pair) => pair,
            Err(e) => {
                drop(decode_span);
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let code = e.code().expect("header-prefix errors all map to codes");
                let _ = reply_error(&mut reader, code, e.to_string());
                break; // all header-prefix errors are fatal
            }
        };
        let mut payload = vec![0u8; len];
        match read_full(&mut reader, &mut payload, shared.stop, false) {
            Ok(true) => {}
            // Shutdown before any payload byte arrived: the request
            // never fully landed, drop the connection.
            Ok(false) => {
                drop(decode_span);
                break;
            }
            Err(e) => {
                drop(decode_span);
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(code) = e.code() {
                    let _ = reply_error(&mut reader, code, e.to_string());
                }
                break;
            }
        }
        let Some(kind) = FrameKind::from_u16(kind_raw) else {
            drop(decode_span);
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let msg = format!("unknown frame kind {kind_raw}");
            if reply_error(&mut reader, ErrorCode::BadKind, msg).is_err() {
                break;
            }
            continue;
        };
        drop(decode_span);

        match kind {
            FrameKind::Partition => {
                if !handle_partition(&mut reader, &payload, shared) {
                    break;
                }
            }
            FrameKind::Stats => {
                // Served without a pool checkout so stats stay
                // responsive under full load.
                let stats = snapshot_stats(shared);
                if protocol::write_frame(&mut reader, FrameKind::StatsReply, &stats.encode())
                    .is_err()
                {
                    break;
                }
            }
            FrameKind::Shutdown => {
                let _ = protocol::write_frame(&mut reader, FrameKind::ShutdownReply, &[]);
                shared.stop.store(true, Ordering::SeqCst);
                // Poke the accept loop awake.
                if let Ok(addr) = stream.local_addr() {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
                break;
            }
            FrameKind::PartitionReply
            | FrameKind::StatsReply
            | FrameKind::ShutdownReply
            | FrameKind::Error => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let msg = format!("kind {} is a reply, not a request", kind.as_u16());
                if reply_error(&mut reader, ErrorCode::BadKind, msg).is_err() {
                    break;
                }
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one partition request. Returns false when the connection
/// should close (write failure).
fn handle_partition(stream: &mut &TcpStream, payload: &[u8], shared: &Shared<'_>) -> bool {
    let req = match PartitionRequest::decode(payload) {
        Ok(req) => req,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return reply_error(stream, ErrorCode::BadPayload, e.to_string()).is_ok();
        }
    };
    let Some(snapshot) = shared.snapshots.get(req.snapshot as usize) else {
        let msg = format!(
            "snapshot {} not loaded ({} available)",
            req.snapshot,
            shared.snapshots.len()
        );
        return reply_error(stream, ErrorCode::UnknownSnapshot, msg).is_ok();
    };
    let opts = match build_options(&req, snapshot) {
        Ok(opts) => opts,
        Err(msg) => return reply_error(stream, ErrorCode::InvalidConfig, msg).is_ok(),
    };

    let mut lease = match shared.pool.checkout() {
        Ok(lease) => lease,
        Err(AdmissionError::Overloaded) => {
            let msg = format!("session queue full ({} waiting)", shared.config.queue_depth);
            return reply_error(stream, ErrorCode::Overloaded, msg).is_ok();
        }
        Err(AdmissionError::Draining) => {
            // The stop flag is already set by the time the pool drains;
            // reply and let the connection wind down.
            let _ = reply_error(stream, ErrorCode::ShuttingDown, "server is draining");
            return false;
        }
    };

    let run_span = SpanGuard::enter(
        "serve.run",
        &[
            ("snapshot", Value::U64(u64::from(req.snapshot))),
            ("seed", Value::U64(req.seed)),
        ],
    );
    let outcome = run_partition(&mut lease, snapshot, &req, &opts);
    drop(run_span);
    drop(lease);

    match outcome {
        Ok(reply) => {
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            let encode_span = SpanGuard::enter("serve.encode", &[]);
            let bytes = reply.encode();
            drop(encode_span);
            protocol::write_frame(stream, FrameKind::PartitionReply, &bytes).is_ok()
        }
        Err(msg) => {
            shared
                .counters
                .verify_failures
                .fetch_add(1, Ordering::Relaxed);
            reply_error(stream, ErrorCode::VerifyFailed, msg).is_ok()
        }
    }
}

fn build_options(req: &PartitionRequest, snapshot: &Snapshot) -> Result<DecompOptions, String> {
    let opts = DecompOptions::try_new(req.beta)
        .map_err(|e| e.to_string())?
        .with_seed(req.seed)
        .with_traversal(req.traversal)
        .with_determinism(req.determinism);
    opts.validate_for(snapshot.num_vertices(), snapshot.num_edges())
        .map_err(|e| e.to_string())?;
    Ok(opts)
}

/// Runs the decomposition and builds the reply; `Err` is a verification
/// failure message.
fn run_partition(
    ws: &mut mpx_decomp::Workspace,
    snapshot: &Snapshot,
    req: &PartitionRequest,
    opts: &DecompOptions,
) -> Result<PartitionReply, String> {
    match snapshot {
        Snapshot::Unweighted(m) => run_unweighted(ws, m, None, req, opts),
        Snapshot::Compressed(m) => run_unweighted(ws, m, m.permutation(), req, opts),
        Snapshot::Weighted(m) => {
            let (d, tel) = ws.partition_weighted_view(m, opts);
            let verified = if req.skip_verify {
                false
            } else {
                verify_weighted(m, &d)?;
                true
            };
            Ok(PartitionReply {
                snapshot: req.snapshot,
                seed: req.seed,
                n: m.num_vertices() as u64,
                clusters: d.num_clusters() as u64,
                max_radius: d.max_radius(),
                cut_edges: d.cut_edges(m) as u64,
                rounds: tel.phases,
                relaxations: tel.relaxations,
                weighted: true,
                verified,
                labels: req.want_labels.then(|| d.assignment.clone()),
            })
        }
    }
}

/// The unweighted run shared by the raw and compressed arms. `perm` is
/// the snapshot's `new id → original id` section when it was reordered:
/// shifts then follow original ids ([`mpx_decomp::Workspace::partition_view_permuted`])
/// and returned labels are remapped, so replies are byte-identical to
/// serving the unreordered graph. Stats (cut, radius, rounds) are
/// permutation-invariant and come from the view's own id space.
///
/// Unless the request skips it, the full verifier runs over the mapped
/// view — partition, strong diameter, Lemma 4.1 — plus the radius bound,
/// and its scan supplies the cut count.
fn run_unweighted<V: GraphView>(
    ws: &mut mpx_decomp::Workspace,
    m: &V,
    perm: Option<&[Vertex]>,
    req: &PartitionRequest,
    opts: &DecompOptions,
) -> Result<PartitionReply, String> {
    let (d, tel) = match perm {
        Some(p) => ws.partition_view_permuted(m, opts, p),
        None => ws.partition_view(m, opts),
    };
    let (cut_edges, max_radius) = if req.skip_verify {
        (d.cut_edges_view(m), d.max_radius())
    } else {
        let report = verify_decomposition(m, &d);
        if let Some(e) = report.errors.first() {
            return Err(e.clone());
        }
        let radius = u64::from(report.max_radius);
        let bound = VerifyReport::radius_bound(m.num_vertices(), req.beta);
        if radius > bound {
            return Err(format!("max radius {radius} exceeds bound {bound}"));
        }
        (report.cut_edges, report.max_radius)
    };
    Ok(PartitionReply {
        snapshot: req.snapshot,
        seed: req.seed,
        n: m.num_vertices() as u64,
        clusters: d.num_clusters() as u64,
        max_radius: f64::from(max_radius),
        cut_edges: cut_edges as u64,
        rounds: tel.rounds,
        relaxations: tel.relaxations,
        weighted: false,
        verified: !req.skip_verify,
        labels: req.want_labels.then(|| match perm {
            Some(p) => d.remap_labels(p).assignment().to_vec(),
            None => d.assignment().to_vec(),
        }),
    })
}

fn snapshot_stats(shared: &Shared<'_>) -> StatsReply {
    let ps = shared.pool.stats();
    StatsReply {
        workers: ps.workers,
        queue_depth: ps.queue_depth,
        in_flight: ps.in_flight,
        in_flight_hwm: ps.in_flight_hwm,
        waiting: ps.waiting,
        waiting_hwm: ps.waiting_hwm,
        connections: shared.counters.connections.load(Ordering::Relaxed),
        served: shared.counters.served.load(Ordering::Relaxed),
        rejected_overload: ps.rejected_overload,
        drained: ps.drained,
        protocol_errors: shared.counters.protocol_errors.load(Ordering::Relaxed),
        checkouts: ps.checkouts,
        snapshots: shared.snapshots.len() as u32,
    }
}

fn reply_error<W: Write>(w: &mut W, code: ErrorCode, message: impl Into<String>) -> io::Result<()> {
    let reply = ErrorReply::new(code, message);
    protocol::write_frame(w, FrameKind::Error, &reply.encode())
}
