//! The served workload (`serve-rmat16-v2`).
//!
//! Timed op: one `Client::partition` round trip. An in-process `mpx-serve`
//! server with [`WORKERS`] warm sessions serves a BFS-reordered compressed
//! v2 snapshot; [`CLIENTS`] connections run a closed loop, each sending its
//! next request only after the previous reply, with distinct seeds taken
//! in order from the op seed sequence.

use crate::layers::{Interleaved, RuntimeTotals};
use crate::report::{median, ms};
use crate::session::{layered_op, span_metrics, Arenas, EngineTotals};
use crate::workload::Seeds;
use crate::{decomp_options, radius_bound, Budget, Layers, OpQuality, Quality, Run, Timed};
use mpx_compress::MappedCompressedCsr;
use mpx_decomp::Workspace;
use mpx_graph::snapshot::{read_header, MappedCsr};
use mpx_serve::protocol::ErrorCode;
use mpx_serve::{
    Client, ClientError, PartitionReply, PartitionRequest, ServeSnapshot, Server, ServerConfig,
    ShutdownHandle,
};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client connections of the closed loop.
const CLIENTS: usize = 2;
/// Warm sessions of the server pool.
const WORKERS: usize = 2;
/// Times an `overloaded` reply is retried before the op counts as failed.
const OVERLOAD_RETRIES: usize = 3;
/// Replies whose labels are checked against an in-process run.
const LABEL_SAMPLES: u64 = 4;

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<io::Result<mpx_serve::ServerStats>>,
}

impl Running {
    /// Opens and audits the snapshot, binds an ephemeral local port and
    /// starts the accept loop (which prewarms every session first).
    fn start(path: &Path) -> io::Result<Running> {
        let snapshot = ServeSnapshot::open(path)?;
        let config = ServerConfig {
            workers: WORKERS,
            queue_depth: 2 * WORKERS,
            prewarm: true,
        };
        let server = Server::bind("127.0.0.1:0", vec![snapshot], config)?;
        let addr = server.local_addr()?;
        let handle = server.shutdown_handle()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle,
            thread,
        })
    }

    /// Drains the server and waits for its thread.
    fn stop(self) -> io::Result<mpx_serve::ServerStats> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// What the server must reply for a graph of `n` vertices.
#[derive(Clone, Copy)]
struct Expect {
    n: usize,
    m: usize,
}

/// One request, retried while the server answers `overloaded`, with the
/// reply checked: verified, unweighted, the right seed and size, radius
/// within the bound.
fn request(
    client: &mut Client,
    seed: u64,
    want_labels: bool,
    expect: Expect,
) -> Result<(PartitionReply, OpQuality), String> {
    let mut req = PartitionRequest::new(0, seed, crate::BETA);
    req.want_labels = want_labels;
    let mut attempt = 0;
    let reply = loop {
        match client.partition(&req) {
            Ok(reply) => break reply,
            Err(ClientError::Server(e))
                if e.code == ErrorCode::Overloaded && attempt < OVERLOAD_RETRIES =>
            {
                attempt += 1;
            }
            Err(e) => return Err(format!("seed {seed}: {e}")),
        }
    };
    if !reply.verified || reply.weighted || reply.seed != seed || reply.n != expect.n as u64 {
        return Err(format!("seed {seed}: unexpected reply {reply:?}"));
    }
    if reply.max_radius > radius_bound(expect.n) {
        return Err(format!(
            "seed {seed}: radius {} over bound",
            reply.max_radius
        ));
    }
    let quality = OpQuality::new(
        reply.cut_edges as usize,
        expect.m,
        reply.max_radius,
        expect.n,
    );
    Ok((reply, quality))
}

/// Per-client results of a closed loop.
#[derive(Default)]
struct ClientLoop {
    latencies_ms: Vec<f64>,
    quality: Quality,
    outcomes: Vec<Result<(), String>>,
}

/// Runs [`CLIENTS`] closed-loop connections against `addr` until `budget`
/// is spent. Op indices are handed out in order, so the seeds used are a
/// prefix of the op seed sequence. Returns the loops and their wall-clock.
fn closed_loop(
    seeds: Seeds,
    addr: SocketAddr,
    budget: Budget,
    expect: Expect,
) -> io::Result<(Vec<ClientLoop>, f64)> {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let loops = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> io::Result<ClientLoop> {
                    let mut client = Client::connect(addr)?;
                    let mut out = ClientLoop::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if budget.done(started, i) {
                            return Ok(out);
                        }
                        let t = Instant::now();
                        let outcome = request(&mut client, seeds.op(i), false, expect);
                        if let Ok((_, q)) = &outcome {
                            out.latencies_ms.push(ms(t.elapsed()));
                            out.quality.add(i, *q);
                        }
                        out.outcomes.push(outcome.map(drop));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((loops, started.elapsed().as_secs_f64()))
}

/// Checks [`LABEL_SAMPLES`] served label arrays byte for byte against an
/// in-process BitExact run of the same seed on the original (unreordered)
/// v1 snapshot, which the v2 permutation must map them back to.
fn check_labels(run: &mut Run, addr: SocketAddr, expect: Expect) -> io::Result<()> {
    let original = MappedCsr::open(&run.inputs.v1)?;
    let mut client = Client::connect(addr)?;
    let mut ws = Workspace::new();
    for i in 0..LABEL_SAMPLES {
        let seed = run.seeds.op(i);
        let outcome = request(&mut client, seed, true, expect).and_then(|(reply, _)| {
            let mut labels = reply
                .labels
                .ok_or(format!("seed {seed}: reply has no labels"))?;
            if run.inject_bad_label && i == crate::INJECT_AT {
                labels[0] ^= 1;
            }
            let (d, _) = ws.partition_view(&original, &decomp_options(seed));
            match labels == d.assignment() {
                true => Ok(()),
                false => Err(format!(
                    "seed {seed}: served labels differ from in-process run"
                )),
            }
        });
        run.tally.record(outcome);
    }
    Ok(())
}

/// Set-up and closed loop of the timed pass.
pub fn timed(run: &mut Run, budget: Budget) -> io::Result<Timed> {
    let header = read_header(&run.inputs.v2)?;
    let expect = Expect {
        n: header.n as usize,
        m: header.m as usize,
    };
    let mut setup_s = Vec::new();
    let mut kept: Option<Running> = None;
    for _ in 0..crate::SETUP_REPS {
        if let Some(server) = kept.take() {
            server.stop()?;
        }
        let started = Instant::now();
        let server = Running::start(&run.inputs.v2)?;
        let mut client = Client::connect(server.addr)?;
        let warm = request(&mut client, run.seeds.warmup(), false, expect);
        setup_s.push(started.elapsed().as_secs_f64());
        run.tally.record(warm.map(drop));
        kept = Some(server);
    }
    let server = kept.expect("at least one set-up");
    let (loops, loop_s) = closed_loop(run.seeds, server.addr, budget, expect)?;
    check_labels(run, server.addr, expect)?;
    server.stop()?;

    let mut latencies_ms = Vec::new();
    let mut quality = Quality::default();
    for l in loops {
        latencies_ms.extend(l.latencies_ms);
        quality.merge(l.quality);
        l.outcomes.into_iter().for_each(|o| run.tally.record(o));
    }
    Ok(Timed {
        setup_s,
        latencies_ms,
        loop_s,
        quality,
    })
}

/// Traced pass. Three phases: the served closed loop (client latency,
/// pool high-water marks, runtime counters under contention); the same
/// requests computed in-process, one public call per `bench:` span,
/// alternating traced and untraced ops; and the v2 decode overhead.
pub fn traced(run: &mut Run, budget: Budget, layers: &mut Layers) -> io::Result<()> {
    let mut open = Vec::new();
    for _ in 0..crate::OPEN_REPS {
        let t = Instant::now();
        std::hint::black_box(MappedCompressedCsr::open(&run.inputs.v2)?);
        open.push(ms(t.elapsed()));
    }
    let v2 = MappedCompressedCsr::open(&run.inputs.v2)?;
    let perm = v2
        .permutation()
        .ok_or_else(|| io::Error::other("v2 snapshot has no permutation"))?;
    let expect = Expect {
        n: v2.num_vertices(),
        m: v2.num_edges(),
    };
    layers.insert("compress.open_ms", median(&open));
    layers.insert("compress.bytes_per_arc", v2.bytes_per_arc());

    // Phase 1: served, untraced.
    let server = Running::start(&run.inputs.v2)?;
    let mut client = Client::connect(server.addr)?;
    run.tally
        .record(request(&mut client, run.seeds.warmup(), false, expect).map(drop));
    let before = mpx_runtime::stats::snapshot();
    let (loops, _) = closed_loop(
        run.seeds,
        server.addr,
        budget.share(0.4, crate::QUALITY_OPS),
        expect,
    )?;
    let delta = mpx_runtime::stats::snapshot().delta_since(&before);
    let stats = client
        .stats()
        .map_err(|e| io::Error::other(e.to_string()))?;
    server.stop()?;
    let mut client_ms = Vec::new();
    let mut served = 0;
    let mut quality = Quality::default();
    for l in loops {
        served += l.latencies_ms.len() as u64;
        quality.merge(l.quality);
        client_ms.extend(l.latencies_ms);
        l.outcomes.into_iter().for_each(|o| run.tally.record(o));
    }
    let mut runtime = RuntimeTotals::default();
    runtime.add(served, delta);
    layers.extend(runtime.metrics());
    layers.insert("cut_fraction", quality.cut_fraction());
    layers.insert("serve.client_p50_ms", median(&client_ms));
    layers.insert("serve.waiting_hwm", f64::from(stats.waiting_hwm));
    layers.insert("serve.in_flight_hwm", f64::from(stats.in_flight_hwm));
    layers.insert("serve.overload_replies", stats.rejected_overload as f64);

    // Phase 2: the same requests by direct library calls.
    let csr = v2.to_graph();
    let mut arenas = Arenas::default();
    let warm = layered_op(&v2, &csr, Some(perm), &mut arenas, run.seeds.warmup());
    run.tally.record(warm.outcome.map(drop));
    let mut engine = EngineTotals::default();
    let mut request_ms = Vec::new();
    let (seeds, tally) = (run.seeds, &mut run.tally);
    let ops = Interleaved::run(budget.share(0.45, 8), |i, traced| {
        let out = layered_op(&v2, &csr, Some(perm), &mut arenas, seeds.op(i));
        if !traced {
            request_ms.push(out.request_ms);
        }
        engine.add(&out.telemetry);
        tally.record(out.outcome.map(drop));
    });
    let inprocess = median(&request_ms);
    layers.extend(span_metrics(&ops.spans));
    layers.extend(engine.metrics(expect.n, 2 * expect.m as u64));
    layers.insert(
        "labels.remap_ms",
        ops.spans.ms_per_root("bench:labels.remap"),
    );
    layers.insert("serve.inprocess_ms", inprocess);
    layers.insert("serve.overhead_ms", median(&client_ms) - inprocess);
    layers.extend(ops.metrics());

    // Phase 3: engine time over the compressed view vs over the same
    // graph as a plain CSR, same seeds, alternating.
    let mut ws = Workspace::new();
    let (mut over_v2, mut over_csr) = (Vec::new(), Vec::new());
    let phase = budget.share(0.15, 4);
    let started = Instant::now();
    let mut i = 0;
    while !phase.done(started, i) {
        let opts = decomp_options(run.seeds.op(i));
        let t = Instant::now();
        let _ = std::hint::black_box(ws.partition_view(&v2, &opts));
        over_v2.push(ms(t.elapsed()));
        let t = Instant::now();
        let _ = std::hint::black_box(ws.partition_view(&csr, &opts));
        over_csr.push(ms(t.elapsed()));
        i += 1;
    }
    layers.insert(
        "compress.decode_overhead",
        median(&over_v2) / median(&over_csr),
    );
    Ok(())
}
