//! Backpressure and shutdown: a full bounded queue rejects promptly
//! with a typed reply; shutdown mid-load lets the in-flight request
//! finish, releases the queued one with a drain reply, closes the
//! listener, and leaves no threads running (Server::run only returns
//! after its thread::scope joins every connection handler; runtime
//! stats confirm quiescence afterwards).

mod serve_common;

use mpx::serve::protocol::{ErrorCode, PartitionRequest};
use mpx::serve::Client;
use serve_common::TestServer;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A request heavy enough (many rounds on a quarter-million-vertex
/// grid) that the admission-control choreography below usually completes
/// while it is still running.
const HEAVY_SIDE: usize = 400;
const HEAVY_BETA: f64 = 0.02;

/// Fresh servers the choreography may take before the test gives up. An
/// attempt is inconclusive only when the heavy request releases the
/// worker before the choreography has run its course.
const ATTEMPTS: usize = 8;

fn heavy_request() -> PartitionRequest {
    // skip_verify: the point is occupancy, not the verifier.
    let mut req = PartitionRequest::new(0, 1, HEAVY_BETA);
    req.skip_verify = true;
    req
}

/// Polls server stats every 5 ms until `pred` holds and returns the
/// stats it held on.
fn poll_stats(
    addr: std::net::SocketAddr,
    pred: impl Fn(&mpx::serve::StatsReply) -> bool,
) -> mpx::serve::StatsReply {
    let mut c = Client::connect(addr).expect("stats client");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = c.stats().expect("stats request");
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting on stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn backpressure_rejects_promptly_and_shutdown_drains() {
    let g = mpx::graph::gen::grid2d(HEAVY_SIDE, HEAVY_SIDE);
    let snap = serve_common::temp_snapshot("backpressure", &g);
    let mut inconclusive = Vec::new();
    let conclusive = (0..ATTEMPTS).any(|_| match backpressure_attempt(&snap) {
        Ok(()) => true,
        Err(why) => {
            inconclusive.push(why);
            false
        }
    });
    std::fs::remove_file(&snap).ok();
    assert!(
        conclusive,
        "no conclusive attempt in {ATTEMPTS}: {inconclusive:?}"
    );
}

/// One run of the choreography on a fresh server. Every check must hold
/// unless the heavy request A releases the only worker too early: before
/// B is seen waiting behind it, B takes the worker instead of the queue
/// slot; later, B runs and D takes the freed queue slot, or B runs
/// instead of being drained. The attempt then stops its server and
/// returns why it was inconclusive.
fn backpressure_attempt(snap: &std::path::Path) -> Result<(), &'static str> {
    // One worker, queue of one: the third concurrent request must be
    // rejected, not parked.
    let server = TestServer::start(&[snap], 1, 1);
    let addr = server.addr;

    let outcome = std::thread::scope(|scope| {
        // A: occupies the only worker session.
        let a = scope.spawn(move || {
            let mut c = Client::connect(addr).expect("A connect");
            c.partition(&heavy_request())
        });
        if poll_stats(addr, |s| s.in_flight == 1 || s.served >= 1).served >= 1 {
            return Err("A finished before it was seen in flight");
        }

        // B: queues behind A (fills the wait queue).
        let b = scope.spawn(move || {
            let mut c = Client::connect(addr).expect("B connect");
            c.partition(&heavy_request())
        });
        let seen = poll_stats(addr, |s| {
            (s.waiting == 1 && s.in_flight == 1) || s.served >= 1
        });
        if seen.served >= 1 {
            return Err("A finished before B was seen waiting");
        }

        // D: queue full — typed overloaded reply, and promptly (well
        // under the heavy request's runtime; generous bound for CI).
        let mut d = Client::connect(addr).expect("D connect");
        let t0 = Instant::now();
        let err = match d.partition(&heavy_request()) {
            Err(err) => err,
            Ok(_) => {
                // Admission is legal only once B has left the queue for
                // the worker A released; never beside them.
                let stats = d.stats().expect("stats after D ran");
                assert_eq!(
                    (stats.in_flight_hwm, stats.waiting_hwm),
                    (1, 1),
                    "third concurrent request must be rejected: {stats:?}"
                );
                return Err("A finished before D arrived");
            }
        };
        let rejected_after = t0.elapsed();
        assert_eq!(
            err.as_server_error().map(|e| e.code),
            Some(ErrorCode::Overloaded),
            "expected overloaded, got {err}"
        );
        assert!(
            rejected_after < Duration::from_secs(5),
            "overload rejection took {rejected_after:?} — admission control is not prompt"
        );
        // The rejecting connection itself stays usable for stats.
        let stats = d.stats().expect("stats on the rejected connection");
        assert_eq!(stats.rejected_overload, 1);

        // Shutdown mid-load.
        let mut c = Client::connect(addr).expect("shutdown client");
        c.shutdown().expect("shutdown ack");

        // A (in flight) completes successfully.
        let a_reply = a
            .join()
            .expect("A thread")
            .expect("in-flight request must finish");
        assert!(a_reply.clusters > 0);
        // B (queued) gets the typed drain reply.
        let Err(b_err) = b.join().expect("B thread") else {
            return Err("A finished before the drain, so B ran");
        };
        assert_eq!(
            b_err.as_server_error().map(|e| e.code),
            Some(ErrorCode::ShuttingDown),
            "expected shutting_down, got {b_err}"
        );
        Ok(())
    });
    if outcome.is_err() {
        server.handle.shutdown();
        server.join();
        return outcome;
    }

    // run() returned ⇒ its thread::scope joined every connection
    // handler: no leaked threads by construction.
    let stats = server.join();
    assert_eq!(stats.served, 1, "only A ran: {stats:?}");
    assert_eq!(stats.rejected_overload, 1, "{stats:?}");
    assert!(
        stats.drained >= 1,
        "B must be counted as drained: {stats:?}"
    );
    assert_eq!(stats.in_flight_hwm, 1, "single worker ⇒ hwm 1: {stats:?}");
    assert_eq!(stats.verify_failures, 0);

    // Listener is closed.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "listener must be closed after shutdown"
    );

    // Runtime quiescence: no stray worker keeps dispatching parallel
    // regions after the server is gone.
    let before = mpx::runtime::stats::snapshot();
    std::thread::sleep(Duration::from_millis(200));
    let after = mpx::runtime::stats::snapshot();
    assert_eq!(
        after.delta_since(&before).regions,
        0,
        "parallel regions ran after server shutdown — leaked worker?"
    );
    Ok(())
}

/// Shutdown with no load: immediate, clean, zero served.
#[test]
fn idle_shutdown_is_immediate() {
    let g = mpx::graph::gen::grid2d(16, 16);
    let snap = serve_common::temp_snapshot("idle", &g);
    let server = TestServer::start(&[&snap], 2, 2);
    let addr = server.addr;

    let t0 = Instant::now();
    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    let stats = server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "idle shutdown took {:?}",
        t0.elapsed()
    );
    assert_eq!(stats.served, 0);
    assert_eq!(stats.drained, 0);
    std::fs::remove_file(&snap).ok();
}

/// The out-of-band [`ShutdownHandle`] (no client involved) also drains
/// cleanly — this is what Ctrl-C handling or an operator task would use.
#[test]
fn shutdown_handle_stops_the_server() {
    let g = mpx::graph::gen::grid2d(16, 16);
    let snap = serve_common::temp_snapshot("handle", &g);
    let server = TestServer::start(&[&snap], 1, 1);
    let addr = server.addr;

    // Serve something first so the path is warm.
    let mut c = Client::connect(addr).unwrap();
    let reply = c.partition(&PartitionRequest::new(0, 3, 0.5)).unwrap();
    assert!(reply.clusters > 0);
    drop(c);

    server.handle.shutdown();
    let stats = server.join();
    assert_eq!(stats.served, 1);
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "listener must be closed after handle shutdown"
    );
    std::fs::remove_file(&snap).ok();
}
