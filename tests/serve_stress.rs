//! Concurrent-correctness stress: N client threads × M requests with
//! mixed seeds/strategies/determinism modes against one server over two
//! snapshots (unweighted + weighted). Every per-seed label vector must
//! be byte-identical no matter which mode asked for it, which worker
//! session served it or how requests interleaved — and equal to an
//! in-process BitExact reference run. The pool must never exceed its
//! configured session count.

mod serve_common;

use mpx::decomp::{DecompOptions, Determinism, Traversal};
use mpx::serve::protocol::PartitionRequest;
use mpx::serve::Client;
use serve_common::TestServer;
use std::collections::HashMap;
use std::sync::Mutex;

const WORKERS: usize = 3;
const QUEUE: usize = 16;
const CLIENT_THREADS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
const SEED_SPACE: u64 = 5; // few distinct seeds → heavy cross-thread overlap
const BETA: f64 = 0.25;

const STRATEGIES: [Traversal; 2] = [Traversal::Auto, Traversal::TopDownPar];
const MODES: [Determinism; 2] = [Determinism::BitExact, Determinism::Fast];

#[test]
fn concurrent_bitexact_labels_are_byte_identical_across_workers() {
    let unweighted = mpx::graph::gen::grid2d(48, 48);
    let weighted = serve_common::weighted_gnm(1500, 6000, 11);
    let snap_u = serve_common::temp_snapshot("stress_u", &unweighted);
    let snap_w = serve_common::temp_weighted_snapshot("stress_w", &weighted);
    // No prewarm: the in-flight high-water mark must come from client
    // traffic for the ≥2-sessions assertion below to mean anything.
    let server = TestServer::start_opts(&[&snap_u, &snap_w], WORKERS, QUEUE, false);
    let addr = server.addr;

    // In-process references, per (snapshot, seed). Labels never depend
    // on traversal strategy, determinism mode or thread schedule, so one
    // reference per seed covers every combination the clients mix in.
    let mut reference: HashMap<(u32, u64), Vec<u32>> = HashMap::new();
    let mut ws = mpx::decomp::Workspace::new();
    for seed in 0..SEED_SPACE {
        let opts = DecompOptions::new(BETA).with_seed(seed);
        let (d, _) = ws.partition_view(&unweighted, &opts);
        reference.insert((0, seed), d.assignment().to_vec());
        let (dw, _) = ws.partition_weighted_view(&weighted, &opts);
        reference.insert((1, seed), dw.assignment.clone());
    }

    // served[(snapshot, seed)] -> every label vector any thread got back.
    type ServedLabels = HashMap<(u32, u64), Vec<Vec<u32>>>;
    let served: Mutex<ServedLabels> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let served = &served;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("stress client connect");
                for i in 0..REQUESTS_PER_CLIENT {
                    let k = t * REQUESTS_PER_CLIENT + i;
                    let seed = (k as u64 * 7 + t as u64) % SEED_SPACE;
                    let snapshot = (k % 2) as u32;
                    let mut req = PartitionRequest::new(snapshot, seed, BETA);
                    // `k / 2` and `k / 4`: the snapshot alternates with
                    // `k`, so each snapshot sees every strategy in both
                    // determinism modes.
                    req.traversal = STRATEGIES[(k / 2) % STRATEGIES.len()];
                    req.determinism = MODES[(k / 4) % MODES.len()];
                    req.want_labels = true;
                    let reply = client.partition(&req).expect("stress request");
                    assert_eq!(reply.snapshot, snapshot);
                    assert_eq!(reply.seed, seed);
                    assert!(reply.verified, "server-side verify must run and pass");
                    assert_eq!(reply.weighted, snapshot == 1);
                    let labels = reply.labels.expect("labels were requested");
                    served
                        .lock()
                        .unwrap()
                        .entry((snapshot, seed))
                        .or_default()
                        .push(labels);
                }
            });
        }
    });

    // Every label vector for a (snapshot, seed) is byte-identical to the
    // in-process reference — worker identity and interleaving invisible.
    let served = served.into_inner().unwrap();
    let mut checked = 0usize;
    for ((snapshot, seed), vectors) in &served {
        let expected = &reference[&(*snapshot, *seed)];
        for v in vectors {
            assert_eq!(
                v, expected,
                "snapshot {snapshot} seed {seed}: served labels diverge from reference"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, CLIENT_THREADS * REQUESTS_PER_CLIENT);

    // The pool never over-admitted: concurrent checkouts stayed within
    // the configured session count (and the load was actually
    // concurrent — more than one session saw use).
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.workers, WORKERS as u32);
    assert!(
        stats.in_flight_hwm <= WORKERS as u32,
        "pool exceeded its session count: {stats:?}"
    );
    assert!(
        stats.in_flight_hwm >= 2,
        "load never exercised ≥2 worker sessions: {stats:?}"
    );
    assert_eq!(stats.served, (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(stats.protocol_errors, 0);
    c.shutdown().unwrap();

    let final_stats = server.join();
    assert_eq!(
        final_stats.served,
        (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64
    );
    assert!(final_stats.in_flight_hwm <= WORKERS as u32);
    assert_eq!(final_stats.verify_failures, 0);
    std::fs::remove_file(&snap_u).ok();
    std::fs::remove_file(&snap_w).ok();
}
