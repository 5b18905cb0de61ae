//! Integration tests of the `mpx-trace` observability layer against the
//! real engine: tracing must never perturb outputs, and the span-derived
//! counts must agree exactly with the engine telemetry — across every
//! traversal strategy and thread count, on both the unweighted and the
//! weighted pipelines.
//!
//! Trace sessions toggle process-global state, so every test that starts
//! one holds `TRACE_LOCK` (the library itself is re-entrant — a nested
//! session is passive — but concurrent tests would steal each other's
//! spans).

use mpx::decomp::{DecomposerBuilder, Traversal};
use mpx::graph::gen;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every CLI strategy token, including the `hybrid` and `topdown` aliases.
const STRATEGIES: [&str; 4] = ["auto", "parallel", "hybrid", "topdown"];

#[test]
fn traced_labels_identical_across_strategies_and_threads() {
    let _g = lock();
    let g = gen::grid2d(48, 48);
    for token in STRATEGIES {
        let strategy: Traversal = token.parse().unwrap();
        for threads in [1usize, 4] {
            let (untraced, traced, telemetry, trace) =
                mpx::runtime::Pool::new(threads).install(|| {
                    let mut session = DecomposerBuilder::new(0.2)
                        .seed(11)
                        .traversal(strategy)
                        .build(&g)
                        .unwrap();
                    let untraced = session.run_with_seed(11);
                    let (traced, telemetry, trace) = session.run_with_seed_traced(11);
                    (untraced, traced, telemetry, trace)
                });
            assert_eq!(
                traced, untraced,
                "tracing perturbed labels (strategy {token}, {threads} threads)"
            );
            assert!(trace.is_balanced(), "unbalanced spans ({token}, {threads})");
            assert_eq!(
                trace.span_count("engine.round") as u64,
                telemetry.rounds,
                "round spans vs telemetry ({token}, {threads})"
            );
            let span_relax = trace.sum_arg("engine.expand", "relaxations")
                + trace.sum_arg("engine.scan", "relaxations");
            assert_eq!(
                span_relax as u64, telemetry.relaxations,
                "relaxation args vs telemetry ({token}, {threads})"
            );
            assert_eq!(trace.counter("rounds"), Some(telemetry.rounds as f64));
        }
    }
}

#[test]
fn weighted_traced_labels_and_counts_agree() {
    let _g = lock();
    let g = gen::grid2d(40, 40);
    let edges: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(u, v)| (u, v, 1.0 + ((u * 7 + v) % 5) as f64 * 0.5))
        .collect();
    let wg = mpx::graph::WeightedCsrGraph::from_edges(g.num_vertices(), &edges);
    // Both strategies run Δ-stepping; the relax-mark invariant holds under
    // each.
    for strategy in [Traversal::Auto, Traversal::TopDownPar] {
        let mut session = DecomposerBuilder::new(0.3)
            .seed(5)
            .traversal(strategy)
            .build_weighted(&wg)
            .unwrap();
        let untraced = session.run_with_seed(5);
        let (traced, telemetry, trace) = session.run_with_seed_traced(5);
        assert_eq!(traced.assignment, untraced.assignment);
        assert!(traced
            .dist_to_center
            .iter()
            .zip(&untraced.dist_to_center)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(trace.is_balanced());
        assert_eq!(
            trace.span_count("wengine.phase") as u64,
            telemetry.phases,
            "phase spans vs telemetry ({strategy:?})"
        );
        assert_eq!(
            trace.sum_mark_arg("wengine.relax", "count") as u64,
            telemetry.relaxations,
            "relax marks vs telemetry ({strategy:?})"
        );
    }
}

#[test]
fn trace_json_round_trips_through_the_vendored_parser() {
    let _g = lock();
    let g = gen::grid2d(24, 24);
    let mut session = DecomposerBuilder::new(0.25).seed(3).build(&g).unwrap();
    let (_, telemetry, trace) = session.run_with_seed_traced(3);

    let parsed = mpx::trace::json::parse(&trace.to_json()).expect("exporter emits valid JSON");
    assert_eq!(parsed.get("version").and_then(|v| v.as_f64()), Some(1.0));
    let spans = parsed
        .get("spans")
        .and_then(|s| s.as_array())
        .expect("spans array");
    assert_eq!(spans.len(), trace.spans.len());
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(|n| n.as_str()) == Some("engine.round")));
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(
        counters.get("rounds").and_then(|v| v.as_f64()),
        Some(telemetry.rounds as f64)
    );

    // The Chrome export is a JSON array of complete events.
    let chrome = mpx::trace::json::parse(&trace.to_chrome_json()).unwrap();
    let events = chrome.as_array().expect("chrome export is an array");
    assert_eq!(events.len(), trace.spans.len() + trace.marks.len());
    assert!(events
        .iter()
        .all(|e| matches!(e.get("ph").and_then(|p| p.as_str()), Some("X") | Some("i"))));
}

#[test]
fn nested_sessions_are_passive_and_outer_collects_everything() {
    let _g = lock();
    let g = gen::grid2d(20, 20);
    let outer = mpx::trace::start();
    let mut session = DecomposerBuilder::new(0.2).seed(2).build(&g).unwrap();
    let baseline = session.run_with_seed(2);
    // The traced run nests under the active outer session: its own trace
    // comes back empty, the spans flow to the outer collector, and the
    // labels are still bit-identical.
    let (traced, telemetry, inner_trace) = session.run_with_seed_traced(2);
    assert_eq!(traced, baseline);
    assert!(inner_trace.spans.is_empty());
    let trace = outer.finish();
    assert!(trace.is_balanced());
    assert_eq!(
        trace.span_count("engine.partition"),
        2,
        "outer session sees both runs"
    );
    assert!(trace.span_count("engine.round") as u64 >= telemetry.rounds);
}

#[test]
fn profiled_runs_match_plain_runs_and_summarize_latency() {
    let _g = lock();
    let g = gen::grid2d(32, 32);
    let seeds: Vec<u64> = (10..18).collect();
    let mut session = DecomposerBuilder::new(0.2).seed(1).build(&g).unwrap();
    let plain = session.run_many(&seeds);
    let (profiled, report) = session.run_many_profiled(&seeds);
    assert_eq!(profiled, plain, "profiling perturbed the outputs");
    assert_eq!(report.samples.len(), seeds.len());
    assert!(report.samples.iter().all(|s| s.ms > 0.0 && s.rounds > 0));
    assert!(report.latency.min_ms <= report.latency.p50_ms);
    assert!(report.latency.p50_ms <= report.latency.p99_ms);
    assert!(report.latency.p99_ms <= report.latency.max_ms);
    assert!(report.max_rounds() >= report.samples[0].rounds);
}

#[test]
fn shift_generation_is_one_span_per_run_naming_its_id_space() {
    let _g = lock();
    let g = gen::grid2d(24, 24);
    let new_to_old: Vec<u32> = (0..g.num_vertices() as u32).rev().collect();
    let opts = mpx::decomp::DecompOptions::new(0.25).with_seed(3);
    let session = mpx::trace::start();
    let mut ws = mpx::decomp::Workspace::new();
    let _ = ws.partition_view(&g, &opts);
    let _ = ws.partition_view_permuted(&g, &opts, &new_to_old);
    let trace = session.finish();
    let args: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "shift.regenerate")
        .map(|s| s.args.clone())
        .collect();
    let n = mpx::trace::Value::U64(g.num_vertices() as u64);
    assert_eq!(
        args,
        [false, true].map(|permuted| vec![("n", n), ("permuted", permuted.into())])
    );
}
