//! The weighted workload (`weighted-rmat14`).
//!
//! Timed op: `WeightedDecomposer::run_with_seed` (Δ-stepping under
//! `auto`), then `verify_weighted`, then a cut count, on one warm session
//! over a mmap'd weighted v1 snapshot.

use crate::layers::{open_metrics, Interleaved};
use crate::report::ms;
use crate::{
    decomp_options, invalid, radius_bound, Budget, Layers, OpQuality, Quality, Run, Timed,
};
use mpx_decomp::wengine::partition_weighted_view_reusing;
use mpx_decomp::{
    verify_weighted, DecomposerBuilder, ExpShifts, WeightedDecomposition, WeightedScratch,
    WeightedTelemetry,
};
use mpx_graph::{GraphView, MappedWeightedCsr, WeightedGraphView};
use std::io;
use std::time::Instant;

/// Verifier verdict, radius bound, and quality figures of one run.
fn check<W: WeightedGraphView>(
    view: &W,
    d: &WeightedDecomposition,
    seed: u64,
) -> Result<OpQuality, String> {
    judge(view, d, verify_weighted(view, d), d.cut_edges(view), seed)
}

/// The verifier's `verdict`, then the radius bound; quality figures of a
/// run that cut `cut` edges.
fn judge<W: WeightedGraphView>(
    view: &W,
    d: &WeightedDecomposition,
    verdict: Result<(), String>,
    cut: usize,
    seed: u64,
) -> Result<OpQuality, String> {
    verdict.map_err(|e| format!("seed {seed}: verifier rejected: {e}"))?;
    let n = view.num_vertices();
    let radius = d.max_radius();
    if radius > radius_bound(n) {
        return Err(format!("seed {seed}: radius {radius} over bound"));
    }
    let m = (view.total_degree() / 2) as usize;
    Ok(OpQuality::new(cut, m, radius, n))
}

/// Setup and closed loop of the timed pass.
pub fn timed(run: &mut Run, budget: Budget) -> io::Result<Timed> {
    let builder = DecomposerBuilder::from_options(decomp_options(0));
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..crate::SETUP_REPS {
        let started = Instant::now();
        let snap = MappedWeightedCsr::open(&run.inputs.weighted)?;
        let mut dec = builder.build_weighted(&snap).map_err(invalid)?;
        let seed = run.seeds.warmup();
        let warm = check(&snap, &dec.run_with_seed(seed), seed);
        run.tally.record(warm.map(drop));
        let workspace = dec.into_workspace();
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((snap, workspace));
    }
    let (snap, workspace) = kept.expect("at least one setup");
    let mut dec = builder
        .build_weighted_in(&snap, workspace)
        .map_err(invalid)?;

    let mut latencies_ms = Vec::new();
    let mut quality = Quality::default();
    let started = Instant::now();
    let mut i = 0;
    while !budget.done(started, i) {
        let t = Instant::now();
        let seed = run.seeds.op(i);
        let mut d = dec.run_with_seed(seed);
        if run.inject_bad_label && i == crate::INJECT_AT {
            corrupt(&mut d);
        }
        let outcome = check(&snap, &d, seed);
        if let Ok(q) = &outcome {
            latencies_ms.push(ms(t.elapsed()));
            quality.add(i, *q);
        }
        run.tally.record(outcome.map(drop));
        i += 1;
    }
    Ok(Timed {
        setup_s,
        latencies_ms,
        loop_s: started.elapsed().as_secs_f64(),
        quality,
    })
}

/// Moves one non-center's recorded distance off its true value.
fn corrupt(d: &mut WeightedDecomposition) {
    if let Some(v) = (0..d.assignment.len()).find(|&v| d.assignment[v] as usize != v) {
        d.dist_to_center[v] += 1.0;
    }
}

/// One op as a sequence of public calls, each in its own `bench:` span.
fn layered_op<W: WeightedGraphView>(
    view: &W,
    shifts: &mut ExpShifts,
    scratch: &mut WeightedScratch,
    seed: u64,
) -> (WeightedTelemetry, Result<OpQuality, String>) {
    let opts = decomp_options(seed);
    let _op = mpx_trace::span!("bench:op");
    {
        let _s = mpx_trace::span!("bench:shift.regenerate");
        shifts.regenerate(view.num_vertices(), &opts);
    }
    let (d, telemetry) = {
        let _s = mpx_trace::span!("bench:wengine.partition");
        partition_weighted_view_reusing(
            view,
            shifts,
            opts.traversal,
            None,
            opts.determinism,
            scratch,
        )
    };
    let verdict = {
        let _s = mpx_trace::span!("bench:verify.weighted");
        verify_weighted(view, &d)
    };
    let cut = {
        let _s = mpx_trace::span!("bench:cut");
        d.cut_edges(view)
    };
    let outcome = judge(view, &d, verdict, cut, seed);
    (telemetry, outcome)
}

/// Traced pass over the weighted snapshot.
pub fn traced(run: &mut Run, budget: Budget, layers: &mut Layers) -> io::Result<()> {
    let path = &run.inputs.weighted;
    layers.extend(open_metrics(
        || MappedWeightedCsr::open(path),
        MappedWeightedCsr::validate,
        MappedWeightedCsr::to_graph,
    )?);
    let snap = MappedWeightedCsr::open(path)?;
    mpx_decomp::validate_weights(&snap).map_err(invalid)?;
    let (mut shifts, mut scratch) = (ExpShifts::default(), WeightedScratch::new());
    let warm = layered_op(&snap, &mut shifts, &mut scratch, run.seeds.warmup());
    run.tally.record(warm.1.map(drop));

    let (mut buckets, mut phases, mut relaxations, mut count) = (0u64, 0u64, 0u64, 0u64);
    let mut quality = Quality::default();
    let (seeds, tally) = (run.seeds, &mut run.tally);
    let ops = Interleaved::run(budget, |i, _| {
        let (telemetry, outcome) = layered_op(&snap, &mut shifts, &mut scratch, seeds.op(i));
        buckets += telemetry.buckets;
        phases += telemetry.phases;
        relaxations += telemetry.relaxations;
        count += 1;
        if let Ok(q) = &outcome {
            quality.add(i, *q);
        }
        tally.record(outcome.map(drop));
    });
    let per_op = |v: u64| v as f64 / count.max(1) as f64;
    let spans = &ops.spans;
    layers.extend([
        ("cut_fraction", quality.cut_fraction()),
        (
            "shift.regenerate_ms",
            spans.ms_per_root("bench:shift.regenerate"),
        ),
        (
            "wengine.partition_ms",
            spans.ms_per_root("bench:wengine.partition"),
        ),
        ("wengine.bucket_ms", spans.ms_per_span("wengine.bucket")),
        ("wengine.phase_ms", spans.ms_per_span("wengine.phase")),
        (
            "verify.weighted_ms",
            spans.ms_per_root("bench:verify.weighted"),
        ),
        ("cut.ms", spans.ms_per_root("bench:cut")),
        ("wengine.buckets", per_op(buckets)),
        ("wengine.phases", per_op(phases)),
        (
            "wengine.relaxations_per_edge",
            per_op(relaxations) / snap.total_degree().max(1) as f64,
        ),
    ]);
    layers.extend(ops.runtime.metrics());
    layers.extend(ops.metrics());
    Ok(())
}
