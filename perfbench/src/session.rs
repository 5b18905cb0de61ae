//! Unweighted session workloads (`session-rmat16`, `session-grid400`).
//!
//! Timed op: `Decomposer::run_with_seed`, `verify_decomposition`, then a
//! cut count, on one warm session over a mmap'd v1 snapshot. The traced
//! op calls the same layers one public function at a time
//! ([`layered_op`]), each inside its own `bench:` span.

use crate::layers::{open_metrics, Interleaved, SpanTotals};
use crate::report::ms;
use crate::{
    decomp_options, invalid, radius_bound, Budget, Layers, OpQuality, Quality, Run, Timed,
};
use mpx_decomp::engine::compute_parents_view;
use mpx_decomp::{
    partition_view_reusing, verify_decomposition, Decomposer, DecomposerBuilder, Decomposition,
    EngineScratch, ExpShifts, PartitionTelemetry, VerifyReport,
};
use mpx_graph::{CsrGraph, GraphView, MappedCsr};
use std::io;
use std::time::Instant;

/// Setup and closed loop of the timed pass.
pub fn timed(run: &mut Run, budget: Budget) -> io::Result<Timed> {
    let builder = DecomposerBuilder::from_options(decomp_options(0));
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..crate::SETUP_REPS {
        let started = Instant::now();
        let snap = MappedCsr::open(&run.inputs.v1)?;
        let csr = snap.to_graph();
        let mut dec = builder.build(&snap).map_err(invalid)?;
        let warm = timed_op(&mut dec, &csr, run.seeds.warmup(), false);
        run.tally.record(warm.map(drop));
        let workspace = dec.into_workspace();
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((snap, csr, workspace));
    }
    let (snap, csr, workspace) = kept.expect("at least one setup");
    let mut dec = builder.build_in(&snap, workspace).map_err(invalid)?;

    let mut latencies_ms = Vec::new();
    let mut quality = Quality::default();
    let started = Instant::now();
    let mut i = 0;
    while !budget.done(started, i) {
        let t = Instant::now();
        let corrupt = run.inject_bad_label && i == crate::INJECT_AT;
        let outcome = timed_op(&mut dec, &csr, run.seeds.op(i), corrupt);
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

/// One timed op through the session front door.
fn timed_op<V: GraphView>(
    dec: &mut Decomposer<'_, V>,
    csr: &CsrGraph,
    seed: u64,
    corrupt: bool,
) -> Result<OpQuality, String> {
    let mut d = dec.run_with_seed(seed);
    if corrupt {
        d = corrupted(&d);
    }
    let report = verify_decomposition(csr, &d);
    let cut = d.cut_edges_view(dec.view());
    check_report(&report, cut, csr.num_vertices(), seed)?;
    Ok(OpQuality::new(
        cut,
        csr.num_edges(),
        f64::from(report.max_radius),
        csr.num_vertices(),
    ))
}

/// Full-verifier verdict plus the radius bound and cut recount.
fn check_report(report: &VerifyReport, cut: usize, n: usize, seed: u64) -> Result<(), String> {
    if let Some(e) = report.errors.first() {
        return Err(format!("seed {seed}: verifier rejected: {e}"));
    }
    if !report.radius_within_bound(n, crate::BETA) {
        return Err(format!(
            "seed {seed}: radius {} over bound",
            report.max_radius
        ));
    }
    if cut != report.cut_edges {
        return Err(format!(
            "seed {seed}: cut count {cut} != verifier's {}",
            report.cut_edges
        ));
    }
    Ok(())
}

/// A copy of `d` with one non-center's distance off by one: internally
/// coherent, so only the graph-aware verifier can reject it.
fn corrupted(d: &Decomposition) -> Decomposition {
    let mut dist = d.distances().to_vec();
    if let Some(v) = dist.iter().position(|&x| x > 0) {
        dist[v] += 1;
    }
    Decomposition::from_raw(d.assignment().to_vec(), dist, d.parents().to_vec())
}

/// What one [`layered_op`] produced.
pub struct LayeredOut {
    /// Engine counters of the run.
    pub telemetry: PartitionTelemetry,
    /// Wall-clock of the calls a served request makes (shifts, engine,
    /// internal check, cut, remap), in ms.
    pub request_ms: f64,
    /// Quality figures, or why a check failed.
    pub outcome: Result<OpQuality, String>,
}

/// Reusable arenas of [`layered_op`].
#[derive(Default)]
pub struct Arenas {
    shifts: ExpShifts,
    scratch: EngineScratch,
}

/// One op as a sequence of public calls, each in its own `bench:` span
/// under a `bench:op` root. With `perm` (a reordered v2 view) shifts
/// follow original ids and labels are remapped, exactly as the server
/// does; the request part is then followed by the full verifier and a
/// separate parents pass.
pub fn layered_op<V: GraphView>(
    view: &V,
    csr: &CsrGraph,
    perm: Option<&[u32]>,
    arenas: &mut Arenas,
    seed: u64,
) -> LayeredOut {
    let opts = decomp_options(seed);
    let n = view.num_vertices();
    let _op = mpx_trace::span!("bench:op");
    let started = Instant::now();
    {
        let _s = mpx_trace::span!("bench:shift.regenerate");
        match perm {
            Some(p) => arenas.shifts.regenerate_permuted(n, &opts, p),
            None => arenas.shifts.regenerate(n, &opts),
        }
    }
    let (d, telemetry) = {
        let _s = mpx_trace::span!("bench:engine.partition");
        partition_view_reusing(
            view,
            &arenas.shifts,
            opts.traversal,
            opts.alpha,
            opts.determinism,
            &mut arenas.scratch,
        )
    };
    let internal = {
        let _s = mpx_trace::span!("bench:verify.internal");
        d.check_internal().and_then(|()| {
            let bound = VerifyReport::radius_bound(n, crate::BETA);
            match u64::from(d.max_radius()) {
                r if r > bound => Err(format!("radius {r} over bound {bound}")),
                _ => Ok(()),
            }
        })
    };
    let cut = {
        let _s = mpx_trace::span!("bench:cut");
        d.cut_edges_view(view)
    };
    if let Some(p) = perm {
        let _s = mpx_trace::span!("bench:labels.remap");
        let _ = std::hint::black_box(d.remap_labels(p));
    }
    let request_ms = ms(started.elapsed());
    let parents = {
        let _s = mpx_trace::span!("bench:engine.parents");
        compute_parents_view(view, d.assignment(), d.distances())
    };
    let report = {
        let _s = mpx_trace::span!("bench:verify.full");
        verify_decomposition(csr, &d)
    };
    let outcome = internal
        .map_err(|e| format!("seed {seed}: {e}"))
        .and_then(|()| check_report(&report, cut, n, seed))
        .and_then(|()| match parents == d.parents() {
            true => Ok(()),
            false => Err(format!("seed {seed}: separate parents pass disagrees")),
        })
        .map(|()| OpQuality::new(cut, csr.num_edges(), f64::from(report.max_radius), n));
    LayeredOut {
        telemetry,
        request_ms,
        outcome,
    }
}

/// Engine counters summed over ops.
#[derive(Default)]
pub struct EngineTotals {
    ops: u64,
    rounds: u64,
    bottom_up_rounds: u64,
    relaxations: u64,
}

impl EngineTotals {
    /// Adds one run's counters.
    pub fn add(&mut self, t: &PartitionTelemetry) {
        self.ops += 1;
        self.rounds += t.rounds;
        self.bottom_up_rounds += t.bottom_up_rounds;
        self.relaxations += t.relaxations;
    }

    /// The engine counter metrics for a view of `n` vertices and `arcs`
    /// directed arcs.
    pub fn metrics(&self, n: usize, arcs: u64) -> [(&'static str, f64); 4] {
        let ops = self.ops.max(1) as f64;
        let rounds = self.rounds as f64 / ops;
        [
            ("engine.rounds", rounds),
            (
                "engine.bottom_up_rounds",
                self.bottom_up_rounds as f64 / ops,
            ),
            ("engine.rounds_over_bound", rounds / radius_bound(n)),
            (
                "engine.relaxations_per_edge",
                self.relaxations as f64 / ops / arcs.max(1) as f64,
            ),
        ]
    }
}

/// Per-layer metrics an unweighted layered op yields, from its span tree.
pub fn span_metrics(spans: &SpanTotals) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        (
            "shift.regenerate_ms",
            spans.ms_per_root("bench:shift.regenerate"),
        ),
        (
            "engine.partition_ms",
            spans.ms_per_root("bench:engine.partition"),
        ),
        (
            "engine.parents_ms",
            spans.ms_per_root("bench:engine.parents"),
        ),
        ("verify.full_ms", spans.ms_per_root("bench:verify.full")),
        (
            "verify.internal_ms",
            spans.ms_per_root("bench:verify.internal"),
        ),
        ("cut.ms", spans.ms_per_root("bench:cut")),
    ];
    for (metric, span) in [
        ("engine.wake_ms", "engine.wake"),
        ("engine.expand_ms", "engine.expand"),
        ("engine.settle_ms", "engine.settle"),
        ("engine.compact_ms", "engine.compact"),
        ("engine.scan_ms", "engine.scan"),
    ] {
        out.push((metric, spans.ms_per_root(span)));
    }
    out
}

/// Traced pass over the v1 snapshot.
pub fn traced(run: &mut Run, budget: Budget, layers: &mut Layers) -> io::Result<()> {
    let path = &run.inputs.v1;
    layers.extend(open_metrics(
        || MappedCsr::open(path),
        MappedCsr::validate,
        MappedCsr::to_graph,
    )?);
    let snap = MappedCsr::open(path)?;
    let csr = snap.to_graph();
    let mut arenas = Arenas::default();
    let warm = layered_op(&snap, &csr, None, &mut arenas, run.seeds.warmup());
    run.tally.record(warm.outcome.map(drop));

    let mut engine = EngineTotals::default();
    let mut quality = Quality::default();
    let (seeds, tally) = (run.seeds, &mut run.tally);
    let ops = Interleaved::run(budget, |i, _| {
        let out = layered_op(&snap, &csr, None, &mut arenas, seeds.op(i));
        engine.add(&out.telemetry);
        if let Ok(q) = &out.outcome {
            quality.add(i, *q);
        }
        tally.record(out.outcome.map(drop));
    });
    layers.insert("cut_fraction", quality.cut_fraction());
    layers.extend(span_metrics(&ops.spans));
    layers.extend(engine.metrics(csr.num_vertices(), 2 * csr.num_edges() as u64));
    layers.extend(ops.runtime.metrics());
    layers.extend(ops.metrics());
    Ok(())
}
