//! Per-layer figures from collected traces and runtime counters.
//!
//! The benchmark wraps every public call it times in a span named
//! `bench:<layer>` under a `bench:op` root; the program's own spans
//! (`engine.round`, `wengine.bucket`, ...) nest inside those unchanged. A
//! layer's time is the summed duration of its span per op, and the
//! *unattributed* time of an op is the part of its root that no layer span
//! covers.

use crate::report::{mean, median, ms};
use crate::Budget;
use mpx_runtime::stats::Snapshot;
use mpx_trace::Trace;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::time::Instant;

/// Name of the root span of every traced op.
const ROOT: &str = "bench:op";

/// Span totals over the complete `bench:op` trees of any number of traces.
#[derive(Default)]
pub struct SpanTotals {
    /// Root spans absorbed.
    roots: u64,
    /// Summed wall-clock of those roots, in ns.
    root_ns: u64,
    /// Span count and summed duration (ns) per name, over every span of
    /// the trees, roots included.
    by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Time inside roots that falls in none of their child spans.
    gap_ns: u64,
}

impl SpanTotals {
    /// Adds every `bench:op` tree of `trace`.
    fn absorb(&mut self, trace: &Trace) {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in trace.spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        for top in trace.spans.iter().filter(|s| s.name == ROOT) {
            self.roots += 1;
            self.root_ns += top.duration_ns();
            let kids = children.get(&top.id).map_or(&[][..], Vec::as_slice);
            // Children share the root's thread, so they never overlap.
            let covered: u64 = kids.iter().map(|&k| trace.spans[k].duration_ns()).sum();
            self.gap_ns += top.duration_ns().saturating_sub(covered);
            let mut stack = vec![top];
            while let Some(span) = stack.pop() {
                let entry = self.by_name.entry(span.name).or_default();
                entry.0 += 1;
                entry.1 += span.duration_ns();
                if let Some(kids) = children.get(&span.id) {
                    stack.extend(kids.iter().map(|&k| &trace.spans[k]));
                }
            }
        }
    }

    /// Summed duration of spans named `name`, in ms per root.
    pub fn ms_per_root(&self, name: &str) -> f64 {
        let ns = self.by_name.get(name).map_or(0, |e| e.1);
        ns as f64 / 1e6 / self.roots.max(1) as f64
    }

    /// Mean duration of one span named `name`, in ms.
    pub fn ms_per_span(&self, name: &str) -> f64 {
        let (count, ns) = self.by_name.get(name).copied().unwrap_or_default();
        ns as f64 / 1e6 / count.max(1) as f64
    }
}

/// Runtime-pool counters summed over ops.
#[derive(Default)]
pub struct RuntimeTotals {
    ops: u64,
    sum: Snapshot,
}

impl RuntimeTotals {
    /// Adds the counters of `ops` ops.
    pub fn add(&mut self, ops: u64, delta: Snapshot) {
        self.ops += ops;
        self.sum.regions += delta.regions;
        self.sum.participations += delta.participations;
        self.sum.chunks += delta.chunks;
        self.sum.steals += delta.steals;
    }

    /// The `runtime.*` per-layer metrics.
    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        [
            ("runtime.regions_per_op", per_op(self.sum.regions)),
            (
                "runtime.workers_per_region",
                self.sum.avg_workers_per_region(),
            ),
            ("runtime.chunks_per_op", per_op(self.sum.chunks)),
            ("runtime.steals_per_op", per_op(self.sum.steals)),
        ]
    }
}

/// The loop of a traced pass: traced and untraced ops alternate on one
/// seed sequence, so tracing's cost is measured on the same ops.
#[derive(Default)]
pub struct Interleaved {
    /// Span trees of the traced ops.
    pub spans: SpanTotals,
    /// Runtime counters of every op, attributed by `stats::begin_epoch`.
    pub runtime: RuntimeTotals,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl Interleaved {
    /// Runs `op(i, traced)` for `i = 0, 1, ...` until `budget` is spent
    /// (counting traced ops); even ops run inside a trace session.
    pub fn run(budget: Budget, mut op: impl FnMut(u64, bool)) -> Interleaved {
        let mut out = Interleaved::default();
        let started = Instant::now();
        let mut i = 0;
        while !budget.done(started, out.traced_ms.len() as u64) {
            let session = (i % 2 == 0).then(mpx_trace::start);
            let epoch = mpx_runtime::stats::begin_epoch();
            let t = Instant::now();
            op(i, session.is_some());
            let op_ms = ms(t.elapsed());
            out.runtime.add(1, epoch.finish());
            match session {
                Some(session) => {
                    out.spans.absorb(&session.finish());
                    out.traced_ms.push(op_ms);
                }
                None => out.untraced_ms.push(op_ms),
            }
            i += 1;
        }
        out
    }

    /// `trace.overhead_frac` (throughput lost to tracing, `1 − traced ÷
    /// untraced` ops per second) and `layers.unattributed_frac` (share of
    /// traced op wall-clock in no layer span).
    pub fn metrics(&self) -> [(&'static str, f64); 2] {
        let spans = &self.spans;
        [
            (
                "trace.overhead_frac",
                1.0 - mean(&self.untraced_ms) / mean(&self.traced_ms),
            ),
            (
                "layers.unattributed_frac",
                spans.gap_ns as f64 / spans.root_ns.max(1) as f64,
            ),
        ]
    }
}

/// Median open, validate and to-graph times of a v1 snapshot over
/// [`crate::OPEN_REPS`] opens.
pub fn open_metrics<S, G>(
    open: impl Fn() -> io::Result<S>,
    validate: impl Fn(&S) -> Result<(), String>,
    to_graph: impl Fn(&S) -> G,
) -> io::Result<[(&'static str, f64); 3]> {
    let (mut opens, mut validates, mut to_graphs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..crate::OPEN_REPS {
        let t = Instant::now();
        let snap = open()?;
        opens.push(ms(t.elapsed()));
        let t = Instant::now();
        validate(&snap).map_err(crate::invalid)?;
        validates.push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(to_graph(&snap));
        to_graphs.push(ms(t.elapsed()));
    }
    Ok([
        ("snapshot.open_ms", median(&opens)),
        ("snapshot.validate_ms", median(&validates)),
        ("snapshot.to_graph_ms", median(&to_graphs)),
    ])
}
