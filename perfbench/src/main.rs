//! The repository benchmark: verified-decomposition throughput and served
//! latency on named workloads, timed layer by layer.
//!
//! ```text
//! perfbench generate --workload W --seed S --dir D [--tiny]
//! perfbench run --workload W --seed S --seconds T --trace 0|1 --dir D
//!               [--tiny] [--inject-bad-label] [--rev R]
//! ```
//!
//! `generate` writes the workload's snapshot files into `D`; it is a
//! separate process so that graph generation never counts towards the
//! measured process's peak memory. `run` then only ever sees the files.
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics from a traced pass. The last line of standard output
//! is the result object; the line before it is the full self-describing
//! record. `perfbench/run.py` builds this package and runs both steps;
//! `perfbench/README.md` documents the workloads and metrics.

mod layers;
mod report;
mod serve;
mod session;
mod weighted;
mod workload;

use mpx_decomp::{DecompOptions, Determinism, Traversal, VerifyReport};
use mpx_graph::{snapshot::MappedCsr, GraphView, MappedWeightedCsr};
use report::{json_metrics, json_num, json_obj, json_str, median, percentile, Tally};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Inputs, Kind, Seeds, Workload};

/// Decomposition parameter β of every op (the ROADMAP baseline).
pub const BETA: f64 = 0.1;
/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Snapshot opens per traced run; the `*.open_ms` figures are medians.
pub const OPEN_REPS: usize = 5;
/// Index of the op whose output `--inject-bad-label` corrupts.
pub const INJECT_AT: u64 = 1;
/// `cut_fraction` and `radius_ratio` are taken over this fixed prefix of
/// the op seed sequence, so they repeat exactly for a workload seed.
pub const QUALITY_OPS: u64 = 128;

/// Named per-layer figures of a traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// The options of every op: β = 0.1, strategy `auto`, BitExact.
pub fn decomp_options(seed: u64) -> DecompOptions {
    DecompOptions::new(BETA)
        .with_seed(seed)
        .with_traversal(Traversal::Auto)
        .with_determinism(Determinism::BitExact)
}

/// An I/O error for a rejected snapshot or configuration.
pub fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

/// [`VerifyReport::radius_bound`] at [`BETA`] for `n` vertices.
pub fn radius_bound(n: usize) -> f64 {
    VerifyReport::radius_bound(n, BETA) as f64
}

/// When a measured loop stops: after `seconds` of wall-clock, but never
/// before `min_ops` ops.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall-clock to measure for.
    pub seconds: f64,
    /// Ops that must run whatever the clock says.
    pub min_ops: u64,
}

impl Budget {
    /// True once the loop started at `started` has run `ops` ops and used
    /// its time.
    pub fn done(self, started: Instant, ops: u64) -> bool {
        ops >= self.min_ops && started.elapsed().as_secs_f64() >= self.seconds
    }

    /// The same budget with `frac` of the time and at least `min_ops` ops.
    pub fn share(self, frac: f64, min_ops: u64) -> Budget {
        Budget {
            seconds: self.seconds * frac,
            min_ops,
        }
    }
}

/// Quality figures of one verified op.
#[derive(Clone, Copy, Debug)]
pub struct OpQuality {
    cut_fraction: f64,
    radius_ratio: f64,
}

impl OpQuality {
    /// `cut` of `m` edges cut, largest radius `radius` on `n` vertices.
    pub fn new(cut: usize, m: usize, radius: f64, n: usize) -> OpQuality {
        OpQuality {
            cut_fraction: cut as f64 / m.max(1) as f64,
            radius_ratio: radius / radius_bound(n),
        }
    }
}

/// Quality over the first [`QUALITY_OPS`] ops of the seed sequence.
///
/// Both figures are means over ops. The largest radius of one op is set
/// by the largest of `n` exponential shifts and a mean of it is steady
/// across workload seeds, where a maximum over ops is not; the cut of one
/// op on a hub-skewed graph is heavy-tailed (most ops cut almost nothing,
/// a few split the giant cluster), so its mean is a recorded figure and a
/// checked guarantee, not a bounded metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    ops: u64,
    cut_sum: f64,
    radius_sum: f64,
}

impl Quality {
    /// Adds op `i` if it lies in the fixed prefix.
    pub fn add(&mut self, i: u64, q: OpQuality) {
        if i < QUALITY_OPS {
            self.ops += 1;
            self.cut_sum += q.cut_fraction;
            self.radius_sum += q.radius_ratio;
        }
    }

    /// Folds in another caller's share of the prefix.
    pub fn merge(&mut self, other: Quality) {
        self.ops += other.ops;
        self.cut_sum += other.cut_sum;
        self.radius_sum += other.radius_sum;
    }

    /// Mean cut fraction over the prefix.
    pub fn cut_fraction(&self) -> f64 {
        self.cut_sum / self.ops.max(1) as f64
    }

    /// Mean over the prefix of each op's largest radius, as a share of
    /// the radius bound.
    pub fn radius_ratio(&self) -> f64 {
        self.radius_sum / self.ops.max(1) as f64
    }

    /// The paper's cut guarantee, `E[cut] ≤ β·m`, on the prefix mean.
    pub fn check_cut(&self) -> Result<(), String> {
        match self.cut_fraction() <= BETA {
            true => Ok(()),
            false => Err(format!("mean cut fraction {} over β", self.cut_fraction())),
        }
    }
}

/// What a timed pass measured.
pub struct Timed {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Per-op latency of each verified op, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall-clock of the closed loop.
    pub loop_s: f64,
    /// Quality over the fixed prefix.
    pub quality: Quality,
}

/// State shared by every pass of one run.
pub struct Run {
    /// The workload's snapshot files.
    pub inputs: Inputs,
    /// Seeds derived from the workload seed.
    pub seeds: Seeds,
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Corrupt the output of op [`INJECT_AT`] (smoke test).
    pub inject_bad_label: bool,
}

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("radius_ratio", "fraction"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
/// Every traced run prints all of them.
const PER_LAYER: &[(&str, &str)] = &[
    ("cut_fraction", "fraction"),
    ("snapshot.open_ms", "ms"),
    ("snapshot.validate_ms", "ms"),
    ("snapshot.to_graph_ms", "ms"),
    ("compress.open_ms", "ms"),
    ("compress.bytes_per_arc", "B"),
    ("compress.decode_overhead", "ratio"),
    ("shift.regenerate_ms", "ms"),
    ("engine.partition_ms", "ms"),
    ("engine.parents_ms", "ms"),
    ("engine.wake_ms", "ms"),
    ("engine.expand_ms", "ms"),
    ("engine.settle_ms", "ms"),
    ("engine.compact_ms", "ms"),
    ("engine.scan_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.bottom_up_rounds", "count"),
    ("engine.rounds_over_bound", "ratio"),
    ("engine.relaxations_per_edge", "ratio"),
    ("verify.full_ms", "ms"),
    ("verify.internal_ms", "ms"),
    ("verify.weighted_ms", "ms"),
    ("cut.ms", "ms"),
    ("labels.remap_ms", "ms"),
    ("wengine.partition_ms", "ms"),
    ("wengine.bucket_ms", "ms"),
    ("wengine.phase_ms", "ms"),
    ("wengine.buckets", "count"),
    ("wengine.phases", "count"),
    ("wengine.relaxations_per_edge", "ratio"),
    ("runtime.regions_per_op", "count"),
    ("runtime.workers_per_region", "count"),
    ("runtime.chunks_per_op", "count"),
    ("serve.inprocess_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.client_p50_ms", "ms"),
    ("serve.in_flight_hwm", "count"),
    ("trace.overhead_frac", "fraction"),
    ("layers.unattributed_frac", "fraction"),
];

/// Per-layer counts that are legitimately 0 at this baseline (BitExact
/// never steals; two closed-loop clients never queue behind two workers),
/// so they go in the record but not in the result line.
const RECORD_ONLY: &[(&str, &str)] = &[
    ("runtime.steals_per_op", "count"),
    ("serve.waiting_hwm", "count"),
    ("serve.overload_replies", "count"),
];

struct Args {
    command: String,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    tiny: bool,
    inject_bad_label: bool,
    rev: String,
}

const USAGE: &str = "usage: perfbench generate|run --workload W --seed S --dir D \
                     [--seconds T] [--trace 0|1] [--tiny] [--inject-bad-label] [--rev R]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    if command != "generate" && command != "run" {
        return Err(format!("unknown command {command:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) =
        (None, None, 10.0f64, false, None);
    let (mut tiny, mut inject_bad_label, mut rev) = (false, false, "unknown".to_string());
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--rev" => rev = value()?,
            "--tiny" => tiny = true,
            "--inject-bad-label" => inject_bad_label = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        dir: dir.ok_or("missing --dir")?,
        tiny,
        inject_bad_label,
        rev,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "generate" => generate(&args).map(|()| true),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn generate(args: &Args) -> io::Result<()> {
    std::fs::create_dir_all(&args.dir)?;
    let topology = match args.tiny {
        true => args.workload.tiny,
        false => args.workload.topology,
    };
    workload::generate(
        topology,
        Seeds {
            workload: args.seed,
        },
        &Inputs::in_dir(&args.dir),
    )
}

/// Runs one measured pass and prints the record and the result line.
/// Returns whether every op passed its checks.
fn run(args: &Args) -> io::Result<bool> {
    let mut run = Run {
        inputs: Inputs::in_dir(&args.dir),
        seeds: Seeds {
            workload: args.seed,
        },
        tally: Tally::default(),
        inject_bad_label: args.inject_bad_label,
    };
    let budget = Budget {
        seconds: args.seconds,
        min_ops: QUALITY_OPS,
    };
    let kind = args.workload.kind;
    let mut metrics = Layers::new();
    let mut samples = 0;
    if args.trace {
        traced(kind, &mut run, budget, &mut metrics)?;
    } else {
        let timed = match kind {
            Kind::Session => session::timed(&mut run, budget)?,
            Kind::Weighted => weighted::timed(&mut run, budget)?,
            Kind::Serve => serve::timed(&mut run, budget)?,
        };
        samples = timed.latencies_ms.len();
        run.tally.record(timed.quality.check_cut());
        metrics.extend([
            ("ops_per_s", samples as f64 / timed.loop_s),
            ("latency_ms_p50", median(&timed.latencies_ms)),
            ("latency_ms_p90", percentile(&timed.latencies_ms, 0.9)),
            ("setup_s", median(&timed.setup_s)),
            ("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN)),
            ("radius_ratio", timed.quality.radius_ratio()),
        ]);
        metrics.insert("cut_fraction", timed.quality.cut_fraction());
    }
    let units = if args.trace { PER_LAYER } else { END_TO_END };
    let recorded: Vec<(&str, &str)> = match args.trace {
        true => [PER_LAYER, RECORD_ONLY].concat(),
        false => [END_TO_END, &[("cut_fraction", "fraction")]].concat(),
    };
    let missing: Vec<&str> = recorded
        .iter()
        .filter(|(name, _)| !metrics.get(name).is_some_and(|v| v.is_finite()))
        .map(|&(name, _)| name)
        .collect();
    if !missing.is_empty() {
        run.tally
            .record(Err(format!("metrics not measured: {missing:?}")));
    }
    let correct = run.tally.failed == 0;
    for msg in &run.tally.failures {
        eprintln!("failed: {msg}");
    }
    println!("{}", record(args, &run, &metrics, &recorded, samples)?);
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", run.tally.attempted.to_string()),
            ("failed", run.tally.failed.to_string()),
            ("metrics", json_metrics(&metrics, units)),
        ])
    );
    Ok(correct)
}

/// The traced pass of `kind`, then brief passes of its companion kinds so
/// that every per-layer metric is measured on every workload. A figure
/// the main pass measured is never overwritten by a companion's.
fn traced(kind: Kind, run: &mut Run, budget: Budget, metrics: &mut Layers) -> io::Result<()> {
    const COMPANION_SHARE: f64 = 0.15;
    const COMPANION_OPS: u64 = 4;
    let companions = kind.companions();
    // Traced loops count traced ops, every other op, so half the quality
    // prefix in traced ops walks the whole prefix.
    let main_budget = budget.share(
        1.0 - COMPANION_SHARE * companions.len() as f64,
        QUALITY_OPS / 2,
    );
    traced_kind(kind, run, main_budget, metrics)?;
    for &companion in companions {
        let mut extra = Layers::new();
        traced_kind(
            companion,
            run,
            budget.share(COMPANION_SHARE, COMPANION_OPS),
            &mut extra,
        )?;
        for (name, value) in extra {
            metrics.entry(name).or_insert(value);
        }
    }
    Ok(())
}

fn traced_kind(kind: Kind, run: &mut Run, budget: Budget, layers: &mut Layers) -> io::Result<()> {
    match kind {
        Kind::Session => session::traced(run, budget, layers),
        Kind::Weighted => weighted::traced(run, budget, layers),
        Kind::Serve => serve::traced(run, budget, layers),
    }
}

/// The self-describing record: environment, inputs, seeds, op counts and
/// every metric with its unit.
fn record(
    args: &Args,
    run: &Run,
    metrics: &Layers,
    units: &[(&str, &str)],
    samples: usize,
) -> io::Result<String> {
    let (n, m, max_degree) = match args.workload.kind {
        Kind::Weighted => {
            let g = MappedWeightedCsr::open(&run.inputs.weighted)?;
            let max = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max();
            (g.num_vertices(), g.num_edges(), max.unwrap_or(0))
        }
        Kind::Session | Kind::Serve => {
            let g = MappedCsr::open(&run.inputs.v1)?;
            let max = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max();
            (g.num_vertices(), g.num_edges(), max.unwrap_or(0))
        }
    };
    let snapshot_bytes: Vec<(&str, String)> = run
        .inputs
        .sizes()
        .iter()
        .map(|&(name, bytes)| (name, bytes.to_string()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let error_rate = run.tally.failed as f64 / run.tally.attempted.max(1) as f64;
    let failures: Vec<String> = run.tally.failures.iter().map(|f| json_str(f)).collect();
    Ok(json_obj(&[
        ("record", json_str("perfbench")),
        ("workload", json_str(args.workload.name)),
        ("trace", args.trace.to_string()),
        ("tiny", args.tiny.to_string()),
        ("workload_seed", args.seed.to_string()),
        ("graph_seed", run.seeds.graph().to_string()),
        ("seconds", json_num(args.seconds)),
        ("rev", json_str(&args.rev)),
        (
            "rustc",
            json_str(&report::command_line("rustc", &["--version"])),
        ),
        ("nproc", nproc.to_string()),
        ("threads", mpx_runtime::current_num_threads().to_string()),
        ("beta", json_num(BETA)),
        ("strategy", json_str(Traversal::Auto.as_str())),
        ("determinism", json_str(Determinism::BitExact.as_str())),
        (
            "graph",
            json_obj(&[
                ("n", n.to_string()),
                ("m", m.to_string()),
                ("max_degree", max_degree.to_string()),
            ]),
        ),
        ("snapshot_bytes", json_obj(&snapshot_bytes)),
        ("attempted", run.tally.attempted.to_string()),
        ("failed", run.tally.failed.to_string()),
        ("error_rate", json_num(error_rate)),
        ("latency_samples", samples.to_string()),
        ("failures", format!("[{}]", failures.join(", "))),
        ("metrics", json_metrics(metrics, units)),
    ]))
}
