//! `mpx` — command-line front end for the decomposition library.
//!
//! ```text
//! mpx gen <workload> <out> [seed]            generate a graph (any format)
//! mpx stats <graph>                          print graph statistics
//! mpx convert <in> <out> [--compress] [--reorder R]
//!                                            transcode formats / compress to v2
//! mpx inspect <graph>                        header + structure summary
//! mpx partition <graph> <beta> [seed] [labels-out.txt] [--threads N] [--strategy S]
//!                                            decompose + verify + stats
//! mpx profile <workload> <beta> [seed] [--runs K] [--threads N] [--strategy S] [--weighted] [--trace[=path]]
//!                                            p50/p99 latency + round-bound JSON report
//! mpx serve <snapshot.mpx>... [--threads N] [--workers K] [--port P] [--queue Q]
//!                                            long-running decomposition server
//! mpx loadgen <host:port> <beta> [seed] [--clients C] [--requests R] [--shutdown]
//!                                            hammer a server, emit BENCH_serve JSON
//! mpx render-grid <side> <beta> <out.ppm> [seed]
//!                                            Figure-1-style mosaic
//! ```
//!
//! Workload syntax for `gen`/`profile`: `grid:<side>`,
//! `rmat:<scale>:<edge_factor>`, `gnm:<n>:<m>`, `ba:<n>:<m>`,
//! `regular:<n>:<d>`, `path:<n>`, `sbm:<n>:<k>` — or `file:<path>` to use
//! an on-disk graph anywhere a generated workload is accepted (a bare path
//! to an existing file also works).
//!
//! Graph files may be plain edge lists, DIMACS `.gr`, METIS, or `.mpx`
//! binary snapshots (see `docs/FORMATS.md`); formats are auto-detected by
//! extension and content sniffing. `.mpx` files are memory-mapped and
//! traversed zero-copy. Text inputs are read by one line-at-a-time reader
//! per format, which loads a file the same way at every thread count.
//!
//! `mpx convert --compress [--reorder degree|bfs|none]` writes the
//! delta-varint compressed v2 snapshot format (`mpx-compress`), optionally
//! reordering vertices first for locality; the new→old permutation is
//! persisted so labels always come back in original ids. Every command
//! opens `.mpx` files through `Snapshot::open`: the header picks v1 or v2,
//! `--weighted` picks the kind. `partition` and `serve` let the engine
//! stream-decode v2 adjacency straight off the mapped pages — labels are
//! byte-identical to the uncompressed path. `convert --compress` reports
//! bytes per arc and the size against the v1 layout.
//!
//! Thread count resolution: `--threads N` wins, else the `MPX_THREADS`
//! environment variable, else the machine's logical CPU count.
//!
//! `--strategy` selects the engine traversal (`auto`, the default, or
//! `parallel`, the paper's top-down Algorithm 1; `hybrid` and `topdown`
//! are their aliases). Both produce byte-identical labels — it is a
//! wall-clock knob, and `mpx profile` reports each run's engine telemetry
//! (rounds, relaxations) to compare them. Whether a round runs inline or
//! on the worker pool the engine decides from the round's size.
//!
//! `--trace[=path]` on `partition` (or the `MPX_TRACE=human|json|chrome`
//! environment variable, which also selects the export format) collects a
//! structured span trace of the whole run — ingestion, engine rounds,
//! runtime regions — and writes it to `path` (or stderr). `mpx profile`
//! always embeds the traced run's span tree in its JSON report and
//! hard-asserts that tracing does not perturb the labels and that the
//! span-derived round/relaxation counts equal the engine telemetry. A
//! bare workload family name (`grid`, `rmat`, …) given to `profile`
//! expands to a default spec, so `mpx profile grid 2.0` works as-is.
//!
//! `--weighted` switches `gen`/`convert`/`inspect`/`partition`/`profile`
//! to the Section 6 weighted pipeline: inputs are weighted edge lists
//! (`u v w` records) or weighted `.mpx` snapshots (mmap'd zero-copy), and
//! the engine is the bucketed Δ-stepping multi-source shifted Dijkstra
//! under every `--strategy`. Generated weighted workloads get
//! deterministic `U[0.25, 4]` edge lengths hashed from the seed and
//! endpoints.

use mpx::compress::{
    apply_permutation, reorder_permutation, write_compressed_snapshot, MappedCompressedCsr,
    Reorder, Snapshot,
};
use mpx::decomp::{
    verify_decomposition, verify_weighted, ConfigError, DecompOptions, DecomposerBuilder,
    DecompositionStats, Determinism, Traversal, VerifyReport, Workspace, MAX_GRAPH_SIZE,
};
use mpx::graph::{
    gen, io, snapshot, CsrGraph, GraphFormat, GraphView, Vertex, WeightedCsrGraph,
    WeightedGraphView,
};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            2
        }
    };
    std::process::exit(code);
}

fn usage() -> &'static str {
    "usage:\n  mpx gen <workload> <out> [seed] [--weighted]\n  mpx stats <graph>\n  mpx convert <in> <out> [--weighted] [--compress] [--reorder degree|bfs|none] [--threads N]\n  mpx inspect <graph> [--weighted]\n  mpx partition <graph> <beta> [seed] [labels-out.txt] [--weighted] [--threads N] [--strategy S] [--determinism D]\n  mpx profile <workload> <beta> [seed] [--runs K] [--threads N] [--strategy S] [--determinism D] [--weighted] [--trace[=path]]\n  mpx serve <snapshot.mpx>... [--threads N] [--workers K] [--port P] [--queue Q]\n  mpx loadgen <host:port> <beta> [seed] [--clients C] [--requests R] [--strategy S] [--determinism D] [--snapshot I] [--shutdown]\n  mpx render-grid <side> <beta> <out.ppm> [seed]\n\nworkloads: grid:<side> rmat:<scale>[:<ef>] gnm:<n>:<m> ba:<n>:<m> regular:<n>:<d> path:<n> sbm:<n>:<k> file:<path>\n  (profile also accepts a bare family name, e.g. `grid` = grid:200; rmat edge factor defaults to 8)\ngraph files: edge list (.txt/.el) | DIMACS (.gr) | METIS (.metis/.graph) | binary snapshot (.mpx, mmap'd)\nweighted (--weighted): weighted edge list (u v w) | weighted .mpx snapshot (mmap'd)\nthreads: --threads N > MPX_THREADS env > logical CPUs\nstrategy: auto (default; alias hybrid) | parallel (alias topdown)\ndeterminism: bitexact (default; fixed-chunk scheduler) | fast (work-stealing scheduler); labels are byte-identical in both\ntracing: --trace[=path] on partition/profile, or MPX_TRACE=human|json|chrome (sets format, enables tracing)\ncompressed snapshots: convert --compress [--reorder R] writes a delta-varint v2 .mpx\n.mpx inputs: the header picks the format (v1 or v2, mmap'd); --weighted picks the kind (a weighted snapshot needs it, an unweighted one refuses it)"
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("render-grid") => cmd_render(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".into()),
    }
}

/// Flags shared by the subcommands; each one accepts only the subset it
/// names to [`extract_flags`].
struct RunFlags {
    threads: Option<usize>,
    strategy: Traversal,
    determinism: Determinism,
    runs: Option<usize>,
    weighted: bool,
    /// `convert`: write a compressed (v2) snapshot.
    compress: bool,
    /// `convert`: offline vertex reordering before compression.
    reorder: Reorder,
    /// `--trace` → `Some(None)` (stderr); `--trace=path` → `Some(Some(path))`.
    trace: Option<Option<String>>,
    /// `serve`: warm worker sessions in the pool.
    workers: Option<usize>,
    /// `serve`: TCP port (0 = ephemeral, printed on startup).
    port: u16,
    /// `serve`: admission-queue bound.
    queue: Option<usize>,
    /// `loadgen`: concurrent client connections.
    clients: Option<usize>,
    /// `loadgen`: requests per client.
    requests: Option<usize>,
    /// `loadgen`: snapshot id to target.
    snapshot_id: u32,
    /// `loadgen`: send a shutdown frame after the load completes.
    shutdown: bool,
}

/// Flags that take a value, given as `--name value` or `--name=value`.
const VALUED_FLAGS: [&str; 11] = [
    "threads",
    "strategy",
    "determinism",
    "runs",
    "workers",
    "port",
    "queue",
    "clients",
    "requests",
    "snapshot",
    "reorder",
];

/// Extracts the flags (anywhere in the argument list), returning the
/// remaining positional arguments and the parsed flags. A valued flag
/// takes its value inline (`--threads=4`) or from the next argument
/// (`--threads 4`); `--weighted`, `--compress` and `--shutdown` take none,
/// and `--trace` takes only an inline path. `allowed` names the flags
/// the calling subcommand actually consumes — anything else, recognized
/// or not, is rejected rather than being silently absorbed or ignored.
fn extract_flags(args: &[String], allowed: &[&str]) -> Result<(Vec<String>, RunFlags), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut flags = RunFlags {
        threads: None,
        strategy: Traversal::Auto,
        determinism: Determinism::BitExact,
        runs: None,
        weighted: false,
        compress: false,
        reorder: Reorder::None,
        trace: None,
        workers: None,
        port: 0,
        queue: None,
        clients: None,
        requests: None,
        snapshot_id: 0,
        shutdown: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            rest.push(arg.clone());
            continue;
        };
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (flag, None),
        };
        let valued = VALUED_FLAGS.contains(&name);
        let known = valued
            || name == "trace"
            || (inline.is_none() && ["weighted", "compress", "shutdown"].contains(&name));
        if !known {
            return Err(format!("unknown flag '{arg}'"));
        }
        if !allowed.contains(&name) {
            return Err(format!("--{name} is not supported by this command"));
        }
        let value = match inline {
            Some(value) => value,
            None if valued => it
                .next()
                .ok_or_else(|| format!("--{name}: missing value"))?,
            None => "",
        };
        // Every error names its flag.
        let named = |e: String| format!("--{name}: {e}");
        let bad = |_| named(format!("bad value '{value}'"));
        match name {
            "threads" => flags.threads = Some(parse_count(name, value)?),
            "runs" => flags.runs = Some(parse_count(name, value)?),
            "workers" => flags.workers = Some(parse_count(name, value)?),
            "clients" => flags.clients = Some(parse_count(name, value)?),
            "requests" => flags.requests = Some(parse_count(name, value)?),
            "strategy" => flags.strategy = value.parse().map_err(named)?,
            "determinism" => flags.determinism = value.parse().map_err(named)?,
            "reorder" => flags.reorder = value.parse().map_err(named)?,
            "port" => flags.port = value.parse().map_err(bad)?,
            "queue" => flags.queue = Some(value.parse().map_err(bad)?),
            "snapshot" => flags.snapshot_id = value.parse().map_err(bad)?,
            "weighted" => flags.weighted = true,
            "compress" => flags.compress = true,
            "shutdown" => flags.shutdown = true,
            "trace" if inline == Some("") => return Err("--trace=: missing path".into()),
            "trace" => flags.trace = Some(inline.map(str::to_string)),
            _ => unreachable!("every known flag is handled"),
        }
    }
    Ok((rest, flags))
}

/// Parses the value of a count flag (`--threads`, `--runs`, …): a
/// positive integer.
fn parse_count(name: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err(format!("--{name}: need at least one")),
        Ok(k) => Ok(k),
        Err(_) => Err(format!("--{name}: bad value '{value}'")),
    }
}

/// Escapes a user-supplied string for embedding in the hand-rolled JSON
/// output (quotes, backslashes, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Export format for a collected trace.
#[derive(Clone, Copy, PartialEq)]
enum TraceFormat {
    Human,
    Json,
    Chrome,
}

/// A resolved tracing request: which exporter to use and where the
/// rendered trace goes (`--trace=path` → file, otherwise stderr).
struct TraceSink {
    format: TraceFormat,
    path: Option<String>,
}

/// Resolves the `--trace[=path]` flag and the `MPX_TRACE` environment
/// variable into an optional [`TraceSink`]. Either one enables tracing.
/// Format precedence: the `MPX_TRACE` value (`human` | `json` |
/// `chrome`; `1`/`true` are aliases for `human`) if set, else a `.json`
/// path extension implies JSON, else the human phase tree.
/// `MPX_TRACE=0` or empty is the same as unset.
fn resolve_trace(flag: &Option<Option<String>>) -> Result<Option<TraceSink>, String> {
    let env = std::env::var("MPX_TRACE")
        .ok()
        .filter(|v| !v.is_empty() && v != "0");
    let env_format = match env.as_deref() {
        None => None,
        Some("human" | "1" | "true") => Some(TraceFormat::Human),
        Some("json") => Some(TraceFormat::Json),
        Some("chrome") => Some(TraceFormat::Chrome),
        Some(other) => {
            return Err(format!(
                "MPX_TRACE: unknown format '{other}' (use human | json | chrome)"
            ))
        }
    };
    if flag.is_none() && env_format.is_none() {
        return Ok(None);
    }
    let path = flag.as_ref().and_then(|p| p.clone());
    let format = env_format.unwrap_or_else(|| match &path {
        Some(p) if p.ends_with(".json") => TraceFormat::Json,
        _ => TraceFormat::Human,
    });
    Ok(Some(TraceSink { format, path }))
}

/// Renders a finished trace to its sink: the file named by
/// `--trace=path`, else stderr (stdout stays reserved for the command's
/// own report so `mpx ... --trace | jq` keeps working).
fn emit_trace(trace: &mpx::trace::Trace, sink: &TraceSink) -> Result<(), String> {
    let rendered = match sink.format {
        TraceFormat::Human => trace.to_human(),
        TraceFormat::Json => trace.to_json(),
        TraceFormat::Chrome => trace.to_chrome_json(),
    };
    match &sink.path {
        Some(path) => {
            let mut bytes = rendered.into_bytes();
            if bytes.last() != Some(&b'\n') {
                bytes.push(b'\n');
            }
            std::fs::write(path, &bytes).map_err(|e| format!("--trace: {path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        None if rendered.ends_with('\n') => eprint!("{rendered}"),
        None => eprintln!("{rendered}"),
    }
    Ok(())
}

/// Runs `f` under the requested thread count: a dedicated pool for an
/// explicit `--threads`, the default pool (which honors `MPX_THREADS`)
/// otherwise.
fn with_thread_choice<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        Some(n) => mpx::runtime::Pool::new(n).install(f),
        None => f(),
    }
}

/// Parses a beta argument. Sanity (finite, positive) is the library's
/// centralized check: `DecompOptions::validate` via `try_new`, reported as
/// a typed `ConfigError`.
fn parse_beta(s: &str) -> Result<f64, String> {
    let beta: f64 = s.parse().map_err(|_| "bad beta".to_string())?;
    DecompOptions::try_new(beta).map_err(|e| e.to_string())?;
    Ok(beta)
}

/// Parses a workload spec like `grid:100` or `rmat:12:8`; `file:<path>`
/// loads an on-disk graph of any supported format instead of generating
/// one. A bare path to an existing file also works, but only when the
/// spec is not valid generator syntax — a stray file named `grid:100`
/// must never shadow the grid generator.
fn parse_workload(spec: &str, seed: u64) -> Result<CsrGraph, String> {
    if let Some(path) = spec.strip_prefix("file:") {
        return read_unweighted(path).map_err(|e| format!("workload '{spec}': {e}"));
    }
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .ok_or_else(|| format!("workload '{spec}': missing field {i}"))?
            .parse()
            .map_err(|_| format!("workload '{spec}': bad number in field {i}"))
    };
    // Rejects a workload whose implied size (vertices, or a product like
    // side², n·d, n·m) exceeds the library's graph-size cap; `None` means
    // it already overflowed `usize`. The typed `ConfigError::TooLarge` is
    // the same n/m sanity check the library applies.
    let bounded = |what: &str, implied: Option<usize>| -> Result<usize, String> {
        implied.filter(|&s| s <= MAX_GRAPH_SIZE).ok_or_else(|| {
            let e = ConfigError::TooLarge {
                what: what.to_string(),
                implied,
            };
            format!("workload '{spec}': {e}")
        })
    };
    // A generator's precondition, checked here so a spec outside its
    // domain is a clean error instead of the generator's panic.
    let require = |ok: bool, what: &str| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("workload '{spec}': {what}"))
        }
    };
    match parts[0] {
        "grid" => {
            let side = num(1)?;
            require(side > 0, "grid side must be positive")?;
            bounded("grid size side*side", side.checked_mul(side))?;
            Ok(gen::grid2d(side, side))
        }
        "rmat" => {
            let scale = num(1)?;
            if scale > 28 {
                return Err(format!(
                    "workload '{spec}': rmat scale {scale} too large (max 28)"
                ));
            }
            // `rmat:<scale>` alone defaults the edge factor to 8.
            let ef = if parts.len() > 2 { num(2)? } else { 8 };
            let m = bounded("edge count", ef.checked_mul(1usize << scale))?;
            Ok(gen::rmat(scale as u32, m, 0.57, 0.19, 0.19, seed))
        }
        "gnm" => {
            let n = bounded("vertex count", Some(num(1)?))?;
            let m = bounded("edge count", Some(num(2)?))?;
            let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
            require(
                m <= pairs / 2 || pairs <= 64,
                "gnm edge count must be at most half of the n*(n-1)/2 vertex pairs",
            )?;
            Ok(gen::gnm(n, m, seed))
        }
        "ba" => {
            let (n, m) = (num(1)?, num(2)?);
            require(m >= 1, "ba attachment count m must be at least 1")?;
            require(
                n > m,
                "ba needs more vertices than the attachment count (n > m)",
            )?;
            bounded("edge count n*m", n.checked_mul(m))?;
            Ok(gen::barabasi_albert(n, m, seed))
        }
        "regular" => {
            let (n, d) = (num(1)?, num(2)?);
            bounded("edge count n*d", n.checked_mul(d))?;
            require(d < n, "regular degree d must be less than n")?;
            require((n * d).is_multiple_of(2), "regular needs n*d even")?;
            Ok(gen::random_regular(n, d, seed))
        }
        "path" => Ok(gen::path(bounded("vertex count", Some(num(1)?))?)),
        "sbm" => {
            let (n, k) = (num(1)?, num(2)?);
            require(
                (1..=n.max(1)).contains(&k),
                "sbm block count k must be between 1 and n",
            )?;
            // Expected edges ≈ p_in·n²/(2k) with p_in = 0.1.
            bounded(
                "expected edge count",
                n.checked_mul(n).map(|s| s / 20 / k.max(1)),
            )?;
            Ok(gen::sbm(n, k, 0.1, 0.005, seed))
        }
        other => {
            if std::path::Path::new(spec).is_file() {
                read_unweighted(spec).map_err(|e| format!("workload '{spec}': {e}"))
            } else {
                Err(format!("unknown workload family '{other}'"))
            }
        }
    }
}

/// Weighted twin of [`parse_workload`]: `file:<path>` (or a bare path)
/// loads a weighted edge list or weighted snapshot as-is; a generator
/// spec builds the unweighted topology and attaches deterministic
/// `U[0.25, 4]` edge lengths hashed from the seed and the endpoints —
/// reproducible across runs and thread counts.
fn parse_weighted_workload(spec: &str, seed: u64) -> Result<WeightedCsrGraph, String> {
    let from_file = |path: &str| read_weighted(path).map_err(|e| format!("workload '{spec}': {e}"));
    if let Some(path) = spec.strip_prefix("file:") {
        return from_file(path);
    }
    if !spec.contains(':') && std::path::Path::new(spec).is_file() {
        return from_file(spec);
    }
    let g = parse_workload(spec, seed)?;
    Ok(attach_hashed_lengths(&g, seed))
}

/// Deterministic `U[0.25, 4]` edge lengths: one hash per undirected edge,
/// keyed by `(seed, u, v)` with `u < v`, so the weighted graph is a pure
/// function of the spec and seed.
fn attach_hashed_lengths(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r = (mpx::par::rng::hash_index(seed, ((u as u64) << 32) | v as u64) >> 11) as f64
                / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

/// Output format implied by a path: by extension, defaulting to edge list
/// (matching the historical behaviour of `mpx gen <spec> <out.txt>`).
fn format_for_output(path: &str) -> GraphFormat {
    GraphFormat::from_extension(std::path::Path::new(path)).unwrap_or(GraphFormat::EdgeList)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (args, flags) = extract_flags(args, &["weighted"])?;
    let spec = args.first().ok_or("gen: missing workload")?;
    let out = args.get(1).ok_or("gen: missing output path")?;
    let seed: u64 = args
        .get(2)
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad seed".to_string()))?;
    let format = format_for_output(out);
    if flags.weighted {
        // Same deterministic length model as `profile --weighted`, so
        // `gen --weighted` + `partition --weighted` reproduce the profiled
        // graph exactly. Weighted writers: edge list or snapshot only.
        let g = parse_weighted_workload(spec, seed)?;
        write_weighted(&g, out, format)?;
        println!(
            "wrote {out} ({format}, weighted): n={} m={}",
            g.num_vertices(),
            g.num_edges()
        );
        return Ok(());
    }
    let g = parse_workload(spec, seed)?;
    io::write_graph(&g, out, format).map_err(|e| e.to_string())?;
    println!(
        "wrote {out} ({format}): n={} m={}",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats: missing graph path")?;
    let g = read_unweighted(path)?;
    println!("{}", mpx::graph::properties::GraphStats::of(&g));
    let hist = mpx::graph::properties::degree_histogram(&g);
    println!("degree histogram (powers of two): {hist:?}");
    Ok(())
}

/// Opens `path` through [`Snapshot::open`] when it is a `.mpx` snapshot,
/// whose header picks the format; `Ok(None)` means a text file.
fn open_snapshot(path: &str) -> Result<Option<Snapshot>, String> {
    if io::detect_format(path).map_err(|e| e.to_string())? != GraphFormat::Snapshot {
        return Ok(None);
    }
    Snapshot::open(path).map(Some).map_err(|e| e.to_string())
}

/// The error for a snapshot of the other kind than `--weighted` asks for:
/// the flag, not the file, picks the kind.
fn kind_mismatch(path: &str, snapshot_weighted: bool) -> String {
    let (kind, flag) = match snapshot_weighted {
        true => ("a weighted", "not set"),
        false => ("an unweighted", "set"),
    };
    format!("{path} is {kind} snapshot, but --weighted is {flag}")
}

/// Parses an unweighted text graph of any supported format.
fn read_text(path: &str) -> Result<CsrGraph, String> {
    io::read_graph(path).map_err(|e| e.to_string())
}

/// Parses a weighted edge list (`u v w`), the one weighted text format.
fn read_weighted_text(path: &str) -> Result<WeightedCsrGraph, String> {
    match io::detect_format(path).map_err(|e| e.to_string())? {
        GraphFormat::EdgeList => io::read_weighted_edge_list(path).map_err(|e| e.to_string()),
        other => Err(format!(
            "no weighted reader for {other} files (use a weighted edge list or .mpx snapshot)"
        )),
    }
}

/// Reads any unweighted input into memory, in original vertex ids: a
/// reordered v2 snapshot is relabelled back, so every command and every
/// convert round trip sees the graph that was written.
fn read_unweighted(path: &str) -> Result<CsrGraph, String> {
    match open_snapshot(path)? {
        None => read_text(path),
        Some(Snapshot::Unweighted(m)) => Ok(m.to_graph()),
        Some(Snapshot::Compressed(c)) => Ok(match c.permutation() {
            Some(new_to_old) => {
                // Original id o lives at stored id old_to_new[o].
                let mut old_to_new = vec![0 as Vertex; new_to_old.len()];
                for (new_id, &old_id) in new_to_old.iter().enumerate() {
                    old_to_new[old_id as usize] = new_id as Vertex;
                }
                apply_permutation(&c.to_graph(), &old_to_new)
            }
            None => c.to_graph(),
        }),
        Some(Snapshot::Weighted(_)) => Err(kind_mismatch(path, true)),
    }
}

/// Reads any weighted input (weighted edge list or weighted snapshot)
/// into memory.
fn read_weighted(path: &str) -> Result<WeightedCsrGraph, String> {
    match open_snapshot(path)? {
        None => read_weighted_text(path),
        Some(Snapshot::Weighted(m)) => Ok(m.to_graph()),
        Some(_) => Err(kind_mismatch(path, false)),
    }
}

/// Writes a weighted edge list (f64s at full precision) or a weighted
/// snapshot (raw bits): weights survive either round trip bit-for-bit.
fn write_weighted(g: &WeightedCsrGraph, out: &str, format: GraphFormat) -> Result<(), String> {
    let written = match format {
        GraphFormat::Snapshot => snapshot::write_weighted_snapshot(g, out),
        GraphFormat::EdgeList => io::write_weighted_edge_list(g, out),
        other => {
            return Err(format!(
                "no weighted writer for {other} files (use .mpx or an edge-list extension)"
            ))
        }
    };
    written.map_err(|e| e.to_string())
}

/// `mpx convert <in> <out>` — transcodes between any two supported
/// formats. Input format is auto-detected; output format follows the
/// output extension. `--weighted` transcodes weights too: weighted edge list ⇄ weighted
/// `.mpx` snapshot, weights preserved bit-for-bit. `--compress` writes a
/// delta-varint compressed v2 snapshot instead of the raw v1 layout, and
/// `--reorder degree|bfs` (implies `--compress`) relabels vertices for
/// locality first, persisting the permutation in the snapshot so
/// partitions still report original-id labels.
fn cmd_convert(args: &[String]) -> Result<(), String> {
    let (args, flags) = extract_flags(args, &["threads", "weighted", "compress", "reorder"])?;
    let input = args.first().ok_or("convert: missing input path")?;
    let out = args.get(1).ok_or("convert: missing output path")?;
    if flags.compress || flags.reorder != Reorder::None {
        if flags.weighted {
            return Err("convert: --compress/--reorder apply to unweighted graphs only".into());
        }
        return convert_compressed(input, out, &flags);
    }
    let in_format = io::detect_format(input).map_err(|e| e.to_string())?;
    // Unlike `gen` (where a bare output path defaulting to edge list is
    // historical behavior), convert's whole job is format selection — an
    // unrecognized extension is a typo, not a request for text.
    let out_format =
        GraphFormat::from_extension(std::path::Path::new(out.as_str())).ok_or_else(|| {
            format!(
                "convert: unrecognized output extension in '{out}' \
                 (use .mpx | .txt/.el/.edges | .gr/.dimacs | .metis/.graph)"
            )
        })?;
    // The graph builder's sorts and the snapshot checksum have parallel
    // inner loops, so the whole transcode honors --threads.
    let (n, m) = with_thread_choice(flags.threads, || {
        if flags.weighted {
            let g = read_weighted(input)?;
            write_weighted(&g, out, out_format)?;
            Ok((g.num_vertices(), g.num_edges()))
        } else {
            let g = read_unweighted(input)?;
            io::write_graph(&g, out, out_format).map_err(|e| e.to_string())?;
            Ok::<_, String>((g.num_vertices(), g.num_edges()))
        }
    })?;
    let kind = if flags.weighted { ", weighted" } else { "" };
    println!("converted {input} ({in_format}{kind}) -> {out} ({out_format}): n={n} m={m}");
    Ok(())
}

/// The `--compress`/`--reorder` arm of `convert`: writes a delta-varint
/// compressed v2 snapshot, optionally relabeled for locality first (the
/// `new id → original id` permutation rides in the file). The freshly
/// written snapshot is re-opened through the mmap reader — running its
/// full structural audit — before success is reported.
fn convert_compressed(input: &str, out: &str, flags: &RunFlags) -> Result<(), String> {
    let in_format = io::detect_format(input).map_err(|e| e.to_string())?;
    if GraphFormat::from_extension(std::path::Path::new(out)) != Some(GraphFormat::Snapshot) {
        return Err(format!(
            "convert: --compress writes snapshots; output '{out}' needs a .mpx extension"
        ));
    }
    let (n, m, bytes_per_arc, ratio) = with_thread_choice(flags.threads, || {
        let g = read_unweighted(input)?;
        let perm = reorder_permutation(&g, flags.reorder);
        let stored = match &perm {
            Some(p) => apply_permutation(&g, p),
            None => g.clone(),
        };
        write_compressed_snapshot(&stored, perm.as_deref(), out).map_err(|e| e.to_string())?;
        let c = MappedCompressedCsr::open(out).map_err(|e| e.to_string())?;
        let v2_bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
        // The raw v1 snapshot of the same graph: header + u64 offsets +
        // u32 arcs.
        let v1_bytes =
            (snapshot::HEADER_LEN + 8 * (g.num_vertices() + 1) + 4 * 2 * g.num_edges()) as u64;
        Ok::<_, String>((
            g.num_vertices(),
            g.num_edges(),
            c.bytes_per_arc(),
            v2_bytes as f64 / v1_bytes as f64,
        ))
    })?;
    println!(
        "converted {input} ({in_format}) -> {out} (snapshot v2, reorder={}): \
         n={n} m={m} bytes_per_arc={bytes_per_arc:.3} size_vs_v1={ratio:.3}",
        flags.reorder
    );
    Ok(())
}

/// `mpx inspect <graph>` — prints the detected format, header fields for
/// snapshots, and cheap structure statistics (n, m, degree spread) plus
/// edge-length statistics for weighted graphs. A snapshot is reported as
/// its header says; `--weighted` reads a text file as a weighted edge
/// list.
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let (args, flags) = extract_flags(args, &["weighted"])?;
    let path = args.first().ok_or("inspect: missing graph path")?;
    let format = io::detect_format(path).map_err(|e| e.to_string())?;
    println!("path: {path}");
    println!("format: {format}");
    let Some(snap) = open_snapshot(path)? else {
        if flags.weighted {
            let g = read_weighted_text(path)?;
            print_degrees(&g, "owned (parsed/decoded) (weighted)");
            print_weights(&g);
        } else {
            let g = read_text(path)?;
            print_degrees(&g, "owned (parsed/decoded)");
        }
        return Ok(());
    };
    let header = snap.header();
    println!(
        "header: version={} flags={:#x} n={} m={} checksum={:#018x}",
        header.version, header.flags, header.n, header.m, header.checksum
    );
    let load = if snap.is_mapped() {
        "zero-copy mmap"
    } else {
        "owned buffer"
    };
    match &snap {
        Snapshot::Unweighted(m) => print_degrees(m, load),
        Snapshot::Weighted(m) => {
            print_degrees(m, &format!("{load} (weighted)"));
            print_weights(m);
        }
        Snapshot::Compressed(c) => {
            println!(
                "v2: compressed={} permuted={} enc_len={}",
                header.is_compressed(),
                header.is_permuted(),
                header.enc_len
            );
            let arcs = 2 * header.m;
            println!(
                "encoding: bytes_per_arc={:.3} raw_bytes_per_arc=4.000 compression_ratio={:.3}",
                c.bytes_per_arc(),
                if arcs == 0 {
                    0.0
                } else {
                    header.enc_len as f64 / (4 * arcs) as f64
                }
            );
            print_degrees(c, &format!("{load} (streaming decode)"));
        }
    }
    Ok(())
}

/// The structure lines of `inspect`: how the graph was loaded, `n`, `m`
/// and the degree spread.
fn print_degrees<V: GraphView>(g: &V, load: &str) {
    let n = g.num_vertices();
    let m = g.total_degree() / 2;
    println!("load: {load}");
    println!("n: {n}");
    println!("m: {m}");
    let (mut min_deg, mut max_deg, mut isolated) = (usize::MAX, 0usize, 0usize);
    for v in 0..n as Vertex {
        let d = g.degree(v);
        min_deg = min_deg.min(d);
        max_deg = max_deg.max(d);
        isolated += usize::from(d == 0);
    }
    if n == 0 {
        min_deg = 0;
    }
    let avg = if n == 0 {
        0.0
    } else {
        2.0 * m as f64 / n as f64
    };
    println!("degree: min={min_deg} avg={avg:.2} max={max_deg} isolated={isolated}");
}

/// The edge-length line of a weighted `inspect`.
fn print_weights<W: WeightedGraphView>(g: &W) {
    let (mut min_w, mut max_w) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in 0..g.num_vertices() as Vertex {
        for (_, w) in g.neighbors_weighted_iter(v) {
            min_w = min_w.min(w);
            max_w = max_w.max(w);
        }
    }
    if g.total_degree() == 0 {
        min_w = 0.0;
        max_w = 0.0;
    }
    println!(
        "weights: min={min_w} total={} max={max_w}",
        g.total_weight()
    );
}

/// `mpx partition <graph> <beta> [seed] [labels-out.txt]` — decomposes,
/// prints the stats and engine lines, verifies, and writes the labels.
/// `.mpx` inputs stay memory-mapped: the engine and the verifier traverse
/// the file's pages, compressed ones through streaming decode. The
/// header picks the snapshot format; `--weighted` picks the kind.
fn cmd_partition(args: &[String]) -> Result<(), String> {
    let (args, flags) = extract_flags(
        args,
        &["threads", "strategy", "determinism", "weighted", "trace"],
    )?;
    let path = args.first().ok_or("partition: missing graph path")?;
    let beta = parse_beta(args.get(1).ok_or("partition: missing beta")?)?;
    let seed: u64 = args
        .get(2)
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad seed".to_string()))?;
    let sink = resolve_trace(&flags.trace)?;
    let run = PartitionRun {
        opts: DecompOptions::new(beta)
            .with_seed(seed)
            .with_traversal(flags.strategy)
            .with_determinism(flags.determinism),
        flags: &flags,
        labels_out: args.get(3),
        // The trace session brackets loading + decomposition, so ingest
        // and snapshot spans land in the same tree as the engine rounds.
        trace: sink.map(|sink| (mpx::trace::start(), sink)),
    };
    // Loading happens inside the thread choice so `--threads` bounds the
    // builder's sorts and the audits too, not just the decomposition.
    let snapshot = with_thread_choice(flags.threads, || open_snapshot(path))?;
    let source = match &snapshot {
        Some(snap) if snap.is_mapped() => "mmap",
        _ => "owned",
    };
    match (snapshot, flags.weighted) {
        (Some(Snapshot::Unweighted(m)), false) => run.unweighted(&m, None, source),
        (Some(Snapshot::Compressed(c)), false) => {
            run.unweighted(&c, c.permutation(), &format!("{source}-compressed"))
        }
        (Some(Snapshot::Weighted(m)), true) => run.weighted(&m, source),
        (Some(snap), _) => Err(kind_mismatch(path, snap.is_weighted())),
        (None, false) => {
            let g = with_thread_choice(flags.threads, || read_text(path))?;
            run.unweighted(&g, None, source)
        }
        (None, true) => {
            let g = with_thread_choice(flags.threads, || read_weighted_text(path))?;
            run.weighted(&g, source)
        }
    }
}

/// A `partition` run once its input is open: the options, where the
/// labels go, and the trace session begun before loading.
struct PartitionRun<'a> {
    opts: DecompOptions,
    flags: &'a RunFlags,
    labels_out: Option<&'a String>,
    trace: Option<(mpx::trace::TraceSession, TraceSink)>,
}

impl PartitionRun<'_> {
    /// Decomposes and verifies on the view itself. With `perm`, a reordered
    /// snapshot's `new id → original id` section, shifts follow original
    /// ids and the labels file is remapped, so stdout and labels match the
    /// unreordered graph's (stats and verifier are permutation-invariant).
    fn unweighted<V: GraphView>(
        mut self,
        g: &V,
        perm: Option<&[Vertex]>,
        source: &str,
    ) -> Result<(), String> {
        let (n, m) = (g.num_vertices(), (g.total_degree() / 2) as usize);
        self.opts.validate_for(n, m).map_err(|e| e.to_string())?;
        let (d, telemetry) = with_thread_choice(self.flags.threads, || {
            let mut ws = Workspace::new();
            match perm {
                Some(p) => ws.partition_view_permuted(g, &self.opts, p),
                None => ws.partition_view(g, &self.opts),
            }
        });
        self.finish_trace(&[
            ("rounds", telemetry.rounds as f64),
            ("relaxations", telemetry.relaxations as f64),
            ("bottom_up_rounds", telemetry.bottom_up_rounds as f64),
            ("clusters", telemetry.clusters as f64),
        ])?;
        // The verifier's scan counts the cut and the radii the stats line
        // prints, so it runs first.
        let report = verify_decomposition(g, &d);
        println!("{}", DecompositionStats::from_report(&d, &report));
        println!(
            "engine: strategy={} determinism={} rounds={} relaxations={} bottom_up_rounds={} source={source}",
            self.flags.strategy.as_str(),
            self.flags.determinism.as_str(),
            telemetry.rounds,
            telemetry.relaxations,
            telemetry.bottom_up_rounds,
        );
        if !report.is_valid() {
            return Err(format!("verification FAILED: {:?}", report.errors));
        }
        println!("verified: partition + strong diameter + Lemma 4.1 hold");
        if let Some(out) = self.labels_out {
            let labels = match perm {
                Some(p) => d.remap_labels(p),
                None => d,
            };
            write_labels(out, labels.assignment())?;
        }
        Ok(())
    }

    /// The `--weighted` run: a weighted session (bucketed Δ-stepping),
    /// then the Section 6 checks.
    fn weighted<W: WeightedGraphView>(mut self, g: &W, source: &str) -> Result<(), String> {
        let (d, telemetry) = with_thread_choice(self.flags.threads, || {
            let mut session = DecomposerBuilder::from_options(self.opts.clone())
                .build_weighted(g)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(session.run_instrumented())
        })?;
        self.finish_trace(&[
            ("buckets", telemetry.buckets as f64),
            ("phases", telemetry.phases as f64),
            ("relaxations", telemetry.relaxations as f64),
            ("clusters", telemetry.clusters as f64),
            ("delta", telemetry.delta),
        ])?;
        // One O(m) cut pass; the fraction divides that count.
        let cut = d.cut_edges(g);
        let m = g.total_degree() / 2;
        println!(
            "clusters={} max_radius={:.4} cut_edges={cut} cut_fraction={:.4}",
            d.num_clusters(),
            d.max_radius(),
            if m == 0 { 0.0 } else { cut as f64 / m as f64 }
        );
        println!(
            "engine: strategy={} buckets={} phases={} relaxations={} delta={:.4} source={source}",
            self.flags.strategy.as_str(),
            telemetry.buckets,
            telemetry.phases,
            telemetry.relaxations,
            telemetry.delta,
        );
        verify_weighted(g, &d).map_err(|e| format!("verification FAILED: {e}"))?;
        println!(
            "verified: weighted partition + strong diameter + exact intra-cluster arrivals hold"
        );
        if let Some(out) = self.labels_out {
            write_labels(out, &d.assignment)?;
        }
        Ok(())
    }

    /// Ends the trace session and exports it with the engine's counters.
    fn finish_trace(&mut self, counters: &[(&str, f64)]) -> Result<(), String> {
        if let Some((session, sink)) = self.trace.take() {
            let mut trace = session.finish();
            for &(name, value) in counters {
                trace.set_counter(name, value);
            }
            emit_trace(&trace, &sink)?;
        }
        Ok(())
    }
}

/// Writes one cluster center per line to `path`. The explicit flush
/// reports a failed final write (a full disk, `/dev/full`) as an error;
/// dropping the `BufWriter` would discard it.
fn write_labels(path: &str, centers: &[Vertex]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{path}: {e}");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    for c in centers {
        writeln!(f, "{c}").map_err(err)?;
    }
    f.flush().map_err(err)?;
    println!("labels written to {path}");
    Ok(())
}

/// The runtime scheduler a determinism mode selects — recorded in the
/// `profile` report so it is self-describing.
fn scheduler_of(d: Determinism) -> &'static str {
    match d {
        Determinism::Fast => mpx_runtime::Scheduler::WorkStealing.as_str(),
        Determinism::BitExact => mpx_runtime::Scheduler::FixedChunk.as_str(),
    }
}

/// Expands a bare workload family name to a default spec so
/// `mpx profile grid 2.0` works without memorizing generator syntax;
/// full specs (and file paths) pass through untouched.
fn default_workload(spec: &str) -> String {
    match spec {
        "grid" => "grid:200",
        "rmat" => "rmat:12:8",
        "gnm" => "gnm:50000:200000",
        "ba" => "ba:20000:8",
        "regular" => "regular:20000:4",
        "path" => "path:50000",
        "sbm" => "sbm:20000:10",
        other => other,
    }
    .to_string()
}

/// `mpx profile <workload> <beta> [seed] [--runs K] [--threads N]
/// [--strategy S] [--weighted] [--trace[=path]]` — the phase-level
/// profiling report. Runs the decomposition K times (default 8, fresh
/// seeds `seed..seed+K`) through one warmed session with per-seed wall
/// clocks, then one more *traced* run, and emits a single JSON object on
/// stdout: the p50/p99 latency distribution, throughput, observed
/// round/relaxation maxima against the paper's `O(log n / β)` round
/// bound, one record per run, and the traced run's span tree. Two
/// invariants are hard-asserted (non-zero exit on violation): the traced
/// run's labels are bit-identical to the untraced run with the same
/// seed, and the span-derived round/relaxation counts equal the engine
/// telemetry exactly. `--trace[=path]` additionally exports the trace on
/// its own (file or stderr).
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let (args, flags) = extract_flags(
        args,
        &[
            "threads",
            "strategy",
            "determinism",
            "runs",
            "weighted",
            "trace",
        ],
    )?;
    let spec = default_workload(args.first().ok_or("profile: missing workload")?);
    let beta = parse_beta(args.get(1).ok_or("profile: missing beta")?)?;
    let seed: u64 = args
        .get(2)
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad seed".to_string()))?;
    let runs = flags.runs.unwrap_or(8);
    let sink = resolve_trace(&flags.trace)?;
    let effective_threads = flags.threads.unwrap_or_else(mpx::runtime::default_threads);
    let seeds: Vec<u64> = (0..runs as u64).map(|i| seed.wrapping_add(i)).collect();
    if flags.weighted {
        return profile_weighted(&spec, beta, seed, &seeds, effective_threads, &flags, sink);
    }
    let builder = DecomposerBuilder::new(beta)
        .seed(seed)
        .traversal(flags.strategy)
        .determinism(flags.determinism);
    let (g, report, baseline, traced, telemetry, trace) =
        with_thread_choice(flags.threads, || {
            let g = parse_workload(&spec, seed)?;
            let mut session = builder.build(&g).map_err(|e| e.to_string())?;
            // Warm the pool, the workspace and the page cache outside
            // every timing.
            let _ = session.run();
            let (mut outputs, report) = session.run_many_profiled(&seeds);
            let baseline = outputs.swap_remove(0);
            let (traced, telemetry, trace) = session.run_with_seed_traced(seeds[0]);
            drop(session);
            Ok::<_, String>((g, report, baseline, traced, telemetry, trace))
        })?;
    // Hard invariant 1: tracing must not perturb the output.
    let labels_match = traced == baseline;
    // Hard invariant 2: the span-derived counts must equal the engine
    // telemetry — one engine.round span per round, and the expand/scan
    // span args summing to the relaxation count.
    let span_rounds = trace.span_count("engine.round") as u64;
    let span_relax = (trace.sum_arg("engine.expand", "relaxations")
        + trace.sum_arg("engine.scan", "relaxations")) as u64;
    let consistent = trace.is_balanced()
        && span_rounds == telemetry.rounds
        && span_relax == telemetry.relaxations;
    let (n, m) = (g.num_vertices(), g.num_edges());
    // Theorem 1.1: radius (hence rounds) is O(log n / β) w.h.p. Reported
    // with generous constants rather than hard-failed — it is a
    // probabilistic guarantee, and `Decomposer::run_with_retry` is the
    // enforcement path.
    let round_bound = VerifyReport::radius_bound(n, beta);
    let max_rounds = report.max_rounds();
    let throughput = m as f64 / (report.latency.p50_ms / 1e3).max(1e-9);
    if let Some(sink) = &sink {
        emit_trace(&trace, sink)?;
    }

    // Hand-rolled JSON: stable key order, no external deps; the trace
    // exporter emits one self-contained object on the last line.
    println!("{{");
    println!("  \"workload\": \"{}\",", json_escape(&spec));
    println!("  \"beta\": {beta},");
    println!("  \"seed\": {seed},");
    println!("  \"runs\": {runs},");
    println!("  \"threads\": {effective_threads},");
    println!("  \"strategy\": \"{}\",", flags.strategy.as_str());
    println!("  \"determinism\": \"{}\",", flags.determinism.as_str());
    println!("  \"scheduler\": \"{}\",", scheduler_of(flags.determinism));
    println!("  \"n\": {n},");
    println!("  \"m\": {m},");
    println!(
        "  \"latency_ms\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3} }},",
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.latency.mean_ms,
        report.latency.min_ms,
        report.latency.max_ms
    );
    println!("  \"throughput_edges_per_s\": {throughput:.0},");
    println!(
        "  \"rounds\": {{ \"max\": {max_rounds}, \"bound\": {round_bound}, \"within_bound\": {} }},",
        max_rounds <= round_bound
    );
    println!(
        "  \"relaxations\": {{ \"max\": {}, \"per_edge\": {:.3} }},",
        report.max_relaxations(),
        report.max_relaxations() as f64 / (2 * m).max(1) as f64
    );
    print!("  \"per_run\": [");
    for (i, s) in report.samples.iter().enumerate() {
        if i > 0 {
            print!(", ");
        }
        print!(
            "{{ \"seed\": {}, \"ms\": {:.3}, \"rounds\": {}, \"relaxations\": {}, \"clusters\": {} }}",
            s.seed, s.ms, s.rounds, s.relaxations, s.clusters
        );
    }
    println!("],");
    println!(
        "  \"checks\": {{ \"labels_match_traced\": {labels_match}, \"telemetry_consistent\": {consistent}, \"trace_balanced\": {} }},",
        trace.is_balanced()
    );
    println!("  \"trace\": {}", trace.to_json());
    println!("}}");
    if !labels_match {
        return Err("profile: traced labels differ from untraced labels".into());
    }
    if !consistent {
        return Err(format!(
            "profile: trace/telemetry mismatch (span rounds {span_rounds} vs {}, span relaxations {span_relax} vs {}, unmatched {})",
            telemetry.rounds, telemetry.relaxations, trace.unmatched
        ));
    }
    Ok(())
}

/// The `--weighted` arm of `profile`: same report over the weighted
/// session (Δ-stepping under every strategy). The consistency invariant
/// checks `wengine.phase` span counts against `telemetry.phases` and the
/// `wengine.relax` mark counts against `telemetry.relaxations`; the
/// label check compares the whole traced and untraced outputs (labels,
/// distance and arrival bits); `verified` runs `verify_weighted` on the
/// traced output under the same thread choice.
fn profile_weighted(
    spec: &str,
    beta: f64,
    seed: u64,
    seeds: &[u64],
    effective_threads: usize,
    flags: &RunFlags,
    sink: Option<TraceSink>,
) -> Result<(), String> {
    let builder = DecomposerBuilder::new(beta)
        .seed(seed)
        .traversal(flags.strategy)
        .determinism(flags.determinism);
    let (g, report, baseline, traced, telemetry, trace, verdict) =
        with_thread_choice(flags.threads, || {
            let g = parse_weighted_workload(spec, seed)?;
            let mut session = builder.build_weighted(&g).map_err(|e| e.to_string())?;
            let _ = session.run();
            let (mut outputs, report) = session.run_many_profiled(seeds);
            let baseline = outputs.swap_remove(0);
            let (traced, telemetry, trace) = session.run_with_seed_traced(seeds[0]);
            drop(session);
            let verdict = verify_weighted(&g, &traced);
            Ok::<_, String>((g, report, baseline, traced, telemetry, trace, verdict))
        })?;
    // Every field is a pure function of the seed: `==` compares centers,
    // distances and arrivals (no NaN or −0.0 arises, so equal values have
    // equal bits).
    let labels_match = traced == baseline;
    let verified = verdict.is_ok();
    let span_phases = trace.span_count("wengine.phase") as u64;
    let mark_relax = trace.sum_mark_arg("wengine.relax", "count") as u64;
    let consistent = trace.is_balanced()
        && span_phases == telemetry.phases
        && mark_relax == telemetry.relaxations;
    let (n, m) = (g.num_vertices(), g.num_edges());
    let throughput = m as f64 / (report.latency.p50_ms / 1e3).max(1e-9);
    let max_phases = report.samples.iter().map(|s| s.phases).max().unwrap_or(0);
    let max_buckets = report.samples.iter().map(|s| s.buckets).max().unwrap_or(0);
    let max_relaxations = report
        .samples
        .iter()
        .map(|s| s.relaxations)
        .max()
        .unwrap_or(0);
    if let Some(sink) = &sink {
        emit_trace(&trace, sink)?;
    }

    println!("{{");
    println!("  \"workload\": \"{}\",", json_escape(spec));
    println!("  \"weighted\": true,");
    println!("  \"beta\": {beta},");
    println!("  \"seed\": {seed},");
    println!("  \"runs\": {},", seeds.len());
    println!("  \"threads\": {effective_threads},");
    println!("  \"strategy\": \"{}\",", flags.strategy.as_str());
    println!("  \"determinism\": \"{}\",", flags.determinism.as_str());
    println!("  \"scheduler\": \"{}\",", scheduler_of(flags.determinism));
    println!("  \"n\": {n},");
    println!("  \"m\": {m},");
    println!(
        "  \"latency_ms\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3} }},",
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.latency.mean_ms,
        report.latency.min_ms,
        report.latency.max_ms
    );
    println!("  \"throughput_edges_per_s\": {throughput:.0},");
    println!(
        "  \"weighted_telemetry\": {{ \"buckets\": {max_buckets}, \"phases\": {max_phases}, \"relaxations\": {max_relaxations}, \"delta\": {:.6}, \"cas_success\": {}, \"cas_retries\": {} }},",
        telemetry.delta, telemetry.cas_success, telemetry.cas_retries
    );
    print!("  \"per_run\": [");
    for (i, s) in report.samples.iter().enumerate() {
        if i > 0 {
            print!(", ");
        }
        print!(
            "{{ \"seed\": {}, \"ms\": {:.3}, \"buckets\": {}, \"phases\": {}, \"relaxations\": {}, \"clusters\": {} }}",
            s.seed, s.ms, s.buckets, s.phases, s.relaxations, s.clusters
        );
    }
    println!("],");
    println!(
        "  \"checks\": {{ \"labels_match_traced\": {labels_match}, \"telemetry_consistent\": {consistent}, \"trace_balanced\": {}, \"verified\": {verified} }},",
        trace.is_balanced()
    );
    println!("  \"trace\": {}", trace.to_json());
    println!("}}");
    if !labels_match {
        return Err("profile: traced labels differ from untraced labels".into());
    }
    if let Err(e) = verdict {
        return Err(format!("profile: weighted verification FAILED: {e}"));
    }
    if !consistent {
        return Err(format!(
            "profile: trace/telemetry mismatch (span phases {span_phases} vs {}, mark relaxations {mark_relax} vs {}, unmatched {})",
            telemetry.phases, telemetry.relaxations, trace.unmatched
        ));
    }
    Ok(())
}

/// `mpx serve <snapshot.mpx>... [--threads N] [--workers K] [--port P]
/// [--queue Q]` — long-running decomposition server over mmap'd
/// snapshots. Prints `listening on <addr>` once bound (CI greps for
/// it), then blocks until a client sends a shutdown frame.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (rest, flags) = extract_flags(args, &["threads", "workers", "port", "queue"])?;
    if rest.is_empty() {
        return Err("serve: need at least one .mpx snapshot".into());
    }
    if let Some(n) = flags.threads {
        // The engine's process-global pool sizes itself from MPX_THREADS
        // on first use; pin it before any decomposition runs. (Requests
        // arrive on plain connection threads, which dispatch parallel
        // work to that global pool.)
        std::env::set_var("MPX_THREADS", n.to_string());
    }
    let mut snapshots = Vec::with_capacity(rest.len());
    for (id, path) in rest.iter().enumerate() {
        let snap = Snapshot::open(path).map_err(|e| format!("serve: {path}: {e}"))?;
        eprintln!(
            "snapshot {id}: {path} ({} vertices, {} edges, {})",
            snap.num_vertices(),
            snap.num_edges(),
            if snap.is_weighted() {
                "weighted"
            } else {
                "unweighted"
            }
        );
        snapshots.push(snap);
    }
    let mut config = mpx::serve::ServerConfig::default();
    if let Some(w) = flags.workers {
        config.workers = w;
        config.queue_depth = 2 * w;
    }
    if let Some(q) = flags.queue {
        config.queue_depth = q;
    }
    let server = mpx::serve::Server::bind(("127.0.0.1", flags.port), snapshots, config)
        .map_err(|e| format!("serve: bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    println!(
        "listening on {addr} ({} workers, queue {})",
        config.workers, config.queue_depth
    );
    std::io::stdout().flush().ok();
    let stats = server.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "served {} requests over {} connections ({} protocol errors, {} overloaded, {} drained, {} verify failures, in-flight hwm {})",
        stats.served,
        stats.connections,
        stats.protocol_errors,
        stats.rejected_overload,
        stats.drained,
        stats.verify_failures,
        stats.in_flight_hwm
    );
    Ok(())
}

/// `mpx loadgen <host:port> <beta> [seed] [--clients C] [--requests R]
/// [--strategy S] [--determinism D] [--snapshot I] [--shutdown]` —
/// hammers a running server and prints the `BENCH_serve` JSON report
/// (p50/p99 latency, requests/sec) to stdout.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let (rest, flags) = extract_flags(
        args,
        &[
            "clients",
            "requests",
            "strategy",
            "determinism",
            "snapshot",
            "shutdown",
        ],
    )?;
    let addr = rest
        .first()
        .ok_or("loadgen: missing server address")?
        .clone();
    let beta = parse_beta(rest.get(1).ok_or("loadgen: missing beta")?)?;
    let seed: u64 = match rest.get(2) {
        Some(s) => s.parse().map_err(|_| format!("loadgen: bad seed '{s}'"))?,
        None => 1,
    };
    if rest.len() > 3 {
        return Err(format!("loadgen: unexpected argument '{}'", rest[3]));
    }
    let config = mpx::serve::LoadgenConfig {
        clients: flags.clients.unwrap_or(4),
        requests: flags.requests.unwrap_or(32),
        snapshot: flags.snapshot_id,
        beta,
        seed,
        traversal: flags.strategy,
        determinism: flags.determinism,
        ..mpx::serve::LoadgenConfig::default()
    };
    let report =
        mpx::serve::loadgen::run(addr.as_str(), &config).map_err(|e| format!("loadgen: {e}"))?;
    print!("{}", report.to_json());
    std::io::stdout().flush().ok();
    if flags.shutdown {
        let mut client =
            mpx::serve::Client::connect(addr.as_str()).map_err(|e| format!("loadgen: {e}"))?;
        client
            .shutdown()
            .map_err(|e| format!("loadgen: shutdown: {e}"))?;
    }
    if report.errors > 0 || report.rejected > 0 {
        return Err(format!(
            "loadgen: {} requests failed, {} rejected after retries (of {})",
            report.errors,
            report.rejected,
            config.clients * config.requests
        ));
    }
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let side: usize = args
        .first()
        .ok_or("render-grid: missing side")?
        .parse()
        .map_err(|_| "bad side".to_string())?;
    let beta = parse_beta(args.get(1).ok_or("render-grid: missing beta")?)?;
    let out = args.get(2).ok_or("render-grid: missing output path")?;
    let seed: u64 = args
        .get(3)
        .map_or(Ok(2013), |s| s.parse().map_err(|_| "bad seed".to_string()))?;
    // Built through the workload parser so a side that is zero or whose
    // side² exceeds the graph-size cap is the same typed error as `gen`.
    let g =
        parse_workload(&format!("grid:{side}"), seed).map_err(|e| format!("render-grid: {e}"))?;
    let d = mpx::decomp::partition(&g, &DecompOptions::new(beta).with_seed(seed));
    let img = mpx::viz::render_grid_partition(side, side, &d);
    img.write(out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} clusters, max radius {}",
        d.num_clusters(),
        d.max_radius()
    );
    Ok(())
}
