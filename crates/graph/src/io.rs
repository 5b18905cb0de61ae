//! Graph serialization: plain edge lists, DIMACS shortest-path format,
//! METIS adjacency format and the `.mpx` binary snapshot (see
//! [`crate::snapshot`]), plus format auto-detection and **parallel text
//! ingestion**.
//!
//! # Two parser generations
//!
//! Every text format has a *sequential* reader (`read_edge_list`,
//! `read_dimacs`, `read_metis`) — simple line-at-a-time reference
//! implementations — and the record-oriented formats additionally have a
//! *parallel* reader (`read_edge_list_parallel`, `read_dimacs_parallel`)
//! built on [`mpx_runtime::chunk`]: the file is split into byte ranges
//! aligned to line boundaries, chunks are parsed concurrently, and the CSR
//! arrays are assembled by a two-pass degree-count/scatter with **no
//! intermediate edge list**. On any input both generations accept,
//! parallel output is bit-identical to the sequential readers (the final
//! per-vertex sort + dedup makes the result independent of chunk
//! scheduling); the workspace test suites pin this. Two acceptance
//! differences exist: the sequential readers decode lines as UTF-8 and
//! error on invalid bytes even inside comments (the byte-oriented
//! parallel readers ignore comment contents entirely), and the parallel
//! readers only accept *ASCII* whitespace as field separators, not the
//! exotic Unicode whitespace `split_whitespace` would take.
//!
//! All readers are tolerant of comments, blank lines and `\r\n` line
//! endings, and reject out-of-range endpoints with a clean
//! [`io::ErrorKind::InvalidData`] error (never a panic). All writers use
//! buffered output per the HPC I/O guidance (never write a big graph
//! through an unbuffered handle).
//!
//! The one-stop entry point is [`read_graph`] (auto-detect, fastest
//! parser; a `.mpx` snapshot stays zero-copy when opened with
//! [`MappedCsr::open`] or `mpx_compress::Snapshot::open` instead):
//!
//! ```
//! use mpx_graph::{gen, io};
//! let g = gen::grid2d(6, 6);
//! let mut path = std::env::temp_dir();
//! path.push(format!("doc-io-auto-{}.txt", std::process::id()));
//! io::write_edge_list(&g, &path).unwrap();
//! // Extension says edge list; the parallel parser is used automatically.
//! assert_eq!(io::read_graph(&path).unwrap(), g);
//! # std::fs::remove_file(&path).ok();
//! ```

use crate::csr::{CsrGraph, Vertex};
use crate::snapshot::{self, MappedCsr};
use crate::weighted::WeightedCsrGraph;
use rayon::prelude::*;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Formats and detection
// ---------------------------------------------------------------------------

/// The on-disk graph formats this crate understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// Binary CSR snapshot (`.mpx`), see [`crate::snapshot`].
    Snapshot,
    /// Plain edge list: header `n m`, then `u v` per line (0-based).
    EdgeList,
    /// DIMACS 9th-challenge `.gr`: `c` comments, one `p sp n m` line,
    /// `a u v w` arcs (1-based ids).
    Dimacs,
    /// METIS adjacency: header `n m`, then line `i` lists the 1-based
    /// neighbors of vertex `i-1`; `%` comment lines.
    Metis,
}

impl GraphFormat {
    /// Maps a file extension to a format (`mpx`, `txt`/`el`/`edges`,
    /// `gr`/`dimacs`, `metis`/`graph`). `None` for unknown extensions.
    pub fn from_extension(path: &Path) -> Option<GraphFormat> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "mpx" => Some(GraphFormat::Snapshot),
            "txt" | "el" | "edges" => Some(GraphFormat::EdgeList),
            "gr" | "dimacs" => Some(GraphFormat::Dimacs),
            "metis" | "graph" => Some(GraphFormat::Metis),
            _ => None,
        }
    }

    /// Short lowercase name (`snapshot`, `edge-list`, `dimacs`, `metis`).
    pub fn as_str(&self) -> &'static str {
        match self {
            GraphFormat::Snapshot => "snapshot",
            GraphFormat::EdgeList => "edge-list",
            GraphFormat::Dimacs => "dimacs",
            GraphFormat::Metis => "metis",
        }
    }
}

impl std::fmt::Display for GraphFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Detects the format of `path`: by extension first, then by sniffing the
/// head of the file (snapshot magic, DIMACS `c`/`p` records, METIS `%`
/// comments). A bare two-integer header is ambiguous between edge list
/// and METIS; sniffing resolves it to edge list — use a `.metis`/`.graph`
/// extension (or pass the format explicitly) for METIS files.
pub fn detect_format<P: AsRef<Path>>(path: P) -> io::Result<GraphFormat> {
    let path = path.as_ref();
    if let Some(f) = GraphFormat::from_extension(path) {
        return Ok(f);
    }
    let mut head = [0u8; 256];
    let mut file = File::open(path)?;
    let mut got = 0;
    while got < head.len() {
        match io::Read::read(&mut file, &mut head[got..])? {
            0 => break,
            k => got += k,
        }
    }
    let head = &head[..got];
    if head.starts_with(&snapshot::MAGIC) {
        return Ok(GraphFormat::Snapshot);
    }
    for line in head.split(|&b| b == b'\n') {
        let line = trim_line(line);
        if line.is_empty() {
            continue;
        }
        return Ok(match line[0] {
            b'c' | b'p' => GraphFormat::Dimacs,
            b'%' => GraphFormat::Metis,
            _ => GraphFormat::EdgeList,
        });
    }
    Ok(GraphFormat::EdgeList)
}

/// Which text-parser generation to use (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TextParser {
    /// Picks [`TextParser::Parallel`] when the worker pool has more than
    /// one thread, else [`TextParser::Sequential`]: the chunked reader's
    /// scatter passes trade extra memory traffic for parallelism, a trade
    /// that only pays off with real concurrency.
    #[default]
    Auto,
    /// Chunked parallel parsing where available (edge list, DIMACS);
    /// METIS falls back to sequential.
    Parallel,
    /// The line-at-a-time reference readers.
    Sequential,
}

impl TextParser {
    /// Resolves [`TextParser::Auto`] against the current pool size.
    fn resolve(self) -> TextParser {
        match self {
            TextParser::Auto => {
                if mpx_runtime::current_num_threads() > 1 {
                    TextParser::Parallel
                } else {
                    TextParser::Sequential
                }
            }
            other => other,
        }
    }
}

impl std::str::FromStr for TextParser {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(TextParser::Auto),
            "parallel" | "par" => Ok(TextParser::Parallel),
            "sequential" | "seq" => Ok(TextParser::Sequential),
            other => Err(format!(
                "unknown parser '{other}' (expected auto|parallel|sequential)"
            )),
        }
    }
}

/// Reads a graph of any supported format into an owned [`CsrGraph`],
/// auto-detecting the format and using the fastest available parser
/// (parallel for edge lists and DIMACS; for snapshots, a copy out of the
/// checked mapping — [`MappedCsr::open`] keeps one zero-copy instead).
pub fn read_graph<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let format = detect_format(&path)?;
    read_graph_as(path, format, TextParser::Auto)
}

/// Reads a graph with an explicit format and parser choice.
pub fn read_graph_as<P: AsRef<Path>>(
    path: P,
    format: GraphFormat,
    parser: TextParser,
) -> io::Result<CsrGraph> {
    match (format, parser.resolve()) {
        (GraphFormat::Snapshot, _) => Ok(MappedCsr::open(path)?.to_graph()),
        (GraphFormat::EdgeList, TextParser::Parallel) => read_edge_list_parallel(path),
        (GraphFormat::EdgeList, TextParser::Sequential) => read_edge_list(path),
        (GraphFormat::Dimacs, TextParser::Parallel) => read_dimacs_parallel(path),
        (GraphFormat::Dimacs, TextParser::Sequential) => read_dimacs(path),
        (GraphFormat::Metis, _) => read_metis(path),
        (_, TextParser::Auto) => unreachable!("resolve() never returns Auto"),
    }
}

/// Writes `g` to `path` in the given format.
pub fn write_graph<P: AsRef<Path>>(g: &CsrGraph, path: P, format: GraphFormat) -> io::Result<()> {
    match format {
        GraphFormat::Snapshot => snapshot::write_snapshot(g, path),
        GraphFormat::EdgeList => write_edge_list(g, path),
        GraphFormat::Dimacs => write_dimacs(g, path),
        GraphFormat::Metis => write_metis(g, path),
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Writes `g` as a plain edge list: first line `n m`, then one `u v` pair
/// per line (0-based, `u < v`).
pub fn write_edge_list<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{} {}", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()
}

/// Writes DIMACS 9th-challenge `.gr` format (1-based ids, both arc
/// directions, integer weights — weights written as `1`).
pub fn write_dimacs<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "c generated by mpx-graph")?;
    writeln!(out, "p sp {} {}", g.num_vertices(), g.num_arcs())?;
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            writeln!(out, "a {} {} 1", u + 1, v + 1)?;
        }
    }
    out.flush()
}

/// Writes METIS adjacency format: header `n m`, then line `i+1` lists the
/// (1-based) neighbors of vertex `i`.
pub fn write_metis<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{} {}", g.num_vertices(), g.num_edges())?;
    for u in g.vertices() {
        let mut first = true;
        for &v in g.neighbors(u) {
            if first {
                write!(out, "{}", v + 1)?;
                first = false;
            } else {
                write!(out, " {}", v + 1)?;
            }
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Writes a weighted edge list: `n m` header then `u v w` per line.
pub fn write_weighted_edge_list<P: AsRef<Path>>(g: &WeightedCsrGraph, path: P) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{} {}", g.num_vertices(), g.num_edges())?;
    for (u, v, w) in g.edges() {
        writeln!(out, "{u} {v} {w}")?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Sequential readers (the reference implementations)
// ---------------------------------------------------------------------------

/// Reads the format produced by [`write_edge_list`], line by line on one
/// thread. Reference semantics for [`read_edge_list_parallel`].
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))??;
    let mut it = header.split_whitespace();
    let n: usize = parse(it.next(), "n")?;
    let m: usize = parse(it.next(), "m")?;
    let mut edges = Vec::with_capacity(m);
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: Vertex = parse(it.next(), "u")?;
        let v: Vertex = parse(it.next(), "v")?;
        check_endpoint(u, n)?;
        check_endpoint(v, n)?;
        edges.push((u, v));
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Reads DIMACS `.gr` line by line on one thread; ignores arc weights
/// (graphs are unweighted here). Reference semantics for
/// [`read_dimacs_parallel`].
pub fn read_dimacs<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let reader = BufReader::new(File::open(path)?);
    let mut n: Option<usize> = None;
    let mut edges = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let mut it = line.split_whitespace();
        match it.next() {
            Some("c") | None => {}
            Some("p") => {
                if n.is_some() {
                    return Err(bad("duplicate DIMACS p line"));
                }
                let _sp = it.next();
                n = Some(parse(it.next(), "n")?);
            }
            Some("a") | Some("e") => {
                let n = n.ok_or_else(|| bad("DIMACS arc before p line"))?;
                let u: Vertex = parse(it.next(), "u")?;
                let v: Vertex = parse(it.next(), "v")?;
                if u == 0 || v == 0 {
                    return Err(bad("DIMACS ids are 1-based"));
                }
                check_endpoint(u - 1, n)?;
                check_endpoint(v - 1, n)?;
                edges.push((u - 1, v - 1));
            }
            Some(other) => {
                return Err(bad(format!("unknown DIMACS record '{other}'")));
            }
        }
    }
    Ok(CsrGraph::from_edges(n.unwrap_or(0), &edges))
}

/// Reads METIS adjacency format (unweighted variant only). Sequential:
/// record meaning depends on the line *index*, which resists byte-range
/// chunking (see `docs/FORMATS.md`).
pub fn read_metis<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    // Header: the first non-blank, non-comment line.
    let header = loop {
        let line = lines.next().ok_or_else(|| bad("empty file"))??;
        let t = line.trim().to_string();
        if !t.is_empty() && !t.starts_with('%') {
            break t;
        }
    };
    let mut it = header.split_whitespace();
    let n: usize = parse(it.next(), "n")?;
    let m: usize = parse(it.next(), "m")?;
    let mut edges = Vec::with_capacity(m);
    // After the header, *every* non-comment line is one vertex's adjacency
    // list — including blank lines, which encode isolated vertices.
    // Trailing blank lines beyond vertex n are tolerated.
    let mut u = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if u >= n {
            if t.is_empty() {
                continue;
            }
            return Err(bad(format!("METIS file has more than {n} adjacency lines")));
        }
        for tok in t.split_whitespace() {
            let v: usize = tok.parse().map_err(|_| bad("bad neighbor id"))?;
            if v == 0 {
                return Err(bad("METIS ids are 1-based"));
            }
            check_endpoint((v - 1) as Vertex, n)?;
            edges.push((u as Vertex, (v - 1) as Vertex));
        }
        u += 1;
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Reads the format produced by [`write_weighted_edge_list`].
pub fn read_weighted_edge_list<P: AsRef<Path>>(path: P) -> io::Result<WeightedCsrGraph> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))??;
    let mut it = header.split_whitespace();
    let n: usize = parse(it.next(), "n")?;
    let m: usize = parse(it.next(), "m")?;
    let mut edges = Vec::with_capacity(m);
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: Vertex = parse(it.next(), "u")?;
        let v: Vertex = parse(it.next(), "v")?;
        let w: f64 = parse(it.next(), "w")?;
        check_endpoint(u, n)?;
        check_endpoint(v, n)?;
        if !(w.is_finite() && w > 0.0) {
            return Err(bad(format!(
                "edge ({u},{v}) has invalid weight {w} (must be finite and positive)"
            )));
        }
        edges.push((u, v, w));
    }
    Ok(WeightedCsrGraph::from_edges(n, &edges))
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> io::Result<T> {
    tok.ok_or_else(|| bad(format!("missing {what}")))?
        .parse()
        .map_err(|_| bad(format!("bad {what}")))
}

fn check_endpoint(v: Vertex, n: usize) -> io::Result<()> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(bad(format!("vertex id {v} out of range for n={n}")))
    }
}

// ---------------------------------------------------------------------------
// Parallel readers
// ---------------------------------------------------------------------------

/// ASCII blanks: the byte subset of what the sequential readers'
/// `split_whitespace` treats as a separator (minus `\n`, the record
/// separator). One predicate shared by every tokenizing site so the
/// parser generations can never disagree on what separates fields.
#[inline]
fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c')
}

/// Strips a trailing `\r` (for `\r\n` files) and surrounding ASCII blanks.
fn trim_line(mut line: &[u8]) -> &[u8] {
    while let [rest @ .., last] = line {
        if is_ws(*last) {
            line = rest;
        } else {
            break;
        }
    }
    while let [first, rest @ ..] = line {
        if is_ws(*first) {
            line = rest;
        } else {
            break;
        }
    }
    line
}

/// Iterator over `\n`-separated lines of a byte range (no allocation;
/// empty segments — blank lines and the tail after a final newline — are
/// dropped, matching every reader's blank-line tolerance).
fn lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty())
}

/// Advances past ASCII blanks: space, tab, `\r` (so `\r\n` files work),
/// vertical tab and form feed — the ASCII subset of what the sequential
/// readers' `split_whitespace` accepts.
#[inline]
fn skip_ws(line: &[u8], mut i: usize) -> usize {
    while i < line.len() && is_ws(line[i]) {
        i += 1;
    }
    i
}

/// Scans one unsigned decimal integer at `i`, returning the value and the
/// position one past the last digit — the hot loop of the parallel
/// readers (a hand-rolled scan, no iterator plumbing per token). Accepts
/// a single leading `+` like `u32::from_str` does, so the parser
/// generations agree on which tokens are numbers.
#[inline]
fn scan_u64(line: &[u8], mut i: usize) -> io::Result<(u64, usize)> {
    if line.get(i) == Some(&b'+') && line.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
        i += 1;
    }
    let start = i;
    let mut v: u64 = 0;
    while i < line.len() {
        let d = line[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add(d as u64))
            .ok_or_else(|| bad("number too large"))?;
        i += 1;
    }
    if i == start {
        return Err(bad("expected a number"));
    }
    Ok((v, i))
}

/// Scans the two whitespace-separated integers of an edge record starting
/// at `i`; anything directly attached to a number (`12x`) is an error,
/// extra trailing tokens are ignored (matching the sequential readers).
#[inline]
fn scan_edge_pair(line: &[u8], i: usize) -> io::Result<(u64, u64)> {
    let (u, i) = scan_u64(line, i)?;
    let j = skip_ws(line, i);
    if j == i {
        return Err(bad("malformed edge record"));
    }
    let (v, k) = scan_u64(line, j)?;
    if k < line.len() && skip_ws(line, k) == k {
        return Err(bad("malformed edge record"));
    }
    Ok((u, v))
}

/// One edge record parser: `Ok(None)` for non-edge lines (comments,
/// blanks, format bookkeeping), `Ok(Some((u, v)))` for an edge (0-based,
/// possibly a self-loop — the assembler drops those), `Err` for garbage.
type LineResult = io::Result<Option<(Vertex, Vertex)>>;

/// A write-only scatter target allowing concurrent stores to *disjoint*
/// indices — the pass-2 arc array. This is one of the crate's two
/// `#[allow(unsafe_code)]` islands (the other is the snapshot file
/// buffer): every slot index comes from an atomic `fetch_add` on the
/// per-vertex cursor, so no two stores ever alias, and the buffer is only
/// read back after the scatter pass completes (the `par_iter` barrier
/// provides the happens-before edge).
#[allow(unsafe_code)]
mod scatter {
    use std::cell::UnsafeCell;

    /// Shared view of a `&mut [T]` accepting disjoint concurrent writes.
    pub struct ScatterSlice<'a, T>(&'a [UnsafeCell<T>]);

    // SAFETY: all mutation goes through `set`, whose contract (below)
    // forbids aliased writes; T: Send suffices since values only move in.
    unsafe impl<T: Send> Sync for ScatterSlice<'_, T> {}

    impl<'a, T> ScatterSlice<'a, T> {
        /// Wraps an exclusive slice for the duration of a scatter pass.
        pub fn new(slice: &'a mut [T]) -> Self {
            // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, and
            // the exclusive borrow guarantees no other access during `'a`.
            let cells = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
            ScatterSlice(cells)
        }

        /// Stores `value` at `i`.
        ///
        /// # Safety
        /// No other call may target the same `i` concurrently, and reads
        /// of the underlying slice must happen-after all `set` calls.
        #[inline]
        pub unsafe fn set(&self, i: usize, value: T) {
            *self.0[i].get() = value;
        }
    }
}

/// Assembles a [`CsrGraph`] from the edge records of `body` with chunked
/// parallel parsing and a two-pass degree-count/scatter — no intermediate
/// edge list. The result is bit-identical to feeding the same records
/// through [`CsrGraph::from_edges`]: both symmetrize, drop self-loops,
/// sort each neighbor list and deduplicate.
fn parallel_csr_from_lines(
    body: &[u8],
    n: usize,
    parse_line: impl Fn(&[u8]) -> LineResult + Sync,
) -> io::Result<CsrGraph> {
    // MPX_INGEST_TRACE is kept as a legacy alias: it opens a local trace
    // session around the parse and prints the human phase tree to
    // stderr. When an outer session is already collecting (e.g. `mpx
    // partition --trace`), the ingest spans flow there instead and the
    // alias prints nothing.
    if std::env::var_os("MPX_INGEST_TRACE").is_some() {
        let session = mpx_trace::start();
        let passive = session.is_passive();
        let result = parallel_csr_from_lines_spanned(body, n, parse_line);
        let trace = session.finish();
        if !passive {
            eprint!("{}", trace.to_human());
        }
        result
    } else {
        parallel_csr_from_lines_spanned(body, n, parse_line)
    }
}

/// [`parallel_csr_from_lines`] proper, with an `mpx_trace` span per
/// ingest phase (replacing the old one-off eprintln timings).
fn parallel_csr_from_lines_spanned(
    body: &[u8],
    n: usize,
    parse_line: impl Fn(&[u8]) -> LineResult + Sync,
) -> io::Result<CsrGraph> {
    let _parse_span = mpx_trace::span!("ingest.parse", bytes = body.len(), n = n);
    let chunk_count =
        mpx_runtime::chunk::suggested_chunk_count(body.len(), mpx_runtime::current_num_threads());
    let chunks = mpx_runtime::chunk::line_aligned_ranges(body, chunk_count);

    // Pass 1: parse every chunk, counting arc contributions per vertex
    // into an atomic histogram (order-independent, hence deterministic).
    // u64 counts: a u32 histogram could wrap on >2^32 records naming one
    // vertex, and a wrapped count would make pass 2's cursors alias.
    let deg: Vec<AtomicU64> = std::iter::repeat_with(|| AtomicU64::new(0))
        .take(n)
        .collect();
    {
        let _span = mpx_trace::span!("ingest.count", chunks = chunks.len());
        let results: Vec<io::Result<()>> = chunks
            .par_iter()
            .map(|r| {
                for line in lines(&body[r.clone()]) {
                    if let Some((u, v)) = parse_line(line)? {
                        check_endpoint(u, n)?;
                        check_endpoint(v, n)?;
                        if u != v {
                            deg[u as usize].fetch_add(1, Ordering::Relaxed);
                            deg[v as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(())
            })
            .collect();
        for r in results {
            r?;
        }
    }

    // Offsets from the record counts. The scatter cursors are *absolute*
    // slot positions (offset already folded in), so the pass-2 hot loop
    // touches exactly one cache line per arc endpoint.
    let offsets_span = mpx_trace::span!("ingest.offsets");
    let mut offsets = Vec::with_capacity(n + 1);
    let mut cursor = Vec::with_capacity(n);
    let mut acc = 0usize;
    offsets.push(0);
    for d in &deg {
        cursor.push(AtomicU64::new(acc as u64));
        acc = acc
            .checked_add(d.load(Ordering::Relaxed) as usize)
            .ok_or_else(|| bad("arc count overflows usize"))?;
        offsets.push(acc);
    }
    let total_arcs = acc;
    drop(deg);
    drop(offsets_span);

    // Pass 2: re-parse and scatter both arc directions straight into the
    // CSR target array. Slot claiming via fetch_add is racy in *order*
    // only; the per-vertex sort below makes the layout deterministic.
    // SAFETY (ScatterSlice::set): every index comes from a fetch_add on
    // the vertex's cursor, so writes never alias; `targets` is read only
    // after the pass's barrier.
    let mut targets: Vec<Vertex> = vec![0; total_arcs];
    {
        let _span = mpx_trace::span!("ingest.scatter", arcs = total_arcs);
        let arcs = scatter::ScatterSlice::new(&mut targets);
        let results: Vec<io::Result<()>> = chunks
            .par_iter()
            .map(|r| {
                for line in lines(&body[r.clone()]) {
                    if let Some((u, v)) = parse_line(line)? {
                        if u != v {
                            let iu = cursor[u as usize].fetch_add(1, Ordering::Relaxed) as usize;
                            let iv = cursor[v as usize].fetch_add(1, Ordering::Relaxed) as usize;
                            #[allow(unsafe_code)]
                            // SAFETY: see the block comment above.
                            unsafe {
                                arcs.set(iu, v);
                                arcs.set(iv, u);
                            }
                        }
                    }
                }
                Ok(())
            })
            .collect();
        for r in results {
            r?;
        }
    }
    drop(cursor);

    // Sort each neighbor list (parallel over non-overlapping per-vertex
    // chunks, like GraphBuilder::build) so the layout is independent of
    // scatter order.
    {
        let _span = mpx_trace::span!("ingest.sort");
        let mut rest: &mut [Vertex] = &mut targets;
        let mut per_vertex: Vec<&mut [Vertex]> = Vec::with_capacity(n);
        for v in 0..n {
            let (head, tail) = rest.split_at_mut(offsets[v + 1] - offsets[v]);
            per_vertex.push(head);
            rest = tail;
        }
        per_vertex.par_iter_mut().for_each(|c| c.sort_unstable());
    }

    // Deduplicate: count unique neighbors per vertex; if nothing was
    // duplicated the arrays are already final, otherwise compact.
    let dedup_span = mpx_trace::span!("ingest.dedup");
    let uniq: Vec<u32> = (0..n)
        .into_par_iter()
        .map(|v| count_unique_sorted(&targets[offsets[v]..offsets[v + 1]]))
        .collect();
    let total_uniq: usize = uniq.iter().map(|&d| d as usize).sum();
    drop(dedup_span);
    if total_uniq == total_arcs {
        return Ok(CsrGraph::from_parts(offsets, targets));
    }
    let _compact_span = mpx_trace::span!("ingest.compact", unique = total_uniq);
    let mut final_offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    final_offsets.push(0);
    for &d in &uniq {
        acc += d as usize;
        final_offsets.push(acc);
    }
    let mut final_targets = vec![0 as Vertex; total_uniq];
    {
        let mut rest: &mut [Vertex] = &mut final_targets;
        let mut per_vertex: Vec<(usize, &mut [Vertex])> = Vec::with_capacity(n);
        for v in 0..n {
            let (head, tail) = rest.split_at_mut(final_offsets[v + 1] - final_offsets[v]);
            per_vertex.push((v, head));
            rest = tail;
        }
        per_vertex.par_iter_mut().for_each(|(v, out)| {
            let src = &targets[offsets[*v]..offsets[*v + 1]];
            let mut k = 0;
            for (i, &t) in src.iter().enumerate() {
                if i == 0 || src[i - 1] != t {
                    out[k] = t;
                    k += 1;
                }
            }
            debug_assert_eq!(k, out.len());
        });
    }
    Ok(CsrGraph::from_parts(final_offsets, final_targets))
}

/// Number of distinct values in a sorted slice.
fn count_unique_sorted(s: &[Vertex]) -> u32 {
    let mut c = 0u32;
    for (i, &t) in s.iter().enumerate() {
        if i == 0 || s[i - 1] != t {
            c += 1;
        }
    }
    c
}

/// Parallel edge-list reader: bit-identical to [`read_edge_list`], built
/// on chunked parallel parsing (see module docs).
///
/// ```
/// use mpx_graph::{gen, io};
/// let g = gen::gnm(400, 1200, 7);
/// let mut path = std::env::temp_dir();
/// path.push(format!("doc-par-el-{}.txt", std::process::id()));
/// io::write_edge_list(&g, &path).unwrap();
/// let seq = io::read_edge_list(&path).unwrap();
/// let par = io::read_edge_list_parallel(&path).unwrap();
/// assert_eq!(seq, par);
/// assert_eq!(par, g);
/// # std::fs::remove_file(&path).ok();
/// ```
pub fn read_edge_list_parallel<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let bytes = std::fs::read(path)?;
    let (header_line, body_start) = match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => (&bytes[..i], i + 1),
        None => (&bytes[..], bytes.len()),
    };
    let header = std::str::from_utf8(trim_line(header_line)).map_err(|_| bad("non-UTF8 header"))?;
    if header.is_empty() {
        return Err(bad("empty file"));
    }
    let mut it = header.split_whitespace();
    let n: usize = parse(it.next(), "n")?;
    let _m: usize = parse(it.next(), "m")?;
    parallel_csr_from_lines(&bytes[body_start..], n, |line| {
        let i = skip_ws(line, 0);
        if i == line.len() || line[i] == b'#' {
            return Ok(None);
        }
        let (u, v) = scan_edge_pair(line, i)?;
        let u: Vertex = u.try_into().map_err(|_| bad("bad u"))?;
        let v: Vertex = v.try_into().map_err(|_| bad("bad v"))?;
        Ok(Some((u, v)))
    })
}

/// Parallel DIMACS `.gr` reader: bit-identical to [`read_dimacs`]. The
/// head of the file is scanned sequentially up to the `p sp n m` line
/// (comments only may precede it); the arc records after it are parsed in
/// parallel.
pub fn read_dimacs_parallel<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let bytes = std::fs::read(path)?;
    // Sequential prologue: find the p line.
    let mut n: Option<usize> = None;
    let mut body_start = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| pos + i + 1)
            .unwrap_or(bytes.len());
        // The slice runs up to *and including* the newline; drop it
        // before trimming (trim_line only strips \r and blanks) so blank
        // lines and bare one-letter records are recognized.
        let raw = &bytes[pos..end];
        let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
        let line = trim_line(raw);
        // Record letters must be their own token (`cheddar` is garbage,
        // not a comment) — same rule as the body parser and the
        // sequential reader's whitespace-split tokens.
        let own_token = line.len() == 1 || line.get(1).is_some_and(|&b| is_ws(b));
        if line.is_empty() || (line[0] == b'c' && own_token) {
            pos = end;
            continue;
        }
        if line[0] != b'p' || !own_token {
            return Err(match line[0] {
                b'a' | b'e' if own_token => bad("DIMACS arc before p line"),
                other => bad(format!(
                    "unknown DIMACS record starting '{}'",
                    char::from(other)
                )),
            });
        }
        let text = std::str::from_utf8(line).map_err(|_| bad("non-UTF8 p line"))?;
        let mut it = text.split_whitespace();
        let _p = it.next();
        let _sp = it.next();
        n = Some(parse(it.next(), "n")?);
        body_start = end;
        break;
    }
    let n = n.unwrap_or(0);
    pos = body_start;
    parallel_csr_from_lines(&bytes[pos..], n, |line| {
        let i = skip_ws(line, 0);
        if i == line.len() {
            return Ok(None);
        }
        // The record letter must be its own token (`cheese` is garbage).
        let rec = line[i];
        let after = i + 1;
        let own_token = after >= line.len() || is_ws(line[after]);
        match rec {
            b'c' if own_token => Ok(None),
            b'a' | b'e' if own_token => {
                let (u, v) = scan_edge_pair(line, skip_ws(line, after))?;
                if u == 0 || v == 0 {
                    return Err(bad("DIMACS ids are 1-based"));
                }
                let u: Vertex = (u - 1).try_into().map_err(|_| bad("bad u"))?;
                let v: Vertex = (v - 1).try_into().map_err(|_| bad("bad v"))?;
                Ok(Some((u, v)))
            }
            b'p' if own_token => Err(bad("duplicate DIMACS p line")),
            other => Err(bad(format!(
                "unknown DIMACS record starting '{}'",
                char::from(other)
            ))),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mpx-graph-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::grid2d(6, 5);
        let p = tmp("el.txt");
        write_edge_list(&g, &p).unwrap();
        let h = read_edge_list(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = gen::rmat(6, 200, 0.57, 0.19, 0.19, 1);
        let p = tmp("g.gr");
        write_dimacs(&g, &p).unwrap();
        let h = read_dimacs(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn metis_roundtrip() {
        let g = gen::cycle(12);
        let p = tmp("g.metis");
        write_metis(&g, &p).unwrap();
        let h = read_metis(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn weighted_roundtrip() {
        let g = crate::WeightedCsrGraph::from_edges(4, &[(0, 1, 1.5), (1, 2, 0.25), (2, 3, 8.0)]);
        let p = tmp("w.txt");
        write_weighted_edge_list(&g, &p).unwrap();
        let h = read_weighted_edge_list(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn read_rejects_garbage() {
        let p = tmp("bad.txt");
        std::fs::write(&p, "not a header\n").unwrap();
        assert!(read_edge_list(&p).is_err());
        assert!(read_edge_list_parallel(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn parallel_edge_list_matches_sequential() {
        for (name, g) in [
            ("grid", gen::grid2d(20, 30)),
            ("gnm", gen::gnm(3000, 12_000, 11)),
            ("rmat", gen::rmat(10, 8 << 10, 0.57, 0.19, 0.19, 2)),
            ("empty", CsrGraph::empty(40)),
        ] {
            let p = tmp(&format!("par-el-{name}.txt"));
            write_edge_list(&g, &p).unwrap();
            let seq = read_edge_list(&p).unwrap();
            let par = read_edge_list_parallel(&p).unwrap();
            assert_eq!(seq, par, "{name}");
            assert_eq!(par, g, "{name}");
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parallel_dimacs_matches_sequential() {
        for (name, g) in [
            ("grid", gen::grid2d(15, 15)),
            ("gnm", gen::gnm(2000, 9000, 3)),
        ] {
            let p = tmp(&format!("par-gr-{name}.gr"));
            write_dimacs(&g, &p).unwrap();
            let seq = read_dimacs(&p).unwrap();
            let par = read_dimacs_parallel(&p).unwrap();
            assert_eq!(seq, par, "{name}");
            assert_eq!(par, g, "{name}");
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parallel_handles_duplicates_self_loops_comments_crlf() {
        // Hand-written file with every quirk at once: CRLF endings,
        // comments, blanks, duplicate edges in both orientations, loops,
        // and vertical-tab/form-feed separators.
        let text = "5 4\r\n# comment\r\n0 1\r\n1 0\r\n\r\n2 2\r\n1\x0b2\r\n1\x0c2\r\n3 4\r\n";
        let p = tmp("quirks.txt");
        std::fs::write(&p, text).unwrap();
        let seq = read_edge_list(&p).unwrap();
        let par = read_edge_list_parallel(&p).unwrap();
        assert_eq!(seq, par);
        assert_eq!(par.num_edges(), 3); // {0,1}, {1,2}, {3,4}
        assert_eq!(par.neighbors(1), &[0, 2]);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn out_of_range_endpoints_are_clean_errors() {
        let p = tmp("oor.txt");
        std::fs::write(&p, "3 1\n0 7\n").unwrap();
        for r in [read_edge_list(&p), read_edge_list_parallel(&p)] {
            let e = r.unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains("out of range"), "{e}");
        }
        std::fs::remove_file(&p).ok();

        let p = tmp("oor.gr");
        std::fs::write(&p, "c x\np sp 3 2\na 1 9 1\n").unwrap();
        for r in [read_dimacs(&p), read_dimacs_parallel(&p)] {
            let e = r.unwrap_err();
            assert!(e.to_string().contains("out of range"), "{e}");
        }
        std::fs::remove_file(&p).ok();

        let p = tmp("oor.metis");
        std::fs::write(&p, "2 1\n9\n\n").unwrap();
        assert!(read_metis(&p)
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dimacs_prologue_tolerates_blank_and_bare_comment_lines() {
        // Blank lines, a bare `c`, and CRLF endings before the p line —
        // all accepted by the sequential reader, so the parallel one
        // must accept them too.
        for text in [
            "c head\n\nc\np sp 2 1\na 1 2 1\na 2 1 1\n",
            "c head\r\n\r\nc\r\np sp 2 1\r\na 1 2 1\r\na 2 1 1\r\n",
        ] {
            let p = tmp("prologue.gr");
            std::fs::write(&p, text).unwrap();
            let seq = read_dimacs(&p).unwrap();
            let par = read_dimacs_parallel(&p).unwrap();
            assert_eq!(seq, par);
            assert_eq!(seq.num_edges(), 1);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn dimacs_garbage_record_errors_in_both_parsers() {
        // A word that merely *starts* with 'c' is not a comment.
        let p = tmp("cheddar.gr");
        std::fs::write(&p, "cheddar\np sp 2 1\na 1 2 1\n").unwrap();
        assert!(read_dimacs(&p).is_err());
        assert!(read_dimacs_parallel(&p).is_err());
        // While a real one-letter 'c' comment before the p line is fine.
        std::fs::write(&p, "c header\np sp 2 1\na 1 2 1\na 2 1 1\n").unwrap();
        assert_eq!(read_dimacs(&p).unwrap(), read_dimacs_parallel(&p).unwrap());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dimacs_requires_p_before_arcs() {
        let p = tmp("nop.gr");
        std::fs::write(&p, "a 1 2 1\n").unwrap();
        for r in [read_dimacs(&p), read_dimacs_parallel(&p)] {
            assert!(r.unwrap_err().to_string().contains("before p line"));
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn format_detection_by_extension_and_sniffing() {
        use GraphFormat::*;
        type WriteFn = fn(&CsrGraph, &Path) -> io::Result<()>;
        let g = gen::cycle(8);
        let cases: [(&str, GraphFormat, WriteFn); 4] = [
            ("d.mpx", Snapshot, |g, p| snapshot::write_snapshot(g, p)),
            ("d.txt", EdgeList, |g, p| write_edge_list(g, p)),
            ("d.gr", Dimacs, |g, p| write_dimacs(g, p)),
            ("d.metis", Metis, |g, p| write_metis(g, p)),
        ];
        for (name, expect, write) in cases {
            let p = tmp(name);
            write(&g, &p).unwrap();
            assert_eq!(detect_format(&p).unwrap(), expect, "{name} by extension");
            // Strip the extension: sniffing must still identify
            // snapshot/dimacs; metis-written bodies sniff as edge list
            // (documented ambiguity) so skip that case.
            if expect != Metis {
                let bare = tmp(&format!("{name}.noext"));
                std::fs::copy(&p, &bare).unwrap();
                let sniffed = detect_format(&bare).unwrap();
                if expect == EdgeList || expect == Snapshot || expect == Dimacs {
                    assert_eq!(sniffed, expect, "{name} by sniffing");
                }
                std::fs::remove_file(bare).ok();
            }
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn sequential_parser_choice_respected() {
        let g = gen::grid2d(7, 7);
        let p = tmp("seqchoice.txt");
        write_edge_list(&g, &p).unwrap();
        let seq = read_graph_as(&p, GraphFormat::EdgeList, TextParser::Sequential).unwrap();
        let par = read_graph_as(&p, GraphFormat::EdgeList, TextParser::Parallel).unwrap();
        assert_eq!(seq, par);
        std::fs::remove_file(p).ok();
    }
}
