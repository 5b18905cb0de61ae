//! Graph serialization: plain edge lists, DIMACS shortest-path format,
//! METIS adjacency format and the `.mpx` binary snapshot (see
//! [`crate::snapshot`]), plus format auto-detection.
//!
//! Each text format has one reader (`read_edge_list`, `read_dimacs`,
//! `read_metis`, `read_weighted_edge_list`). It reads the file a line at a
//! time and adds each record straight into a [`GraphBuilder`], so no second
//! edge buffer is held. Lines are decoded lossily and fields split on
//! Unicode whitespace: invalid UTF-8 is harmless in a comment or an ignored
//! trailing token, and an error only where a number must parse. Only the
//! builder's sorts use the pool, and their output does not depend on its
//! size, so a file loads to the same graph, or fails with the same error,
//! at every thread count. One `ingest.parse` span wraps each read.
//!
//! All readers are tolerant of comments, blank lines and `\r\n` line
//! endings, and reject out-of-range endpoints and impossible headers with a
//! clean [`io::ErrorKind::InvalidData`] error (never a panic): a vertex
//! count above `u32::MAX` is refused, and a header's edge count reserves no
//! more records than the file's length can hold. A vertex count whose CSR
//! arrays cannot be allocated fails with [`io::ErrorKind::OutOfMemory`]
//! instead of aborting the process. All writers use buffered
//! output per the HPC I/O guidance (never write a big graph through an
//! unbuffered handle).
//!
//! The one-stop entry point is [`read_graph`] (auto-detect; a `.mpx`
//! snapshot stays zero-copy when opened with [`MappedCsr::open`] or
//! `mpx_compress::Snapshot::open` instead):
//!
//! ```
//! use mpx_graph::{gen, io};
//! let g = gen::grid2d(6, 6);
//! let mut path = std::env::temp_dir();
//! path.push(format!("doc-io-auto-{}.txt", std::process::id()));
//! io::write_edge_list(&g, &path).unwrap();
//! // The extension says edge list, so `read_edge_list` reads it.
//! assert_eq!(io::read_graph(&path).unwrap(), g);
//! # std::fs::remove_file(&path).ok();
//! ```

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex};
use crate::snapshot::{self, MappedCsr};
use crate::weighted::{WeightedCsrGraph, WeightedGraphBuilder};
use std::borrow::Cow;
use std::collections::TryReserveError;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A builder's failed allocation as a typed error.
fn out_of_memory(n: usize, e: TryReserveError) -> io::Error {
    io::Error::new(
        io::ErrorKind::OutOfMemory,
        format!("cannot allocate a graph on {n} vertices: {e}"),
    )
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
    // The readers' own rules: lossy decoding, Unicode whitespace.
    let head = String::from_utf8_lossy(head);
    let first = head.lines().map(str::trim).find(|line| !line.is_empty());
    Ok(match first.and_then(|line| line.chars().next()) {
        Some('c' | 'p') => GraphFormat::Dimacs,
        Some('%') => GraphFormat::Metis,
        _ => GraphFormat::EdgeList,
    })
}

/// Reads a graph of any supported format into an owned [`CsrGraph`],
/// auto-detecting the format. A snapshot is copied out of the checked
/// mapping; [`MappedCsr::open`] keeps one zero-copy instead.
pub fn read_graph<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    match detect_format(&path)? {
        GraphFormat::Snapshot => Ok(MappedCsr::open(path)?.to_graph()),
        GraphFormat::EdgeList => read_edge_list(path),
        GraphFormat::Dimacs => read_dimacs(path),
        GraphFormat::Metis => read_metis(path),
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
// Readers
// ---------------------------------------------------------------------------

/// A text file read one line at a time, inside the `ingest.parse` span.
struct TextLines {
    reader: BufReader<File>,
    line: Vec<u8>,
    /// The file's length in bytes: what a header's edge count may reserve
    /// is capped by the records this many bytes can hold.
    len: usize,
    _span: mpx_trace::SpanGuard,
}

impl TextLines {
    fn open(path: &Path, format: &'static str) -> io::Result<TextLines> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        Ok(TextLines {
            reader: BufReader::new(file),
            line: Vec::new(),
            len,
            _span: mpx_trace::span!("ingest.parse", format = format, bytes = len),
        })
    }

    /// The next line, line ending included, decoded lossily: an invalid
    /// byte becomes U+FFFD, which no number token parses. `None` at the
    /// end of the file.
    fn next_line(&mut self) -> io::Result<Option<Cow<'_, str>>> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(None);
        }
        Ok(Some(String::from_utf8_lossy(&self.line)))
    }
}

/// Reads the format produced by [`write_edge_list`].
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let mut lines = TextLines::open(path.as_ref(), "edge-list")?;
    let len = lines.len;
    let (n, m) = header_counts(&lines.next_line()?.ok_or_else(|| bad("empty file"))?)?;
    // A record `u v` takes at least 4 bytes with its line ending.
    let mut builder = GraphBuilder::with_capacity(n, m.min(len / 4));
    while let Some(line) = lines.next_line()? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u = parse(it.next(), "u")?;
        let v = parse(it.next(), "v")?;
        builder.add_edge(check_endpoint(u, n)?, check_endpoint(v, n)?);
    }
    builder.try_build().map_err(|e| out_of_memory(n, e))
}

/// Reads DIMACS `.gr`; ignores arc weights (graphs are unweighted here).
pub fn read_dimacs<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let mut lines = TextLines::open(path.as_ref(), "dimacs")?;
    // Created by the p line.
    let mut builder: Option<GraphBuilder> = None;
    while let Some(line) = lines.next_line()? {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("c") | None => {}
            Some("p") => {
                if builder.is_some() {
                    return Err(bad("duplicate DIMACS p line"));
                }
                let _sp = it.next();
                builder = Some(GraphBuilder::new(vertex_count(it.next())?));
            }
            Some("a") | Some("e") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| bad("DIMACS arc before p line"))?;
                let u: usize = parse(it.next(), "u")?;
                let v: usize = parse(it.next(), "v")?;
                if u == 0 || v == 0 {
                    return Err(bad("DIMACS ids are 1-based"));
                }
                let n = b.num_vertices();
                b.add_edge(check_endpoint(u - 1, n)?, check_endpoint(v - 1, n)?);
            }
            Some(other) => {
                return Err(bad(format!("unknown DIMACS record '{other}'")));
            }
        }
    }
    match builder {
        Some(b) => {
            let n = b.num_vertices();
            b.try_build().map_err(|e| out_of_memory(n, e))
        }
        None => Ok(CsrGraph::empty(0)),
    }
}

/// Reads METIS adjacency format (unweighted variant only).
pub fn read_metis<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let mut lines = TextLines::open(path.as_ref(), "metis")?;
    let len = lines.len;
    // Header: the first non-blank, non-comment line.
    let (n, m) = loop {
        let line = lines.next_line()?.ok_or_else(|| bad("empty file"))?;
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break header_counts(t)?;
        }
    };
    // Each edge is listed at both endpoints, and a neighbor token takes at
    // least 2 bytes with its separator.
    let mut builder = GraphBuilder::with_capacity(n, m.saturating_mul(2).min(len / 2));
    // After the header, *every* non-comment line is one vertex's adjacency
    // list — including blank lines, which encode isolated vertices.
    // Trailing blank lines beyond vertex n are tolerated.
    let mut u: Vertex = 0;
    while let Some(line) = lines.next_line()? {
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if u as usize >= n {
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
            builder.add_edge(u, check_endpoint(v - 1, n)?);
        }
        u += 1;
    }
    builder.try_build().map_err(|e| out_of_memory(n, e))
}

/// Reads the format produced by [`write_weighted_edge_list`].
pub fn read_weighted_edge_list<P: AsRef<Path>>(path: P) -> io::Result<WeightedCsrGraph> {
    let mut lines = TextLines::open(path.as_ref(), "weighted-edge-list")?;
    let len = lines.len;
    let (n, m) = header_counts(&lines.next_line()?.ok_or_else(|| bad("empty file"))?)?;
    // A record `u v w` takes at least 6 bytes with its line ending.
    let mut builder = WeightedGraphBuilder::with_capacity(n, m.min(len / 6));
    while let Some(line) = lines.next_line()? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u = parse(it.next(), "u")?;
        let v = parse(it.next(), "v")?;
        let w: f64 = parse(it.next(), "w")?;
        let (u, v) = (check_endpoint(u, n)?, check_endpoint(v, n)?);
        if !(w.is_finite() && w > 0.0) {
            return Err(bad(format!(
                "edge ({u},{v}) has invalid weight {w} (must be finite and positive)"
            )));
        }
        builder.add_edge(u, v, w);
    }
    builder.try_build().map_err(|e| out_of_memory(n, e))
}

/// The `n m` header of an edge list or METIS file. `m` only sizes a
/// reservation, which the caller caps by the file's length.
fn header_counts(line: &str) -> io::Result<(usize, usize)> {
    let mut it = line.split_whitespace();
    let n = vertex_count(it.next())?;
    Ok((n, parse(it.next(), "m")?))
}

/// A header's vertex count, refused above `u32::MAX`: ids are [`Vertex`].
fn vertex_count(tok: Option<&str>) -> io::Result<usize> {
    let n: usize = parse(tok, "n")?;
    if n > Vertex::MAX as usize {
        return Err(bad(format!(
            "vertex count {n} exceeds the u32 id space (at most {})",
            Vertex::MAX
        )));
    }
    Ok(n)
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> io::Result<T> {
    tok.ok_or_else(|| bad(format!("missing {what}")))?
        .parse()
        .map_err(|_| bad(format!("bad {what}")))
}

/// A 0-based vertex id, checked against `n` before it is narrowed to a
/// [`Vertex`], so no id can wrap into range.
fn check_endpoint(id: usize, n: usize) -> io::Result<Vertex> {
    if id < n {
        Ok(id as Vertex)
    } else {
        Err(bad(format!("vertex id {id} out of range for n={n}")))
    }
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
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn edge_list_and_dimacs_round_trip_every_family() {
        for (name, g) in [
            ("grid", gen::grid2d(20, 30)),
            ("gnm", gen::gnm(3000, 12_000, 11)),
            ("rmat", gen::rmat(10, 8 << 10, 0.57, 0.19, 0.19, 2)),
            ("empty", CsrGraph::empty(40)),
        ] {
            let (el, gr) = (
                tmp(&format!("fam-{name}.txt")),
                tmp(&format!("fam-{name}.gr")),
            );
            write_edge_list(&g, &el).unwrap();
            write_dimacs(&g, &gr).unwrap();
            assert_eq!(read_edge_list(&el).unwrap(), g, "{name}");
            assert_eq!(read_dimacs(&gr).unwrap(), g, "{name}");
            std::fs::remove_file(el).ok();
            std::fs::remove_file(gr).ok();
        }
    }

    #[test]
    fn edge_list_handles_duplicates_self_loops_comments_crlf() {
        // Hand-written file with every quirk at once: CRLF endings,
        // comments, blanks, duplicate edges in both orientations, loops,
        // and vertical-tab/form-feed separators.
        let text = "5 4\r\n# comment\r\n0 1\r\n1 0\r\n\r\n2 2\r\n1\x0b2\r\n1\x0c2\r\n3 4\r\n";
        let p = tmp("quirks.txt");
        std::fs::write(&p, text).unwrap();
        let g = read_edge_list(&p).unwrap();
        assert_eq!(g.num_edges(), 3); // {0,1}, {1,2}, {3,4}
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[4]);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn out_of_range_endpoints_are_clean_errors() {
        let p = tmp("oor.txt");
        std::fs::write(&p, "3 1\n0 7\n").unwrap();
        let e = read_edge_list(&p).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("out of range"), "{e}");
        std::fs::remove_file(&p).ok();

        let p = tmp("oor.gr");
        std::fs::write(&p, "c x\np sp 3 2\na 1 9 1\n").unwrap();
        let e = read_dimacs(&p).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        std::fs::remove_file(&p).ok();

        // 4294967298 - 1 narrowed to u32 would be 1: the edge {0, 1}.
        let p = tmp("oor.metis");
        for text in ["2 1\n9\n\n", "3 1\n4294967298\n1\n\n"] {
            std::fs::write(&p, text).unwrap();
            let e = read_metis(&p).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains("out of range"), "{e}");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dimacs_prologue_tolerates_blank_and_bare_comment_lines() {
        // Blank lines, a bare `c`, and CRLF endings before the p line.
        for text in [
            "c head\n\nc\np sp 2 1\na 1 2 1\na 2 1 1\n",
            "c head\r\n\r\nc\r\np sp 2 1\r\na 1 2 1\r\na 2 1 1\r\n",
        ] {
            let p = tmp("prologue.gr");
            std::fs::write(&p, text).unwrap();
            let g = read_dimacs(&p).unwrap();
            assert_eq!(g.num_edges(), 1);
            assert_eq!(g.neighbors(0), &[1]);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn dimacs_garbage_record_errors() {
        // A word that merely *starts* with 'c' is not a comment.
        let p = tmp("cheddar.gr");
        std::fs::write(&p, "cheddar\np sp 2 1\na 1 2 1\n").unwrap();
        let e = read_dimacs(&p).unwrap_err();
        assert!(e.to_string().contains("unknown DIMACS record"), "{e}");
        // While a real one-letter 'c' comment before the p line is fine.
        std::fs::write(&p, "c header\np sp 2 1\na 1 2 1\na 2 1 1\n").unwrap();
        assert_eq!(read_dimacs(&p).unwrap().num_edges(), 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dimacs_requires_p_before_arcs() {
        let p = tmp("nop.gr");
        std::fs::write(&p, "a 1 2 1\n").unwrap();
        let e = read_dimacs(&p).unwrap_err();
        assert!(e.to_string().contains("before p line"), "{e}");
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
}
