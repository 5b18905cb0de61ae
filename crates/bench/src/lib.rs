//! # mpx-bench — the experiment harness
//!
//! One binary per figure/table of the reproduction:
//!
//! | binary | experiment |
//! |--------|------------|
//! | `figure1` | Figure 1: 1000×1000 grid mosaics for six β values |
//! | `table_quality` | T1/T2: radius & cut-fraction vs β across graph families |
//! | `table_maxshift` | T3: `E[δ_max] = H_n/β` (Lemma 4.2) |
//! | `table_depth_work` | T4: BFS rounds and edge relaxations (Theorem 1.2 proxies) |
//! | `table_tiebreak` | T5: fractional vs permutation vs lexicographic tie-breaks |
//! | `table_baselines` | T6: MPX vs ball growing vs iterative vs k-center |
//! | `table_scaling` | T7: wall-clock vs thread count |
//! | `table_blocks` | T8: Linial–Saks blocks via iterated LDD |
//! | `table_apps` | T9/T10: spanners and low-stretch trees |
//! | `table_solver` | T11: CG vs Jacobi vs tree-PCG |
//! | `table_weighted` | T12: Section 6 weighted partitions |
//! | `exp_all` | runs everything above in sequence |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Instant;

/// Times a closure, returning its result and elapsed seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Minimal fixed-width table printer for experiment output.
///
/// ```
/// let mut t = mpx_bench::Table::new(&["graph", "beta", "cut"]);
/// t.row(&["grid".into(), "0.1".into(), "0.08".into()]);
/// let s = t.render();
/// assert!(s.contains("grid"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns (markdown-flavoured).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(width) {
                line.push_str(&format!(" {c:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &width));
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &width));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `p` decimal places.
pub fn f(x: f64, p: usize) -> String {
    format!("{x:.p$}")
}

/// The workload set shared by the quality/baseline tables: one mesh, one
/// power-law graph, one expander, one random graph, one pathological path.
pub fn standard_workloads(scale: usize) -> Vec<(String, mpx_graph::CsrGraph)> {
    use mpx_graph::gen::Workload;
    let side = (scale as f64).sqrt() as usize;
    let ws = [
        Workload::Grid { side },
        Workload::Rmat {
            scale: (usize::BITS - scale.leading_zeros() - 1).max(4),
            edge_factor: 8,
        },
        Workload::Regular { n: scale, d: 4 },
        Workload::Gnm {
            n: scale,
            avg_deg: 6,
        },
        Workload::Path { n: scale },
    ];
    ws.iter().map(|w| (w.label(), w.build(42))).collect()
}

/// Parses `args[i]` as `T` with a default.
pub fn arg_or<T: std::str::FromStr>(i: usize, default: T) -> T {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn time_measures() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn workloads_build() {
        let ws = standard_workloads(400);
        assert_eq!(ws.len(), 5);
        for (name, g) in ws {
            assert!(g.num_vertices() > 0, "{name} empty");
        }
    }

    #[test]
    fn float_format() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(0.5, 4), "0.5000");
    }
}
