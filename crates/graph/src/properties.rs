//! Summary statistics of graphs, as `mpx stats` prints them.

use crate::csr::CsrGraph;
use rayon::prelude::*;

/// Degree and size statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree (`2m / n`).
    pub avg_degree: f64,
    /// Number of isolated vertices.
    pub isolated: usize,
}

impl GraphStats {
    /// Computes statistics in one parallel pass.
    pub fn of(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        if n == 0 {
            return GraphStats {
                n: 0,
                m: 0,
                min_degree: 0,
                max_degree: 0,
                avg_degree: 0.0,
                isolated: 0,
            };
        }
        let (min_d, max_d, isolated) = (0..n)
            .into_par_iter()
            .map(|v| {
                let d = g.degree(v as u32);
                (d, d, usize::from(d == 0))
            })
            .reduce(
                || (usize::MAX, 0, 0),
                |a, b| (a.0.min(b.0), a.1.max(b.1), a.2 + b.2),
            );
        GraphStats {
            n,
            m: g.num_edges(),
            min_degree: min_d,
            max_degree: max_d,
            avg_degree: 2.0 * g.num_edges() as f64 / n as f64,
            isolated,
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} deg[min={} avg={:.2} max={}] isolated={}",
            self.n, self.m, self.min_degree, self.avg_degree, self.max_degree, self.isolated
        )
    }
}

/// Degree histogram bucketed by powers of two: entry `i` counts vertices
/// with degree in `[2^i, 2^{i+1})`; entry 0 counts degrees 0 and 1.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; 33];
    for v in g.vertices() {
        let d = g.degree(v);
        let bucket = if d <= 1 {
            0
        } else {
            usize::BITS as usize - (d.leading_zeros() as usize)
        };
        hist[bucket.min(32)] += 1;
    }
    while hist.len() > 1 && *hist.last().unwrap() == 0 {
        hist.pop();
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_grid() {
        let s = GraphStats::of(&gen::grid2d(4, 4));
        assert_eq!(s.n, 16);
        assert_eq!(s.m, 24);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let s = GraphStats::of(&crate::CsrGraph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn isolated_counted() {
        let g = crate::CsrGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(GraphStats::of(&g).isolated, 3);
    }

    #[test]
    fn histogram_star() {
        let hist = degree_histogram(&gen::star(9));
        // 8 leaves of degree 1 in bucket 0; center degree 8 in bucket 4.
        assert_eq!(hist[0], 8);
        assert_eq!(hist[4], 1);
    }

    #[test]
    fn display_is_stable() {
        let s = GraphStats::of(&gen::path(3));
        assert_eq!(
            format!("{s}"),
            "n=3 m=2 deg[min=1 avg=1.33 max=2] isolated=0"
        );
    }
}
