//! Summary statistics for decompositions (the numbers `mpx partition`
//! prints).

use crate::decomposition::Decomposition;
use crate::verify::VerifyReport;
use mpx_graph::{Dist, GraphView};

/// Quantitative summary of one decomposition, aligned with Definition 1.1:
/// the pair to watch is (`cut_fraction` vs `β`, `max_radius` vs
/// `O(log n / β)`).
#[must_use = "statistics are computed to be read"]
#[derive(Clone, Debug, PartialEq)]
pub struct DecompositionStats {
    /// Number of clusters.
    pub num_clusters: usize,
    /// Smallest cluster size.
    pub min_cluster: usize,
    /// Largest cluster size.
    pub max_cluster: usize,
    /// Mean cluster size.
    pub avg_cluster: f64,
    /// Max distance to center (radius; strong diameter ≤ 2×radius).
    pub max_radius: Dist,
    /// Mean distance to center.
    pub avg_radius: f64,
    /// Edges between clusters.
    pub cut_edges: usize,
    /// `cut_edges / m`.
    pub cut_fraction: f64,
}

impl DecompositionStats {
    /// Computes all statistics in `O(n + m)` over any view of the
    /// decomposed graph. The averages of an empty graph are 0.
    pub fn compute<V: GraphView>(g: &V, d: &Decomposition) -> Self {
        let sizes = d.cluster_sizes();
        let n = d.num_vertices();
        let cut = d.cut_edges_view(g);
        let m = g.total_degree() / 2;
        let (avg_cluster, avg_radius) = if n == 0 {
            (0.0, 0.0)
        } else {
            let dist_sum: f64 = d.distances().iter().map(|&x| x as f64).sum();
            (n as f64 / d.num_clusters() as f64, dist_sum / n as f64)
        };
        DecompositionStats {
            num_clusters: d.num_clusters(),
            min_cluster: sizes.iter().copied().min().unwrap_or(0),
            max_cluster: sizes.iter().copied().max().unwrap_or(0),
            avg_cluster,
            max_radius: d.max_radius(),
            avg_radius,
            cut_edges: cut,
            cut_fraction: if m == 0 { 0.0 } else { cut as f64 / m as f64 },
        }
    }

    /// The same statistics from a [`VerifyReport`] of `d`, whose one scan
    /// already counted the cut and the radii: only the cluster sizes are
    /// left to count, in `O(n)`.
    pub fn from_report(d: &Decomposition, report: &VerifyReport) -> Self {
        let sizes = d.cluster_sizes();
        let n = d.num_vertices();
        DecompositionStats {
            num_clusters: report.num_clusters,
            min_cluster: sizes.iter().copied().min().unwrap_or(0),
            max_cluster: sizes.iter().copied().max().unwrap_or(0),
            avg_cluster: if n == 0 {
                0.0
            } else {
                n as f64 / report.num_clusters as f64
            },
            max_radius: report.max_radius,
            avg_radius: report.avg_radius,
            cut_edges: report.cut_edges,
            cut_fraction: report.cut_fraction,
        }
    }
}

impl std::fmt::Display for DecompositionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "clusters={} size[{}..{} avg {:.1}] radius[max {} avg {:.2}] cut={} ({:.4} of m)",
            self.num_clusters,
            self.min_cluster,
            self.max_cluster,
            self.avg_cluster,
            self.max_radius,
            self.avg_radius,
            self.cut_edges,
            self.cut_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DecompOptions;
    use crate::partition;
    use mpx_graph::{gen, CsrGraph};

    #[test]
    fn stats_consistency() {
        let g = gen::grid2d(30, 30);
        let d = partition(&g, &DecompOptions::new(0.2).with_seed(5));
        let s = DecompositionStats::compute(&g, &d);
        assert_eq!(s.num_clusters, d.num_clusters());
        assert!(s.min_cluster >= 1);
        assert!(s.max_cluster <= 900);
        assert!(s.avg_cluster * s.num_clusters as f64 > 899.0);
        assert!(s.cut_fraction >= 0.0 && s.cut_fraction <= 1.0);
        assert!(s.avg_radius <= s.max_radius as f64);
    }

    #[test]
    fn lower_beta_means_lower_cut_higher_radius() {
        // The paper's core trade-off (visible in Figure 1): averaged over
        // seeds to suppress variance.
        let g = gen::grid2d(40, 40);
        let runs = 5;
        let avg = |beta: f64| {
            let mut cut = 0.0;
            let mut rad = 0.0;
            for seed in 0..runs {
                let d = partition(&g, &DecompOptions::new(beta).with_seed(seed));
                let s = DecompositionStats::compute(&g, &d);
                cut += s.cut_fraction;
                rad += s.max_radius as f64;
            }
            (cut / runs as f64, rad / runs as f64)
        };
        let (cut_lo, rad_lo) = avg(0.02);
        let (cut_hi, rad_hi) = avg(0.4);
        assert!(cut_lo < cut_hi, "cut: {cut_lo} !< {cut_hi}");
        assert!(rad_lo > rad_hi, "radius: {rad_lo} !> {rad_hi}");
    }

    #[test]
    fn from_report_matches_compute() {
        use crate::verify::verify_decomposition;
        for (g, beta) in [
            (gen::grid2d(30, 30), 0.2),
            (gen::rmat(10, 8 << 10, 0.57, 0.19, 0.19, 3), 0.1),
            (gen::path(1), 0.5),
            (CsrGraph::empty(0), 0.5),
        ] {
            let d = partition(&g, &DecompOptions::new(beta).with_seed(4));
            let report = verify_decomposition(&g, &d);
            assert_eq!(
                DecompositionStats::from_report(&d, &report),
                DecompositionStats::compute(&g, &d)
            );
        }
    }

    #[test]
    fn display_renders() {
        for g in [gen::path(10), CsrGraph::empty(0)] {
            let d = partition(&g, &DecompOptions::new(0.3));
            let s = DecompositionStats::compute(&g, &d);
            let text = format!("{s}");
            assert!(text.contains("clusters="));
            assert!(text.contains("cut="));
            if g.num_vertices() == 0 {
                assert!(
                    text.contains("size[0..0 avg 0.0] radius[max 0 avg 0.00]"),
                    "{text}"
                );
            }
        }
    }
}
