//! Canonical SDD test systems.

use mpx_graph::{gen, WeightedCsrGraph};

/// A Laplacian system `L x = b` with provenance metadata.
#[derive(Clone, Debug)]
pub struct Problem {
    /// Short label for tables.
    pub name: String,
    /// The weighted graph whose Laplacian is the system matrix.
    pub graph: WeightedCsrGraph,
    /// Right-hand side (mean zero).
    pub rhs: Vec<f64>,
}

/// 2-D Poisson problem: unit-weight grid Laplacian with a ±1 dipole in
/// opposite corners — the canonical SDD benchmark.
pub fn grid_poisson(side: usize) -> Problem {
    let g = WeightedCsrGraph::unit_weights(&gen::grid2d(side, side));
    let n = side * side;
    let mut rhs = vec![0.0; n];
    rhs[0] = 1.0;
    rhs[n - 1] = -1.0;
    Problem {
        name: format!("poisson-{side}x{side}"),
        graph: g,
        rhs,
    }
}

/// Weighted grid with anisotropic conductances (horizontal edges heavy,
/// vertical light) — badly conditioned; the case where low-stretch trees
/// shine.
pub fn anisotropic_grid(side: usize, ratio: f64) -> Problem {
    assert!(ratio > 0.0);
    let grid = gen::grid2d(side, side);
    let edges: Vec<(u32, u32, f64)> = grid
        .edges()
        .map(|(u, v)| {
            // Horizontal edges connect ids differing by 1 (same row).
            let w = if v == u + 1 && (u as usize % side) != side - 1 {
                ratio
            } else {
                1.0
            };
            (u, v, w)
        })
        .collect();
    let g = WeightedCsrGraph::from_edges(side * side, &edges);
    let n = side * side;
    let mut rhs = vec![0.0; n];
    rhs[0] = 1.0;
    rhs[n - 1] = -1.0;
    Problem {
        name: format!("aniso-{side}x{side}-r{ratio}"),
        graph: g,
        rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rhs_mean_zero() {
        let p = grid_poisson(10);
        assert!((p.rhs.iter().sum::<f64>()).abs() < 1e-12);
        assert_eq!(p.graph.num_vertices(), 100);
    }

    #[test]
    fn anisotropic_weights_split() {
        let p = anisotropic_grid(5, 100.0);
        let heavy = p.graph.edges().filter(|&(_, _, w)| w == 100.0).count();
        let light = p.graph.edges().filter(|&(_, _, w)| w == 1.0).count();
        assert_eq!(heavy, 5 * 4); // horizontal edges
        assert_eq!(light, 4 * 5); // vertical edges
    }

    #[test]
    fn problems_solvable() {
        use crate::{pcg, Identity, Laplacian};
        for p in [grid_poisson(8), anisotropic_grid(8, 100.0)] {
            let lap = Laplacian::new(p.graph.clone());
            let out = pcg(&lap, &p.rhs, 1e-8, 1000, &Identity);
            assert!(out.converged, "{} did not converge", p.name);
        }
    }
}
