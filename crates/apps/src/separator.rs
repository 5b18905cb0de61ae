//! Vertex separators from decompositions — the \[23, 28\] direction the
//! paper's Section 2 cites ("efficiently computing separators in
//! minor-free graphs. Our algorithm can be directly substituted into these
//! algorithms").
//!
//! From a `(β, r)` decomposition, removing one endpoint of every cut edge
//! leaves components that are each contained in a single cluster. The
//! separator has expected size `O(β·m)`, and every surviving piece has
//! strong diameter `O(log n / β)` — the primitive those separator
//! algorithms recurse on.

use mpx_decomp::{partition, DecompOptions, Decomposition, Traversal};
use mpx_graph::{view_edges, CsrGraph, GraphView, Vertex};

/// A vertex separator with its provenance.
#[derive(Clone, Debug)]
pub struct Separator {
    /// The separator vertices (sorted, deduplicated).
    pub vertices: Vec<Vertex>,
    /// The decomposition it came from.
    pub decomposition: Decomposition,
}

/// Builds a separator by removing, for every cut edge, the endpoint lying
/// in the cluster with the larger center id (a fixed, deterministic rule).
/// `g` is any [`GraphView`].
pub fn decomposition_separator<V: GraphView>(g: &V, beta: f64, seed: u64) -> Separator {
    decomposition_separator_with_options(g, &DecompOptions::new(beta).with_seed(seed))
}

/// [`decomposition_separator`] under full [`DecompOptions`] (top-down
/// pinned like the historical construction).
pub fn decomposition_separator_with_options<V: GraphView>(
    g: &V,
    opts: &DecompOptions,
) -> Separator {
    let d = partition(g, &opts.clone().with_traversal(Traversal::TopDownPar));
    let mut vertices: Vec<Vertex> = view_edges(g)
        .filter_map(|(u, v)| {
            let (cu, cv) = (d.center_of(u), d.center_of(v));
            if cu == cv {
                None
            } else if cu > cv {
                Some(u)
            } else {
                Some(v)
            }
        })
        .collect();
    vertices.sort_unstable();
    vertices.dedup();
    Separator {
        vertices,
        decomposition: d,
    }
}

/// Verifies the defining property: after removing the separator, every
/// connected component lies inside one cluster of the decomposition.
pub fn verify_separator(g: &CsrGraph, s: &Separator) -> Result<(), String> {
    let n = g.num_vertices();
    let mut removed = vec![false; n];
    for &v in &s.vertices {
        removed[v as usize] = true;
    }
    for (u, v) in g.edges() {
        if !removed[u as usize]
            && !removed[v as usize]
            && s.decomposition.center_of(u) != s.decomposition.center_of(v)
        {
            return Err(format!("surviving cut edge ({u},{v})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::gen;

    #[test]
    fn separator_property_holds() {
        for (i, g) in [
            gen::grid2d(25, 25),
            gen::gnm(600, 2000, 3),
            gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 2),
        ]
        .into_iter()
        .enumerate()
        {
            let s = decomposition_separator(&g, 0.1, i as u64);
            assert!(verify_separator(&g, &s).is_ok());
        }
    }

    #[test]
    fn separator_size_tracks_beta() {
        let g = gen::grid2d(40, 40);
        let trials = 5u64;
        let avg = |beta: f64| -> f64 {
            (0..trials)
                .map(|s| decomposition_separator(&g, beta, s).vertices.len() as f64)
                .sum::<f64>()
                / trials as f64
        };
        let small = avg(0.02);
        let large = avg(0.4);
        assert!(small < large, "β=0.02 → {small}, β=0.4 → {large}");
        // E[|S|] ≤ E[cut] = O(β m).
        assert!(small <= 4.0 * 0.02 * g.num_edges() as f64 + 1.0);
    }

    #[test]
    fn pieces_confined_to_clusters() {
        use mpx_graph::algo;
        let g = gen::grid2d(20, 20);
        let s = decomposition_separator(&g, 0.2, 9);
        let keep: Vec<bool> = {
            let mut k = vec![true; g.num_vertices()];
            for &v in &s.vertices {
                k[v as usize] = false;
            }
            k
        };
        let (sub, map) = g.induced_subgraph(&keep);
        let (labels, _) = algo::connected_components(&sub);
        // All vertices of one surviving component share a cluster.
        let mut rep: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for v in 0..sub.num_vertices() {
            let orig = map[v];
            let cluster = s.decomposition.center_of(orig);
            let entry = rep.entry(labels[v]).or_insert(cluster);
            assert_eq!(*entry, cluster);
        }
    }

    #[test]
    fn edgeless_graph_needs_no_separator() {
        let g = CsrGraph::empty(10);
        let s = decomposition_separator(&g, 0.3, 0);
        assert!(s.vertices.is_empty());
        assert!(verify_separator(&g, &s).is_ok());
    }

    use mpx_graph::CsrGraph;
}
