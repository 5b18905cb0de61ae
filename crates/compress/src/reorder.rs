//! Offline vertex-reordering passes for compression and locality.
//!
//! Delta-varint adjacency shrinks when neighbor ids are numerically close,
//! so relabeling a graph before encoding directly buys bytes per arc (and
//! cache locality during traversal). This module produces a
//! `new id → original id` permutation, applies it to a [`CsrGraph`], and
//! the permutation then rides in the v2 snapshot's optional section
//! ([`crate::write_compressed_snapshot`]) so labels computed in the file's
//! id space can be mapped back to original ids
//! (`Decomposition::remap_labels`).
//!
//! Both passes are deterministic: the same graph always yields the same
//! permutation, regardless of thread count.

use mpx_graph::{CsrGraph, GraphView, Vertex};
use rayon::prelude::*;
use std::str::FromStr;

/// A vertex-reordering strategy for `mpx convert --reorder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reorder {
    /// Keep original ids (no permutation section is written).
    None,
    /// Descending degree, ties by ascending original id. Packs hubs — the
    /// longest lists — into small ids, shrinking their gap varints;
    /// strongest on power-law graphs.
    Degree,
    /// Breadth-first order: roots are the smallest-id unvisited vertex of
    /// each component, neighbors visit in ascending order. Neighbors land
    /// near each other, shrinking deltas on mesh-like graphs.
    Bfs,
}

impl Reorder {
    /// The CLI tokens, in display order.
    pub const TOKENS: &'static [&'static str] = &["none", "degree", "bfs"];

    /// The token this variant parses from.
    pub fn token(self) -> &'static str {
        match self {
            Reorder::None => "none",
            Reorder::Degree => "degree",
            Reorder::Bfs => "bfs",
        }
    }
}

impl FromStr for Reorder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Reorder::None),
            "degree" => Ok(Reorder::Degree),
            "bfs" => Ok(Reorder::Bfs),
            other => Err(format!(
                "unknown reorder strategy {other:?} (expected one of: none, degree, bfs)"
            )),
        }
    }
}

impl std::fmt::Display for Reorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Computes the `new id → original id` permutation for `strategy`, or
/// `None` for [`Reorder::None`] (callers then skip the permutation section
/// entirely).
pub fn reorder_permutation<G: GraphView>(view: &G, strategy: Reorder) -> Option<Vec<Vertex>> {
    let n = view.num_vertices();
    match strategy {
        Reorder::None => None,
        Reorder::Degree => {
            let mut order: Vec<Vertex> = (0..n as Vertex).collect();
            // Stable by construction: key includes the id as tiebreak.
            order.par_sort_unstable_by_key(|&v| (std::cmp::Reverse(view.degree(v)), v));
            Some(order)
        }
        Reorder::Bfs => {
            let mut order = Vec::with_capacity(n);
            let mut visited = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            for root in 0..n as Vertex {
                if visited[root as usize] {
                    continue;
                }
                visited[root as usize] = true;
                queue.push_back(root);
                while let Some(v) = queue.pop_front() {
                    order.push(v);
                    for t in view.neighbors_iter(v) {
                        if !visited[t as usize] {
                            visited[t as usize] = true;
                            queue.push_back(t);
                        }
                    }
                }
            }
            Some(order)
        }
    }
}

/// Relabels `g` under `new_to_old`, returning the graph in the new id
/// space: new vertex `u` takes the adjacency of original vertex
/// `new_to_old[u]`, each neighbor mapped through the inverse and re-sorted.
///
/// Panics if `new_to_old` is not a permutation of `0..n` (it always is
/// when produced by [`reorder_permutation`]).
pub fn apply_permutation(g: &CsrGraph, new_to_old: &[Vertex]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(new_to_old.len(), n, "permutation length != num_vertices");
    let mut old_to_new = vec![Vertex::MAX; n];
    for (new_id, &old_id) in new_to_old.iter().enumerate() {
        assert!(
            old_to_new[old_id as usize] == Vertex::MAX,
            "permutation repeats original id {old_id}"
        );
        old_to_new[old_id as usize] = new_id as Vertex;
    }

    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0usize);
    for &old_id in new_to_old {
        acc += g.degree(old_id);
        offsets.push(acc);
    }
    let mut targets = vec![0 as Vertex; acc];
    let mut lists: Vec<(usize, &mut [Vertex])> = {
        let mut out = Vec::with_capacity(n);
        let mut rest = targets.as_mut_slice();
        for u in 0..n {
            let (head, tail) = rest.split_at_mut(offsets[u + 1] - offsets[u]);
            out.push((u, head));
            rest = tail;
        }
        out
    };
    lists.par_iter_mut().for_each(|(u, list)| {
        let old_id = new_to_old[*u];
        for (slot, &t) in list.iter_mut().zip(g.neighbors(old_id)) {
            *slot = old_to_new[t as usize];
        }
        list.sort_unstable();
    });
    CsrGraph::try_from_csr(offsets, targets)
        .expect("permuting a valid graph preserves CSR invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::gen;

    #[test]
    fn parses_tokens() {
        for &tok in Reorder::TOKENS {
            assert_eq!(tok.parse::<Reorder>().unwrap().token(), tok);
        }
        assert!("zorder".parse::<Reorder>().is_err());
    }

    #[test]
    fn none_yields_no_permutation() {
        let g = gen::grid2d(4, 4);
        assert!(reorder_permutation(&g, Reorder::None).is_none());
    }

    #[test]
    fn degree_order_is_descending_with_id_ties() {
        let g = gen::rmat(9, 4 * 512, 0.57, 0.19, 0.19, 7);
        let p = reorder_permutation(&g, Reorder::Degree).unwrap();
        for w in p.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (da, db) = (g.degree(a), g.degree(b));
            assert!(da > db || (da == db && a < b));
        }
    }

    #[test]
    fn bfs_order_is_a_permutation_rooted_at_zero() {
        let g = gen::grid2d(7, 5);
        let p = reorder_permutation(&g, Reorder::Bfs).unwrap();
        assert_eq!(p[0], 0);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as Vertex));
    }

    #[test]
    fn apply_permutation_preserves_structure() {
        let g = gen::rmat(8, 3 * 256, 0.45, 0.22, 0.22, 13);
        for strategy in [Reorder::Degree, Reorder::Bfs] {
            let p = reorder_permutation(&g, strategy).unwrap();
            let h = apply_permutation(&g, &p);
            assert_eq!(h.num_vertices(), g.num_vertices());
            assert_eq!(h.num_edges(), g.num_edges());
            // Edge sets agree under the relabeling.
            let mut old_to_new = vec![0 as Vertex; g.num_vertices()];
            for (new_id, &old_id) in p.iter().enumerate() {
                old_to_new[old_id as usize] = new_id as Vertex;
            }
            for (u, v) in g.edges() {
                assert!(h.has_edge(old_to_new[u as usize], old_to_new[v as usize]));
            }
        }
    }

    #[test]
    fn identity_permutation_is_a_noop() {
        let g = gen::grid2d(6, 6);
        let id: Vec<Vertex> = (0..g.num_vertices() as Vertex).collect();
        assert_eq!(&apply_permutation(&g, &id), &g);
    }
}
