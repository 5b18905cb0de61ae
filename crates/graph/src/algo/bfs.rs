//! Sequential breadth-first search oracles.

use crate::csr::{Vertex, NO_VERTEX};
use crate::view::GraphView;
use crate::{Dist, INFINITY};
use std::collections::VecDeque;

/// Single-source BFS distances; unreachable vertices get [`INFINITY`].
/// Generic over any [`GraphView`] (CSR graph, mmap snapshot, view).
pub fn bfs<V: GraphView>(g: &V, source: Vertex) -> Vec<Dist> {
    multi_source_bfs(g, &[source])
}

/// Multi-source BFS: distance to the nearest source.
pub fn multi_source_bfs<V: GraphView>(g: &V, sources: &[Vertex]) -> Vec<Dist> {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        if dist[s as usize] == INFINITY {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in g.neighbors_iter(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS that also records the parent of each vertex in the BFS tree
/// (`NO_VERTEX` for the source and unreachable vertices).
pub fn bfs_parents<V: GraphView>(g: &V, source: Vertex) -> (Vec<Dist>, Vec<Vertex>) {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![NO_VERTEX; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in g.neighbors_iter(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let d = bfs(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = gen::path(7);
        let d = multi_source_bfs(&g, &[0, 6]);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_duplicate_sources() {
        let g = gen::path(3);
        let d = multi_source_bfs(&g, &[1, 1]);
        assert_eq!(d, vec![1, 0, 1]);
    }

    #[test]
    fn parents_form_tree() {
        let g = gen::grid2d(4, 4);
        let (dist, parent) = bfs_parents(&g, 0);
        for v in 1..16u32 {
            let p = parent[v as usize];
            assert_ne!(p, NO_VERTEX);
            assert_eq!(dist[p as usize] + 1, dist[v as usize]);
            assert!(g.has_edge(p, v));
        }
    }

    use crate::CsrGraph;
}
