//! Connected components.

use crate::csr::{Vertex, NO_VERTEX};
use crate::view::GraphView;
use std::collections::VecDeque;

/// Labels each vertex with a component id in `0..k` (ids assigned in order
/// of discovery by vertex id) and returns `(labels, k)`.
pub fn connected_components<V: GraphView>(g: &V) -> (Vec<Vertex>, usize) {
    let n = g.num_vertices();
    let mut label = vec![NO_VERTEX; n];
    let mut next = 0 as Vertex;
    let mut queue = VecDeque::new();
    for s in 0..n as Vertex {
        if label[s as usize] != NO_VERTEX {
            continue;
        }
        label[s as usize] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors_iter(u) {
                if label[v as usize] == NO_VERTEX {
                    label[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// Number of connected components.
pub fn num_components<V: GraphView>(g: &V) -> usize {
    connected_components(g).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn single_component() {
        let g = gen::cycle(8);
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn multiple_components() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3)]);
        let (label, k) = connected_components(&g);
        assert_eq!(k, 4); // {0,1}, {2,3}, {4}, {5}
        assert_eq!(label[0], label[1]);
        assert_eq!(label[2], label[3]);
        assert_ne!(label[0], label[2]);
    }

    use crate::CsrGraph;
}
