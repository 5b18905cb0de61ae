//! Zero-copy graph views.
//!
//! The decomposition engine (`mpx-decomp`) and every recursive pipeline on
//! top of it (HSTs, block decompositions, connectivity) are all BFS-shaped:
//! they only ever ask a graph three questions — *how many vertices*, *what
//! is the degree of `v`*, *who are the neighbors of `v`*. [`GraphView`]
//! abstracts exactly that surface, so one traversal engine can run over
//!
//! * a plain [`CsrGraph`] (the whole graph),
//! * an [`InducedView`] — a **vertex subset** of a borrowed graph, with
//!   neighbors filtered on the fly and ids densified, no CSR copy, and
//! * an [`EdgeFilteredView`] — an **edge subset** of a borrowed graph (a
//!   per-arc liveness mask), again with no CSR copy.
//!
//! Before these views existed, every level of a recursive decomposition
//! paid [`CsrGraph::induced_subgraph`] (allocate + rebuild the CSR arrays
//! and an id-remap vector) or [`CsrGraph::from_edges`] (sort + dedup the
//! survivors). The views replace those materializations with O(1)-per-edge
//! filtering against the *original* arrays.
//!
//! # Id spaces
//!
//! Every view presents a **dense** id space `0..num_vertices()`. For
//! [`InducedView`] the dense id of an active vertex is its rank in the
//! ascending active list — the *same* numbering
//! [`CsrGraph::induced_subgraph`] produces, which is why a partition of a
//! view is bit-identical to a partition of the materialized subgraph (the
//! engine test suite asserts this). [`EdgeFilteredView`] keeps the
//! underlying graph's ids (all vertices present, some edges hidden).

use crate::csr::{CsrGraph, Vertex};
use rayon::prelude::*;
use std::borrow::Cow;

/// Below this many active vertices the view constructors run their degree
/// scans inline; recursive pipelines build thousands of tiny views and the
/// parallel fan-out would dominate.
const PAR_CUTOFF: usize = 4096;

/// The read-only traversal surface of a graph: the engine contract.
///
/// Vertices are dense ids `0..num_vertices()`. Implementations must present
/// a **symmetric** neighbor relation (`u ∈ neighbors(v)` iff
/// `v ∈ neighbors(u)`) with each neighbor list iterated in ascending order
/// and free of self-loops and duplicates — the invariants of [`CsrGraph`],
/// which every view inherits by construction.
pub trait GraphView: Sync {
    /// Neighbor iterator of one vertex.
    type Neighbors<'a>: Iterator<Item = Vertex> + 'a
    where
        Self: 'a;

    /// Number of vertices (dense ids `0..n`).
    fn num_vertices(&self) -> usize;

    /// Degree of `v` *within the view* (hidden neighbors don't count).
    fn degree(&self, v: Vertex) -> usize;

    /// Sum of all view degrees (`2m` of the viewed graph).
    fn total_degree(&self) -> u64;

    /// Ascending neighbors of `v` within the view.
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_>;
}

/// Ascending undirected edges `(u, v)` with `u < v` of any view — the
/// same order [`CsrGraph::edges`] enumerates them in. The shared edge
/// enumeration of the contraction/spanner/separator pipelines, which
/// must visit edges identically whether the graph is an in-memory CSR, a
/// mapped snapshot, or a filtered view.
pub fn view_edges<V: GraphView>(view: &V) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
    (0..view.num_vertices() as Vertex).flat_map(move |u| {
        view.neighbors_iter(u)
            .filter(move |&v| u < v)
            .map(move |v| (u, v))
    })
}

impl GraphView for CsrGraph {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, Vertex>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        self.num_arcs() as u64
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        self.neighbors(v).iter().copied()
    }
}

/// A vertex-induced subgraph **view**: a borrowed graph (any
/// [`GraphView`] — a [`CsrGraph`], a memory-mapped snapshot, even another
/// view) plus an active-vertex subset, presented under dense ids without
/// copying any CSR arrays.
///
/// Internally the subset is a *sparse set*: `active` lists the original ids
/// ascending (dense id = position), and `rank` maps original id → dense id.
/// Membership of an original vertex `w` is decided by the classic stale-safe
/// check `rank[w] < k && active[rank[w]] == w`, which means `rank` may
/// contain garbage outside the active set — callers recursing over disjoint
/// pieces (the HST pipeline) share **one** rank scratch buffer across all
/// levels and never pay to clear it.
///
/// Construction also caches the active-degree prefix sums, so `degree` and
/// `total_degree` (the quantities the engine's round scheduling and load
/// balancing key off) are O(1).
///
/// Over a weighted graph the view is a
/// [`WeightedGraphView`](crate::WeightedGraphView) too, with the weights
/// riding along (`crate::wview`).
///
/// ```
/// use mpx_graph::{gen, GraphView, InducedView};
/// let g = gen::grid2d(4, 4);
/// let keep: Vec<bool> = (0..16).map(|v| v % 2 == 0).collect();
/// let view = InducedView::from_mask(&g, &keep);
/// let (sub, _) = g.induced_subgraph(&keep);
/// assert_eq!(view.num_vertices(), sub.num_vertices());
/// for v in 0..view.num_vertices() as u32 {
///     let via_view: Vec<u32> = view.neighbors_iter(v).collect();
///     assert_eq!(via_view.as_slice(), sub.neighbors(v));
/// }
/// ```
pub struct InducedView<'a, G: GraphView = CsrGraph> {
    graph: &'a G,
    /// Original ids of the active vertices, ascending; dense id = index.
    active: Cow<'a, [Vertex]>,
    /// Sparse-set rank array: `rank[active[i]] == i`; arbitrary elsewhere.
    rank: Cow<'a, [Vertex]>,
    /// Active-degree prefix sums: `deg_prefix[i+1] - deg_prefix[i]` is the
    /// active degree of dense vertex `i`; the last entry is `2m_active`.
    deg_prefix: Vec<u64>,
}

impl<'a, G: GraphView> InducedView<'a, G> {
    /// View of the vertices with `keep[v] == true` (mask length `n`).
    pub fn from_mask(graph: &'a G, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), graph.num_vertices());
        let active: Vec<Vertex> = (0..graph.num_vertices() as Vertex)
            .filter(|&v| keep[v as usize])
            .collect();
        let mut rank = vec![0 as Vertex; graph.num_vertices()];
        for (i, &v) in active.iter().enumerate() {
            rank[v as usize] = i as Vertex;
        }
        let deg_prefix = build_deg_prefix(graph, &active, &rank);
        InducedView {
            graph,
            active: Cow::Owned(active),
            rank: Cow::Owned(rank),
            deg_prefix,
        }
    }

    /// Zero-allocation view over caller-maintained sparse-set arrays.
    ///
    /// Requirements: `active` ascending with no duplicates, `rank` of length
    /// `graph.num_vertices()` with `rank[active[i]] == i` for every `i`.
    /// Entries of `rank` outside the active set may hold anything — a
    /// recursion over disjoint pieces can share one scratch buffer and
    /// overwrite only the slots of the piece it is about to split.
    pub fn from_parts(graph: &'a G, active: &'a [Vertex], rank: &'a [Vertex]) -> Self {
        Self::from_parts_impl(graph, Cow::Borrowed(active), Cow::Borrowed(rank))
    }

    fn from_parts_impl(graph: &'a G, active: Cow<'a, [Vertex]>, rank: Cow<'a, [Vertex]>) -> Self {
        assert_eq!(rank.len(), graph.num_vertices());
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active list must be strictly ascending"
        );
        debug_assert!((0..active.len()).all(|i| rank[active[i] as usize] == i as Vertex));
        let deg_prefix = build_deg_prefix(graph, &active, &rank);
        InducedView {
            graph,
            active,
            rank,
            deg_prefix,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'a G {
        self.graph
    }

    /// Original ids of the active vertices, ascending (dense id = index).
    pub fn active(&self) -> &[Vertex] {
        &self.active
    }

    /// Original id of dense vertex `v`.
    #[inline]
    pub fn old_of(&self, v: Vertex) -> Vertex {
        self.active[v as usize]
    }

    /// Dense id of original vertex `w`, or `None` if `w` is not active.
    #[inline]
    pub fn dense_of(&self, w: Vertex) -> Option<Vertex> {
        let r = self.rank[w as usize];
        ((r as usize) < self.active.len() && self.active[r as usize] == w).then_some(r)
    }

    /// Number of undirected edges inside the view.
    pub fn num_edges(&self) -> usize {
        (self.total_degree() / 2) as usize
    }
}

/// Active-degree prefix sums for an induced view (parallel above the tiny
/// cutoff; recursive pipelines build thousands of small views).
fn build_deg_prefix<G: GraphView>(graph: &G, active: &[Vertex], rank: &[Vertex]) -> Vec<u64> {
    let is_member = |w: Vertex| -> bool {
        let r = rank[w as usize];
        (r as usize) < active.len() && active[r as usize] == w
    };
    let count =
        |v: Vertex| -> u64 { graph.neighbors_iter(v).filter(|&w| is_member(w)).count() as u64 };
    let deg: Vec<u64> = if active.len() >= PAR_CUTOFF {
        active.par_iter().map(|&v| count(v)).collect()
    } else {
        active.iter().map(|&v| count(v)).collect()
    };
    let mut prefix = Vec::with_capacity(deg.len() + 1);
    let mut acc = 0u64;
    prefix.push(0);
    for d in deg {
        acc += d;
        prefix.push(acc);
    }
    prefix
}

/// Ascending active neighbors of one vertex of an [`InducedView`], already
/// translated to dense ids.
pub struct InducedNeighbors<'v, 'g, G: GraphView = CsrGraph> {
    inner: G::Neighbors<'g>,
    view: &'v InducedView<'g, G>,
}

impl<G: GraphView> Iterator for InducedNeighbors<'_, '_, G> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        for w in self.inner.by_ref() {
            if let Some(d) = self.view.dense_of(w) {
                return Some(d);
            }
        }
        None
    }
}

impl<'g, G: GraphView> GraphView for InducedView<'g, G> {
    type Neighbors<'v>
        = InducedNeighbors<'v, 'g, G>
    where
        Self: 'v;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.active.len()
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        (self.deg_prefix[v as usize + 1] - self.deg_prefix[v as usize]) as usize
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        *self.deg_prefix.last().unwrap_or(&0)
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        InducedNeighbors {
            inner: self.graph.neighbors_iter(self.active[v as usize]),
            view: self,
        }
    }
}

/// An edge-subset **view**: the full vertex set of a borrowed [`CsrGraph`]
/// with a per-arc liveness mask deciding which edges exist.
///
/// `live` is indexed by *arc* (position in the CSR target array) and must
/// be symmetric: the arc `u→v` is live iff the arc `v→u` is. The iterated
/// rounds of a block decomposition or a components pipeline maintain one
/// such mask and shrink it in place instead of rebuilding a residual graph
/// with [`CsrGraph::from_edges`] every round.
///
/// ```
/// use mpx_graph::{CsrGraph, EdgeFilteredView, GraphView};
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// // Hide the edge {1,2}: arcs are (0→1), (1→0), (1→2), (2→1).
/// let live = vec![true, true, false, false];
/// let view = EdgeFilteredView::new(&g, &live);
/// assert_eq!(view.degree(1), 1);
/// assert_eq!(view.neighbors_iter(1).collect::<Vec<_>>(), vec![0]);
/// assert_eq!(view.total_degree(), 2);
/// ```
pub struct EdgeFilteredView<'a> {
    graph: &'a CsrGraph,
    live: &'a [bool],
    /// Live degree per vertex.
    deg: Vec<u32>,
    total: u64,
}

impl<'a> EdgeFilteredView<'a> {
    /// View of the live arcs of `graph`. `live.len()` must equal
    /// [`CsrGraph::num_arcs`] and the mask must be symmetric (see type
    /// docs); symmetry is checked in debug builds.
    pub fn new(graph: &'a CsrGraph, live: &'a [bool]) -> Self {
        assert_eq!(live.len(), graph.num_arcs());
        let offsets = graph.offsets();
        let count = |v: Vertex| -> u32 {
            live[offsets[v as usize]..offsets[v as usize + 1]]
                .iter()
                .filter(|&&l| l)
                .count() as u32
        };
        let n = graph.num_vertices();
        let deg: Vec<u32> = if n >= PAR_CUTOFF {
            (0..n as Vertex).into_par_iter().map(count).collect()
        } else {
            (0..n as Vertex).map(count).collect()
        };
        let total = deg.iter().map(|&d| d as u64).sum();
        debug_assert!(
            {
                let targets = graph.targets();
                (0..n as Vertex).all(|u| {
                    (offsets[u as usize]..offsets[u as usize + 1]).all(|a| {
                        let v = targets[a];
                        let rev = offsets[v as usize]
                            + graph.neighbors(v).binary_search(&u).expect("symmetric CSR");
                        live[a] == live[rev]
                    })
                })
            },
            "edge liveness mask must be symmetric"
        );
        EdgeFilteredView {
            graph,
            live,
            deg,
            total,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// Number of live undirected edges.
    pub fn num_edges(&self) -> usize {
        (self.total / 2) as usize
    }
}

/// Ascending live neighbors of one vertex of an [`EdgeFilteredView`].
pub struct EdgeFilteredNeighbors<'g> {
    targets: std::slice::Iter<'g, Vertex>,
    live: std::slice::Iter<'g, bool>,
}

impl Iterator for EdgeFilteredNeighbors<'_> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        loop {
            match (self.targets.next(), self.live.next()) {
                (Some(&w), Some(&l)) => {
                    if l {
                        return Some(w);
                    }
                }
                _ => return None,
            }
        }
    }
}

impl<'g> GraphView for EdgeFilteredView<'g> {
    type Neighbors<'v>
        = EdgeFilteredNeighbors<'g>
    where
        Self: 'v;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.deg[v as usize] as usize
    }

    #[inline]
    fn total_degree(&self) -> u64 {
        self.total
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        let offsets = self.graph.offsets();
        let range = offsets[v as usize]..offsets[v as usize + 1];
        EdgeFilteredNeighbors {
            targets: self.graph.targets()[range.clone()].iter(),
            live: self.live[range].iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Deterministic pseudo-random mask for tests.
    fn mask(n: usize, seed: u64, keep_mod: u64) -> Vec<bool> {
        (0..n as u64)
            .map(|v| {
                v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed)
                    .rotate_left(17)
                    % 10
                    < keep_mod
            })
            .collect()
    }

    #[test]
    fn csr_implements_view_transparently() {
        let g = gen::grid2d(5, 7);
        assert_eq!(GraphView::num_vertices(&g), 35);
        assert_eq!(g.total_degree(), g.num_arcs() as u64);
        for v in 0..35u32 {
            assert_eq!(GraphView::degree(&g, v), g.degree(v));
            let via_view: Vec<Vertex> = g.neighbors_iter(v).collect();
            assert_eq!(via_view.as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn induced_view_matches_materialized_subgraph() {
        for seed in 0..5u64 {
            let g = gen::gnm(300, 900, seed);
            let keep = mask(300, seed, 6);
            let view = InducedView::from_mask(&g, &keep);
            let (sub, map) = g.induced_subgraph(&keep);
            assert_eq!(view.num_vertices(), sub.num_vertices());
            assert_eq!(view.active(), map.as_slice());
            assert_eq!(view.total_degree(), sub.num_arcs() as u64);
            assert_eq!(view.num_edges(), sub.num_edges());
            for v in 0..sub.num_vertices() as Vertex {
                assert_eq!(view.degree(v), sub.degree(v), "degree of {v}");
                let nbrs: Vec<Vertex> = view.neighbors_iter(v).collect();
                assert_eq!(nbrs.as_slice(), sub.neighbors(v), "neighbors of {v}");
            }
        }
    }

    #[test]
    fn induced_view_tolerates_stale_rank_entries() {
        // Shared-scratch usage: rank carries garbage outside the active set.
        let g = gen::grid2d(6, 6);
        let active: Vec<Vertex> = vec![3, 4, 5, 9, 10, 11];
        let mut rank = vec![7 as Vertex; 36]; // all stale
        for (i, &v) in active.iter().enumerate() {
            rank[v as usize] = i as Vertex;
        }
        let view = InducedView::from_parts(&g, &active, &rank);
        let keep: Vec<bool> = (0..36u32).map(|v| active.contains(&v)).collect();
        let (sub, _) = g.induced_subgraph(&keep);
        for v in 0..active.len() as Vertex {
            let nbrs: Vec<Vertex> = view.neighbors_iter(v).collect();
            assert_eq!(nbrs.as_slice(), sub.neighbors(v));
        }
    }

    #[test]
    fn induced_view_dense_old_roundtrip() {
        let g = gen::path(10);
        let keep = [
            true, false, true, true, false, false, true, false, false, true,
        ];
        let view = InducedView::from_mask(&g, &keep);
        assert_eq!(view.active(), &[0, 2, 3, 6, 9]);
        for (dense, &old) in view.active().iter().enumerate() {
            assert_eq!(view.old_of(dense as Vertex), old);
            assert_eq!(view.dense_of(old), Some(dense as Vertex));
        }
        assert_eq!(view.dense_of(1), None);
        assert_eq!(view.dense_of(8), None);
        // Path 0-..-9 keeping {0,2,3,6,9}: only edge {2,3} survives.
        assert_eq!(view.num_edges(), 1);
    }

    #[test]
    fn induced_view_empty_and_full() {
        let g = gen::cycle(8);
        let none = InducedView::from_mask(&g, &[false; 8]);
        assert_eq!(none.num_vertices(), 0);
        assert_eq!(none.total_degree(), 0);
        let all = InducedView::from_mask(&g, &[true; 8]);
        assert_eq!(all.num_vertices(), 8);
        assert_eq!(all.total_degree(), g.num_arcs() as u64);
        for v in 0..8u32 {
            let nbrs: Vec<Vertex> = all.neighbors_iter(v).collect();
            assert_eq!(nbrs.as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn edge_filtered_view_full_and_empty_masks() {
        let g = gen::grid2d(4, 4);
        let all = vec![true; g.num_arcs()];
        let view = EdgeFilteredView::new(&g, &all);
        assert_eq!(view.total_degree(), g.num_arcs() as u64);
        for v in 0..16u32 {
            let nbrs: Vec<Vertex> = view.neighbors_iter(v).collect();
            assert_eq!(nbrs.as_slice(), g.neighbors(v));
        }
        let none = vec![false; g.num_arcs()];
        let view = EdgeFilteredView::new(&g, &none);
        assert_eq!(view.total_degree(), 0);
        assert_eq!(view.degree(5), 0);
        assert_eq!(view.neighbors_iter(5).count(), 0);
    }

    #[test]
    fn edge_filtered_view_matches_label_cut_subgraph() {
        // Liveness := "endpoints in different parity classes" — symmetric —
        // must agree with the materialized cut graph.
        let g = gen::gnm(200, 600, 3);
        let label = |v: Vertex| v % 3;
        let offsets = g.offsets();
        let targets = g.targets();
        let live: Vec<bool> = (0..g.num_vertices() as Vertex)
            .flat_map(|u| {
                (offsets[u as usize]..offsets[u as usize + 1])
                    .map(move |a| label(u) != label(targets[a]))
            })
            .collect();
        let view = EdgeFilteredView::new(&g, &live);
        let cut: Vec<(Vertex, Vertex)> = g.edges().filter(|&(u, v)| label(u) != label(v)).collect();
        let sub = CsrGraph::from_edges(g.num_vertices(), &cut);
        assert_eq!(view.total_degree(), sub.num_arcs() as u64);
        for v in 0..g.num_vertices() as Vertex {
            assert_eq!(view.degree(v), sub.degree(v));
            let nbrs: Vec<Vertex> = view.neighbors_iter(v).collect();
            assert_eq!(nbrs.as_slice(), sub.neighbors(v));
        }
    }
}
