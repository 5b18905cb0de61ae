//! Compressed Sparse Row (CSR) graph representation.
//!
//! [`CsrGraph`] is the workhorse structure of the workspace: an immutable,
//! undirected, unweighted simple graph. Both directions of every edge are
//! stored, so `targets.len() == 2 * num_edges()`. Neighbor lists are sorted
//! ascending, which makes membership queries `O(log deg)` and keeps iteration
//! cache-friendly.

use rayon::prelude::*;

/// Vertex identifier. Graphs in this workspace are bounded by `u32` ids,
/// matching the paper's experimental scale (the 1000×1000 grid of Figure 1
/// has 10^6 vertices).
pub type Vertex = u32;

/// Sentinel value meaning "no vertex" (used for parents, cluster centers,
/// and unassigned slots).
pub const NO_VERTEX: Vertex = u32::MAX;

/// An immutable, undirected, unweighted simple graph in CSR form.
///
/// # Invariants
///
/// * `offsets.len() == n + 1`, `offsets\[0\] == 0`, `offsets` non-decreasing.
/// * `targets[offsets[v]..offsets[v+1]]` are the neighbors of `v`,
///   sorted ascending, with no duplicates and no self-loop `v`.
/// * Symmetry: `u ∈ neighbors(v)` iff `v ∈ neighbors(u)`.
///
/// Construct via [`CsrGraph::from_edges`] or [`crate::GraphBuilder`]; both
/// enforce the invariants (deduplicating and symmetrizing their input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Edges may appear in either orientation, repeatedly, or as self-loops;
    /// the result is always a simple symmetric graph. Panics if an endpoint
    /// is `>= n`.
    ///
    /// ```
    /// use mpx_graph::CsrGraph;
    /// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 2), (2, 3)]);
    /// assert_eq!(g.num_vertices(), 4);
    /// assert_eq!(g.num_edges(), 3); // duplicate and self-loop dropped
    /// assert_eq!(g.neighbors(1), &[0, 2]);
    /// ```
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut builder = crate::GraphBuilder::with_capacity(n, edges.len());
        for &(u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Builds a graph from raw CSR arrays, checking every invariant.
    ///
    /// The checked public counterpart of the internal fast path: for callers
    /// outside this crate that already hold CSR form (e.g. snapshot decoders)
    /// and must not silently construct an invalid graph.
    ///
    /// ```
    /// use mpx_graph::CsrGraph;
    /// let g = CsrGraph::try_from_csr(vec![0, 1, 2], vec![1, 0]).unwrap();
    /// assert_eq!(g.num_edges(), 1);
    /// assert!(CsrGraph::try_from_csr(vec![0, 1, 1], vec![1]).is_err()); // asymmetric
    /// ```
    pub fn try_from_csr(offsets: Vec<usize>, targets: Vec<Vertex>) -> Result<Self, String> {
        let g = CsrGraph { offsets, targets };
        g.validate()?;
        Ok(g)
    }

    /// Builds a graph directly from CSR arrays.
    ///
    /// This is the fast path used by the builder and by generators that can
    /// emit CSR form natively. Panics (in debug builds) if the invariants do
    /// not hold; use [`CsrGraph::validate`] to check explicitly.
    pub(crate) fn from_parts(offsets: Vec<usize>, targets: Vec<Vertex>) -> Self {
        let g = CsrGraph { offsets, targets };
        debug_assert!(g.validate().is_ok(), "CSR invariants violated");
        g
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs stored (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether edge `{u, v}` exists (`O(log deg(u))`).
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.num_vertices() as Vertex
    }

    /// Iterator over undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Raw CSR offsets (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw CSR target array (length `2m`).
    pub fn targets(&self) -> &[Vertex] {
        &self.targets
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as Vertex)
            .into_par_iter()
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Checks all CSR invariants, returning a human-readable error that
    /// names the offending vertex: the offsets, then every list in
    /// parallel, then symmetry in one linear merge
    /// ([`crate::snapshot::check_reverse_arcs`]) — the audit the `.mpx`
    /// readers run on a file.
    pub fn validate(&self) -> Result<(), String> {
        crate::snapshot::audit_csr(&self.offsets, &self.targets, None)
    }

    /// Builds the quotient (cluster) graph under a labeling.
    ///
    /// `label[v]` must be a dense cluster index in `0..num_clusters`. The
    /// result has one vertex per cluster and an edge between clusters `a != b`
    /// iff some original edge crosses them (parallel edges collapsed).
    /// Returns the quotient graph together with the number of original edges
    /// crossing between distinct clusters (counted once per undirected edge).
    pub fn contract(&self, label: &[Vertex], num_clusters: usize) -> (CsrGraph, usize) {
        assert_eq!(label.len(), self.num_vertices());
        let cross: Vec<(Vertex, Vertex)> = (0..self.num_vertices() as Vertex)
            .into_par_iter()
            .flat_map_iter(|u| {
                let lu = label[u as usize];
                self.neighbors(u)
                    .iter()
                    .copied()
                    .filter(move |&v| u < v)
                    .map(move |v| (lu, label[v as usize]))
                    .filter(|&(a, b)| a != b)
            })
            .collect();
        let cut = cross.len();
        (CsrGraph::from_edges(num_clusters, &cross), cut)
    }

    /// Extracts the subgraph induced by `keep` (a vertex subset given as a
    /// boolean mask of length `n`).
    ///
    /// Returns the subgraph (with vertices renumbered densely) and the map
    /// `new_id -> old_id`. This **materializes** fresh CSR arrays; recursive
    /// pipelines should prefer the zero-copy [`crate::InducedView`] (each
    /// call here bumps the process-wide [`induced_materializations`]
    /// counter so tests can assert a pipeline stayed copy-free).
    pub fn induced_subgraph(&self, keep: &[bool]) -> (CsrGraph, Vec<Vertex>) {
        assert_eq!(keep.len(), self.num_vertices());
        INDUCED_MATERIALIZATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let old_of_new: Vec<Vertex> = (0..self.num_vertices() as Vertex)
            .filter(|&v| keep[v as usize])
            .collect();
        let mut new_of_old = vec![NO_VERTEX; self.num_vertices()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as Vertex;
        }
        let mut offsets = Vec::with_capacity(old_of_new.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for &old in &old_of_new {
            for &w in self.neighbors(old) {
                let nw = new_of_old[w as usize];
                if nw != NO_VERTEX {
                    targets.push(nw);
                }
            }
            offsets.push(targets.len());
        }
        (CsrGraph::from_parts(offsets, targets), old_of_new)
    }
}

static INDUCED_MATERIALIZATIONS: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0);

/// Number of [`CsrGraph::induced_subgraph`] materializations performed by
/// this **process** (all threads — a materialization hiding inside a
/// worker-pool closure is counted too). Tests asserting a zero delta
/// around a pipeline should run in their own test binary (one integration
/// test per file), where no concurrent test can perturb the counter.
pub fn induced_materializations() -> u64 {
    INDUCED_MATERIALIZATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn triangle() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for &(u, v) in &edges {
            assert!(u < v);
        }
    }

    #[test]
    fn contract_collapses_clusters() {
        // Path 0-1-2-3 with labels [0,0,1,1]: quotient is a single edge, one
        // crossing edge (1,2).
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (q, cut) = g.contract(&[0, 0, 1, 1], 2);
        assert_eq!(q.num_vertices(), 2);
        assert_eq!(q.num_edges(), 1);
        assert_eq!(cut, 1);
    }

    #[test]
    fn contract_counts_multi_cross_edges() {
        // 4-cycle labeled alternately: all 4 edges cross, quotient is one edge.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (q, cut) = g.contract(&[0, 1, 0, 1], 2);
        assert_eq!(q.num_edges(), 1);
        assert_eq!(cut, 4);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let keep = [true, false, true, true, true];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(map, vec![0, 2, 3, 4]);
        // Edges surviving: (2,3), (3,4) -> renumbered (1,2), (2,3).
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(1, 2));
        assert!(sub.has_edge(2, 3));
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn max_degree_star() {
        let edges: Vec<_> = (1..10u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        assert_eq!(g.max_degree(), 9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }
}
