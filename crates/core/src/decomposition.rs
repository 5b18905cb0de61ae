//! The output type of all partition routines.

use crate::shift::not_a_permutation;
use mpx_graph::{CsrGraph, Dist, GraphView, Vertex, NO_VERTEX};
use rayon::prelude::*;

/// Smallest number of vertices one parallel chunk of the `O(1)`-per-vertex
/// passes handles: below it they run inline (recursive pipelines assemble
/// thousands of tiny decompositions, where the pool fan-out would dominate).
const PAR_MIN_LEN: usize = 4096;

/// A low-diameter decomposition: a partition of `V` into clusters, each
/// identified by its *center* vertex (the `u` whose shifted distance the
/// cluster members minimize — paper Definition 1.1 / Section 3).
///
/// Stored per vertex:
/// * the center it is assigned to,
/// * its BFS distance to that center (which, by Lemma 4.1, is realized by a
///   path inside the cluster — the strong-diameter property),
/// * its parent on that intra-cluster BFS path (`NO_VERTEX` at centers).
#[must_use = "a Decomposition carries the labels the partition computed"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    assignment: Vec<Vertex>,
    dist_to_center: Vec<Dist>,
    parent: Vec<Vertex>,
    centers: Vec<Vertex>,
    cluster_index: Vec<Vertex>,
}

impl Decomposition {
    /// Assembles a decomposition from raw per-vertex arrays.
    ///
    /// `assignment[v]` is the center of `v`'s cluster (every center must be
    /// assigned to itself), `dist[v]` its hop distance to that center, and
    /// `parent[v]` its predecessor on the cluster-internal BFS path
    /// (`NO_VERTEX` iff `dist[v] == 0`).
    ///
    /// Panics unless every assigned center is an in-range, self-assigned
    /// vertex and `dist[v] == 0` iff `v` is self-assigned iff `parent[v]`
    /// is `NO_VERTEX` — the graph-independent invariants, which
    /// [`crate::verify_decomposition`] therefore takes as given.
    pub fn from_raw(
        assignment: Vec<Vertex>,
        dist_to_center: Vec<Dist>,
        parent: Vec<Vertex>,
    ) -> Self {
        let d = Self::with_clusters(assignment, dist_to_center, parent);
        if let Err(e) = d.check_internal() {
            panic!("invalid decomposition: {e}");
        }
        d
    }

    /// [`Decomposition::from_raw`] without the `dist`/`parent` coherence
    /// check, for arrays coherent by construction. Still panics unless
    /// every assigned center is an in-range, self-assigned vertex.
    fn with_clusters(
        assignment: Vec<Vertex>,
        dist_to_center: Vec<Dist>,
        parent: Vec<Vertex>,
    ) -> Self {
        let n = assignment.len();
        assert_eq!(dist_to_center.len(), n);
        assert_eq!(parent.len(), n);
        // The centers are the self-assigned vertices, which a parallel
        // filter yields in ascending order; a cluster's dense id is its
        // center's rank in that list.
        let centers: Vec<Vertex> = (0..n as Vertex)
            .into_par_iter()
            .with_min_len(PAR_MIN_LEN)
            .filter(|&v| assignment[v as usize] == v)
            .collect();
        let mut rank = vec![0 as Vertex; n];
        for (i, &c) in centers.iter().enumerate() {
            rank[c as usize] = i as Vertex;
        }
        let cluster_index: Vec<Vertex> = assignment
            .par_iter()
            .with_min_len(PAR_MIN_LEN)
            .map(|&c| match assignment.get(c as usize) {
                Some(&a) if a == c => rank[c as usize],
                _ => panic!("invalid decomposition: center {c} is not a self-assigned vertex"),
            })
            .collect();
        Decomposition {
            assignment,
            dist_to_center,
            parent,
            centers,
            cluster_index,
        }
    }

    /// Translates a decomposition computed in a **reordered** id space
    /// back to original ids.
    ///
    /// With `new_to_old[u]` naming the original id of current vertex `u`
    /// (the permutation section of a reordered `.mpx` v2 snapshot),
    /// original vertex `new_to_old[v]` receives center
    /// `new_to_old[assignment[v]]`, the same distance, and the remapped
    /// parent. Combined with `ExpShifts::regenerate_permuted`, the result
    /// is bit-identical to decomposing the original graph directly.
    ///
    /// One sequential pass scatters the three arrays (and checks the
    /// permutation); the clusters are then rebuilt as
    /// [`Decomposition::from_raw`] does, but a bijection keeps `self`'s
    /// coherence, so it is not checked again. Measured on 2 cores, the
    /// pass beat an inversion plus a parallel gather: the pool's wake-up
    /// and the random writes' shared cache lines cost more than the
    /// second thread saved.
    ///
    /// Panics if `new_to_old` is not a permutation of `0..n`, naming the
    /// out-of-range or repeated id.
    pub fn remap_labels(&self, new_to_old: &[Vertex]) -> Decomposition {
        let n = self.assignment.len();
        assert_eq!(new_to_old.len(), n, "permutation length != num_vertices");
        // `assignment` doubles as the record of which original ids the
        // permutation has named.
        let mut assignment = vec![NO_VERTEX; n];
        let mut dist_to_center = vec![0 as Dist; n];
        let mut parent = vec![NO_VERTEX; n];
        for (v, &old) in new_to_old.iter().enumerate() {
            match assignment.get_mut(old as usize) {
                Some(slot) if *slot == NO_VERTEX => *slot = new_to_old[self.assignment[v] as usize],
                Some(_) => not_a_permutation("repeats", old),
                None => not_a_permutation("names out-of-range", old),
            }
            dist_to_center[old as usize] = self.dist_to_center[v];
            parent[old as usize] = match self.parent[v] {
                NO_VERTEX => NO_VERTEX,
                p => new_to_old[p as usize],
            };
        }
        Decomposition::with_clusters(assignment, dist_to_center, parent)
    }

    /// Internal coherence checks (cheap; full graph-aware verification lives
    /// in [`crate::verify_decomposition`]): `dist 0` iff center iff no
    /// parent, reporting the smallest offending vertex. The centers are
    /// the self-assigned vertices by construction.
    pub fn check_internal(&self) -> Result<(), String> {
        let violation = |v: usize| -> Option<String> {
            let is_center = self.assignment[v] == v as Vertex;
            if is_center != (self.dist_to_center[v] == 0) {
                Some(format!("vertex {v}: dist 0 iff center violated"))
            } else if is_center != (self.parent[v] == NO_VERTEX) {
                Some(format!("vertex {v}: parent NO_VERTEX iff center violated"))
            } else {
                None
            }
        };
        match (0..self.assignment.len())
            .into_par_iter()
            .with_min_len(PAR_MIN_LEN)
            .filter_map(violation)
            .find_first(|_| true)
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// The center vertex that `v` is assigned to.
    #[inline]
    pub fn center_of(&self, v: Vertex) -> Vertex {
        self.assignment[v as usize]
    }

    /// Dense cluster index of `v`, in `0..num_clusters()`.
    #[inline]
    pub fn cluster_of(&self, v: Vertex) -> Vertex {
        self.cluster_index[v as usize]
    }

    /// Hop distance from `v` to its center (inside the cluster).
    #[inline]
    pub fn dist_to_center(&self, v: Vertex) -> Dist {
        self.dist_to_center[v as usize]
    }

    /// Parent of `v` on the intra-cluster BFS tree, or `None` at a center.
    #[inline]
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        let p = self.parent[v as usize];
        (p != NO_VERTEX).then_some(p)
    }

    /// Sorted list of distinct centers.
    pub fn centers(&self) -> &[Vertex] {
        &self.centers
    }

    /// Per-vertex center assignment.
    pub fn assignment(&self) -> &[Vertex] {
        &self.assignment
    }

    /// Per-vertex dense cluster indices.
    pub fn cluster_indices(&self) -> &[Vertex] {
        &self.cluster_index
    }

    /// Per-vertex distances to centers.
    pub fn distances(&self) -> &[Dist] {
        &self.dist_to_center
    }

    /// Per-vertex intra-cluster BFS parents.
    pub fn parents(&self) -> &[Vertex] {
        &self.parent
    }

    /// Sizes of all clusters, indexed by dense cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters()];
        for &ci in &self.cluster_index {
            sizes[ci as usize] += 1;
        }
        sizes
    }

    /// Members of every cluster, indexed by dense cluster id (each member
    /// list ascending).
    pub fn cluster_members(&self) -> Vec<Vec<Vertex>> {
        let mut members = vec![Vec::new(); self.num_clusters()];
        for (v, &ci) in self.cluster_index.iter().enumerate() {
            members[ci as usize].push(v as Vertex);
        }
        members
    }

    /// Maximum distance from any vertex to its center (the radius of the
    /// decomposition; strong diameter of any piece is at most twice this).
    pub fn max_radius(&self) -> Dist {
        self.dist_to_center.par_iter().copied().max().unwrap_or(0)
    }

    /// Number of edges of `g` whose endpoints lie in different clusters.
    pub fn cut_edges(&self, g: &CsrGraph) -> usize {
        self.cut_edges_view(g)
    }

    /// [`cut_edges`](Decomposition::cut_edges) over any [`GraphView`] —
    /// e.g. a memory-mapped snapshot or an induced view.
    pub fn cut_edges_view<V: GraphView>(&self, view: &V) -> usize {
        cut_edges_of_view(&self.assignment, view)
    }

    /// Fraction of edges cut, `cut_edges / m` (0 for edgeless graphs).
    pub fn cut_fraction(&self, g: &CsrGraph) -> f64 {
        let m = g.num_edges();
        if m == 0 {
            0.0
        } else {
            self.cut_edges(g) as f64 / m as f64
        }
    }

    /// The intra-cluster BFS-tree edges `(child, parent)`, one per non-center
    /// vertex. Together they form a spanning forest with one tree per
    /// cluster — the forest that the SDD-solver pipeline of \[9, 10\] glues
    /// into a spanning tree.
    pub fn tree_edges(&self) -> Vec<(Vertex, Vertex)> {
        self.parent
            .par_iter()
            .enumerate()
            .filter_map(|(v, &p)| (p != NO_VERTEX).then_some((v as Vertex, p)))
            .collect()
    }
}

/// Counts the edges of `view` crossing between clusters of `assignment` —
/// the one view-edge enumeration shared by [`Decomposition`] and
/// [`crate::WeightedDecomposition`] (each arc is seen from both endpoints;
/// the `u < v` filter counts each undirected edge once).
pub(crate) fn cut_edges_of_view<V: GraphView>(assignment: &[Vertex], view: &V) -> usize {
    assert_eq!(view.num_vertices(), assignment.len());
    (0..assignment.len() as Vertex)
        .into_par_iter()
        .map(|u| {
            let cu = assignment[u as usize];
            view.neighbors_iter(u)
                .filter(|&v| u < v && assignment[v as usize] != cu)
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny hand-built decomposition: path 0-1-2-3 split as {0,1} (center 0)
    /// and {2,3} (center 2).
    fn sample() -> Decomposition {
        Decomposition::from_raw(
            vec![0, 0, 2, 2],
            vec![0, 1, 0, 1],
            vec![NO_VERTEX, 0, NO_VERTEX, 2],
        )
    }

    #[test]
    fn accessors() {
        let d = sample();
        assert_eq!(d.num_vertices(), 4);
        assert_eq!(d.num_clusters(), 2);
        assert_eq!(d.centers(), &[0, 2]);
        assert_eq!(d.center_of(1), 0);
        assert_eq!(d.cluster_of(3), 1);
        assert_eq!(d.dist_to_center(3), 1);
        assert_eq!(d.parent(1), Some(0));
        assert_eq!(d.parent(0), None);
        assert_eq!(d.max_radius(), 1);
    }

    #[test]
    fn sizes_and_members() {
        let d = sample();
        assert_eq!(d.cluster_sizes(), vec![2, 2]);
        assert_eq!(d.cluster_members(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn cut_edges_on_path() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = sample();
        assert_eq!(d.cut_edges(&g), 1);
        assert!((d.cut_fraction(&g) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tree_edges_span_non_centers() {
        let d = sample();
        let mut t = d.tree_edges();
        t.sort_unstable();
        assert_eq!(t, vec![(1, 0), (3, 2)]);
    }

    #[test]
    #[should_panic]
    fn rejects_center_not_self_assigned() {
        // Vertex 1 claims center 0 but vertex 0 is assigned elsewhere.
        let _ =
            Decomposition::from_raw(vec![2, 0, 2], vec![1, 1, 0], vec![2, NO_VERTEX, NO_VERTEX]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_center() {
        let _ = Decomposition::from_raw(vec![0, 7], vec![0, 1], vec![NO_VERTEX, 0]);
    }

    #[test]
    #[should_panic]
    fn rejects_center_with_parent() {
        let _ = Decomposition::from_raw(vec![0, 0], vec![0, 1], vec![1, 0]);
    }

    #[test]
    fn centers_and_cluster_ids_match_sorted_rank() {
        // Above the parallel cutoff, with centers scattered over the ids:
        // every vertex joins the center `v - v % 7`, so a cluster's dense
        // id is `v / 7`.
        let n = 3 * PAR_MIN_LEN + 5;
        let assignment: Vec<Vertex> = (0..n as Vertex).map(|v| v - v % 7).collect();
        let dist: Vec<Dist> = (0..n as Vertex).map(|v| v % 7).collect();
        let parent: Vec<Vertex> = (0..n as Vertex)
            .map(|v| if v % 7 == 0 { NO_VERTEX } else { v - 1 })
            .collect();
        let d = Decomposition::from_raw(assignment, dist, parent);
        assert_eq!(d.num_clusters(), n.div_ceil(7));
        assert!(d
            .centers()
            .iter()
            .enumerate()
            .all(|(i, &c)| c == 7 * i as Vertex));
        assert!((0..n as Vertex).all(|v| d.cluster_of(v) == v / 7));
        assert_eq!(d.check_internal(), Ok(()));
    }

    #[test]
    fn remap_labels_translates_all_arrays() {
        let d = sample();
        // New id u names original vertex new_to_old[u].
        let new_to_old = [3u32, 1, 0, 2];
        let r = d.remap_labels(&new_to_old);
        // New center 0 is original vertex 3, new center 2 is original 0;
        // members follow their centers through the permutation.
        assert_eq!(r.assignment(), &[0, 3, 0, 3]);
        assert_eq!(r.distances(), &[0, 1, 1, 0]);
        assert_eq!(r.parents(), &[NO_VERTEX, 3, 0, NO_VERTEX]);
        // Identity permutation is a no-op.
        assert_eq!(d.remap_labels(&[0, 1, 2, 3]), d);
    }

    #[test]
    #[should_panic(expected = "permutation repeats original id 0")]
    fn remap_labels_rejects_non_permutation() {
        let _ = sample().remap_labels(&[0, 0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "permutation names out-of-range original id 4")]
    fn remap_labels_rejects_out_of_range_ids() {
        let _ = sample().remap_labels(&[0, 4, 2, 3]);
    }

    #[test]
    fn singleton_clusters() {
        let d = Decomposition::from_raw(
            vec![0, 1, 2],
            vec![0, 0, 0],
            vec![NO_VERTEX, NO_VERTEX, NO_VERTEX],
        );
        assert_eq!(d.num_clusters(), 3);
        assert_eq!(d.cluster_sizes(), vec![1, 1, 1]);
        assert!(d.tree_edges().is_empty());
    }
}
