//! Hierarchical decomposition trees (Bartal-style HSTs).
//!
//! The paper's introduction lists "generating low-stretch embedding of
//! graphs into trees \[3, 16, 15, 2\]" and parallel tree embeddings \[10\] as
//! the driving applications of low-diameter decompositions. This module
//! builds the classic recursive construction on top of `mpx-decomp`:
//!
//! * the root covers a connected component with diameter bound `Δ`;
//! * each node of diameter bound `Δ` is split by an MPX decomposition with
//!   `β = Θ(log n / Δ)` into children of diameter bound `Δ/2` (retrying on
//!   the low-probability event that a piece comes out too large —
//!   Lemma 4.2 makes retries rare);
//! * leaves are single vertices; the edge from a child with bound `Δ/2` to
//!   its parent has length `Δ/2`.
//!
//! The recursion is **zero-copy**: every piece is split through an
//! [`InducedView`] of the *original* graph — an ascending member list plus
//! a rank scratch buffer shared across all levels (the pieces alive at any
//! moment are pairwise disjoint, so one buffer serves them all, and the
//! sparse-set membership check makes stale entries harmless). No
//! [`mpx_graph::CsrGraph::induced_subgraph`] materialization happens at any level —
//! the root test suite pins this with the
//! process-wide [`mpx_graph::induced_materializations`] counter. Splitting a piece
//! costs `O(Σ_{v ∈ piece} deg_G(v))` for the view's filtered scans, so the
//! total build cost stays `O((n + m) · height)` like the old
//! materialization-based construction, minus the per-level CSR
//! allocations. (On graphs with extreme degree skew a piece's filtered
//! scans can exceed its internal edge count, but across grid/GNM/RMAT the
//! view path wins.)
//!
//! The resulting tree metric **dominates** the graph metric
//! (`dist_T ≥ dist_G`, because two vertices separated below a node of
//! bound `Δ` pay `≥ Δ ≥ dist_G` in the tree) and exceeds it by at most
//! `O(log n)` per level in expectation — Bartal's `O(log² n)` expected
//! stretch for this simple variant; `stretch_is_polylogarithmic_in_practice`
//! asserts it.

use mpx_decomp::{DecompOptions, Workspace};
use mpx_graph::{algo, view_edges, GraphView, InducedView, Vertex};

/// One node of the hierarchical decomposition tree.
#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    /// Length of the edge to the parent (0 at roots).
    parent_edge: f64,
    depth: u32,
}

/// A hierarchical decomposition tree (one root per connected component).
#[derive(Clone, Debug)]
pub struct Hst {
    nodes: Vec<Node>,
    /// Leaf node of every vertex.
    leaf: Vec<u32>,
    /// Number of levels of the deepest root-to-leaf path.
    pub height: u32,
}

const NO_NODE: u32 = u32::MAX;

impl Hst {
    /// Builds the tree for `g` with the given seed. `g` is any
    /// [`GraphView`] — an in-memory [`mpx_graph::CsrGraph`] or a zero-copy
    /// [`mpx_graph::MappedCsr`] snapshot.
    ///
    /// ```
    /// use mpx_apps::Hst;
    /// let g = mpx_graph::gen::cycle(32);
    /// let t = Hst::build(&g, 1);
    /// // The tree metric dominates the graph metric.
    /// let d = t.distance(0, 16).unwrap();
    /// assert!(d >= 16.0);
    /// ```
    pub fn build<V: GraphView>(g: &V, seed: u64) -> Self {
        Self::build_with_options(g, seed, &DecompOptions::new(0.5))
    }

    /// [`Hst::build`] with the per-piece decompositions running under
    /// `base`'s tie-break, shift-strategy, traversal, determinism and
    /// alpha. The beta and seed fields of `base` are ignored: the
    /// construction chooses them per piece (β = Θ(log n / Δ) and fresh
    /// salts). Small pieces cost no pool dispatch whatever the traversal:
    /// the engine runs rounds under its cutoff inline.
    pub fn build_with_options<V: GraphView>(g: &V, seed: u64, base: &DecompOptions) -> Self {
        let _span = mpx_trace::span!("apps.hst", n = g.num_vertices());
        let n = g.num_vertices();
        // Every per-piece partition reuses one workspace, sized once by
        // the largest piece (a component) and shrinking-piece-proof.
        let mut ws = Workspace::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut leaf = vec![NO_NODE; n];
        // Work list: (node id, ascending member list in ORIGINAL ids,
        // diameter bound). Members of all pending entries are pairwise
        // disjoint, so one shared rank buffer backs every InducedView; the
        // view's sparse-set membership check ignores the stale slots left
        // behind by already-split pieces.
        let mut stack: Vec<(u32, Vec<Vertex>, f64)> = Vec::new();
        let mut rank: Vec<Vertex> = vec![0; n];

        let (comp, k) = algo::connected_components(g);
        let mut members: Vec<Vec<Vertex>> = vec![Vec::new(); k];
        for v in 0..n as Vertex {
            members[comp[v as usize] as usize].push(v);
        }
        for mem in members {
            // Diameter upper bound: twice the eccentricity of any vertex.
            let delta = (2 * algo::eccentricity(g, mem[0])).max(1) as f64;
            let id = nodes.len() as u32;
            nodes.push(Node {
                parent: NO_NODE,
                parent_edge: 0.0,
                depth: 0,
            });
            stack.push((id, mem, delta));
        }

        let mut salt = seed;
        while let Some((node, members, delta)) = stack.pop() {
            if members.len() == 1 {
                leaf[members[0] as usize] = node;
                continue;
            }
            // Split into pieces of diameter ≤ delta/2 (radius ≤ delta/4).
            let target = delta / 2.0;
            let depth = nodes[node as usize].depth + 1;
            if target < 1.0 {
                // Unit diameter bound: every vertex must stand alone, no
                // partition call needed (β would be astronomically large).
                for &old in &members {
                    let id = nodes.len() as u32;
                    nodes.push(Node {
                        parent: node,
                        parent_edge: target,
                        depth,
                    });
                    leaf[old as usize] = id;
                }
                continue;
            }
            for (i, &v) in members.iter().enumerate() {
                rank[v as usize] = i as Vertex;
            }
            let view = InducedView::from_parts(g, &members, &rank);
            let n_sub = members.len().max(2) as f64;
            let beta = (8.0 * n_sub.ln() / target).max(1e-9);
            let d = loop {
                salt = salt.wrapping_add(0x9E37_79B9);
                let opts = base.clone().with_beta(beta).with_seed(salt);
                let (d, _) = ws.partition_view(&view, &opts);
                // Radius ≤ target/2 ⇒ strong diameter ≤ target. Lemma 4.2:
                // exceeding 2·ln(n)/β = target/4 already has probability
                // ~1/n, so this accepts almost immediately.
                if (d.max_radius() as f64) <= target / 2.0 {
                    break d;
                }
            };
            // Child member lists: dense cluster ids mapped back through the
            // (monotonic) active list, so they come out ascending again.
            for cluster in d.cluster_members() {
                let id = nodes.len() as u32;
                nodes.push(Node {
                    parent: node,
                    parent_edge: target,
                    depth,
                });
                if cluster.len() == 1 {
                    leaf[members[cluster[0] as usize] as usize] = id;
                    continue;
                }
                let child: Vec<Vertex> = cluster
                    .iter()
                    .map(|&dense| members[dense as usize])
                    .collect();
                stack.push((id, child, target));
            }
        }

        let height = nodes.iter().map(|nd| nd.depth).max().unwrap_or(0);
        debug_assert!(leaf.iter().all(|&l| l != NO_NODE));
        Hst {
            nodes,
            leaf,
            height,
        }
    }

    /// Tree distance between two vertices (`None` across components).
    pub fn distance(&self, u: Vertex, v: Vertex) -> Option<f64> {
        if u == v {
            return Some(0.0);
        }
        let (mut a, mut b) = (self.leaf[u as usize], self.leaf[v as usize]);
        let mut total = 0.0;
        // Walk the deeper side up until depths match, then both.
        while self.nodes[a as usize].depth > self.nodes[b as usize].depth {
            total += self.nodes[a as usize].parent_edge;
            a = self.nodes[a as usize].parent;
        }
        while self.nodes[b as usize].depth > self.nodes[a as usize].depth {
            total += self.nodes[b as usize].parent_edge;
            b = self.nodes[b as usize].parent;
        }
        while a != b {
            if self.nodes[a as usize].parent == NO_NODE || self.nodes[b as usize].parent == NO_NODE
            {
                return None; // different components
            }
            total += self.nodes[a as usize].parent_edge + self.nodes[b as usize].parent_edge;
            a = self.nodes[a as usize].parent;
            b = self.nodes[b as usize].parent;
        }
        Some(total)
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Average and maximum tree-over-graph stretch over the edges of `g`.
    pub fn edge_stretch<V: GraphView>(&self, g: &V) -> (f64, f64) {
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut m = 0usize;
        for (u, v) in view_edges(g) {
            let s = self
                .distance(u, v)
                .expect("edge endpoints share a component");
            sum += s;
            max = max.max(s);
            m += 1;
        }
        (if m == 0 { 0.0 } else { sum / m as f64 }, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_graph::gen;

    #[test]
    fn dominates_graph_metric_on_grid() {
        let g = gen::grid2d(15, 15);
        let t = Hst::build(&g, 3);
        for src in [0u32, 112, 224] {
            let d = algo::bfs(&g, src);
            for v in 0..g.num_vertices() as Vertex {
                let td = t.distance(src, v).unwrap();
                assert!(
                    td + 1e-9 >= d[v as usize] as f64,
                    "dominating violated: T({src},{v}) = {td} < {}",
                    d[v as usize]
                );
            }
        }
    }

    #[test]
    fn dominates_on_random_graphs() {
        for seed in 0..3u64 {
            let g = gen::gnm(200, 600, seed);
            let t = Hst::build(&g, seed);
            let d = algo::bfs(&g, 0);
            for v in 0..200u32 {
                if d[v as usize] != mpx_graph::INFINITY {
                    assert!(t.distance(0, v).unwrap() + 1e-9 >= d[v as usize] as f64);
                }
            }
        }
    }

    #[test]
    fn distance_axioms() {
        let g = gen::cycle(24);
        let t = Hst::build(&g, 7);
        assert_eq!(t.distance(3, 3), Some(0.0));
        for (u, v) in [(0u32, 5u32), (7, 19), (1, 23)] {
            assert_eq!(t.distance(u, v), t.distance(v, u));
            assert!(t.distance(u, v).unwrap() > 0.0);
        }
    }

    #[test]
    fn components_are_disconnected_in_tree() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let t = Hst::build(&g, 1);
        assert!(t.distance(0, 2).is_some());
        assert!(t.distance(0, 3).is_none());
        assert_eq!(t.distance(5, 5), Some(0.0));
    }

    #[test]
    fn stretch_is_polylogarithmic_in_practice() {
        // Bartal's analysis gives E[stretch] = O(log² n); empirically on a
        // 20×20 grid the average edge stretch lands well below 200.
        let g = gen::grid2d(20, 20);
        let mut avg_sum = 0.0;
        for seed in 0..3u64 {
            let t = Hst::build(&g, seed);
            let (avg, max) = t.edge_stretch(&g);
            assert!(avg >= 1.0);
            assert!(max >= avg);
            avg_sum += avg;
        }
        let ln_n = (g.num_vertices() as f64).ln();
        assert!(
            avg_sum / 3.0 <= 8.0 * ln_n * ln_n,
            "avg stretch {} far above O(log² n)",
            avg_sum / 3.0
        );
    }

    #[test]
    fn height_is_logarithmic_in_diameter() {
        let g = gen::grid2d(30, 30);
        let t = Hst::build(&g, 2);
        // Diameter 58 → bound halves each level from ≤ 2·58: height ≈ 8.
        assert!(t.height <= 12, "height {}", t.height);
        assert!(t.num_nodes() >= g.num_vertices());
    }

    // The zero-materialization acceptance assertion lives in the workspace
    // root's `tests/hst_zero_copy.rs` — its own test binary, so the
    // process-wide materialization counter can't be perturbed by other
    // tests (the separator pipeline in this crate materializes legally).

    use mpx_graph::CsrGraph;
}
