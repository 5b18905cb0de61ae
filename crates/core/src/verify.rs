//! Full verification of decompositions against Definition 1.1.
//!
//! [`verify_decomposition`] checks a concrete output over any
//! [`GraphView`] in **one parallel pass over the vertices**. Each vertex
//! `v` scans its neighbours once and checks a local certificate:
//!
//! * **(P)** its recorded parent `p(v)` is a neighbour in the same cluster
//!   with `dist(p(v)) = dist(v) − 1`;
//! * **(L)** no neighbour `u` in the same cluster has
//!   `dist(u) + 1 < dist(v)`.
//!
//! The same scan counts `v`'s cut edges (neighbours `u > v` in another
//! cluster, so each undirected edge counts once) for the `βm` side of
//! Definition 1.1, and folds `dist(v)` into the radius statistics.
//! [`Decomposition::from_raw`] has already enforced the graph-independent
//! part: every assigned center is an in-range, self-assigned vertex, and
//! `dist(v) = 0` iff `v` is self-assigned iff `v` has no parent.
//!
//! # Why the local check is the full check
//!
//! Write `c` for `v`'s center, `C` for its cluster, and `r(v)` for the
//! distance from `c` to `v` inside the induced subgraph `G[C]` (∞ if `v`
//! cannot reach `c` there). A decomposition is valid — each piece
//! connected, recorded distances equal to intra-cluster distances (strong
//! diameter ≤ 2·radius, and the paper's Lemma 4.1), parents on
//! intra-cluster shortest paths — iff `dist(v) = r(v)` for every `v` and
//! every parent satisfies (P). That is what a multi-source BFS from all
//! centers over intra-cluster edges checks; (P) and (L) decide the same:
//!
//! * **`r ≤ dist`, from (P).** Following parents from `v` walks along
//!   edges inside `C`, one distance step down each time, so after
//!   `dist(v)` steps it reaches a vertex of `C` at distance 0. That vertex
//!   is self-assigned, so it is `c`: `v` reaches `c` inside `C` within
//!   `dist(v)` hops.
//! * **`dist ≤ r`, from (L).** Along a shortest path
//!   `c = x₀, x₁, …, x_k = v` in `G[C]`, `dist(x₀) = 0` and (L) at each
//!   `x_{i+1}` gives `dist(x_{i+1}) ≤ dist(x_i) + 1`, so `dist(v) ≤ k`.
//! * **Conversely**, true intra-cluster distances satisfy (L) by the
//!   triangle inequality, and (P) is the parent check itself.
//!
//! So the verdict is exactly the BFS verifier's. A view's neighbour
//! relation is symmetric, so (L) at both endpoints is the rule
//! `|dist(u) − dist(v)| ≤ 1` on every intra-cluster edge. A disconnected
//! cluster or a wrong distance surfaces as a broken parent chain or a
//! Lemma 4.1 violation at some vertex. The scan never indexes by a parent
//! id, so a corrupt (even out-of-range) parent is reported, not followed.
//!
//! # Cost
//!
//! `O(n + m)` work — every arc is read once, from its tail — with no queue
//! and no scratch beyond the report, split into parallel chunks of
//! vertices. That makes it cheap enough to run after every partition, as
//! the paper's Theorem 1.2 retry argument does and as `mpx serve` does for
//! every unweighted request.

use crate::decomposition::Decomposition;
use mpx_graph::{Dist, GraphView, Vertex, NO_VERTEX};
use rayon::prelude::*;

/// Violations a report lists before summarizing the rest.
const MAX_ERRORS: usize = 20;

/// Smallest number of vertices one parallel chunk of the scan handles.
const MIN_CHUNK: usize = 256;

/// Result of verifying a [`Decomposition`] against its graph.
#[must_use = "inspect is_valid()/errors — an unchecked report verifies nothing"]
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyReport {
    /// Number of clusters.
    pub num_clusters: usize,
    /// Maximum recorded distance from a vertex to its center.
    pub max_radius: Dist,
    /// Mean distance to center over all vertices.
    pub avg_radius: f64,
    /// Number of edges with endpoints in different clusters.
    pub cut_edges: usize,
    /// `cut_edges / m` (0 when `m = 0`).
    pub cut_fraction: f64,
    /// Human-readable violations, ascending by vertex; empty iff the
    /// decomposition is valid.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// True iff no violations were found.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }

    /// The repo's canonical engineering form of the Theorem 1.1 radius /
    /// round bound: `⌈4·ln(max(n, 2))/β⌉ + 2`. The constant is generous
    /// (the guarantee is probabilistic;
    /// [`crate::Decomposer::run_with_retry`] is the enforcement path) so concrete runs are expected to satisfy
    /// it essentially always. `mpx profile`, the block-decomposition
    /// checks, and the determinism-mode suite (`tests/fast_mode.rs`) all
    /// share this one derivation.
    pub fn radius_bound(n: usize, beta: f64) -> u64 {
        (4.0 * (n.max(2) as f64).ln() / beta).ceil() as u64 + 2
    }

    /// The tight Lemma 4.2 form of the radius bound: `2·ln(n)/β`, which
    /// `max_radius ≤ δ_max` satisfies with probability `≥ 1 − 1/n`.
    /// Statistical tests asserting the w.h.p. claim use this; engineering
    /// gates should prefer [`VerifyReport::radius_bound`].
    pub fn whp_radius_bound(n: usize, beta: f64) -> f64 {
        2.0 * (n.max(2) as f64).ln() / beta
    }

    /// True iff the observed `max_radius` respects
    /// [`VerifyReport::radius_bound`] for a graph of `n` vertices
    /// decomposed at `beta`.
    pub fn radius_within_bound(&self, n: usize, beta: f64) -> bool {
        self.max_radius as u64 <= Self::radius_bound(n, beta)
    }

    /// True iff the observed cut fraction respects the `βm` side of
    /// Definition 1.1 up to `slack` (the bound holds in expectation;
    /// `slack` absorbs per-run variance — retry policies conventionally
    /// use 4.0).
    pub fn cut_within_fraction(&self, beta: f64, slack: f64) -> bool {
        self.cut_fraction <= slack * beta
    }
}

/// What one chunk of vertices contributes to a report.
#[derive(Default)]
struct Tally {
    cut_edges: usize,
    dist_sum: u64,
    max_radius: Dist,
    /// The first [`MAX_ERRORS`] violations, ascending by vertex.
    errors: Vec<String>,
    /// Whether violations beyond those were found.
    suppressed: bool,
}

impl Tally {
    fn error(&mut self, message: impl FnOnce() -> String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message());
        } else {
            self.suppressed = true;
        }
    }

    /// Combines the tallies of consecutive vertex ranges, `self` first.
    fn merge(mut self, other: Tally) -> Tally {
        self.cut_edges += other.cut_edges;
        self.dist_sum += other.dist_sum;
        self.max_radius = self.max_radius.max(other.max_radius);
        let room = MAX_ERRORS - self.errors.len();
        self.suppressed |= other.suppressed || other.errors.len() > room;
        self.errors.extend(other.errors.into_iter().take(room));
        self
    }
}

/// Verifies `d` against `view`; see the module docs for the checked
/// properties and why they amount to the full Definition 1.1 check.
pub fn verify_decomposition<V: GraphView>(view: &V, d: &Decomposition) -> VerifyReport {
    let n = view.num_vertices();
    let _span = mpx_trace::span!("verify.decomposition", n = n, edges = view.total_degree());
    let tally = if d.num_vertices() != n {
        Tally {
            dist_sum: d.distances().iter().map(|&x| u64::from(x)).sum(),
            max_radius: d.max_radius(),
            errors: vec![format!(
                "decomposition covers {} vertices, graph has {n}",
                d.num_vertices()
            )],
            ..Tally::default()
        }
    } else {
        let (assignment, dist, parent) = (d.assignment(), d.distances(), d.parents());
        (0..n as Vertex)
            .into_par_iter()
            .with_min_len(MIN_CHUNK)
            .fold(Tally::default, |mut t, v| {
                let (cv, dv, pv) = (
                    assignment[v as usize],
                    u64::from(dist[v as usize]),
                    parent[v as usize],
                );
                // Centers have no parent to check (`from_raw`).
                let mut parent_ok = pv == NO_VERTEX;
                let mut closer = None;
                for u in view.neighbors_iter(v) {
                    if assignment[u as usize] != cv {
                        t.cut_edges += usize::from(v < u);
                        continue;
                    }
                    let du = u64::from(dist[u as usize]);
                    parent_ok |= u == pv && du + 1 == dv;
                    if du + 1 < dv && closer.is_none() {
                        closer = Some(u);
                    }
                }
                if !parent_ok {
                    t.error(|| format!("vertex {v}: invalid parent {pv}"));
                }
                if let Some(u) = closer {
                    t.error(|| {
                        format!(
                            "vertex {v}: recorded dist {dv} but same-cluster neighbour {u} \
                             has dist {} (Lemma 4.1 violated)",
                            dist[u as usize]
                        )
                    });
                }
                t.dist_sum += dv;
                t.max_radius = t.max_radius.max(dv as Dist);
                t
            })
            .reduce(Tally::default, Tally::merge)
    };

    let m = view.total_degree() / 2;
    let mut errors = tally.errors;
    if tally.suppressed {
        errors.push("... further errors suppressed".into());
    }
    VerifyReport {
        num_clusters: d.num_clusters(),
        max_radius: tally.max_radius,
        avg_radius: tally.dist_sum as f64 / d.num_vertices().max(1) as f64,
        cut_edges: tally.cut_edges,
        cut_fraction: if m == 0 {
            0.0
        } else {
            tally.cut_edges as f64 / m as f64
        },
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DecompOptions;
    use crate::partition;
    use mpx_graph::{gen, CsrGraph, NO_VERTEX};

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    #[test]
    fn valid_on_many_workloads() {
        let graphs = vec![
            gen::grid2d(25, 25),
            gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 1),
            gen::barabasi_albert(600, 3, 2),
            gen::random_regular(400, 4, 3),
            gen::path(800),
            gen::complete(40),
            gen::watts_strogatz(500, 3, 0.1, 4),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for beta in [0.05, 0.2, 0.45] {
                let d = partition(&g, &opts(beta, i as u64 * 10 + 1));
                let r = verify_decomposition(&g, &d);
                assert!(r.is_valid(), "graph #{i} β={beta}: {:?}", r.errors);
            }
        }
    }

    #[test]
    fn detects_disconnected_cluster() {
        // Path 0-1-2 with fake decomposition {0,2} centered at 0 and {1}.
        let g = gen::path(3);
        let d =
            Decomposition::from_raw(vec![0, 1, 0], vec![0, 0, 1], vec![NO_VERTEX, NO_VERTEX, 1]);
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
    }

    #[test]
    fn detects_wrong_distance() {
        // Valid shape but distance exaggerated.
        let g = gen::path(3);
        let d = Decomposition::from_raw(
            vec![0, 0, 0],
            vec![0, 1, 3], // true intra-cluster distance of vertex 2 is 2
            vec![NO_VERTEX, 0, 1],
        );
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
        assert!(r.errors.iter().any(|e| e.contains("Lemma 4.1")));
    }

    #[test]
    fn detects_distance_shorter_than_claimed_parent_chain_allows() {
        // Cycle 0-1-2-3-0 in one cluster: vertex 2 claims distance 2 via
        // parent 1, and vertex 3 claims 3 via parent 2 although it is
        // adjacent to the center. Every parent is locally consistent;
        // only the ±1 rule on the edge (0, 3) exposes the lie.
        let g = gen::cycle(4);
        let d =
            Decomposition::from_raw(vec![0, 0, 0, 0], vec![0, 1, 2, 3], vec![NO_VERTEX, 0, 1, 2]);
        let r = verify_decomposition(&g, &d);
        assert_eq!(
            r.errors,
            vec![
                "vertex 3: recorded dist 3 but same-cluster neighbour 0 has dist 0 \
                 (Lemma 4.1 violated)"
                    .to_string()
            ]
        );
    }

    #[test]
    fn errors_are_sorted_by_vertex_and_capped() {
        // Every non-center of a long path claims twice its distance, so
        // each breaks both its parent check and the ±1 rule.
        let n = 5000;
        let g = gen::path(n);
        let dist: Vec<Dist> = (0..n as Dist).map(|v| 2 * v).collect();
        let parent: Vec<Vertex> = (0..n as Vertex)
            .map(|v| if v == 0 { NO_VERTEX } else { v - 1 })
            .collect();
        let d = Decomposition::from_raw(vec![0; n], dist, parent);
        let r = verify_decomposition(&g, &d);
        assert_eq!(r.errors.len(), MAX_ERRORS + 1);
        assert_eq!(r.errors[0], "vertex 1: invalid parent 0");
        assert!(r.errors[1].starts_with("vertex 1: recorded dist 2 "));
        let vertices: Vec<u32> = r.errors[..MAX_ERRORS]
            .iter()
            .map(|e| e["vertex ".len()..e.find(':').unwrap()].parse().unwrap())
            .collect();
        let expected: Vec<u32> = (1..=10).flat_map(|v| [v, v]).collect();
        assert_eq!(vertices, expected);
        assert_eq!(r.errors[MAX_ERRORS], "... further errors suppressed");
    }

    #[test]
    fn report_statistics_match_direct_computation() {
        let g = gen::grid2d(20, 20);
        let d = partition(&g, &opts(0.15, 7));
        let r = verify_decomposition(&g, &d);
        assert_eq!(r.cut_edges, d.cut_edges(&g));
        assert_eq!(r.max_radius, d.max_radius());
        assert_eq!(r.num_clusters, d.num_clusters());
        let sum: u64 = d.distances().iter().map(|&x| u64::from(x)).sum();
        assert_eq!(r.avg_radius, sum as f64 / 400.0);
        assert_eq!(r.cut_fraction, r.cut_edges as f64 / g.num_edges() as f64);
        assert!(r.is_valid());
    }

    #[test]
    fn bound_helpers_match_their_formulas() {
        let (n, beta) = (2500usize, 0.1f64);
        assert_eq!(
            VerifyReport::radius_bound(n, beta),
            (4.0 * (n as f64).ln() / beta).ceil() as u64 + 2
        );
        assert!((VerifyReport::whp_radius_bound(n, beta) - 2.0 * (n as f64).ln() / beta) < 1e-12);
        // Degenerate n clamps instead of producing ln(0)/ln(1) = 0 bounds.
        assert!(VerifyReport::radius_bound(0, 0.5) >= 2);
        let g = gen::grid2d(30, 30);
        let d = partition(&g, &opts(0.2, 11));
        let r = verify_decomposition(&g, &d);
        assert!(r.is_valid());
        assert!(r.radius_within_bound(g.num_vertices(), 0.2));
        assert!(r.cut_within_fraction(0.2, 4.0));
    }

    #[test]
    fn size_mismatch_reported() {
        let g = gen::path(5);
        let d = Decomposition::from_raw(vec![0], vec![0], vec![NO_VERTEX]);
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
        assert_eq!(r.cut_edges, 0);
    }

    #[test]
    fn empty_graph_is_valid() {
        let d = Decomposition::from_raw(Vec::new(), Vec::new(), Vec::new());
        let r = verify_decomposition(&CsrGraph::empty(0), &d);
        assert!(r.is_valid());
        assert_eq!(
            (r.num_clusters, r.cut_fraction, r.avg_radius),
            (0, 0.0, 0.0)
        );
    }
}
