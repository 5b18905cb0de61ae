//! Weighted-graph extension of the partition routine (paper Section 6).
//!
//! The analysis of Section 4 "can be readily extended to the weighted
//! case": draw `δ_u ~ Exp(β)` as before and assign each vertex to the
//! center minimizing the *weighted* shifted distance `dist_w(u, v) − δ_u`.
//! The super-source reduction of Section 5 turns this into one
//! multi-source Dijkstra where every vertex `u` enters the queue with
//! initial distance `start_u = δ_max − δ_u`, carrying its own id as the
//! cluster *root*; the root label propagates along settled shortest paths.
//!
//! The paper leaves the *parallel* weighted case open ("the depth of the
//! algorithm is harder to control since hop count is no longer closely
//! related to diameter"). As an engineering extension the workspace has a
//! bucketed Δ-stepping implementation whose relaxations run in parallel
//! through an order-independent lock-free reduction; it produces
//! **bit-identical** decompositions to the per-center reference oracle
//! [`crate::partition_weighted_exact`].
//!
//! This module holds the output type ([`WeightedDecomposition`]) and the
//! verifier. The engine lives in [`crate::wengine`]; it
//! runs through [`crate::partition_weighted`] and the weighted session
//! ([`crate::DecomposerBuilder::build_weighted`]).
//!
//! # The verifier: an exact arrival-time certificate
//!
//! Every engine computes, per vertex `v`, its **arrival** `a(v)`: the
//! `f64` label the multi-source search settles, `start_c + w_1 + … + w_k`
//! added left to right along a path from its center `c`.
//! [`WeightedDecomposition`] carries it, and derives
//! `dist_to_center(v) = a(v) − a(c)` from it. [`verify_weighted`] checks
//! a concrete output in **one parallel pass over the vertices**. Each
//! vertex `v`, with `c = assignment(v)`, scans its neighbours once and
//! checks a local certificate; `w(u, v)` is the length of edge `uv`, and a
//! *same-cluster* neighbour is one with `assignment(u) = c`:
//!
//! * **(C)** `c` is an in-range, self-assigned vertex; `a(v)` is finite;
//!   and `dist_to_center(v)` is bit for bit `a(v) − a(c)`;
//! * **(T)** no same-cluster neighbour `u` has `a(u) + w(u, v) < a(v)`;
//! * **(P)** if `v ≠ c`, some same-cluster neighbour `u` has
//!   `a(u) + w(u, v) = a(v)` exactly and `a(u) < a(v)`.
//!
//! Before the pass it checks the vector lengths and that `centers` lists
//! exactly the self-assigned vertices, in ascending order.
//!
//! # Why the local check is the full check
//!
//! Write `C` for `v`'s cluster, and `⊕` for `f64` addition (round to
//! nearest). Lengths are positive and finite (every weighted entry layer
//! rejects others), so two facts about `⊕` hold: adding a positive
//! length never lowers a value (`x ⊕ w ≥ x`), and a larger value never
//! rounds to a smaller sum (`x ≤ y ⇒ x ⊕ w ≤ y ⊕ w`). For a path
//! `c = x₀, x₁, …, x_k = v` inside `G[C]`, let its *sum* be
//! `(…(a(c) ⊕ w₁) ⊕ w₂ …) ⊕ w_k`, added left to right from `a(c)`.
//!
//! * **`a(v)` is the sum of some path, from (P).** Each (P) step moves
//!   to a same-cluster neighbour with a strictly smaller arrival, so
//!   following predecessors from `v` never revisits a vertex and must end.
//!   It ends inside `C` at a vertex that needs no predecessor — a
//!   self-assigned vertex of `C`, which is `c`. Read backwards, the walk
//!   is a path in `G[C]` whose every step is exact, so `a(v)` is its sum.
//! * **`a(v)` is at most the sum of every path, from (T).** Along any
//!   path in `G[C]`, (T) at `x_{i+1}` gives `a(x_{i+1}) ≤ a(x_i) ⊕ w_{i+1}`,
//!   and monotonicity carries the bound forward: `a(v)` is at most the
//!   path's sum.
//! * **Conversely**, an engine output passes: each label is a minimum
//!   over path sums, so (T) holds on every edge, and the neighbour whose
//!   relaxation set `v`'s final label is an exact, same-cluster
//!   predecessor — strictly earlier unless its length was absorbed (see
//!   *Rounding*).
//!
//! So `a(v)` is exactly the smallest sum over paths from `c` to `v` inside
//! the cluster (in particular, every cluster is connected: the strong
//! diameter property). A Dijkstra restricted to each cluster and started
//! at `a(c)` computes exactly that value — Dijkstra is exact for any
//! monotone, non-decreasing path sum — so `dist_to_center` matches it bit
//! for bit, through the same subtraction the engines perform. The
//! certificate needs no queue and no tolerance.
//!
//! **Rounding.** Each `⊕` rounds by at most half a unit in the last place
//! (ulp) of its result, and partial sums only grow, so a path sum differs
//! from the real-number sum of the same path by at most about one
//! `ulp(a(v))` per hop. Hence `a(v) − a(c)` is within about
//! `hops · ulp(a(v))` (plus half an ulp of the final subtraction) of the
//! real intra-cluster distance. When start times are large against the
//! distances — a tiny β, or a second component whose vertices start near
//! `δ_max` — that error is large relative to `dist_to_center`, so a check
//! of `dist_to_center` against path sums started at 0 would need a
//! tolerance that grows with start times it cannot see. The certificate
//! compares what the engine computed with what it should have computed,
//! so it needs none and accepts those outputs. One regime stays out of
//! reach: a length below half an ulp of the arrivals around it
//! (`x ⊕ w = x`) makes a vertex arrive no later than its predecessor, so
//! (P) finds no strictly earlier neighbour and the output is rejected.
//!
//! # Cost
//!
//! `O(n + m)` work — every arc is read once, from its tail — with no
//! queue and no scratch, split into parallel chunks of vertices. A
//! violation is reported at the lowest vertex id that has one, naming the
//! rule and the values, so the message does not depend on the thread
//! count.

use crate::decomposition::cut_edges_of_view;
use mpx_graph::{GraphView, Vertex, WeightedGraphView};
use rayon::prelude::*;

/// Smallest number of vertices one parallel chunk of
/// [`WeightedDecomposition::from_raw`]'s `O(1)`-per-vertex passes handles.
const PAR_MIN_LEN: usize = 4096;

/// Smallest number of vertices one parallel chunk of the verifier's scan
/// handles.
const MIN_CHUNK: usize = 256;

/// A low-diameter decomposition of a weighted graph.
#[must_use = "a WeightedDecomposition carries the labels the partition computed"]
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedDecomposition {
    /// Center assigned to each vertex.
    pub assignment: Vec<Vertex>,
    /// Weighted distance from each vertex to its center:
    /// `arrival[v] − arrival[assignment[v]]`, realized by a path inside
    /// the cluster (the weighted analogue of Lemma 4.1).
    pub dist_to_center: Vec<f64>,
    /// The self-assigned vertices (the centers), ascending.
    pub centers: Vec<Vertex>,
    /// Absolute arrival time of each vertex: its center's start time
    /// `δ_max − δ_c` plus the lengths of a shortest intra-cluster path,
    /// added left to right in `f64` — the label the engine settled. At a
    /// center it is the center's start time. [`verify_weighted`]
    /// certifies these values exactly; see the module docs.
    pub arrival: Vec<f64>,
}

impl WeightedDecomposition {
    /// Assembles a decomposition from each vertex's center and arrival
    /// time: `dist_to_center[v] = arrival[v] − arrival[assignment[v]]`,
    /// and the centers are the self-assigned vertices, ascending.
    pub(crate) fn from_raw(assignment: Vec<Vertex>, arrival: Vec<f64>) -> Self {
        let n = assignment.len();
        debug_assert_eq!(arrival.len(), n);
        let dist_to_center = (0..n)
            .into_par_iter()
            .with_min_len(PAR_MIN_LEN)
            .map(|v| arrival[v] - arrival[assignment[v] as usize])
            .collect();
        let centers = (0..n as Vertex)
            .into_par_iter()
            .with_min_len(PAR_MIN_LEN)
            .filter(|&v| assignment[v as usize] == v)
            .collect();
        WeightedDecomposition {
            assignment,
            dist_to_center,
            centers,
            arrival,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Maximum weighted radius over all clusters.
    pub fn max_radius(&self) -> f64 {
        self.dist_to_center.iter().cloned().fold(0.0, f64::max)
    }

    /// Number of edges crossing between clusters, over any [`GraphView`]
    /// (a [`mpx_graph::WeightedCsrGraph`], a mapped snapshot, an induced
    /// view, …). Shares the parallel view-edge enumeration with
    /// [`crate::Decomposition::cut_edges_view`].
    pub fn cut_edges<V: GraphView>(&self, g: &V) -> usize {
        cut_edges_of_view(&self.assignment, g)
    }

    /// `cut_edges / m`.
    pub fn cut_fraction<V: GraphView>(&self, g: &V) -> f64 {
        let m = (g.total_degree() / 2) as usize;
        if m == 0 {
            0.0
        } else {
            self.cut_edges(g) as f64 / m as f64
        }
    }
}

/// What one chunk of vertices contributes to the verdict.
#[derive(Default)]
struct Scan {
    /// Self-assigned vertices seen.
    centers: usize,
    /// The chunk's first violation; the rest of the chunk is skipped.
    violation: Option<String>,
}

impl Scan {
    /// Combines the scans of consecutive vertex ranges, `self` first.
    fn merge(self, other: Scan) -> Scan {
        Scan {
            centers: self.centers + other.centers,
            violation: self.violation.or(other.violation),
        }
    }
}

/// Verifies a weighted decomposition: a partition into connected clusters
/// whose recorded arrivals are exactly the shortest intra-cluster path
/// sums from their centers' arrivals, with `dist_to_center` derived from
/// them bit for bit. One parallel pass checks the local certificate (C),
/// (T), (P) of the module docs at every vertex; it implies that every
/// arrival is what a Dijkstra restricted to its cluster and started at
/// its center's arrival computes, with no tolerance. A malformed
/// decomposition — wrong-length vectors, a center out of range — is
/// reported as an error, never indexed; a violation is reported at the
/// lowest vertex id that has one.
pub fn verify_weighted<W: WeightedGraphView>(
    g: &W,
    d: &WeightedDecomposition,
) -> Result<(), String> {
    let n = g.num_vertices();
    if d.assignment.len() != n {
        return Err("assignment length mismatch".into());
    }
    if d.dist_to_center.len() != n {
        return Err("dist_to_center length mismatch".into());
    }
    if d.arrival.len() != n {
        return Err("arrival length mismatch".into());
    }
    for &c in &d.centers {
        if c as usize >= n {
            return Err(format!("center {c} out of range (n = {n})"));
        }
        if d.assignment[c as usize] != c {
            return Err(format!("center {c} not self-assigned"));
        }
    }
    if let Some(w) = d.centers.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "centers not strictly ascending: {} then {}",
            w[0], w[1]
        ));
    }
    let _span = mpx_trace::span!("verify.weighted", n = n, edges = g.total_degree());
    let (assignment, arrival) = (&d.assignment[..], &d.arrival[..]);
    let check = |v: Vertex| -> Option<String> {
        let c = assignment[v as usize];
        if c as usize >= n {
            return Some(format!(
                "vertex {v}: center {c} out of range (n = {n}) (rule C)"
            ));
        }
        if assignment[c as usize] != c {
            return Some(format!("vertex {v}: center {c} not self-assigned (rule C)"));
        }
        let av = arrival[v as usize];
        if !av.is_finite() {
            return Some(format!("vertex {v}: arrival {av} not finite (rule C)"));
        }
        let ac = arrival[c as usize];
        let recorded = d.dist_to_center[v as usize];
        if recorded.to_bits() != (av - ac).to_bits() {
            return Some(format!(
                "vertex {v}: recorded dist {recorded} but arrival {av} − center {c}'s \
                 arrival {ac} = {} (rule C)",
                av - ac
            ));
        }
        let mut has_predecessor = v == c;
        for (u, w) in g.neighbors_weighted_iter(v) {
            if assignment[u as usize] != c {
                continue;
            }
            let au = arrival[u as usize];
            let via = au + w;
            if via < av {
                return Some(format!(
                    "vertex {v}: arrival {av} but same-cluster neighbour {u} arrives at {au} \
                     + length {w} = {via} (rule T)"
                ));
            }
            has_predecessor |= via == av && au < av;
        }
        (!has_predecessor).then(|| {
            format!(
                "vertex {v}: arrival {av} but no same-cluster neighbour arrives earlier by \
                 exactly its length (rule P)"
            )
        })
    };
    let scan = (0..n as Vertex)
        .into_par_iter()
        .with_min_len(MIN_CHUNK)
        .fold(Scan::default, |mut s, v| {
            if s.violation.is_none() {
                s.centers += usize::from(assignment[v as usize] == v);
                s.violation = check(v);
            }
            s
        })
        .reduce(Scan::default, Scan::merge);
    if let Some(violation) = scan.violation {
        return Err(violation);
    }
    if scan.centers != d.centers.len() {
        return Err(format!(
            "centers lists {} vertices but {} are self-assigned",
            d.centers.len(),
            scan.centers
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DecompOptions, Determinism, Traversal};
    use crate::wengine::{partition_weighted_view_reusing, WeightedScratch};
    use crate::{partition_weighted, partition_weighted_exact, ExpShifts};
    use mpx_graph::gen;
    use mpx_graph::{CsrGraph, WeightedCsrGraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    fn random_weighted(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(Vertex, Vertex, f64)> = g
            .edges()
            .map(|(u, v)| (u, v, rng.gen_range(0.1..4.0)))
            .collect();
        WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
    }

    #[test]
    fn weighted_partition_is_valid() {
        let g = random_weighted(&gen::grid2d(20, 20), 1);
        let d = partition_weighted(&g, &opts(0.1, 2));
        assert!(verify_weighted(&g, &d).is_ok());
        assert!(d.num_clusters() >= 1);
    }

    #[test]
    fn unit_weights_match_unweighted_partition() {
        // With unit weights the weighted rule equals the unweighted one:
        // same shifts, and comparing `start_u + hops` as a real number is
        // what the integer engine's (round, fractional tie-break) pair
        // encodes. The labels must agree bit-for-bit except where two
        // fractional parts collide in the unweighted engine's 32-bit
        // quantization — absent on these fixed seeds.
        for seed in [7, 8, 9] {
            let g = gen::grid2d(15, 15);
            let wg = WeightedCsrGraph::unit_weights(&g);
            let o = opts(0.2, seed);
            let wd = partition_weighted(&wg, &o);
            let ud = crate::partition(&g, &o);
            for v in 0..g.num_vertices() {
                assert_eq!(
                    wd.assignment[v],
                    ud.center_of(v as Vertex),
                    "seed {seed} vertex {v}"
                );
                assert_eq!(
                    wd.dist_to_center[v],
                    ud.dist_to_center(v as Vertex) as f64,
                    "seed {seed} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn parallel_delta_stepping_matches_dijkstra() {
        for seed in 0..6u64 {
            let g = random_weighted(&gen::gnm(200, 600, seed), seed + 50);
            let o = opts(0.15, seed);
            let a = partition_weighted_exact(&g, &o);
            let b = partition_weighted(&g, &o.with_traversal(Traversal::TopDownPar));
            assert_eq!(a.assignment, b.assignment, "seed {seed}");
            for v in 0..g.num_vertices() {
                assert_eq!(
                    a.dist_to_center[v].to_bits(),
                    b.dist_to_center[v].to_bits(),
                    "seed {seed} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn delta_stepping_various_widths() {
        let g = random_weighted(&gen::grid2d(12, 12), 3);
        let o = opts(0.2, 4);
        let reference = partition_weighted_exact(&g, &o);
        let shifts = ExpShifts::generate(g.num_vertices(), &o);
        let mut scratch = WeightedScratch::new();
        for delta in [0.05, 0.5, 2.0, 100.0] {
            let (d, _) = partition_weighted_view_reusing(
                &g,
                &shifts,
                o.traversal,
                Some(delta),
                Determinism::BitExact,
                &mut scratch,
            );
            assert_eq!(reference.assignment, d.assignment, "delta {delta}");
        }
    }

    #[test]
    fn weighted_cut_scales_with_beta() {
        // Section 6: the cut grows with β and the radius shrinks with it.
        let g = random_weighted(&gen::grid2d(30, 30), 9);
        let runs = 4;
        let means = |beta: f64| -> (f64, f64) {
            let (cut, radius) = (0..runs)
                .map(|s| partition_weighted(&g, &opts(beta, s)))
                .fold((0.0, 0.0), |(c, r), d| {
                    (c + d.cut_fraction(&g), r + d.max_radius())
                });
            (cut / runs as f64, radius / runs as f64)
        };
        let ((cut_lo, radius_lo), (cut_hi, radius_hi)) = (means(0.02), means(0.4));
        assert!(cut_lo < cut_hi, "cut {cut_lo} vs {cut_hi}");
        assert!(radius_lo > radius_hi, "radius {radius_lo} vs {radius_hi}");
    }

    #[test]
    fn cut_helpers_agree_with_unweighted_twin() {
        // Satellite check for the shared view-edge enumeration: the weighted
        // cut over the weighted graph equals the unweighted cut of the same
        // assignment over the skeleton.
        let skeleton = gen::gnm(120, 360, 11);
        let g = random_weighted(&skeleton, 12);
        let d = partition_weighted(&g, &opts(0.25, 3));
        let brute = g
            .edges()
            .filter(|&(u, v, _)| d.assignment[u as usize] != d.assignment[v as usize])
            .count();
        assert_eq!(d.cut_edges(&g), brute);
        assert_eq!(d.cut_edges(&skeleton), brute);
        assert!((d.cut_fraction(&g) - brute as f64 / g.num_edges() as f64).abs() < 1e-12);
    }

    #[test]
    fn weighted_verifier_detects_bad_distances() {
        let g = random_weighted(&gen::path(5), 1);
        let mut d = partition_weighted(&g, &opts(0.3, 1));
        if d.dist_to_center.len() > 1 {
            d.dist_to_center[1] += 10.0;
        }
        assert!(verify_weighted(&g, &d).is_err());
    }

    #[test]
    fn empty_weighted_graph() {
        let g = WeightedCsrGraph::from_edges(0, &[]);
        let d = partition_weighted(&g, &opts(0.2, 0));
        assert_eq!(d.num_clusters(), 0);
    }
}
