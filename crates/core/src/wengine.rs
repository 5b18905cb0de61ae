//! The **weighted** decomposition engine: one generic implementation over
//! any [`WeightedGraphView`] — the paper's Section 6 exponentially shifted
//! shortest paths, run as one parallel Δ-stepping search.
//!
//! The unweighted engine schedules work by *integer* BFS rounds — vertex
//! `u` wakes in round `⌊δ_max − δ_u⌋`. Weights make arrival times
//! fractional, so the wake schedule generalizes to **bucketed
//! Δ-stepping**: tentative labels live in buckets of width `Δ`, each
//! bucket is drained with repeated light-edge (`w < Δ`) relaxations, then
//! heavy edges (`w ≥ Δ`) are relaxed once. A relaxation request is
//! generated only if its `(dist, root)` beats the target's current label,
//! and each batch is resolved by two barrier-separated lock-free passes
//! that leave every target at the lexicographic minimum `(dist, root)` of
//! its old label and its requests. That minimum does not depend on the
//! order the atomic operations run in, so the result is a pure function of
//! `(view, shifts)` — independent of thread count, scheduler and bucket
//! width, and **bit-identical** to the per-center reference oracle
//! [`partition_weighted_exact`]: both compute, per vertex, the
//! lexicographic minimum `(dist, root)` over the same finite set of
//! left-to-right path sums `start_root + w_1 + … + w_k`, and identical
//! `f64` additions give identical bits.
//!
//! Every [`Traversal`] runs the same Δ-stepping search (there is no
//! bottom-up dual for fractional arrivals); the strategy is accepted so
//! options are portable between the weighted and unweighted paths, and it
//! only names the run in its trace span.
//!
//! Like [`crate::engine`], all arenas live in a reusable scratch
//! ([`WeightedScratch`], owned by [`crate::Workspace`]) so repeated runs
//! amortize allocation; and like the unweighted engine, this module does
//! not validate inputs — the entry layers ([`crate::partition_weighted`]
//! and the weighted session builder) enforce weight validity via
//! [`validate_weights`] first.

use crate::options::{ConfigError, DecompOptions, Determinism, Traversal};
use crate::shift::ExpShifts;
use crate::weighted::WeightedDecomposition;
use mpx_graph::{Vertex, WeightedGraphView, NO_VERTEX};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Below this size, arena resets run inline (pool dispatch costs more
/// than the scan on tiny pieces). Matches the unweighted engine's cutoff.
const RESET_PAR_CUTOFF: usize = 4096;

/// Counters describing one weighted engine run (wall-clock diagnostics
/// only; the decomposition itself is width- and schedule-independent).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WeightedTelemetry {
    /// Outer buckets processed.
    pub buckets: u64,
    /// Light-relaxation phases across all buckets.
    pub phases: u64,
    /// Edge relaxations: requests generated (an arc whose `(dist, root)`
    /// does not beat its target's label is not a request).
    pub relaxations: u64,
    /// Clusters in the resulting decomposition.
    pub clusters: usize,
    /// Bucket width actually used: the requested Δ (by default the mean
    /// edge length) raised to at least `δ_max / n`.
    pub delta: f64,
    /// Distinct targets whose tentative distance a lock-free CAS-min
    /// improved, summed over batches (in either [`Determinism`] mode).
    pub cas_success: u64,
    /// CAS attempts that lost a race and had to re-read the slot — a
    /// direct measure of relaxation contention (depends on the schedule,
    /// unlike every other field).
    pub cas_retries: u64,
}

/// Reusable arenas of the weighted engine, owned by
/// [`crate::Workspace`]. Grow-only: one scratch serves runs over views of
/// different sizes, staying sized for the largest seen.
#[derive(Default)]
pub struct WeightedScratch {
    /// Per-vertex start times `δ_max − δ_u`.
    start: Vec<f64>,
    // Non-negative f64s order the same as their bit patterns, so distance
    // bits in an AtomicU64 compare correctly.
    tent: Vec<AtomicU64>,
    root_atomic: Vec<AtomicU32>,
    buckets: Vec<Vec<Vertex>>,
}

impl WeightedScratch {
    /// A fresh scratch; arenas are sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of arena capacity currently reserved.
    pub fn capacity_bytes(&self) -> usize {
        self.start.capacity() * std::mem::size_of::<f64>()
            + self.tent.capacity() * std::mem::size_of::<AtomicU64>()
            + self.root_atomic.capacity() * std::mem::size_of::<AtomicU32>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<Vertex>())
                .sum::<usize>()
            + self.buckets.capacity() * std::mem::size_of::<Vec<Vertex>>()
    }
}

/// Rejects a weighted view carrying a non-finite or non-positive edge
/// weight with a typed [`ConfigError::InvalidWeight`] naming the first
/// offending edge (lowest `(u, v)`). Both weighted partition entry points
/// — [`crate::partition_weighted`] and the session builds — route
/// through this check, so bad weights can never silently propagate NaN
/// distances into a decomposition.
pub fn validate_weights<W: WeightedGraphView>(view: &W) -> Result<(), ConfigError> {
    let bad = (0..view.num_vertices() as Vertex)
        .into_par_iter()
        .filter_map(|u| {
            view.neighbors_weighted_iter(u)
                .find(|&(_, w)| !(w.is_finite() && w > 0.0))
                .map(|(v, w)| (u, v, w))
        })
        .min_by_key(|&(u, v, _)| (u, v));
    match bad {
        Some((u, v, w)) => Err(ConfigError::InvalidWeight { u, v, weight: w }),
        None => Ok(()),
    }
}

/// Partitions a weighted view under pre-generated shifts, reusing the
/// caller's arenas — the weighted twin of
/// [`crate::engine::partition_view_reusing`] and the engine behind
/// [`crate::Workspace::partition_weighted_view`].
///
/// `delta` is the Δ-stepping bucket width; `None` (what every session
/// passes) uses the mean edge weight. The engine raises it to at least
/// `δ_max / n`: no label exceeds its vertex's start time `≤ δ_max`, so at
/// most `n + 1` buckets exist however small the lengths or β. The width
/// (like the thread count) affects wall-clock only — output is
/// bit-identical for every choice. `traversal` is recorded on the run's
/// trace span and changes nothing else.
///
/// Δ-stepping resolves each request batch with two barrier-separated
/// lock-free passes (CAS-min the distance bits, resetting the root of
/// each improved target; then `fetch_min` the roots of requests matching
/// the final distance), which compute the per-target lexicographic
/// minimum `(dist, root)` whatever order the requests are applied in.
/// `determinism` therefore only picks the scheduler of those passes:
/// [`Determinism::BitExact`] runs them on the fixed chunk layout,
/// [`Determinism::Fast`] on the work-stealing scheduler. As in the
/// unweighted engine, **output is bit-identical in both modes**.
pub fn partition_weighted_view_reusing<W: WeightedGraphView>(
    view: &W,
    shifts: &ExpShifts,
    traversal: Traversal,
    delta: Option<f64>,
    determinism: Determinism,
    scratch: &mut WeightedScratch,
) -> (WeightedDecomposition, WeightedTelemetry) {
    let n = view.num_vertices();
    if n == 0 {
        return (
            WeightedDecomposition::from_raw(Vec::new(), Vec::new()),
            WeightedTelemetry::default(),
        );
    }
    debug_assert_eq!(shifts.delta.len(), n, "shifts must match the view");

    let _run_span = mpx_trace::span!(
        "wengine.partition",
        n = n,
        edges = view.total_degree(),
        strategy = traversal.as_str(),
        determinism = determinism.as_str(),
    );

    // Start times into the shared arena (taken out to sidestep the
    // scratch borrow while the algorithm arenas are also borrowed).
    let mut start = std::mem::take(&mut scratch.start);
    if start.len() < n {
        start.resize(n, 0.0);
    }
    if n >= RESET_PAR_CUTOFF {
        start[..n]
            .par_iter_mut()
            .enumerate()
            .for_each(|(u, s)| *s = shifts.delta_max - shifts.delta[u]);
    } else {
        for (u, s) in start[..n].iter_mut().enumerate() {
            *s = shifts.delta_max - shifts.delta[u];
        }
    }

    let delta = delta.unwrap_or_else(|| {
        let m = (view.total_degree() / 2) as usize;
        if m == 0 {
            1.0
        } else {
            (2.0 * view.total_weight() / (2.0 * m as f64)).max(f64::MIN_POSITIVE)
        }
    });
    assert!(
        delta > 0.0 && delta.is_finite(),
        "delta must be positive and finite, got {delta}"
    );
    let width = delta.max(shifts.delta_max / n as f64);
    let (assignment, arrival, mut telemetry) = if determinism == Determinism::Fast {
        mpx_runtime::with_scheduler(mpx_runtime::Scheduler::WorkStealing, || {
            delta_stepping(view, &start[..n], width, scratch)
        })
    } else {
        delta_stepping(view, &start[..n], width, scratch)
    };
    scratch.start = start;

    let d = WeightedDecomposition::from_raw(assignment, arrival);
    telemetry.clusters = d.num_clusters();
    (d, telemetry)
}

/// Bucketed Δ-stepping: the fractional generalization of the unweighted
/// engine's integer wake schedule. Produces the same labels as
/// [`partition_weighted_exact`], bit-for-bit, for every bucket width,
/// thread count and scheduler: each vertex's root and arrival time. `width` must
/// be at least `δ_max / n` so that the bucket indices stay `≤ n`.
fn delta_stepping<W: WeightedGraphView>(
    view: &W,
    start: &[f64],
    width: f64,
    scratch: &mut WeightedScratch,
) -> (Vec<Vertex>, Vec<f64>, WeightedTelemetry) {
    let n = start.len();
    if scratch.tent.len() < n {
        scratch.tent.resize_with(n, || AtomicU64::new(0));
        scratch.root_atomic.resize_with(n, || AtomicU32::new(0));
    }
    let tent = &scratch.tent[..n];
    let root = &scratch.root_atomic[..n];
    if n >= RESET_PAR_CUTOFF {
        tent.par_iter()
            .enumerate()
            .for_each(|(v, t)| t.store(start[v].to_bits(), Ordering::Relaxed));
        root.par_iter()
            .enumerate()
            .for_each(|(v, r)| r.store(v as Vertex, Ordering::Relaxed));
    } else {
        for (v, t) in tent.iter().enumerate() {
            t.store(start[v].to_bits(), Ordering::Relaxed);
        }
        for (v, r) in root.iter().enumerate() {
            r.store(v as Vertex, Ordering::Relaxed);
        }
    }

    let buckets = &mut scratch.buckets;
    for b in buckets.iter_mut() {
        b.clear();
    }
    let bucket_of = |bits: u64| (f64::from_bits(bits) / width) as usize;
    let push_bucket = |buckets: &mut Vec<Vec<Vertex>>, b: usize, v: Vertex| {
        if buckets.len() <= b {
            buckets.resize_with(b + 1, Vec::new);
        }
        buckets[b].push(v);
    };
    for v in 0..n as Vertex {
        push_bucket(buckets, bucket_of(start[v as usize].to_bits()), v);
    }

    let mut telemetry = WeightedTelemetry {
        delta: width,
        ..WeightedTelemetry::default()
    };

    // Requests `(target, dist bits, root)` along the light (`w < width`)
    // or heavy arcs of `sources`. Labels only decrease, so a request whose
    // `(dist, root)` does not lexicographically beat its target's label
    // now can win no pass of `reduce`; it is never materialized.
    let requests = |sources: &[Vertex], light: bool| -> Vec<(Vertex, u64, Vertex)> {
        sources
            .par_iter()
            .flat_map_iter(|&u| {
                let du = f64::from_bits(tent[u as usize].load(Ordering::Relaxed));
                let ru = root[u as usize].load(Ordering::Relaxed);
                view.neighbors_weighted_iter(u)
                    .filter(move |&(_, w)| (w < width) == light)
                    .map(move |(v, w)| (v, (du + w).to_bits(), ru))
                    .filter(|&(v, bits, r)| {
                        let cur = tent[v as usize].load(Ordering::Relaxed);
                        bits < cur || (bits == cur && r < root[v as usize].load(Ordering::Relaxed))
                    })
            })
            .collect()
    };

    let cas_success = AtomicU64::new(0);
    let cas_retries = AtomicU64::new(0);

    // Lock-free batch reduction: two barrier-separated passes.
    //
    //   1. CAS-min every request's distance bits into `tent` (non-negative
    //      finite f64 bits order as u64s, so the integer min is the float
    //      min). A successful CAS also makes the target forget its root
    //      (`NO_VERTEX`): the old root belonged to the beaten distance, and
    //      no root is read in this pass.
    //   2. Requests whose distance equals the now-final `tent[v]` compete
    //      on the root with `fetch_min`; the op that lowers the slot
    //      reports `v` for re-bucketing.
    //
    // Per target this computes min dist, then min root at that dist,
    // against the lexicographic (dist, root) carried over from earlier
    // batches; neither minimum depends on the order of the atomic ops, so
    // the labels are the same under every schedule. Every dist-improved
    // target gets exactly one pass-2 report that sees `NO_VERTEX` (the
    // first `fetch_min` in the slot's modification order), which is what
    // `cas_success` counts. A target may be reported twice if its root
    // drops twice; the bucket drain dedups. Returns the targets whose
    // label improved, with their new bucket index.
    let reduce = |requests: &[(Vertex, u64, Vertex)]| -> Vec<(usize, Vertex)> {
        requests.par_iter().for_each(|&(v, bits, _)| {
            let slot = &tent[v as usize];
            let mut cur = slot.load(Ordering::Relaxed);
            while bits < cur {
                match slot.compare_exchange_weak(cur, bits, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => {
                        root[v as usize].store(NO_VERTEX, Ordering::Relaxed);
                        break;
                    }
                    Err(now) => {
                        cas_retries.fetch_add(1, Ordering::Relaxed);
                        cur = now;
                    }
                }
            }
        });
        let winners: Vec<(Vertex, bool)> = requests
            .par_iter()
            .filter_map(|&(v, bits, r)| {
                if tent[v as usize].load(Ordering::Relaxed) != bits {
                    return None;
                }
                let old = root[v as usize].fetch_min(r, Ordering::Relaxed);
                (r < old).then_some((v, old == NO_VERTEX))
            })
            .collect();
        let fresh = winners.iter().filter(|&&(_, fresh)| fresh).count();
        cas_success.fetch_add(fresh as u64, Ordering::Relaxed);
        winners
            .into_iter()
            .map(|(v, _)| (bucket_of(tent[v as usize].load(Ordering::Relaxed)), v))
            .collect()
    };

    let mut i = 0usize;
    while i < buckets.len() {
        // Empty bucket indices are skipped silently; a span per live
        // bucket keeps traces proportional to work, not to the index
        // range.
        let _bucket_span = if buckets[i].is_empty() {
            mpx_trace::SpanGuard::disabled()
        } else {
            mpx_trace::span!("wengine.bucket", index = i, pending = buckets[i].len())
        };
        let mut deleted: Vec<Vertex> = Vec::new();
        // Inner loop: drain the bucket, relaxing light edges repeatedly.
        // A drained vertex can re-enter this same bucket with an improved
        // label (the classic Δ-stepping re-insertion); only when the bucket
        // stays empty are its members' labels final.
        loop {
            let mut batch: Vec<Vertex> = std::mem::take(&mut buckets[i])
                .into_iter()
                .filter(|&v| bucket_of(tent[v as usize].load(Ordering::Relaxed)) == i)
                .collect();
            batch.sort_unstable();
            batch.dedup();
            if batch.is_empty() {
                break;
            }
            telemetry.phases += 1;
            let _phase_span = mpx_trace::span!("wengine.phase", batch = batch.len());
            deleted.extend_from_slice(&batch);
            let light = requests(&batch, true);
            telemetry.relaxations += light.len() as u64;
            if !light.is_empty() {
                mpx_trace::event!("wengine.relax", count = light.len(), kind = "light");
            }
            for (b, v) in reduce(&light) {
                push_bucket(buckets, b, v);
            }
        }
        if deleted.is_empty() {
            i += 1;
            continue;
        }
        // Heavy-edge requests once per bucket (deleted may hold re-inserted
        // duplicates; only the final labels matter).
        let _heavy_span = mpx_trace::span!("wengine.heavy", deleted = deleted.len());
        deleted.sort_unstable();
        deleted.dedup();
        telemetry.buckets += 1;
        let heavy = requests(&deleted, false);
        telemetry.relaxations += heavy.len() as u64;
        if !heavy.is_empty() {
            mpx_trace::event!("wengine.relax", count = heavy.len(), kind = "heavy");
        }
        for (b, v) in reduce(&heavy) {
            push_bucket(buckets, b, v);
        }
        i += 1;
    }

    telemetry.cas_success = cas_success.load(Ordering::Relaxed);
    telemetry.cas_retries = cas_retries.load(Ordering::Relaxed);
    mpx_trace::event!(
        "engine.relax_cas",
        success = telemetry.cas_success,
        retries = telemetry.cas_retries,
    );

    let assignment: Vec<Vertex> = root.iter().map(|r| r.load(Ordering::Relaxed)).collect();
    let arrival: Vec<f64> = tent
        .par_iter()
        .map(|t| f64::from_bits(t.load(Ordering::Relaxed)))
        .collect();
    (assignment, arrival, telemetry)
}

/// The `O(n·(m + n log n))` weighted reference oracle: one independent
/// Dijkstra per candidate center `r` (initialized at `start_r`), then the
/// per-vertex lexicographic minimum `(dist, root)` — the literal
/// "assign each vertex to the center minimizing the shifted weighted
/// distance" rule of Section 6, with no super-source reduction. Per-root
/// path sums accumulate left-to-right exactly like the engine's, so equal
/// paths give bit-equal `f64`s and the result is **bit-identical** to the
/// engine. Testing/small graphs only.
pub fn partition_weighted_exact<W: WeightedGraphView>(
    view: &W,
    opts: &DecompOptions,
) -> WeightedDecomposition {
    opts.assert_valid();
    let n = view.num_vertices();
    let shifts = ExpShifts::generate(n, opts);
    let start: Vec<f64> = shifts.delta.iter().map(|d| shifts.delta_max - d).collect();

    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_root = vec![NO_VERTEX; n];
    let mut dist = vec![f64::INFINITY; n];
    // Distances are non-negative, so their bit patterns order like the
    // values: a min-heap on `(bits, vertex)`.
    let mut heap = BinaryHeap::new();
    for r in 0..n as Vertex {
        dist.iter_mut().for_each(|d| *d = f64::INFINITY);
        dist[r as usize] = start[r as usize];
        heap.push(Reverse((start[r as usize].to_bits(), r)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let du = f64::from_bits(bits);
            if du > dist[u as usize] {
                continue;
            }
            for (v, w) in view.neighbors_weighted_iter(u) {
                let cand = du + w;
                if cand < dist[v as usize] {
                    dist[v as usize] = cand;
                    heap.push(Reverse((cand.to_bits(), v)));
                }
            }
        }
        for v in 0..n {
            // Roots ascend, so on an exact tie the earlier (smaller) root
            // stays — the same lexicographic (dist, root) rule as the
            // engine.
            if dist[v] < best_dist[v] {
                best_dist[v] = dist[v];
                best_root[v] = r;
            }
        }
    }

    WeightedDecomposition::from_raw(best_root, best_dist)
}

/// Recovers the intra-cluster shortest-path-tree parent of every
/// non-center vertex `v`: among the same-cluster neighbours `u` that
/// arrive strictly earlier (`arrival(u) < arrival(v)`) and reach `v` along
/// their edge — exactly (`arrival(u) + w(u,v) = arrival(v)` in `f64`) or
/// to within a relative `1e-9` in distance (`dist(u) + w(u,v) ≈
/// dist(v)`) — the one with the smallest `(weight, id)`. The tolerance
/// keeps paths that tie in real numbers but not in `f64` (lengths 1 and
/// 0.001 on an anisotropic grid), so the lightest of them wins; the exact
/// predecessors keep a candidate where start times are so large that
/// `dist` has lost the precision to tie (a tiny β, a second component).
/// Requiring an earlier arrival makes the parents acyclic.
///
/// [`crate::verify_weighted`]'s rule (P) guarantees an exact predecessor
/// on every decomposition it accepts; absent any candidate the
/// decomposition is corrupt, which panics. Shared by the low-stretch-tree
/// and spanner pipelines.
pub fn compute_parents_weighted<W: WeightedGraphView>(
    view: &W,
    d: &WeightedDecomposition,
) -> Vec<Vertex> {
    let n = view.num_vertices();
    assert_eq!(d.assignment.len(), n);
    assert_eq!(d.arrival.len(), n);
    (0..n as Vertex)
        .into_par_iter()
        .map(|v| {
            let c = d.assignment[v as usize];
            if c == v {
                return NO_VERTEX;
            }
            let (dv, av) = (d.dist_to_center[v as usize], d.arrival[v as usize]);
            let tol = 1e-9 * (1.0 + dv.abs());
            let mut best: Option<(f64, Vertex)> = None;
            for (u, w) in view.neighbors_weighted_iter(v) {
                let au = d.arrival[u as usize];
                if d.assignment[u as usize] != c || au >= av {
                    continue;
                }
                if au + w == av || (d.dist_to_center[u as usize] + w - dv).abs() <= tol {
                    let key = (w, u);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            best.unwrap_or_else(|| panic!("weighted Lemma 4.1 violated at vertex {v}"))
                .1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_weighted;
    use mpx_graph::{gen, InducedView, WeightedCsrGraph};

    fn random_weighted(g: &mpx_graph::CsrGraph, seed: u64) -> WeightedCsrGraph {
        let edges: Vec<(Vertex, Vertex, f64)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| {
                let r = mpx_par_free_uniform(seed, i as u64);
                (u, v, 0.25 + 3.75 * r)
            })
            .collect();
        WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
    }

    /// splitmix64-based uniform in [0,1): deterministic test weights
    /// without a dev-dependency.
    fn mpx_par_free_uniform(seed: u64, i: u64) -> f64 {
        let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn opts(beta: f64, seed: u64) -> DecompOptions {
        DecompOptions::new(beta).with_seed(seed)
    }

    #[test]
    fn all_strategies_bit_identical_to_exact() {
        for seed in 0..3u64 {
            let g = random_weighted(&gen::gnm(150, 450, seed), seed + 7);
            let o = opts(0.2, seed);
            let exact = partition_weighted_exact(&g, &o);
            for traversal in [Traversal::Auto, Traversal::TopDownPar] {
                let (d, t) = crate::Workspace::new()
                    .partition_weighted_view(&g, &o.clone().with_traversal(traversal));
                assert_eq!(d.assignment, exact.assignment, "{traversal:?} seed {seed}");
                for v in 0..g.num_vertices() {
                    assert_eq!(
                        d.dist_to_center[v].to_bits(),
                        exact.dist_to_center[v].to_bits(),
                        "{traversal:?} seed {seed} vertex {v}"
                    );
                }
                assert_eq!(t.clusters, d.num_clusters());
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let g = random_weighted(&gen::grid2d(14, 14), 4);
        let o = opts(0.15, 2);
        let shifts = ExpShifts::generate(g.num_vertices(), &o);
        let mut scratch = WeightedScratch::new();
        let (first, _) = partition_weighted_view_reusing(
            &g,
            &shifts,
            Traversal::Auto,
            None,
            Determinism::BitExact,
            &mut scratch,
        );
        let bytes = scratch.capacity_bytes();
        for _ in 0..3 {
            let (again, _) = partition_weighted_view_reusing(
                &g,
                &shifts,
                Traversal::Auto,
                None,
                Determinism::BitExact,
                &mut scratch,
            );
            assert_eq!(first, again);
        }
        assert_eq!(scratch.capacity_bytes(), bytes, "arenas regrew");
        // The same scratch serves another bucket width and a smaller view.
        let (narrow, _) = partition_weighted_view_reusing(
            &g,
            &shifts,
            Traversal::TopDownPar,
            Some(0.3),
            Determinism::BitExact,
            &mut scratch,
        );
        assert_eq!(first, narrow);
        let small = random_weighted(&gen::path(9), 0);
        let small_shifts = ExpShifts::generate(9, &o);
        let (d, _) = partition_weighted_view_reusing(
            &small,
            &small_shifts,
            Traversal::Auto,
            None,
            Determinism::BitExact,
            &mut scratch,
        );
        assert_eq!(d.assignment.len(), 9);
    }

    #[test]
    fn fast_mode_is_bit_identical_on_weighted_graphs() {
        // Both modes run the same two-pass CAS reduction; Fast only
        // moves it onto the work-stealing scheduler. The reduction's
        // per-target lexicographic minimum does not depend on the
        // schedule, so Fast output must match BitExact bit-for-bit —
        // across widths too.
        for seed in 0..4u64 {
            let g = random_weighted(&gen::grid2d(18, 18), seed);
            let o = opts(0.2, seed);
            let shifts = ExpShifts::generate(g.num_vertices(), &o);
            let mut scratch = WeightedScratch::new();
            for delta in [None, Some(0.5), Some(4.0)] {
                let (exact, te) = partition_weighted_view_reusing(
                    &g,
                    &shifts,
                    Traversal::TopDownPar,
                    delta,
                    Determinism::BitExact,
                    &mut scratch,
                );
                let (fast, tf) = partition_weighted_view_reusing(
                    &g,
                    &shifts,
                    Traversal::TopDownPar,
                    delta,
                    Determinism::Fast,
                    &mut scratch,
                );
                assert_eq!(exact.assignment, fast.assignment, "seed {seed} {delta:?}");
                for v in 0..g.num_vertices() {
                    assert_eq!(
                        exact.dist_to_center[v].to_bits(),
                        fast.dist_to_center[v].to_bits(),
                        "seed {seed} {delta:?} vertex {v}"
                    );
                }
                assert!(te.cas_success > 0, "Δ-stepping should claim via CAS");
                // Only the retry count may depend on the schedule.
                assert_eq!(
                    WeightedTelemetry {
                        cas_retries: 0,
                        ..te
                    },
                    WeightedTelemetry {
                        cas_retries: 0,
                        ..tf
                    },
                    "seed {seed} {delta:?}"
                );
            }
        }
    }

    #[test]
    fn runs_over_induced_views() {
        // Partitioning an induced half of a graph equals partitioning the
        // materialized subgraph (same dense ids, same shifts).
        let g = random_weighted(&gen::grid2d(10, 10), 6);
        let keep: Vec<bool> = (0..g.num_vertices()).map(|v| v % 3 != 0).collect();
        let view = InducedView::from_mask(&g, &keep);
        let edges: Vec<(Vertex, Vertex, f64)> = mpx_graph::weighted_view_edges(&view).collect();
        let sub = WeightedCsrGraph::from_edges(view.active().len(), &edges);
        let o = opts(0.25, 3);
        let via_view = partition_weighted(&view, &o);
        let via_sub = partition_weighted(&sub, &o);
        assert_eq!(via_view, via_sub);
    }

    #[test]
    fn validate_weights_reports_first_bad_edge() {
        struct Evil;
        impl mpx_graph::GraphView for Evil {
            type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, Vertex>>;
            fn num_vertices(&self) -> usize {
                2
            }
            fn degree(&self, _v: Vertex) -> usize {
                1
            }
            fn total_degree(&self) -> u64 {
                2
            }
            fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
                if v == 0 {
                    [1].iter().copied()
                } else {
                    [0].iter().copied()
                }
            }
        }
        impl WeightedGraphView for Evil {
            type WeightedNeighbors<'a> = std::vec::IntoIter<(Vertex, f64)>;
            fn neighbors_weighted_iter(&self, v: Vertex) -> Self::WeightedNeighbors<'_> {
                if v == 0 {
                    vec![(1, f64::NAN)].into_iter()
                } else {
                    vec![(0, f64::NAN)].into_iter()
                }
            }
        }
        let err = validate_weights(&Evil).unwrap_err();
        match err {
            ConfigError::InvalidWeight { u, v, weight } => {
                assert_eq!((u, v), (0, 1));
                assert!(weight.is_nan());
            }
            other => panic!("wrong error {other:?}"),
        }
        let good = WeightedCsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        assert!(validate_weights(&good).is_ok());
    }

    #[test]
    fn parents_form_shortest_path_trees() {
        let g = random_weighted(&gen::grid2d(9, 9), 8);
        let d = partition_weighted(&g, &opts(0.3, 5));
        let parents = compute_parents_weighted(&g, &d);
        for (v, &parent) in parents.iter().enumerate() {
            if d.assignment[v] == v as Vertex {
                assert_eq!(parent, NO_VERTEX);
            } else {
                let p = parent;
                assert_eq!(d.assignment[p as usize], d.assignment[v]);
                assert!(d.arrival[p as usize] < d.arrival[v]);
                let w = g.edge_weight(v as Vertex, p).unwrap();
                let err = (d.dist_to_center[p as usize] + w - d.dist_to_center[v]).abs();
                assert!(
                    d.arrival[p as usize] + w == d.arrival[v]
                        || err <= 1e-9 * (1.0 + d.dist_to_center[v].abs())
                );
            }
        }
    }
}
