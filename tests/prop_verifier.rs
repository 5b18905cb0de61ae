//! Failure-injection property tests: the verifier must reject *every*
//! corruption of a valid decomposition and agree with the restricted-BFS
//! oracle on every mutation, the weighted certificate must reject every
//! mutation the restricted-Dijkstra oracle rejects, and the
//! hybrid/weighted variants must stay equivalent to their references
//! under arbitrary inputs.

use mpx::compress::{write_compressed_snapshot, MappedCompressedCsr};
use mpx::decomp::wengine::partition_weighted_view_reusing;
use mpx::decomp::{
    partition, partition_weighted, partition_weighted_exact, verify_decomposition, verify_weighted,
    DecompOptions, DecomposerBuilder, Decomposition, ExpShifts, ShiftStrategy, Traversal,
    WeightedDecomposition, WeightedScratch,
};
use mpx::graph::snapshot::{write_snapshot, write_weighted_snapshot, MappedCsr};
use mpx::graph::{
    gen, CsrGraph, GraphView, MappedWeightedCsr, Vertex, WeightedCsrGraph, WeightedGraphView,
    INFINITY, NO_VERTEX,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 1..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Rebuilds a Decomposition from mutated raw arrays, tolerating the cases
/// where `from_raw` itself already rejects the corruption.
fn rebuild(assignment: Vec<Vertex>, dist: Vec<u32>, parent: Vec<Vertex>) -> Option<Decomposition> {
    std::panic::catch_unwind(|| Decomposition::from_raw(assignment, dist, parent)).ok()
}

/// The sequential verifier the parallel local check replaced, kept as its
/// oracle: a multi-source BFS from every center over intra-cluster edges
/// must reach each vertex at exactly its recorded distance, and every
/// parent must be a same-cluster neighbour one hop closer.
fn bfs_oracle_valid<V: GraphView>(view: &V, d: &Decomposition) -> bool {
    let n = view.num_vertices();
    if d.num_vertices() != n || d.check_internal().is_err() {
        return false;
    }
    let mut rdist = vec![INFINITY; n];
    let mut queue: VecDeque<Vertex> = d.centers().iter().copied().collect();
    for &c in d.centers() {
        rdist[c as usize] = 0;
    }
    while let Some(u) = queue.pop_front() {
        for v in view.neighbors_iter(u) {
            if d.center_of(v) == d.center_of(u) && rdist[v as usize] == INFINITY {
                rdist[v as usize] = rdist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    (0..n as Vertex).all(|v| {
        let reached = rdist[v as usize] != INFINITY && rdist[v as usize] == d.dist_to_center(v);
        reached
            && d.parent(v).is_none_or(|p| {
                view.neighbors_iter(v).any(|u| u == p)
                    && d.center_of(p) == d.center_of(v)
                    && d.dist_to_center(p) + 1 == d.dist_to_center(v)
            })
    })
}

/// The verdict of both verifiers over `view`, failing the case if they
/// differ.
fn agreed_verdict<V: GraphView>(
    view: &V,
    d: &Decomposition,
    ctx: &str,
) -> Result<bool, TestCaseError> {
    let local = verify_decomposition(view, d);
    let oracle = bfs_oracle_valid(view, d);
    prop_assert_eq!(
        local.is_valid(),
        oracle,
        "{}: local check {:?}",
        ctx,
        local.errors
    );
    Ok(oracle)
}

/// How [`mutate`] corrupts (or validly rearranges) a decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    Unchanged,
    DistDown,
    DistUp,
    DistUpBy,
    Reassign,
    /// Moves a vertex to an adjacent cluster, one hop beyond the neighbour
    /// that becomes its parent: valid or not depending on its other edges.
    JoinNeighbourCluster,
    /// Makes a non-center the center of its parent-tree subtree, with
    /// distances shifted to match: always valid.
    SplitSubtree,
    /// The same split with the old distances kept below the new center.
    SplitKeepingDistances,
    ParentSameDistance,
    ParentOtherCluster,
    ParentNonNeighbour,
    /// Another same-cluster neighbour one hop closer: always valid.
    ParentOtherPredecessor,
}

const MUTATIONS: [Mutation; 12] = [
    Mutation::Unchanged,
    Mutation::DistDown,
    Mutation::DistUp,
    Mutation::DistUpBy,
    Mutation::Reassign,
    Mutation::JoinNeighbourCluster,
    Mutation::SplitSubtree,
    Mutation::SplitKeepingDistances,
    Mutation::ParentSameDistance,
    Mutation::ParentOtherCluster,
    Mutation::ParentNonNeighbour,
    Mutation::ParentOtherPredecessor,
];

/// Raw `(assignment, dist, parent)` arrays of `d` after `mutation`, the
/// victim chosen by `sel`; `None` when `d` offers no victim for it.
fn mutate(
    g: &CsrGraph,
    d: &Decomposition,
    mutation: Mutation,
    sel: u64,
) -> Option<(Vec<Vertex>, Vec<u32>, Vec<Vertex>)> {
    let n = g.num_vertices() as Vertex;
    let pick = |items: Vec<Vertex>| {
        (!items.is_empty()).then(|| items[(sel % items.len() as u64) as usize])
    };
    let non_centers: Vec<Vertex> = (0..n).filter(|&v| d.parent(v).is_some()).collect();
    // A non-center `v` and a neighbour `u` satisfying `keep`.
    let arc = |keep: &dyn Fn(Vertex, Vertex) -> bool| {
        let arcs: Vec<(Vertex, Vertex)> = non_centers
            .iter()
            .flat_map(|&v| g.neighbors(v).iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| keep(v, u))
            .collect();
        (!arcs.is_empty()).then(|| arcs[(sel % arcs.len() as u64) as usize])
    };
    let (mut a, mut dist, mut parent) = (
        d.assignment().to_vec(),
        d.distances().to_vec(),
        d.parents().to_vec(),
    );
    match mutation {
        Mutation::Unchanged => {}
        Mutation::DistDown => dist[pick(non_centers)? as usize] -= 1,
        Mutation::DistUp => dist[pick(non_centers)? as usize] += 1,
        Mutation::DistUpBy => dist[pick(non_centers)? as usize] += 2 + (sel >> 32) as u32 % 4,
        Mutation::Reassign => {
            let v = pick(non_centers)?;
            let others = d.centers().iter().copied().filter(|&c| c != d.center_of(v));
            a[v as usize] = pick(others.collect())?;
        }
        Mutation::JoinNeighbourCluster => {
            let (v, u) = arc(&|v, u| d.center_of(u) != d.center_of(v))?;
            a[v as usize] = d.center_of(u);
            dist[v as usize] = d.dist_to_center(u) + 1;
            parent[v as usize] = u;
        }
        Mutation::SplitSubtree | Mutation::SplitKeepingDistances => {
            let w = pick(non_centers)?;
            let below_w = |mut x: Vertex| loop {
                if x == w {
                    return true;
                }
                match d.parent(x) {
                    Some(p) => x = p,
                    None => return false,
                }
            };
            for x in (0..n).filter(|&x| below_w(x)) {
                a[x as usize] = w;
                if mutation == Mutation::SplitSubtree {
                    dist[x as usize] -= d.dist_to_center(w);
                }
            }
            dist[w as usize] = 0;
            parent[w as usize] = NO_VERTEX;
        }
        Mutation::ParentSameDistance => {
            let (v, u) =
                arc(&|v, u| d.parent(v) != Some(u) && d.dist_to_center(u) == d.dist_to_center(v))?;
            parent[v as usize] = u;
        }
        Mutation::ParentOtherCluster => {
            let (v, u) = arc(&|v, u| d.center_of(u) != d.center_of(v))?;
            parent[v as usize] = u;
        }
        Mutation::ParentNonNeighbour => {
            let v = pick(non_centers)?;
            // In range but not adjacent, or past the last vertex.
            let mut far: Vec<Vertex> = (0..n).filter(|&x| x != v && !g.has_edge(v, x)).collect();
            far.push(n + (sel >> 40) as u32 % 3);
            parent[v as usize] = pick(far)?;
        }
        Mutation::ParentOtherPredecessor => {
            let (v, u) = arc(&|v, u| {
                d.parent(v) != Some(u)
                    && d.center_of(u) == d.center_of(v)
                    && d.dist_to_center(u) + 1 == d.dist_to_center(v)
            })?;
            parent[v as usize] = u;
        }
    }
    Some((a, dist, parent))
}

/// The restricted Dijkstra `verify_weighted` ran before the arrival
/// certificate replaced it, kept as its oracle: a multi-source Dijkstra
/// from every listed center at 0 over intra-cluster edges must reach each
/// vertex, at its recorded distance to within a relative `1e-6`.
fn weighted_dijkstra_oracle_valid<W: WeightedGraphView>(g: &W, d: &WeightedDecomposition) -> bool {
    let n = g.num_vertices();
    if d.assignment.len() != n || d.dist_to_center.len() != n {
        return false;
    }
    if d.centers
        .iter()
        .any(|&c| c as usize >= n || d.assignment[c as usize] != c)
    {
        return false;
    }
    // Lengths are positive and finite, so distances are non-negative and
    // their bits order as `u64`s: the heap is keyed by `(dist bits, vertex)`.
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    for &c in &d.centers {
        dist[c as usize] = 0.0;
        heap.push(Reverse((0.0f64.to_bits(), c)));
    }
    while let Some(Reverse((bits, u))) = heap.pop() {
        let du = f64::from_bits(bits);
        if du > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors_weighted_iter(u) {
            if d.assignment[v as usize] != d.assignment[u as usize] {
                continue;
            }
            let cand = du + w;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(Reverse((cand.to_bits(), v)));
            }
        }
    }
    dist.iter()
        .zip(&d.dist_to_center)
        .all(|(&dv, &recorded)| dv.is_finite() && (dv - recorded).abs() <= 1e-6 * (1.0 + dv.abs()))
}

/// Hashed `U[0.25, 4]` lengths on the edges of `g` (the benchmark's model).
fn hashed_lengths(g: &CsrGraph, seed: u64) -> WeightedCsrGraph {
    let edges: Vec<(Vertex, Vertex, f64)> = g
        .edges()
        .map(|(u, v)| {
            let r = (mpx::par::rng::hash_index(seed, ((u as u64) << 32) | v as u64) >> 11) as f64
                / (1u64 << 53) as f64;
            (u, v, 0.25 + 3.75 * r)
        })
        .collect();
    WeightedCsrGraph::from_edges(g.num_vertices(), &edges)
}

/// How [`mutate_weighted`] corrupts (or validly perturbs) a weighted
/// decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
enum WeightedMutation {
    Unchanged,
    /// `dist_to_center[v] += by` at some vertex.
    DistShift(f64),
    /// A nonzero distance at a center.
    CenterDist,
    /// A non-center with a neighbour in another cluster joins that
    /// cluster, keeping its arrival and distance.
    JoinKeepingDistance,
    /// The same move, arriving through that neighbour, with the distance
    /// recomputed from the new arrival.
    JoinRecomputed,
    /// `arrival[v]` one unit in the last place up or down, every distance
    /// recomputed from the arrivals.
    ArrivalUlp,
    /// A non-center's arrival raised to its sum through a later
    /// same-cluster neighbour, its distance recomputed: an exact
    /// predecessor, but not a shortest path.
    LaterPredecessor,
    /// A center missing from `centers`.
    DropCenter,
    /// A center listed twice.
    RepeatCenter,
}

const WEIGHTED_MUTATIONS: [WeightedMutation; 16] = [
    WeightedMutation::Unchanged,
    WeightedMutation::DistShift(1e-12),
    WeightedMutation::DistShift(-1e-12),
    WeightedMutation::DistShift(1e-7),
    WeightedMutation::DistShift(-1e-7),
    WeightedMutation::DistShift(1e-3),
    WeightedMutation::DistShift(-1e-3),
    WeightedMutation::DistShift(1.0),
    WeightedMutation::DistShift(-1.0),
    WeightedMutation::CenterDist,
    WeightedMutation::JoinKeepingDistance,
    WeightedMutation::JoinRecomputed,
    WeightedMutation::ArrivalUlp,
    WeightedMutation::LaterPredecessor,
    WeightedMutation::DropCenter,
    WeightedMutation::RepeatCenter,
];

/// `d` after `mutation`, the victim chosen by `sel`; `None` when `d`
/// offers no victim for it.
fn mutate_weighted(
    g: &WeightedCsrGraph,
    d: &WeightedDecomposition,
    mutation: WeightedMutation,
    sel: u64,
) -> Option<WeightedDecomposition> {
    let n = g.num_vertices();
    let pick = |len: usize| (len > 0).then(|| (sel % len as u64) as usize);
    // A non-center `v` and a neighbour `u` at length `w` satisfying `keep`.
    let arc = |keep: &dyn Fn(usize, Vertex, f64) -> bool| {
        let arcs: Vec<(usize, Vertex, f64)> = (0..n)
            .filter(|&v| d.assignment[v] != v as Vertex)
            .flat_map(|v| {
                g.neighbors_weighted_iter(v as Vertex)
                    .map(move |(u, w)| (v, u, w))
            })
            .filter(|&(v, u, w)| keep(v, u, w))
            .collect();
        pick(arcs.len()).map(|i| arcs[i])
    };
    let mut m = d.clone();
    match mutation {
        WeightedMutation::Unchanged => {}
        WeightedMutation::DistShift(by) => m.dist_to_center[pick(n)?] += by,
        WeightedMutation::CenterDist => {
            let c = d.centers[pick(d.centers.len())?] as usize;
            m.dist_to_center[c] = [f64::from_bits(1), 1e-9, 0.5][(sel >> 32) as usize % 3];
        }
        WeightedMutation::JoinKeepingDistance | WeightedMutation::JoinRecomputed => {
            let (v, u, w) = arc(&|v, u, _| d.assignment[u as usize] != d.assignment[v])?;
            let c = d.assignment[u as usize];
            m.assignment[v] = c;
            if mutation == WeightedMutation::JoinRecomputed {
                m.arrival[v] = d.arrival[u as usize] + w;
                m.dist_to_center[v] = m.arrival[v] - d.arrival[c as usize];
            }
        }
        WeightedMutation::ArrivalUlp => {
            let v = pick(n)?;
            m.arrival[v] = if sel >> 63 == 0 {
                m.arrival[v].next_up()
            } else {
                m.arrival[v].next_down()
            };
            for x in 0..n {
                m.dist_to_center[x] = m.arrival[x] - m.arrival[m.assignment[x] as usize];
            }
        }
        WeightedMutation::LaterPredecessor => {
            let (v, u, w) = arc(&|v, u, w| {
                d.assignment[u as usize] == d.assignment[v]
                    && d.arrival[u as usize] + w > d.arrival[v]
            })?;
            m.arrival[v] = d.arrival[u as usize] + w;
            m.dist_to_center[v] = m.arrival[v] - d.arrival[d.assignment[v] as usize];
        }
        WeightedMutation::DropCenter => {
            m.centers.remove(pick(d.centers.len())?);
        }
        WeightedMutation::RepeatCenter => {
            let i = pick(d.centers.len())?;
            m.centers.insert(i, d.centers[i]);
        }
    }
    Some(m)
}

/// The certificate's verdict over `view`, failing the case if it accepts
/// what the Dijkstra oracle rejects.
fn certified_verdict<W: WeightedGraphView>(
    view: &W,
    d: &WeightedDecomposition,
    ctx: &str,
) -> Result<Result<(), String>, TestCaseError> {
    let certificate = verify_weighted(view, d);
    prop_assert!(
        certificate.is_err() || weighted_dijkstra_oracle_valid(view, d),
        "{}: the certificate accepts what the oracle rejects",
        ctx
    );
    Ok(certificate)
}

/// A fresh temporary snapshot path (the file is unlinked right after it
/// is mapped; the mapping outlives the name).
fn tmp_snapshot(kind: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mpx-prop-verifier-{}-{}-{kind}.mpx",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Reassigning one non-center vertex to a random other center is
    /// always caught (either by construction checks or by the verifier).
    #[test]
    fn verifier_catches_reassignment(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        victim_sel in 0usize..1000,
        target_sel in 0usize..1000,
    ) {
        let d = partition(&g, &DecompOptions::new(0.2).with_seed(seed));
        prop_assume!(d.num_clusters() >= 2);
        let n = g.num_vertices();
        // Pick a non-center victim and a different cluster's center.
        let victims: Vec<Vertex> = (0..n as Vertex)
            .filter(|&v| d.center_of(v) != v)
            .collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[victim_sel % victims.len()];
        let others: Vec<Vertex> = d
            .centers()
            .iter()
            .copied()
            .filter(|&c| c != d.center_of(victim))
            .collect();
        prop_assume!(!others.is_empty());
        let target = others[target_sel % others.len()];

        let mut assignment = d.assignment().to_vec();
        assignment[victim as usize] = target;
        if let Some(bad) = rebuild(assignment, d.distances().to_vec(), d.parents().to_vec()) {
            let r = verify_decomposition(&g, &bad);
            prop_assert!(!r.is_valid(), "reassignment of {victim} to {target} undetected");
        }
    }

    /// Corrupting one distance is always caught.
    #[test]
    fn verifier_catches_distance_corruption(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        victim_sel in 0usize..1000,
        bump in 1u32..5,
    ) {
        let d = partition(&g, &DecompOptions::new(0.25).with_seed(seed));
        let n = g.num_vertices();
        let victims: Vec<Vertex> = (0..n as Vertex).filter(|&v| d.center_of(v) != v).collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[victim_sel % victims.len()];
        let mut dist = d.distances().to_vec();
        dist[victim as usize] += bump;
        if let Some(bad) = rebuild(d.assignment().to_vec(), dist, d.parents().to_vec()) {
            let r = verify_decomposition(&g, &bad);
            prop_assert!(!r.is_valid(), "distance corruption at {victim} undetected");
        }
    }

    /// Corrupting a parent pointer is always caught.
    #[test]
    fn verifier_catches_parent_corruption(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        victim_sel in 0usize..1000,
    ) {
        let d = partition(&g, &DecompOptions::new(0.25).with_seed(seed));
        let n = g.num_vertices();
        let victims: Vec<Vertex> = (0..n as Vertex)
            .filter(|&v| d.parent(v).is_some())
            .collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[victim_sel % victims.len()];
        let mut parent = d.parents().to_vec();
        // Point the parent at the vertex itself's center... no: at a vertex
        // guaranteed wrong — the victim itself (self-parent is invalid).
        parent[victim as usize] = victim;
        if let Some(bad) = rebuild(d.assignment().to_vec(), d.distances().to_vec(), parent) {
            let r = verify_decomposition(&g, &bad);
            prop_assert!(!r.is_valid(), "parent corruption at {victim} undetected");
        }
    }

    /// Hybrid (direction-optimizing) output equals top-down output on
    /// arbitrary graphs, betas, seeds and shift strategies.
    #[test]
    fn hybrid_always_matches_topdown(
        g in arb_graph(80, 300),
        beta in 0.05f64..0.9,
        seed in 0u64..100_000,
        order_stats in any::<bool>(),
    ) {
        let strat = if order_stats {
            ShiftStrategy::OrderStatisticPermutation
        } else {
            ShiftStrategy::SampledExponential
        };
        let opts = DecompOptions::new(beta).with_seed(seed).with_shift_strategy(strat);
        prop_assert_eq!(
            partition(&g, &opts.clone().with_traversal(Traversal::TopDownPar)),
            partition(&g, &opts.with_traversal(Traversal::Auto))
        );
    }

    /// Weighted Δ-stepping at any bucket width equals the per-center
    /// Dijkstra reference on arbitrary weighted graphs.
    #[test]
    fn delta_stepping_always_matches_dijkstra(
        g in arb_graph(50, 120),
        seed in 0u64..10_000,
        delta_exp in -2i32..4,
    ) {
        let edges: Vec<(Vertex, Vertex, f64)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| {
                let w = 0.1 + ((i as u64 * 2654435761 + seed) % 1000) as f64 / 250.0;
                (u, v, w)
            })
            .collect();
        let wg = WeightedCsrGraph::from_edges(g.num_vertices(), &edges);
        let opts = DecompOptions::new(0.2).with_seed(seed);
        let a = partition_weighted_exact(&wg, &opts);
        let (b, _) = partition_weighted_view_reusing(
            &wg,
            &ExpShifts::generate(wg.num_vertices(), &opts),
            opts.traversal,
            Some(2f64.powi(delta_exp)),
            opts.determinism,
            &mut WeightedScratch::new(),
        );
        prop_assert_eq!(&a.assignment, &b.assignment);
        prop_assert!(verify_weighted(&wg, &a).is_ok());
    }

    /// The order-statistic shift strategy also yields valid decompositions
    /// on arbitrary graphs.
    #[test]
    fn order_statistic_partitions_valid(
        g in arb_graph(80, 200),
        beta in 0.05f64..0.8,
        seed in 0u64..100_000,
    ) {
        let d = partition(
            &g,
            &DecompOptions::new(beta)
                .with_seed(seed)
                .with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
        );
        let r = verify_decomposition(&g, &d);
        prop_assert!(r.is_valid(), "{:?}", r.errors);
    }

    /// The parallel local check and the restricted-BFS oracle return the
    /// same verdict on every mutation of an engine output, over an
    /// in-memory graph, a mapped v1 snapshot and a mapped compressed v2
    /// snapshot of it.
    #[test]
    fn local_check_agrees_with_bfs_oracle(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        sel in any::<u64>(),
    ) {
        let (p1, p2) = (tmp_snapshot("v1"), tmp_snapshot("v2"));
        write_snapshot(&g, &p1).unwrap();
        write_compressed_snapshot(&g, None, &p2).unwrap();
        let v1 = MappedCsr::open(&p1).unwrap();
        let v2 = MappedCompressedCsr::open(&p2).unwrap();
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        let d = partition(&g, &DecompOptions::new(0.25).with_seed(seed));
        for (i, mutation) in MUTATIONS.into_iter().enumerate() {
            let sel = sel.rotate_left(7 * i as u32);
            let Some(bad) = mutate(&g, &d, mutation, sel)
                .and_then(|(a, dist, parent)| rebuild(a, dist, parent))
            else {
                continue;
            };
            let ctx = format!("{mutation:?}");
            let verdict = agreed_verdict(&g, &bad, &ctx)?;
            prop_assert_eq!(agreed_verdict(&v1, &bad, &ctx)?, verdict, "{} (v1)", ctx);
            prop_assert_eq!(agreed_verdict(&v2, &bad, &ctx)?, verdict, "{} (v2)", ctx);
            if matches!(
                mutation,
                Mutation::Unchanged | Mutation::SplitSubtree | Mutation::ParentOtherPredecessor
            ) {
                prop_assert!(verdict, "{} must stay valid", ctx);
            }
        }
    }

    /// The weighted arrival certificate rejects every mutation the
    /// restricted-Dijkstra oracle rejects, and it is exact, so it also
    /// rejects mutations within the oracle's tolerance. Unmutated outputs
    /// pass both. Verdicts and messages are the same over the in-memory
    /// graph and a mapped weighted snapshot of it.
    #[test]
    fn certificate_rejects_whatever_the_dijkstra_oracle_rejects(
        g in arb_graph(60, 150),
        seed in 0u64..10_000,
        beta_k in 0usize..3,
        sel in any::<u64>(),
    ) {
        let beta = [0.05, 0.25, 0.8][beta_k];
        let wg = hashed_lengths(&g, seed);
        let path = tmp_snapshot("weighted");
        write_weighted_snapshot(&wg, &path).unwrap();
        let mapped = MappedWeightedCsr::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let d = partition_weighted(&wg, &DecompOptions::new(beta).with_seed(seed));
        for (i, mutation) in WEIGHTED_MUTATIONS.into_iter().enumerate() {
            let sel = sel.rotate_left(7 * i as u32);
            let Some(bad) = mutate_weighted(&wg, &d, mutation, sel) else {
                continue;
            };
            let ctx = format!("{mutation:?} at beta {beta}");
            let verdict = certified_verdict(&wg, &bad, &ctx)?;
            prop_assert_eq!(&certified_verdict(&mapped, &bad, &ctx)?, &verdict, "{} (mapped)", ctx);
            if mutation == WeightedMutation::Unchanged {
                prop_assert!(verdict.is_ok(), "{}: {:?}", ctx, verdict);
                prop_assert!(weighted_dijkstra_oracle_valid(&wg, &bad), "{}", ctx);
            }
            // Exact: any change to a recorded distance or the center list is
            // caught, however far inside the oracle's tolerance.
            if matches!(
                mutation,
                WeightedMutation::DistShift(_)
                    | WeightedMutation::CenterDist
                    | WeightedMutation::DropCenter
                    | WeightedMutation::RepeatCenter
            ) {
                prop_assert!(verdict.is_err(), "{}: accepted", ctx);
            }
        }
    }
}

/// A parent id past the vertex range is reported as an invalid parent:
/// the scan never indexes by it.
#[test]
fn out_of_range_parent_is_reported_not_followed() {
    let g = gen::path(2);
    let d = Decomposition::from_raw(vec![0, 0], vec![0, 1], vec![NO_VERTEX, 2]);
    let r = verify_decomposition(&g, &d);
    assert_eq!(r.errors, vec!["vertex 1: invalid parent 2".to_string()]);
    assert!(!bfs_oracle_valid(&g, &d));
}

/// A weighted center past the vertex range is reported, never indexed.
#[test]
fn weighted_out_of_range_center_is_reported_not_indexed() {
    let wg = WeightedCsrGraph::unit_weights(&gen::grid2d(6, 6));
    let mut d = DecomposerBuilder::new(0.2)
        .build_weighted(&wg)
        .unwrap()
        .run();
    d.centers.push(1000);
    assert_eq!(
        verify_weighted(&wg, &d),
        Err("center 1000 out of range (n = 36)".to_string())
    );
}

/// A short weighted distance vector is reported, never indexed.
#[test]
fn weighted_short_distance_vector_is_reported_not_indexed() {
    let wg = WeightedCsrGraph::unit_weights(&gen::grid2d(6, 6));
    let mut d = DecomposerBuilder::new(0.2)
        .build_weighted(&wg)
        .unwrap()
        .run();
    d.dist_to_center.truncate(3);
    assert_eq!(
        verify_weighted(&wg, &d),
        Err("dist_to_center length mismatch".to_string())
    );
}

/// Directed sanity check outside proptest: a decomposition with a vertex
/// pointing at a non-existent center must be rejected by `from_raw`.
#[test]
fn from_raw_rejects_phantom_center() {
    let ok = std::panic::catch_unwind(|| {
        Decomposition::from_raw(vec![1, 1], vec![1, 0], vec![1, NO_VERTEX])
    });
    // Vertex 0 assigned to center 1 — fine; but vertex 0 has dist 1 and a
    // valid-looking parent... center 1 is self-assigned, so this *is*
    // structurally plausible; the graph-aware verifier must catch it when
    // no edge (0,1) exists.
    if let Ok(d) = ok {
        let g = CsrGraph::from_edges(2, &[]); // no edges at all
        let r = verify_decomposition(&g, &d);
        assert!(!r.is_valid());
    }
}
