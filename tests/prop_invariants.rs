//! Property-based tests (proptest) of the core invariants, on arbitrary
//! random graphs and parameters.

use mpx::decomp::{
    partition, partition_view_with_shifts, verify_decomposition, DecompOptions, ExpShifts,
    TieBreak, Traversal, DEFAULT_ALPHA,
};
use mpx::graph::{algo, CsrGraph, Vertex};
use mpx::runtime::Pool;
use proptest::prelude::*;

/// Strategy: an arbitrary simple graph with up to `max_n` vertices and
/// `max_m` random edge records (dedup'd by the builder).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

fn arb_beta() -> impl Strategy<Value = f64> {
    (0.01f64..0.9).prop_map(|b| b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partition is always a valid decomposition: total coverage,
    /// connected pieces, exact intra-cluster distances (Lemma 4.1), sane
    /// parents — on *any* graph, β, and seed.
    #[test]
    fn partition_always_valid(
        g in arb_graph(120, 400),
        beta in arb_beta(),
        seed in 0u64..1_000_000,
    ) {
        let d = partition(&g, &DecompOptions::new(beta).with_seed(seed));
        let r = verify_decomposition(&g, &d);
        prop_assert!(r.is_valid(), "{:?}", r.errors);
    }

    /// The top-down search on the default pool, the same search on a
    /// 1-thread pool, and Auto taking its rounds bottom-up (a huge
    /// `alpha`) are bit-identical under shared shifts, for every tie-break
    /// rule.
    #[test]
    fn parallel_equals_sequential(
        g in arb_graph(100, 300),
        beta in arb_beta(),
        seed in 0u64..1_000_000,
        tb in prop_oneof![
            Just(TieBreak::FractionalShift),
            Just(TieBreak::Permutation),
            Just(TieBreak::Lexicographic)
        ],
    ) {
        let opts = DecompOptions::new(beta).with_seed(seed).with_tie_break(tb);
        let shifts = ExpShifts::generate(g.num_vertices(), &opts);
        let run = |t: Traversal, alpha: u64| partition_view_with_shifts(&g, &shifts, t, alpha).0;
        let par = run(Traversal::TopDownPar, DEFAULT_ALPHA);
        let seq = Pool::new(1).install(|| run(Traversal::TopDownPar, DEFAULT_ALPHA));
        let bottom_up = run(Traversal::Auto, 1_000_000);
        prop_assert_eq!(&par, &seq);
        prop_assert_eq!(&par, &bottom_up);
    }

    /// Radius never exceeds δ_max + 1 (the paper's Section 4 argument:
    /// dist(u, v) ≤ δ_u for v ∈ S_u).
    #[test]
    fn radius_bounded_by_max_shift(
        g in arb_graph(100, 300),
        beta in arb_beta(),
        seed in 0u64..1_000_000,
    ) {
        let opts = DecompOptions::new(beta).with_seed(seed);
        let shifts = ExpShifts::generate(g.num_vertices(), &opts);
        let (d, _) = partition_view_with_shifts(&g, &shifts, Traversal::TopDownPar, DEFAULT_ALPHA);
        prop_assert!((d.max_radius() as f64) <= shifts.delta_max + 1.0);
    }

    /// Clusters never span connected components, and every component is
    /// covered by clusters of its own vertices.
    #[test]
    fn clusters_respect_components(
        g in arb_graph(80, 160),
        seed in 0u64..1_000_000,
    ) {
        let d = partition(&g, &DecompOptions::new(0.2).with_seed(seed));
        let (comp, _) = algo::connected_components(&g);
        for v in 0..g.num_vertices() as Vertex {
            prop_assert_eq!(
                comp[v as usize],
                comp[d.center_of(v) as usize],
                "vertex {} assigned across components", v
            );
        }
    }

    /// The recorded distances are exactly the BFS distances from the
    /// center within the whole graph (not just within the cluster) —
    /// the stronger form of Lemma 4.1.
    #[test]
    fn distances_are_globally_shortest(
        g in arb_graph(60, 150),
        seed in 0u64..1_000_000,
    ) {
        let d = partition(&g, &DecompOptions::new(0.15).with_seed(seed));
        for &c in d.centers() {
            let dist = algo::bfs(&g, c);
            for v in 0..g.num_vertices() as Vertex {
                if d.center_of(v) == c {
                    prop_assert_eq!(d.dist_to_center(v), dist[v as usize]);
                }
            }
        }
    }

    /// The spanner always stays a subgraph and preserves connectivity.
    #[test]
    fn spanner_subgraph_connectivity(
        g in arb_graph(80, 240),
        seed in 0u64..1_000,
    ) {
        let s = mpx::apps::spanner(&g, 0.3, seed);
        let sg = s.as_graph(g.num_vertices());
        for &(u, v) in &s.edges {
            prop_assert!(g.has_edge(u, v));
        }
        prop_assert_eq!(algo::num_components(&sg), algo::num_components(&g));
    }

    /// The low-stretch forest spans every component, acyclically.
    #[test]
    fn lsst_is_spanning_forest(
        g in arb_graph(80, 240),
        seed in 0u64..1_000,
    ) {
        let forest = mpx::apps::low_stretch_tree(&g, 0.25, seed);
        let mut uf = algo::UnionFind::new(g.num_vertices());
        for &(u, v) in &forest {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(uf.union(u, v), "cycle at ({},{})", u, v);
        }
        prop_assert_eq!(uf.num_sets(), algo::num_components(&g));
    }

    /// Determinism: same options ⇒ same output (across the whole stack).
    #[test]
    fn partition_deterministic(
        g in arb_graph(80, 200),
        beta in arb_beta(),
        seed in 0u64..1_000_000,
    ) {
        let opts = DecompOptions::new(beta).with_seed(seed);
        let top_down = opts.clone().with_traversal(Traversal::TopDownPar);
        prop_assert_eq!(partition(&g, &opts), partition(&g, &top_down));
    }
}
