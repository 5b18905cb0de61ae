//! API-equivalence contract of the `Decomposer` session front door: every
//! run through the builder is bit-identical to the one-shot `partition`
//! call — across both traversal strategies, across thread counts,
//! across `CsrGraph`, `MappedCsr` and `MappedCompressedCsr` sources, and
//! with `run_many` matching independent fresh runs seed for seed.

use mpx::compress::{write_compressed_snapshot, MappedCompressedCsr};
use mpx::graph::snapshot;
use mpx::prelude::*;
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mpx-decomposer-api-{}-{name}", std::process::id()));
    p
}

const STRATEGIES: [Traversal; 2] = [Traversal::Auto, Traversal::TopDownPar];

fn builder(beta: f64, seed: u64, strategy: Traversal) -> DecomposerBuilder {
    DecomposerBuilder::new(beta).seed(seed).traversal(strategy)
}

/// The one-shot call under `strategy`.
fn legacy<V: GraphView>(g: &V, opts: &DecompOptions, strategy: Traversal) -> Decomposition {
    partition(g, &opts.clone().with_traversal(strategy))
}

#[test]
fn session_matches_legacy_functions_across_families_strategies_and_threads() {
    for (g, beta, seed) in [
        (mpx::graph::gen::grid2d(30, 30), 0.15, 1u64),
        (mpx::graph::gen::gnm(900, 5400, 2), 0.3, 2),
        (
            mpx::graph::gen::rmat(9, 6 << 9, 0.57, 0.19, 0.19, 3),
            0.25,
            3,
        ),
        (mpx::graph::gen::path(700), 0.2, 4),
    ] {
        let opts = DecompOptions::new(beta).with_seed(seed);
        for strategy in STRATEGIES {
            let want = legacy(&g, &opts, strategy);
            for threads in [1usize, 4] {
                let got = mpx::runtime::Pool::new(threads)
                    .install(|| builder(beta, seed, strategy).build(&g).unwrap().run());
                assert_eq!(got, want, "strategy {strategy:?} threads {threads}");
            }
        }
    }
}

/// Sessions over a `CsrGraph` and over its mapped snapshot agree, and the
/// one-shot call over the mapped v1 snapshot and over a mapped compressed
/// v2 snapshot of the same graph equals the session run.
#[test]
fn session_labels_identical_between_csr_and_mapped_snapshot() {
    let g = mpx::graph::gen::gnm(2000, 9000, 7);
    let path = tmp("csr-vs-mmap.mpx");
    let path2 = tmp("csr-vs-mmap.v2.mpx");
    snapshot::write_snapshot(&g, &path).unwrap();
    write_compressed_snapshot(&g, None, &path2).unwrap();
    let mapped = mpx::graph::MappedCsr::open(&path).unwrap();
    let compressed = MappedCompressedCsr::open(&path2).unwrap();
    let seeds: Vec<u64> = (0..4).collect();
    for strategy in STRATEGIES {
        let b = builder(0.3, 0, strategy);
        let via_csr = b.build(&g).unwrap().run_many(&seeds);
        let via_map = b.build(&mapped).unwrap().run_many(&seeds);
        assert_eq!(via_csr, via_map, "strategy {strategy:?}");
        for (&seed, session) in seeds.iter().zip(&via_csr) {
            let opts = DecompOptions::new(0.3).with_seed(seed);
            assert_eq!(
                &legacy(&mapped, &opts, strategy),
                session,
                "one-shot over MappedCsr, strategy {strategy:?} seed {seed}"
            );
            assert_eq!(
                &legacy(&compressed, &opts, strategy),
                session,
                "one-shot over MappedCompressedCsr, strategy {strategy:?} seed {seed}"
            );
        }
    }
    std::fs::remove_file(path).ok();
    std::fs::remove_file(path2).ok();
}

#[test]
fn retry_session_works_over_a_mapped_snapshot() {
    let g = mpx::graph::gen::grid2d(40, 40);
    let path = tmp("retry.mpx");
    snapshot::write_snapshot(&g, &path).unwrap();
    let mapped = mpx::graph::MappedCsr::open(&path).unwrap();
    let b = DecomposerBuilder::new(0.1)
        .seed(5)
        .retry_policy(RetryPolicy::default());
    let on_graph = b.build(&g).unwrap().run_with_retry();
    let on_map = b.build(&mapped).unwrap().run_with_retry();
    assert_eq!(on_graph.decomposition, on_map.decomposition);
    assert_eq!(on_graph.attempts, on_map.attempts);
    assert_eq!(on_graph.accepted, on_map.accepted);
    std::fs::remove_file(path).ok();
}

/// Strategy: an arbitrary simple graph with up to `max_n` vertices and
/// `max_m` random edge records (dedup'd by the builder).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary graphs, the session output equals the one-shot call
    /// and the O(nm) Algorithm 2 oracle, for every traversal strategy.
    #[test]
    fn session_equals_all_legacy_paths_on_arbitrary_graphs(
        g in arb_graph(90, 260),
        beta in 0.02f64..0.9,
        seed in 0u64..1_000_000,
    ) {
        let opts = DecompOptions::new(beta).with_seed(seed);
        let exact = partition_exact(&g, &opts);
        for strategy in STRATEGIES {
            let mut session = builder(beta, seed, strategy).build(&g).unwrap();
            let got = session.run();
            prop_assert_eq!(&got, &legacy(&g, &opts, strategy), "legacy {:?}", strategy);
            prop_assert_eq!(&got, &exact, "exact {:?}", strategy);
        }
    }

    /// `run_many` over k seeds is exactly k independent fresh runs.
    #[test]
    fn run_many_matches_fresh_runs(
        g in arb_graph(120, 400),
        beta in 0.05f64..0.7,
        base_seed in 0u64..1_000_000,
    ) {
        let seeds: Vec<u64> = (0..9).map(|i| base_seed.wrapping_add(i)).collect();
        let mut session = builder(beta, base_seed, Traversal::Auto).build(&g).unwrap();
        let batch = session.run_many(&seeds);
        for (i, &s) in seeds.iter().enumerate() {
            let fresh = builder(beta, s, Traversal::Auto).build(&g).unwrap().run();
            prop_assert_eq!(&batch[i], &fresh, "seed {}", s);
        }
    }
}
