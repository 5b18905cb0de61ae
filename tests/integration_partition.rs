//! Cross-crate integration tests of the partition routine: the one-shot
//! call, the retry session and the exact oracle, on every graph family,
//! checked by the full verifier.

use mpx::decomp::{
    partition, partition_exact, verify_decomposition, DecompOptions, DecomposerBuilder,
    RetryPolicy, TieBreak, Traversal, VerifyReport,
};
use mpx::graph::gen::{self, Workload};
use mpx::runtime::Pool;

#[test]
fn all_workloads_all_betas_valid() {
    let workloads = [
        Workload::Grid { side: 40 },
        Workload::Grid3d { side: 12 },
        Workload::Gnm {
            n: 2000,
            avg_deg: 6,
        },
        Workload::Rmat {
            scale: 11,
            edge_factor: 8,
        },
        Workload::Ba { n: 1500, m: 3 },
        Workload::Regular { n: 1600, d: 4 },
        Workload::SmallWorld { n: 1500, k: 3 },
        Workload::Path { n: 3000 },
    ];
    for w in workloads {
        let g = w.build(1);
        for beta in [0.02, 0.1, 0.3] {
            let d = partition(&g, &DecompOptions::new(beta).with_seed(7));
            let r = verify_decomposition(&g, &d);
            assert!(r.is_valid(), "{} β={beta}: {:?}", w.label(), r.errors);
        }
    }
}

#[test]
fn three_implementations_agree_end_to_end() {
    for seed in 0..5u64 {
        let g = gen::gnm(120, 400, seed);
        let opts = DecompOptions::new(0.15).with_seed(seed);
        let par = partition(&g, &opts.clone().with_traversal(Traversal::TopDownPar));
        let auto = partition(&g, &opts.clone().with_traversal(Traversal::Auto));
        let exact = partition_exact(&g, &opts);
        assert_eq!(par, auto);
        assert_eq!(par, exact);
    }
}

#[test]
fn thread_count_does_not_change_output() {
    let g = gen::rmat(12, 8 << 12, 0.57, 0.19, 0.19, 5);
    let opts = DecompOptions::new(0.1).with_seed(99);
    let one = Pool::new(1).install(|| partition(&g, &opts));
    let many = Pool::new(16).install(|| partition(&g, &opts));
    assert_eq!(one, many);
}

#[test]
fn retry_driver_delivers_theorem_1_2() {
    // Theorem 1.2's guarantee, machine-checked: after retries, both the cut
    // and radius bounds hold simultaneously.
    let g = gen::grid2d(60, 60);
    for beta in [0.05, 0.2] {
        let out = DecomposerBuilder::new(beta)
            .seed(1)
            .retry_policy(RetryPolicy::default())
            .build(&g)
            .unwrap()
            .run_with_retry();
        assert!(out.accepted, "β={beta} never accepted");
        let d = &out.decomposition;
        assert!(d.cut_edges(&g) as f64 <= out.cut_threshold);
        assert!((d.max_radius() as f64) <= out.radius_threshold);
        assert!(verify_decomposition(&g, d).is_valid());
    }
}

#[test]
fn tie_break_rules_valid_and_similar_quality() {
    let g = gen::grid2d(50, 50);
    let beta = 0.1;
    let mut cuts = Vec::new();
    for tb in [
        TieBreak::FractionalShift,
        TieBreak::Permutation,
        TieBreak::Lexicographic,
    ] {
        let mut acc = 0.0;
        for seed in 0..5u64 {
            let d = partition(
                &g,
                &DecompOptions::new(beta).with_seed(seed).with_tie_break(tb),
            );
            assert!(verify_decomposition(&g, &d).is_valid());
            acc += d.cut_fraction(&g);
        }
        cuts.push(acc / 5.0);
    }
    // Section 5: quality should be nearly identical across rules.
    let max = cuts.iter().cloned().fold(f64::MIN, f64::max);
    let min = cuts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.25 * max, "tie-break rules diverge: {cuts:?}");
}

#[test]
fn corollary_4_5_cut_fraction_scales_with_beta() {
    // E[cut] = O(β·m): the measured cut/β ratio should stay bounded across
    // two orders of magnitude of β.
    let g = gen::grid2d(80, 80);
    for beta in [0.01, 0.05, 0.2] {
        let mut acc = 0.0;
        let trials = 5;
        for seed in 0..trials {
            let d = partition(&g, &DecompOptions::new(beta).with_seed(seed));
            acc += d.cut_fraction(&g);
        }
        let ratio = acc / trials as f64 / beta;
        assert!(
            ratio < 1.5,
            "β={beta}: cut/β = {ratio}, violates Corollary 4.5 shape"
        );
    }
}

#[test]
fn lemma_4_2_radius_bound_whp() {
    // max radius ≤ δ_max ≤ 2·ln(n)/β with probability ≥ 1 − 1/n; over 20
    // runs on a 2500-vertex graph none should exceed it.
    let g = gen::grid2d(50, 50);
    let beta = 0.1;
    let bound = VerifyReport::whp_radius_bound(g.num_vertices(), beta);
    for seed in 0..20u64 {
        let d = partition(&g, &DecompOptions::new(beta).with_seed(seed * 17));
        assert!(
            (d.max_radius() as f64) <= bound,
            "seed {seed}: radius {} > {bound}",
            d.max_radius()
        );
    }
}
