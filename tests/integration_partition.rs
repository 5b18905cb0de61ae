//! Cross-crate integration tests of the partition routine: the one-shot
//! call, the retry session and the exact oracle, on every graph family,
//! checked by the full verifier.

use mpx::decomp::{
    partition, partition_exact, verify_decomposition, DecompOptions, DecomposerBuilder,
    RetryPolicy, ShiftStrategy, TieBreak, Traversal, VerifyReport,
};
use mpx::graph::gen;
use mpx::runtime::Pool;

#[test]
fn all_workloads_all_betas_valid() {
    // Theorem 1.2 on every family: a valid partition whose radius stays
    // within O(log n / β) and whose cut stays at most β·m, at each β.
    let workloads = [
        ("grid-40x40", gen::grid2d(40, 40)),
        ("grid3d-12^3", gen::grid3d(12, 12, 12)),
        ("gnm-n2000-d6", gen::gnm(2000, 2000 * 6 / 2, 1)),
        ("rmat-s11-ef8", gen::rmat(11, 8 << 11, 0.57, 0.19, 0.19, 1)),
        ("ba-n1500-m3", gen::barabasi_albert(1500, 3, 1)),
        ("reg-n1600-d4", gen::random_regular(1600, 4, 1)),
        ("ws-n1500-k3", gen::watts_strogatz(1500, 3, 0.1, 1)),
        ("path-3000", gen::path(3000)),
    ];
    for (label, g) in &workloads {
        let n = g.num_vertices();
        for beta in [0.02, 0.1, 0.3] {
            let d = partition(g, &DecompOptions::new(beta).with_seed(7));
            let r = verify_decomposition(g, &d);
            assert!(r.is_valid(), "{label} β={beta}: {:?}", r.errors);
            assert!(
                r.radius_within_bound(n, beta),
                "{label} β={beta}: radius {} > {}",
                r.max_radius,
                VerifyReport::radius_bound(n, beta)
            );
            assert!(
                r.cut_within_fraction(beta, 1.0),
                "{label} β={beta}: cut fraction {}",
                r.cut_fraction
            );
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
    let base = DecompOptions::new(beta);
    // The three tie-breaks of the sampled shifts, then the order-statistic
    // shifts under the default tie-break.
    let variants = [
        base.clone().with_tie_break(TieBreak::FractionalShift),
        base.clone().with_tie_break(TieBreak::Permutation),
        base.clone().with_tie_break(TieBreak::Lexicographic),
        base.with_shift_strategy(ShiftStrategy::OrderStatisticPermutation),
    ];
    let mut cuts = Vec::new();
    for opts in variants {
        let mut acc = 0.0;
        for seed in 0..5u64 {
            let d = partition(&g, &opts.clone().with_seed(seed));
            assert!(verify_decomposition(&g, &d).is_valid());
            acc += d.cut_fraction(&g);
        }
        cuts.push(acc / 5.0);
    }
    // Section 5: quality should be nearly identical across rules, and the
    // expected order statistics should change it only marginally.
    let max = cuts.iter().cloned().fold(f64::MIN, f64::max);
    let min = cuts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.25 * max, "tie-break rules diverge: {cuts:?}");
}

#[test]
fn corollary_4_5_cut_fraction_scales_with_beta() {
    // E[cut] = O(β·m): the measured cut/β ratio should stay bounded across
    // two orders of magnitude of β. Figure 1's caption: lower β gives
    // larger pieces and fewer cut edges, so as β rises the mean cut must
    // rise and the mean max radius fall.
    let g = gen::grid2d(80, 80);
    let trials = 5;
    let mut means = Vec::new();
    for beta in [0.01, 0.05, 0.2] {
        let (mut cut, mut radius) = (0.0, 0.0);
        for seed in 0..trials {
            let d = partition(&g, &DecompOptions::new(beta).with_seed(seed));
            cut += d.cut_fraction(&g);
            radius += d.max_radius() as f64;
        }
        let (cut, radius) = (cut / trials as f64, radius / trials as f64);
        let ratio = cut / beta;
        assert!(
            ratio < 1.5,
            "β={beta}: cut/β = {ratio}, violates Corollary 4.5 shape"
        );
        means.push((beta, cut, radius));
    }
    for w in means.windows(2) {
        let ((b0, cut0, r0), (b1, cut1, r1)) = (w[0], w[1]);
        assert!(cut0 < cut1, "mean cut β={b0}: {cut0} vs β={b1}: {cut1}");
        assert!(r0 > r1, "mean max radius β={b0}: {r0} vs β={b1}: {r1}");
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
