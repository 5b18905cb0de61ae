//! Determinism-mode suite (`Determinism::Fast` against `BitExact`).
//!
//! Both modes run the engine's claim/settle protocol; Fast only moves its
//! parallel regions onto the work-stealing scheduler. This suite sweeps
//! graph families × strategy tokens (plus Auto at an `alpha` that takes
//! its rounds bottom-up) × thread counts × seeds asserting, on every run:
//!
//! 1. Fast's `Decomposition` and `PartitionTelemetry` equal BitExact's;
//! 2. the full verifier passes (partition, strong diameter, Lemma 4.1);
//! 3. the canonical radius bound and the slackened `βm` cut bound hold
//!    ([`VerifyReport::radius_within_bound`] /
//!    [`VerifyReport::cut_within_fraction`]);
//!
//! and, alongside, that BitExact output remains byte-identical across
//! thread counts and unperturbed by interleaved Fast runs on the same
//! workspace (no scratch cross-contamination) — pinned against
//! pre-change label hashes.

use mpx::decomp::{
    partition, verify_decomposition, DecompOptions, DecomposerBuilder, Decomposition, Determinism,
    PartitionTelemetry, Traversal, VerifyReport, Workspace, DEFAULT_ALPHA,
};
use mpx::graph::{gen, CsrGraph};
use mpx::runtime::Pool;

/// Every CLI strategy token (hybrid and topdown are aliases of auto and
/// parallel — kept distinct here so the token surface itself is
/// exercised), each with the default `alpha`; then `auto` at an `alpha`
/// so large that every round with a nonempty top-down side goes
/// bottom-up, which keeps bottom-up rounds in the sweep.
const STRATEGY_TOKENS: [(&str, u64); 5] = [
    ("auto", DEFAULT_ALPHA),
    ("parallel", DEFAULT_ALPHA),
    ("hybrid", DEFAULT_ALPHA),
    ("topdown", DEFAULT_ALPHA),
    ("auto", BOTTOM_UP_ALPHA),
];
const BOTTOM_UP_ALPHA: u64 = 1_000_000;
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const SEEDS: [u64; 2] = [3, 11];
const BETA: f64 = 0.15;

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("grid", gen::grid2d(40, 40)),
        ("rmat", gen::rmat(10, 6 << 10, 0.57, 0.19, 0.19, 5)),
        ("gnm", gen::gnm(1500, 6000, 7)),
        ("ws", gen::watts_strogatz(1200, 3, 0.1, 9)),
    ]
}

fn run(
    g: &CsrGraph,
    strategy: Traversal,
    alpha: u64,
    determinism: Determinism,
    seed: u64,
) -> (Decomposition, PartitionTelemetry) {
    DecomposerBuilder::new(BETA)
        .seed(seed)
        .traversal(strategy)
        .alpha(alpha)
        .determinism(determinism)
        .build(g)
        .unwrap()
        .run_instrumented()
}

#[test]
fn fast_runs_hold_invariants_across_families_strategies_threads() {
    for (name, g) in families() {
        let n = g.num_vertices();
        for (token, alpha) in STRATEGY_TOKENS {
            let strategy: Traversal = token.parse().unwrap();
            for threads in THREAD_COUNTS {
                for seed in SEEDS {
                    let ctx = format!(
                        "{name} --strategy {token} alpha {alpha} --threads {threads} seed {seed}"
                    );
                    let (exact, fast) = Pool::new(threads).install(|| {
                        (
                            run(&g, strategy, alpha, Determinism::BitExact, seed),
                            run(&g, strategy, alpha, Determinism::Fast, seed),
                        )
                    });
                    assert_eq!(fast, exact, "{ctx}: fast differs from bitexact");
                    let (d, telemetry) = fast;
                    if alpha == BOTTOM_UP_ALPHA {
                        assert!(telemetry.bottom_up_rounds > 0, "{ctx}: no bottom-up round");
                    }
                    let report = verify_decomposition(&g, &d);
                    assert!(report.is_valid(), "{ctx}: {:?}", report.errors);
                    assert!(
                        report.radius_within_bound(n, BETA),
                        "{ctx}: radius {} over bound {}",
                        report.max_radius,
                        VerifyReport::radius_bound(n, BETA)
                    );
                    assert!(
                        report.cut_within_fraction(BETA, 4.0),
                        "{ctx}: cut fraction {} over 4β",
                        report.cut_fraction
                    );
                }
            }
        }
    }
}

/// FNV-1a over the label array: a stable fingerprint for byte-identity
/// pins that avoids embedding thousands of labels in the source.
fn label_hash(labels: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in labels {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The BitExact protocol is untouched by the Fast path: grid2d(30,30) at
/// β=0.15 must keep producing these exact label sets (hashes pinned from
/// the pre-Fast engine).
#[test]
fn bitexact_labels_match_pinned_hashes_across_thread_counts() {
    let g = gen::grid2d(30, 30);
    let expected: [(u64, u64); 3] = [(1, PIN_SEED_1), (2, PIN_SEED_2), (3, PIN_SEED_3)];
    for threads in THREAD_COUNTS {
        Pool::new(threads).install(|| {
            let mut session = DecomposerBuilder::new(BETA).build(&g).unwrap();
            for (seed, pin) in expected {
                let d = session.run_with_seed(seed);
                let h = label_hash((0..g.num_vertices()).map(|v| d.center_of(v as u32)));
                assert_eq!(h, pin, "seed {seed} at {threads} threads drifted");
            }
        });
    }
}

const PIN_SEED_1: u64 = 2265413317203918694;
const PIN_SEED_2: u64 = 18224854147524983632;
const PIN_SEED_3: u64 = 17970877362129580436;

/// Hammers one workspace with interleaved Fast/BitExact runs: every
/// output must stay byte-identical to a fresh BitExact run's (and the
/// BitExact outputs to the pins above) — no run may leak scratch state
/// into the next.
#[test]
fn interleaved_fast_runs_do_not_perturb_bitexact_outputs() {
    let g = gen::grid2d(30, 30);
    let mut baseline = DecomposerBuilder::new(BETA).build(&g).unwrap();
    let pins: Vec<_> = (1..=3u64).map(|s| baseline.run_with_seed(s)).collect();

    for threads in THREAD_COUNTS {
        Pool::new(threads).install(|| {
            let mut ws = Workspace::new();
            let bitexact = DecompOptions::new(BETA);
            let fast = bitexact.clone().with_determinism(Determinism::Fast);
            for round in 0..4u64 {
                for (i, seed) in (1..=3u64).enumerate() {
                    // Fast runs with rotating seeds dirty the scratch.
                    let fast_seed = 100 + round * 3 + seed;
                    let (d, _) = ws.partition_view(&g, &fast.clone().with_seed(fast_seed));
                    assert!(verify_decomposition(&g, &d).is_valid());
                    assert_eq!(
                        d,
                        partition(&g, &bitexact.clone().with_seed(fast_seed)),
                        "fast seed {fast_seed} differs from bitexact at {threads} threads"
                    );
                    let (d, _) = ws.partition_view(&g, &bitexact.clone().with_seed(seed));
                    assert_eq!(
                        d, pins[i],
                        "bitexact seed {seed} perturbed at {threads} threads (round {round})"
                    );
                }
            }
        });
    }
}
