//! Fast-mode invariant suite (`Determinism::Fast`).
//!
//! Fast trades BitExact's byte-identical-output contract for single-shot
//! CAS claiming and work-stealing scheduling; what it must keep is the
//! paper's `(β, O(log n / β))` guarantee. This suite sweeps graph
//! families × strategy tokens (plus Auto at an `alpha` that takes its
//! rounds bottom-up) × thread counts × seeds asserting, on every Fast run:
//!
//! 1. the full verifier passes (partition, strong diameter, Lemma 4.1);
//! 2. the canonical radius bound and the slackened `βm` cut bound hold
//!    ([`VerifyReport::radius_within_bound`] /
//!    [`VerifyReport::cut_within_fraction`]);
//! 3. quality statistics (cluster count, cut fraction) stay within
//!    tolerance of the BitExact output for the same shifts;
//!
//! and, alongside, that BitExact never takes the CAS path (zero CAS
//! successes and retries on every BitExact run of the sweep) and that its
//! output remains byte-identical across thread counts and unperturbed by
//! interleaved Fast runs on the same workspace (no scratch
//! cross-contamination) — pinned against pre-change label hashes.

use mpx::decomp::{
    verify_decomposition, DecompOptions, DecomposerBuilder, Determinism, PartitionTelemetry,
    Traversal, VerifyReport, Workspace, DEFAULT_ALPHA,
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
) -> (VerifyReport, PartitionTelemetry) {
    let mut session = DecomposerBuilder::new(BETA)
        .seed(seed)
        .traversal(strategy)
        .alpha(alpha)
        .determinism(determinism)
        .build(g)
        .unwrap();
    let (d, telemetry) = session.run_instrumented();
    if determinism == Determinism::BitExact {
        assert_eq!(
            (telemetry.cas_success, telemetry.cas_retries),
            (0, 0),
            "BitExact took the CAS path ({strategy:?}, seed {seed})"
        );
    }
    (verify_decomposition(g, &d), telemetry)
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
                    let ((exact, _), (fast, fast_telemetry)) = Pool::new(threads).install(|| {
                        (
                            run(&g, strategy, alpha, Determinism::BitExact, seed),
                            run(&g, strategy, alpha, Determinism::Fast, seed),
                        )
                    });
                    if alpha == BOTTOM_UP_ALPHA {
                        assert!(
                            fast_telemetry.bottom_up_rounds > 0,
                            "{ctx}: no bottom-up round"
                        );
                    }
                    assert!(fast.is_valid(), "{ctx}: {:?}", fast.errors);
                    assert!(
                        fast.radius_within_bound(n, BETA),
                        "{ctx}: radius {} over bound {}",
                        fast.max_radius,
                        VerifyReport::radius_bound(n, BETA)
                    );
                    assert!(
                        fast.cut_within_fraction(BETA, 4.0),
                        "{ctx}: cut fraction {} over 4β",
                        fast.cut_fraction
                    );
                    // Quality tolerance vs BitExact under the same shifts:
                    // Fast only re-breaks intra-round ties, so cluster
                    // counts and cut fractions stay close.
                    let dc = (fast.num_clusters as f64 - exact.num_clusters as f64).abs();
                    assert!(
                        dc <= 0.2 * exact.num_clusters as f64 + 16.0,
                        "{ctx}: clusters {} vs bitexact {}",
                        fast.num_clusters,
                        exact.num_clusters
                    );
                    // Both cut fractions are Θ(β) quantities (Fast's
                    // first-CAS-wins tie-break trades some of BitExact's
                    // fractional-ordering quality, still inside the 4β
                    // bound above), so the tolerance is additive in β.
                    let df = (fast.cut_fraction - exact.cut_fraction).abs();
                    assert!(
                        df <= 2.0 * BETA,
                        "{ctx}: cut fraction {} vs bitexact {}",
                        fast.cut_fraction,
                        exact.cut_fraction
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

/// Hammers one workspace with interleaved Fast/BitExact runs: the
/// BitExact outputs must stay byte-identical to a fresh session's (and to
/// the pins above) — Fast's unreset scratch must never leak into a
/// BitExact round.
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
