//! Engine matrix smoke tests: both [`Traversal`] strategies must be
//! **bit-identical** (a) to the one-shot `partition` call on full graphs
//! and (b) between a zero-copy `InducedView` and the materialized
//! `induced_subgraph` of the same mask — across graph families, seeds and
//! 1/2/4/8 worker threads. This is the contract that lets callers treat
//! the traversal strategy as a pure wall-clock knob and the views as free
//! of semantic cost. Auto with a huge `alpha` takes its rounds bottom-up,
//! which keeps bottom-up rounds over views in the sweep.

use mpx::decomp::{partition, DecompOptions, Traversal, Workspace};
use mpx::graph::{gen, CsrGraph, InducedView};
use mpx::runtime::Pool;

const STRATEGIES: [Traversal; 2] = [Traversal::Auto, Traversal::TopDownPar];

/// An `alpha` at which Auto takes every round with a nonempty top-down
/// side bottom-up.
const BOTTOM_UP_ALPHA: u64 = 1_000_000;

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("grid 28x28", gen::grid2d(28, 28)),
        ("gnm n=900 m=2700", gen::gnm(900, 2700, 7)),
        ("rmat scale=9", gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 6)),
        ("sbm n=600 k=4", gen::sbm(600, 4, 0.1, 0.005, 13)),
    ]
}

/// Deterministic pseudo-random mask keeping ~70% of the vertices.
fn mask(n: usize, seed: u64) -> Vec<bool> {
    (0..n as u64)
        .map(|v| {
            v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .rotate_left(23)
                % 10
                < 7
        })
        .collect()
}

#[test]
fn strategies_bit_identical_across_families_seeds_threads() {
    for (name, g) in families() {
        for seed in [3u64, 20130723] {
            let base_opts = DecompOptions::new(0.2).with_seed(seed);
            let baseline = partition(&g, &base_opts);
            for threads in [1usize, 2, 4, 8] {
                for strategy in STRATEGIES {
                    let opts = base_opts.clone().with_traversal(strategy);
                    let d = Pool::new(threads).install(|| partition(&g, &opts));
                    assert_eq!(
                        baseline.assignment(),
                        d.assignment(),
                        "{name}: {strategy:?} differs from baseline (seed {seed}, {threads} threads)"
                    );
                }
            }
        }
    }
}

#[test]
fn induced_view_bit_identical_to_materialized_subgraph() {
    for (name, g) in families() {
        for seed in [1u64, 9] {
            let keep = mask(g.num_vertices(), seed);
            let view = InducedView::from_mask(&g, &keep);
            let (sub, map) = g.induced_subgraph(&keep);
            assert_eq!(view.active(), map.as_slice(), "{name}: id spaces differ");
            for threads in [1usize, 2, 4, 8] {
                for strategy in STRATEGIES {
                    let opts = DecompOptions::new(0.25)
                        .with_seed(seed)
                        .with_traversal(strategy);
                    let (via_view, via_sub) = Pool::new(threads)
                        .install(|| (partition(&view, &opts), partition(&sub, &opts)));
                    assert_eq!(
                        via_view.assignment(),
                        via_sub.assignment(),
                        "{name}: view != materialized ({strategy:?}, seed {seed}, {threads} threads)"
                    );
                }
                let opts = DecompOptions::new(0.25)
                    .with_seed(seed)
                    .with_alpha(BOTTOM_UP_ALPHA);
                let ((via_view, t), via_sub) = Pool::new(threads).install(|| {
                    (
                        Workspace::new().partition_view(&view, &opts),
                        partition(&sub, &opts),
                    )
                });
                assert!(t.bottom_up_rounds > 0, "{name}: no bottom-up round");
                assert_eq!(
                    via_view.assignment(),
                    via_sub.assignment(),
                    "{name}: bottom-up view != materialized (seed {seed}, {threads} threads)"
                );
            }
        }
    }
}

#[test]
fn engine_telemetry_strategy_profiles_differ_but_outputs_agree() {
    // A dense low-diameter graph where Auto actually switches direction:
    // outputs equal, work profiles distinct — proof the strategies are real.
    let g = gen::gnm(2000, 30_000, 4);
    let opts = DecompOptions::new(0.5).with_seed(2);
    let mut ws = Workspace::new();
    let mut run = |o: DecompOptions| ws.partition_view(&g, &o);
    let (d_td, t_td) = run(opts.clone().with_traversal(Traversal::TopDownPar));
    let (d_auto, t_auto) = run(opts.clone());
    let (d_bu, t_bu) = run(opts.clone().with_alpha(BOTTOM_UP_ALPHA));
    assert_eq!(d_td, d_auto);
    assert_eq!(d_td, d_bu);
    assert_eq!(t_td.bottom_up_rounds, 0);
    assert!(t_auto.bottom_up_rounds > 0, "auto never switched");
    assert!(
        t_bu.bottom_up_rounds > t_auto.bottom_up_rounds,
        "a larger alpha must switch more rounds: {t_bu:?} vs {t_auto:?}"
    );
    assert_ne!(t_td.relaxations, t_auto.relaxations);
}
