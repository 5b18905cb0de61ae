//! Smoke test for the determinism contract: both traversal strategies
//! (parallel top-down and hybrid direction-optimizing) and the
//! exact reference must produce **identical** assignments for the same
//! options — on a grid and on a GNM graph, across several seeds — and the
//! parallel strategy must additionally be **bit-identical across thread
//! counts** (1/2/4/8) on every tested graph family, now that the
//! `mpx-runtime` engine makes parallelism real. This is the invariant
//! every later performance PR must preserve.

use mpx::decomp::{partition, partition_exact, verify_decomposition, DecompOptions, Traversal};
use mpx::graph::{gen, CsrGraph};
use mpx::runtime::Pool;

fn assert_all_variants_identical(g: &CsrGraph, name: &str) {
    for seed in [1u64, 42, 20130723] {
        for beta in [0.1, 0.25] {
            let opts = DecompOptions::new(beta).with_seed(seed);
            let exact = partition_exact(g, &opts);
            for strategy in [Traversal::TopDownPar, Traversal::Auto] {
                let d = partition(g, &opts.clone().with_traversal(strategy));
                assert_eq!(
                    d.assignment(),
                    exact.assignment(),
                    "{name}: {strategy:?} != exact (seed {seed}, beta {beta})"
                );
            }

            let report = verify_decomposition(g, &exact);
            assert!(
                report.is_valid(),
                "{name}: invalid decomposition (seed {seed}, beta {beta}): {:?}",
                report.errors
            );
        }
    }
}

#[test]
fn all_variants_identical_on_grid() {
    let g = gen::grid2d(40, 40);
    assert_all_variants_identical(&g, "grid 40x40");
}

#[test]
fn all_variants_identical_on_gnm() {
    let g = gen::gnm(1200, 3600, 7);
    assert_all_variants_identical(&g, "gnm n=1200 m=3600");
}

/// Thread-sweep determinism: partition labels must be bit-identical under
/// 1, 2, 4 and 8 worker threads. The claim keys make the *values*
/// schedule-independent and the runtime's fixed chunk layout makes every
/// collect/reduce order thread-independent; this test pins both.
fn assert_thread_sweep_identical(g: &CsrGraph, name: &str) {
    for seed in [3u64, 20130723] {
        let opts = DecompOptions::new(0.2)
            .with_seed(seed)
            .with_traversal(Traversal::TopDownPar);
        let baseline = Pool::new(1).install(|| partition(g, &opts));
        let report = verify_decomposition(g, &baseline);
        assert!(
            report.is_valid(),
            "{name}: invalid decomposition (seed {seed}): {:?}",
            report.errors
        );
        for threads in [2usize, 4, 8] {
            let other = Pool::new(threads).install(|| partition(g, &opts));
            assert_eq!(
                baseline.assignment(),
                other.assignment(),
                "{name}: labels differ between 1 and {threads} threads (seed {seed})"
            );
        }
    }
}

#[test]
fn thread_sweep_identical_on_grid() {
    let g = gen::grid2d(32, 32);
    assert_thread_sweep_identical(&g, "grid 32x32");
}

#[test]
fn thread_sweep_identical_on_gnm() {
    let g = gen::gnm(900, 2700, 11);
    assert_thread_sweep_identical(&g, "gnm n=900 m=2700");
}

#[test]
fn thread_sweep_identical_on_rmat() {
    let g = gen::rmat(9, 4 << 9, 0.57, 0.19, 0.19, 6);
    assert_thread_sweep_identical(&g, "rmat scale=9");
}

#[test]
fn thread_sweep_identical_on_sbm() {
    let g = gen::sbm(800, 4, 0.1, 0.005, 13);
    assert_thread_sweep_identical(&g, "sbm n=800 k=4");
}
