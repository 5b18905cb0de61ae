//! Graph generators.
//!
//! Every workload used in the paper's Figure 1, the test suites and the CLI
//! comes from this module. All randomized generators are deterministic given
//! a `u64` seed so that every run is exactly reproducible.
//!
//! | family | functions |
//! |--------|-----------|
//! | meshes | [`grid2d`], [`grid3d`], [`torus2d`] |
//! | classics | [`path`], [`cycle`], [`star`], [`complete`], [`hypercube`] |
//! | random | [`gnm`], [`random_regular`], [`sbm`] |
//! | power-law | [`rmat`], [`barabasi_albert`] |
//! | small world | [`watts_strogatz`] |
//! | trees | [`random_tree`] |

mod classic;
mod grid;
mod powerlaw;
mod random;
mod sbm;
mod smallworld;
mod trees;

pub use classic::{complete, cycle, hypercube, path, star};
pub use grid::{grid2d, grid3d, torus2d};
pub use powerlaw::{barabasi_albert, rmat};
pub use random::{gnm, random_regular};
pub use sbm::{sbm, sbm_block};
pub use smallworld::watts_strogatz;
pub use trees::random_tree;
