//! # mpx-solver — SDD/Laplacian solver substrate
//!
//! The paper's headline motivation is parallel solvers for SDD linear
//! systems \[9, 11, 14\]: low-diameter decompositions beget low-stretch
//! spanning trees, which beget preconditioners. This crate implements the
//! downstream pipeline so the workspace can demonstrate the application
//! end to end:
//!
//! * [`Laplacian`] — the graph Laplacian `L = D − A` as a matrix-free
//!   operator over a weighted graph (parallel `apply`).
//! * [`pcg`] — preconditioned conjugate gradients on the Laplacian's range
//!   (the all-ones nullspace is projected out).
//! * [`precond`] — three preconditioners: identity (plain CG),
//!   [`precond::Jacobi`] (diagonal), and [`precond::TreeSolver`] — an exact
//!   `O(n)` solver for spanning-tree Laplacians by subtree-flow
//!   elimination, fed with the low-stretch trees from `mpx-apps`.
//! * [`problems`] — Poisson-style test systems on isotropic and
//!   anisotropic grids.
//!
//! `tree_pcg_beats_cg_and_jacobi_on_anisotropic_grid` (in [`cg`]) asserts
//! that tree-PCG with a low-stretch tree needs far fewer iterations than
//! plain CG and Jacobi-PCG on a badly conditioned grid.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cg;
pub mod laplacian;
pub mod precond;
pub mod problems;

pub use cg::{pcg, CgResult};
pub use laplacian::Laplacian;
pub use precond::{Identity, Jacobi, Preconditioner, TreeSolver};
