//! # mpx-par — counter-based randomness for the MPX workspace
//!
//! The paper's shifts `δ_u ~ Exp(β)` are drawn "IN PARALLEL ... at each
//! vertex" (Algorithm 1 step 1), yet must be reproducible. [`rng`] gives
//! every index an independent 64-bit value `hash(seed, i)`, so random
//! quantities can be generated per vertex in any order, on any number of
//! threads, with identical results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod rng;
