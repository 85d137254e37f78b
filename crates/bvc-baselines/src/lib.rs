//! Baseline algorithms for the BVC reproduction.
//!
//! The one baseline the paper measures itself against (argumentatively — the
//! paper has no system evaluation, so the experiments in this repository make
//! the comparison concrete): [`scalar_exact`] — per-dimension scalar Byzantine
//! consensus, the naive approach the introduction shows to violate vector
//! validity (experiment E8 reproduces the probability-vector counterexample
//! and measures the violation frequency on random workloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scalar_exact;

pub use scalar_exact::{
    per_dimension_decision, scalar_safe_interval, PerDimensionScalarProcess, ScalarPick,
};
