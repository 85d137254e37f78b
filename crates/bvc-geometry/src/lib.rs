//! d-dimensional convex geometry for Byzantine vector consensus.
//!
//! This crate provides the geometric machinery that the algorithms of
//! *"Byzantine Vector Consensus in Complete Graphs"* (Vaidya & Garg, PODC
//! 2013) are built on:
//!
//! * [`Point`] / [`PointMultiset`] — points of `R^d` and multisets of them
//!   (the paper's inputs and process states).
//! * [`ConvexHull`] — implicit hulls with LP-based membership tests and a
//!   common-point query across several hulls.
//! * [`gamma_point`], [`gamma_contains`] and the other `gamma_*` functions —
//!   the operator `Γ(Y) = ∩_{T ⊆ Y, |T| = |Y| − f} H(T)` of equation (1), the
//!   heart of both the exact and approximate algorithms, asked directly with
//!   `(Y, f)`; [`GammaCache`] memoises the point query.
//! * [`ValidityPredicate`] and the `relaxed_*` helpers — the relaxed
//!   validity conditions of Xiang & Vaidya (arXiv:1601.08067): membership in
//!   the `(1+α)`-dilated honest hull, or of every `k`-coordinate projection
//!   in the projected hull, plus the matching relaxed safe-area queries.
//! * [`tverberg`] — Tverberg partitions and points (Theorem 2, Figure 1).
//! * [`WorkloadGenerator`] — reproducible random input workloads
//!   (probability vectors, robot positions, box-bounded inputs).
//! * [`tolerance`] — every tolerance the `f64` path compares under, each with
//!   the inequality it guards and its place relative to the solver's.
//!
//! # Example
//!
//! Compute a safe-area point of five planar inputs tolerating one fault:
//!
//! ```
//! use bvc_geometry::{gamma_point, Point, PointMultiset};
//!
//! let inputs = PointMultiset::new(vec![
//!     Point::new(vec![0.0, 0.0]),
//!     Point::new(vec![4.0, 0.0]),
//!     Point::new(vec![0.0, 4.0]),
//!     Point::new(vec![4.0, 4.0]),
//!     Point::new(vec![2.0, 2.0]),
//! ]);
//! let decision = gamma_point(&inputs, 1).expect("|Y| >= (d+1)f+1, so Γ is non-empty");
//! assert_eq!(decision.dim(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod combinatorics;
mod depth;
mod family;
pub mod gamma;
pub mod hull;
pub mod multiset;
mod planar;
pub mod point;
pub mod relaxed;
pub mod tolerance;
pub mod tverberg;
pub mod workload;

pub use cache::{GammaCache, SharedGammaCache};
pub use gamma::{
    gamma_contains, gamma_is_empty, gamma_point, gamma_point_attributed, gamma_point_of,
    gamma_workers, leave_one_out_intersection, CanonicalEntries, GammaAttribution, SubsetView,
};
pub use hull::ConvexHull;
pub use multiset::PointMultiset;
pub use point::{canonical_cmp, Point, DEFAULT_TOLERANCE};
pub use relaxed::{decision_point, dilate_about_centroid, k_relaxed_point, ValidityPredicate};
pub use tverberg::{
    common_point_of_partition, find_radon_partition, find_tverberg_partition, tverberg_threshold,
    TverbergPartition,
};
pub use workload::WorkloadGenerator;
