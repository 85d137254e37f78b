//! Byzantine vector consensus in complete graphs — the algorithms of
//! Vaidya & Garg (PODC 2013).
//!
//! The input of each of `n` processes is a `d`-dimensional vector of reals; up
//! to `f` processes are Byzantine.  The decision of every non-faulty process
//! must lie in the convex hull of the non-faulty inputs (validity) and the
//! decisions must agree (exactly, or within ε per coordinate).  This crate
//! implements the paper's four algorithms with their tight resilience bounds
//! (the rows of [`ProtocolKind::min_processes`], the one table):
//!
//! | algorithm | module | bound |
//! |-----------|--------|-------|
//! | Exact BVC, synchronous | [`exact`] | `n ≥ max(3f+1, (d+1)f+1)` |
//! | Approximate BVC, asynchronous (AAD exchange) | [`approx`] + [`aad`] | `n ≥ (d+2)f+1` |
//! | Restricted-round, synchronous | [`restricted`] | `n ≥ (d+2)f+1` |
//! | Restricted-round, asynchronous | [`restricted`] | `n ≥ (d+4)f+1` |
//!
//! Beyond the paper's complete graph, [`iterative`] runs Vaidya's iterative
//! protocol on arbitrary topologies and [`directed`] runs exact consensus on
//! arbitrary directed graphs under point-to-point (arXiv:1208.5075) or
//! local-broadcast (arXiv:1911.07298) delivery; both are governed by the
//! graph conditions of `bvc-topology` rather than a closed-form bound.
//!
//! The necessity halves of the bounds are materialised as executable
//! constructions in [`lower_bounds`]; the convergence formulas (the
//! contraction factor `γ` and the round budget) live in [`convergence`]; the
//! round the iterative algorithms share (collect, Step 2, stop at the
//! budget) is written once in [`rounds`]; the session API that wires
//! protocols, network executors and adversaries together and scores the
//! outcome is in [`run`]: one [`RunConfig`], one [`BvcSession`] whose `run`
//! is the single dispatch point over the seven [`ProtocolKind`]s, one
//! [`RunReport`].
//!
//! # Example
//!
//! ```
//! use bvc_core::{BvcSession, ByzantineStrategy, ProtocolKind, RunConfig};
//! use bvc_geometry::Point;
//!
//! // d = 2, f = 1 ⇒ n ≥ max(3f+1, (d+1)f+1) = 4; use n = 5.
//! let config = RunConfig::new(5, 1, 2)
//!     .honest_inputs(vec![
//!         Point::new(vec![0.0, 0.0]),
//!         Point::new(vec![1.0, 0.0]),
//!         Point::new(vec![0.0, 1.0]),
//!         Point::new(vec![1.0, 1.0]),
//!     ])
//!     .adversary(ByzantineStrategy::Equivocate)
//!     .seed(42);
//! let report = BvcSession::new(ProtocolKind::Exact, config)
//!     .expect("parameters satisfy the resilience bound")
//!     .run();
//! assert!(report.verdict().agreement);
//! assert!(report.verdict().validity);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aad;
pub mod approx;
pub mod config;
pub mod convergence;
pub mod directed;
pub mod exact;
pub mod iterative;
pub mod lower_bounds;
pub mod restricted;
pub mod rounds;
pub mod run;
pub mod validity;
pub mod witness;

pub use aad::{AadExchange, AadMsg, CompletedExchange};
pub use approx::{ApproxBvcProcess, ApproxOutput, UpdateRule};
pub use bvc_adversary::{ByzantineStrategy, PointForge};
pub use bvc_net::{FaultError, FaultEvent, FaultKind, FaultPlan, LinkSelector};
pub use bvc_topology::{Sufficiency, Topology};
pub use config::{BvcConfig, BvcError, MAX_INPUT_MAGNITUDE};
pub use convergence::{
    gamma, gamma_iterative, gamma_witness_optimized, guaranteed_range, round_threshold,
};
pub use directed::{DirectedExactProcess, DirectedMsg};
pub use exact::{ExactBvcProcess, ExactMsg};
pub use iterative::iterative_round_budget;
pub use lower_bounds::{
    theorem1_control_inputs, theorem1_evidence, theorem1_inputs, theorem4_evidence,
    theorem4_inputs, Theorem1Evidence, Theorem4Evidence,
};
pub use restricted::{restricted_round_budget, RestrictedAsyncProcess, StateMsg};
pub use rounds::{IterateCore, StateExchangeProcess};
pub use run::{
    BroadcastModel, BvcSession, InstanceOverrides, ProtocolKind, RunConfig, RunReport, Verdict,
};
pub use validity::{admission_floor, ValidityCheck, ValidityMode};
pub use witness::{average_state, build_zi_full_cached, build_zi_witness_cached};
