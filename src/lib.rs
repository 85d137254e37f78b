//! # bvc — Byzantine Vector Consensus in Complete Graphs
//!
//! A Rust reproduction of *"Byzantine Vector Consensus in Complete Graphs"*
//! by Nitin H. Vaidya and Vijay K. Garg (PODC 2013, arXiv:1302.2543).
//!
//! This facade crate re-exports the public API of the workspace crates so that
//! downstream users (and the examples and integration tests in this
//! repository) can depend on a single crate:
//!
//! * [`geometry`] — d-dimensional convex geometry: points, convex-hull
//!   membership, the safe area `Γ(Y)`, Tverberg partitions.
//! * [`lp`] — the two-phase simplex solver backing the geometric predicates.
//! * [`net`] — the simulated message-passing substrate (complete graph,
//!   reliable FIFO channels, synchronous and asynchronous executors).
//! * [`broadcast`] — Byzantine broadcast (EIG) and asynchronous reliable
//!   broadcast.
//! * [`adversary`] — Byzantine fault strategies used to stress the protocols.
//! * [`core`] — the paper's algorithms: Exact BVC (synchronous), Approximate
//!   BVC (asynchronous, AAD-style exchange), restricted-round variants, the
//!   impossibility constructions and the convergence bounds.
//! * [`scenario`] — the declarative scenario engine: TOML-described runs with
//!   fault injection (drops, latency, partitions), topology sweeps and a
//!   parallel campaign runner emitting JSON verdicts.
//! * [`service`] — the multi-shot consensus service: a validated instance
//!   list run on the workspace's one ordered worker pool, a shared
//!   cross-instance Γ cache, streaming verdict sinks and decisions/sec
//!   statistics.
//! * [`topology`] — directed communication topologies (complete / ring /
//!   torus / random-regular / explicit) with the graph conditions of
//!   iterative BVC in incomplete graphs.
//!
//! # Quickstart
//!
//! ```
//! use bvc::core::{BvcSession, ByzantineStrategy, ProtocolKind, RunConfig};
//! use bvc::geometry::Point;
//!
//! // 7 processes, 1 Byzantine fault, 3-dimensional inputs:
//! // n >= max(3f+1, (d+1)f+1) = 5 is required; we use 7 for slack.
//! let inputs = vec![
//!     Point::new(vec![1.0, 0.0, 0.0]),
//!     Point::new(vec![0.0, 1.0, 0.0]),
//!     Point::new(vec![0.0, 0.0, 1.0]),
//!     Point::new(vec![0.25, 0.25, 0.5]),
//!     Point::new(vec![0.5, 0.25, 0.25]),
//!     Point::new(vec![0.2, 0.2, 0.6]),
//! ];
//! let config = RunConfig::new(7, 1, 3)
//!     .honest_inputs(inputs)
//!     .adversary(ByzantineStrategy::FixedOutlier)
//!     .seed(42);
//! let report = BvcSession::new(ProtocolKind::Exact, config)
//!     .expect("parameters satisfy the resilience bound")
//!     .run();
//! assert!(report.verdict().agreement);
//! assert!(report.verdict().validity);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bvc_adversary as adversary;
pub use bvc_broadcast as broadcast;
pub use bvc_core as core;
pub use bvc_geometry as geometry;
pub use bvc_lp as lp;
pub use bvc_net as net;
pub use bvc_scenario as scenario;
pub use bvc_service as service;
pub use bvc_topology as topology;
pub use bvc_trace as trace;
