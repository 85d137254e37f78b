//! # bvc-service — a multi-shot consensus service over the BVC protocols
//!
//! Everything below `bvc-service` is one-shot: build a
//! [`BvcSession`](bvc_core::BvcSession), run it, read the report.  The
//! paper's protocols, however, are meant to be the core of a *replicated
//! service* that decides a stream of instances.  This crate is that service
//! layer: a [`BvcService`] multiplexes many consensus instances over one
//! persistent configuration — same process shape, same topology, same
//! long-lived shared Γ cache — and streams one JSONL verdict per instance
//! as it completes.
//!
//! ## Architecture
//!
//! ```text
//! ServiceConfig (template + per-instance overrides, validated up front)
//!      │  the complete instance list, before the first job starts
//!      ▼
//! pool::run_ordered (W threads claim the next index off one cursor)
//!      │  one BvcSession per instance; per-instance Γ cache chained to
//!      │  the service-lifetime SharedGammaCache (cross-instance reuse)
//!      ▼
//! sequence-numbered reorder buffer  ──►  VerdictSink (JSONL / memory)
//! ```
//!
//! The list a service schedules is complete before it runs, so there is no
//! admission wave, queue bound or work stealing: [`pool::run_ordered`] is
//! the whole scheduler, and `bvc-scenario`'s campaigns run on the same
//! function.  Verdict lines carry no timing, and the reorder buffer emits
//! them in admission order, so the stream is **byte-identical** for any
//! worker count — the determinism tests pin this.  Timing lives in
//! the aggregate [`ServiceStats`]: decisions/sec, p50/p99/max instance
//! latency, cache hit rates (including the *cross-instance* rate measured
//! by the shared parent cache), and per-worker utilization.
//!
//! ## Quickstart
//!
//! ```
//! use bvc_core::{InstanceOverrides, ProtocolKind, RunConfig};
//! use bvc_geometry::Point;
//! use bvc_service::{BvcService, MemorySink, ServiceConfig};
//!
//! let template = RunConfig::new(5, 1, 2).epsilon(0.1);
//! let instances = (0..8u64)
//!     .map(|seed| InstanceOverrides {
//!         seed,
//!         honest_inputs: Some(
//!             (0..4)
//!                 .map(|i| Point::uniform(2, (seed as f64 + i as f64) / 16.0))
//!                 .collect(),
//!         ),
//!         ..InstanceOverrides::default()
//!     })
//!     .collect();
//! let config = ServiceConfig::new(ProtocolKind::RestrictedSync, template)
//!     .instances(instances)
//!     .workers(2);
//! let mut sink = MemorySink::new();
//! let stats = BvcService::new(config).unwrap().run(&mut sink).unwrap();
//! assert_eq!(stats.instances, 8);
//! assert_eq!(sink.lines().len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod pool;
pub mod service;
pub mod sink;
pub mod stats;

pub use config::{CacheMode, ServiceConfig, ServiceError};
pub use service::BvcService;
pub use sink::{JsonlSink, MemorySink, VerdictSink};
pub use stats::{CacheStats, LatencyStats, QueueStats, ServiceStats, WorkerStats};
