//! Deterministic structured tracing for the BVC stack.
//!
//! Every layer of the system — the simplex solver, the Γ engine and its
//! caches, the three network executors, the session drivers, the scenario
//! runner, and the multi-shot service — emits typed [`TraceEvent`]s through
//! a thread-local scope ([`scope::emit`]).  When no scope is installed
//! (the default), emission is one thread-local read and a branch; the event
//! closure is never evaluated, so an untraced run pays nothing and its
//! verdict stream is byte-identical to a traced one.
//!
//! # Determinism contract
//!
//! Events carry only *logical* time: rounds, delivery steps, and the
//! per-slot sequence numbers scopes assign at emission.  [`JsonlTracer`]
//! sorts its buffer by `(slot, seq)` before serialization, so the same
//! scenario + seed yields a byte-identical `bvc-trace/v1` document — across
//! runs, and (for the service, which reorders per-instance chunks by
//! admission sequence) across worker counts.  Wall-clock measurements are
//! quarantined on the optional timing channel
//! ([`TraceHandle::record_timing`]), which is *not* covered by the
//! byte-identity contract.
//!
//! See `crates/bvc-trace/README.md` for the full event schema.
//!
//! The crate also holds what the workspace's binaries share around their
//! runs: [`run_traced`], behind their `--trace` flag, and [`cli`], the one
//! reader of their command lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod event;
pub mod json;
mod report;
pub mod scope;
pub mod tracer;

pub use event::{CacheLevel, GammaPath, GammaQueryKind, TraceEvent, SCHEMA};
pub use json::{check_trace, parse_flat, Json};
pub use report::report;
pub use scope::{current_handle, emit, emit_timing, install, is_active, ScopeGuard};
pub use tracer::{render_trace, run_traced, JsonlTracer, TimingEntry, TraceHandle, Tracer};
