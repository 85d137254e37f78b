//! Simulated message-passing substrate for Byzantine vector consensus.
//!
//! The paper's model (Section 1): `n` processes on a **complete graph** with
//! **reliable FIFO channels**, in either a synchronous or an asynchronous
//! timing model.  This crate provides that substrate three ways:
//!
//! * [`SyncNetwork`] — a lock-step synchronous round executor (Section 2's
//!   model).
//! * [`AsyncNetwork`] — a deterministic, seeded, adversarially scheduled
//!   event simulator (Section 3's model); the [`DeliveryPolicy`] controls the
//!   scheduling adversary.
//! * [`run_threaded`] — a thread-per-process runtime over `std::sync::mpsc`
//!   channels, used by the examples and the cross-executor integration tests.
//!
//! Every executor is adjacency-aware: the complete graph is the default, and
//! a declared [`Topology`] (from `bvc-topology`) restricts delivery to the
//! declared links — see [`SyncNetwork::with_topology`],
//! [`AsyncNetwork::with_topology`] and [`run_threaded_on`].  Messages
//! addressed across a missing link vanish silently (the channel does not
//! exist), which makes the fault layer's scripted `Partition` the degenerate
//! time-windowed case of a static incomplete topology.
//!
//! Scenario-style adversarial *network* conditions — message drops, per-link
//! latency, scripted partitions — can be layered over either simulated
//! executor with a [`FaultPlan`] (see [`faults`]).
//!
//! Every executor also supports the **local-broadcast** delivery model of
//! Khan, Tseng & Vaidya (arXiv:1911.07298): with
//! [`SyncNetwork::with_local_broadcast`],
//! [`AsyncNetwork::with_local_broadcast`] or [`run_threaded_with`], each
//! sender's per-step outgoing batch is canonicalised by
//! [`enforce_local_broadcast`] so all receivers observe the same payloads —
//! per-receiver Byzantine equivocation becomes structurally impossible.
//! Canonicalisation happens *before* per-link faults, so drop/latency/
//! partition plans still compose per link.
//!
//! Protocols are written once against the [`SyncProcess`] / [`AsyncProcess`]
//! traits and can run on any of the executors that match their timing model.
//!
//! # Example
//!
//! A two-process echo protocol on the asynchronous simulator:
//!
//! ```
//! use bvc_net::{AsyncNetwork, AsyncProcess, DeliveryPolicy, Outgoing, ProcessId};
//!
//! struct Echo { done: Option<u32> }
//! impl AsyncProcess for Echo {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn on_start(&mut self) -> Vec<Outgoing<u32>> {
//!         vec![Outgoing::new(ProcessId::new(1), 7)]
//!     }
//!     fn on_message(&mut self, _from: ProcessId, msg: u32) -> Vec<Outgoing<u32>> {
//!         self.done = Some(msg);
//!         Vec::new()
//!     }
//!     fn output(&self) -> Option<u32> { self.done }
//! }
//!
//! let processes: Vec<Box<dyn AsyncProcess<Msg = u32, Output = u32>>> =
//!     vec![Box::new(Echo { done: None }), Box::new(Echo { done: None })];
//! let outcome = AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, 1, 100).run(&[1]);
//! assert_eq!(outcome.outputs[1], Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asim;
pub mod faults;
pub mod process;
pub mod sync;
pub mod threaded;

pub use asim::{AsyncNetwork, AsyncOutcome, AsyncProcess, DeliveryPolicy};
pub use bvc_topology::Topology;
pub use faults::{FaultError, FaultEvent, FaultKind, FaultPlan, LinkSelector};
pub use process::{
    broadcast_to_all, enforce_local_broadcast, Delivery, ExecutionStats, Outgoing, ProcessCounters,
    ProcessId,
};
pub use sync::{SyncNetwork, SyncOutcome, SyncProcess};
pub use threaded::{run_threaded, run_threaded_on, run_threaded_with, ThreadedOutcome};
