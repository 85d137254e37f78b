//! Simulated message-passing substrate for Byzantine vector consensus.
//!
//! The paper's two models (Section 2 synchronous, Section 3 asynchronous)
//! share one network — `n` processes on a **complete graph** of **reliable
//! FIFO channels** — and differ only in timing.  So does this crate.
//!
//! # One delivery core, two schedulers
//!
//! What happens to a send is decided in one crate-private module, `links`;
//! the executors only decide *when* a queued message moves:
//!
//! * [`SyncNetwork`] — lock-step rounds (Section 2's model): a message takes
//!   one round, and everything ready at round `r + 1` is delivered in sender
//!   order before that round begins.
//! * [`AsyncNetwork`] — a deterministic, seeded, adversarially scheduled
//!   event simulator (Section 3's model): a message is in its channel at
//!   once, and the [`DeliveryPolicy`] picks one ready channel per step.
//!
//! Protocols are written once against the [`SyncProcess`] / [`AsyncProcess`]
//! traits and run on the executor that matches their timing model.
//!
//! # Delivery order contract
//!
//! Each batch a process emits at time `now` (a round or a scheduler tick)
//! goes through these steps, in this order, in both executors:
//!
//! 1. **Canonicalise** — under the **local-broadcast** model of Khan, Tseng
//!    & Vaidya (arXiv:1911.07298; [`SyncNetwork::with_local_broadcast`]) the
//!    batch is rewritten by [`enforce_local_broadcast`] so all receivers
//!    observe the same payloads and per-receiver Byzantine equivocation is
//!    structurally impossible.
//!    This happens *before* any per-link step, so fault plans still compose
//!    per link.  Off by default (point-to-point channels, the paper's model),
//!    and synchronous only: no asynchronous protocol has a broadcast model,
//!    so [`AsyncNetwork`] has no such switch and skips this step.
//! 2. **Count** — every message of the batch counts as sent by its sender.
//!
//! Then, per message in emission order:
//!
//! 3. **`Send`** is traced.
//! 4. **Vanish** — the complete graph is the default and `with_topology`
//!    restricts it to a declared [`Topology`].  A message addressed across a
//!    missing link, or to a process that does not exist, silently vanishes
//!    (the channel does not exist): it stays counted as sent, is neither
//!    delivered nor attributed as dropped, and consumes no randomness.  A
//!    scripted `Partition` fault is the time-windowed case of such a mask.
//! 5. **Drop** — an active drop fault of the [`FaultPlan`] (see [`faults`])
//!    destroys the message with its probability, attributed to the sender.
//!    The drop stream is seeded apart from the scheduler's and is drawn from
//!    only when that probability is positive, so a plan without drop faults
//!    changes no other decision.
//! 6. **Latency** — the message becomes due after its transit time (one round
//!    in [`SyncNetwork`], none in [`AsyncNetwork`]) plus the extra latency of
//!    the active latency faults covering its link.
//! 7. **FIFO** — the message joins the back of its `from → to` channel.  A
//!    channel delivers only its head, and only once the head is due and no
//!    active partition blocks the link, so per-link order survives every
//!    fault; delivery counts for the receiver and traces `Deliver`.
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
mod links;
pub mod process;
pub mod sync;

pub use asim::{AsyncNetwork, AsyncOutcome, AsyncProcess, DeliveryPolicy};
pub use bvc_topology::Topology;
pub use faults::{FaultError, FaultEvent, FaultKind, FaultPlan, LinkSelector};
pub use process::{
    broadcast_to_all, enforce_local_broadcast, Delivery, ExecutionStats, Outgoing, ProcessCounters,
    ProcessId,
};
pub use sync::{SyncNetwork, SyncOutcome, SyncProcess};
