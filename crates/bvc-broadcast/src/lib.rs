//! Byzantine broadcast primitives for the BVC reproduction.
//!
//! The paper uses two communication primitives as cited black boxes; this
//! crate implements both from scratch:
//!
//! * **Synchronous Byzantine broadcast** (`n ≥ 3f + 1`) — used by Step 1 of
//!   the Exact BVC algorithm.  Built as the classical reduction "source sends,
//!   then everyone runs EIG consensus on what they received":
//!   [`EigTree`] implements the consensus core, [`BroadcastInstance`] the
//!   per-source broadcast state machine (`f + 2` synchronous rounds).  The
//!   tree is a flat arena of interned value ids, node `(l₀ … l_{k−1})` at
//!   `start[k] + rank` with digit `l_j − #{i < j : l_i < l_j}` in base
//!   `n − j`, and the slots each `(level, sender)` relay addresses come from
//!   one [`ChildSlots`] table per process.  A [`Relay`] is the sender's
//!   distinct values once plus one dictionary index per node in that order,
//!   labels implied, shared by every receiver behind one `Arc`.
//! * **Asynchronous reliable broadcast** (`n ≥ 3f + 1`) — the first building
//!   block of the AAD-style exchange used by the Approximate BVC algorithm.
//!   [`ReliableBroadcastInstance`] implements Bracha-style echo broadcast with
//!   consistency, validity and totality.
//!
//! All types here are pure per-process state machines: they produce and
//! consume protocol messages but perform no I/O, so they can be driven by the
//! synchronous round executor or the asynchronous simulator from `bvc-net`,
//! with Byzantine behaviours injected by `bvc-adversary`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod eig;
pub mod reliable;

pub use broadcast::{BroadcastInstance, BroadcastMessage};
pub use eig::{ChildSlots, EigTree, Relay};
pub use reliable::{RbMessage, RbStep, ReliableBroadcastInstance};
