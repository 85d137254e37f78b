//! Byzantine fault-strategy library for the BVC reproduction.
//!
//! The paper tolerates up to `f` processes that "may behave arbitrarily".
//! This crate provides the concrete adversaries the experiments and tests use
//! to attack the algorithms of `bvc-core`:
//!
//! * [`ByzantineStrategy`] — named attacks on validity (outliers), agreement
//!   (equivocation, anti-convergence corners) and liveness (crash, silence).
//! * [`PointForge`] — deterministic, seeded forging of adversarial points for
//!   a given strategy, per `(round, receiver)`.
//! * forging wrappers that put a [`PointForge`] on the wire: [`Forging`]
//!   runs any honest process unmodified and overwrites the points it sends
//!   (the message type says where they live: [`ForgePoints`], plus
//!   [`RoundTagged`] on the asynchronous executor), and [`StateForger`]
//!   reports forged round-tagged state vectors to a recipient list.  Every
//!   Byzantine process `bvc-core` runs is one of these two.
//! * payload-agnostic wrappers ([`CrashAfterSync`], [`SilenceTowardsSync`],
//!   [`DuplicateSync`]) that mutate the message schedule of any inner
//!   process without needing to understand its payloads.  (The Theorem-4
//!   "takes no steps" adversary is [`ByzantineStrategy::Silent`] /
//!   [`ByzantineStrategy::Crash`] under a forging wrapper.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod wrappers;

pub use strategy::{ByzantineStrategy, PointForge};
pub use wrappers::{
    CrashAfterSync, DuplicateSync, ForgePoints, Forging, RoundTagged, SilenceTowardsSync,
    StateForger,
};
