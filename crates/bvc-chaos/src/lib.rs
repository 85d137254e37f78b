//! # bvc-chaos — chaos lab and search-based adversary engine
//!
//! The rest of the workspace asks "does the protocol hold on the inputs we
//! thought of?".  This crate asks the opposite question: **can an
//! optimizing adversary find an instance where it doesn't?**  Two engines:
//!
//! * **Search** ([`search`](mod@search)): a seeded hill-climbing loop with
//!   restarts over `bvc_scenario::ScenarioSpec`s — protocol, shape,
//!   explicit honest inputs, Byzantine strategy (including a searchable
//!   split-brain receiver mask), validity mode, topology, per-link latency
//!   windows, delivery schedule — each run exactly as built, scored by an
//!   objective that rewards genuine verdict violations and, short of one,
//!   generic danger heuristics (decision spread vs ε, rounds-to-decide,
//!   operating below the strict bound under a relaxed validity mode).
//!   Violations are [`shrink`](shrink::shrink)-minimised and pinned as
//!   reproducer files ([`repro`], the lab's only TOML writer) that CI
//!   replays forever.
//! * **Churn** ([`churn`](mod@churn)): a long-running randomized-but-seeded
//!   campaign across protocols × strategies × shapes × validity modes, plus
//!   service waves that stress the worker pool's panic containment and
//!   in-flight accounting, emitting `bvc-chaos-metrics/v1` JSON and a
//!   longitudinal Markdown dashboard row.
//!
//! Everything is deterministic from a master seed: the search trace, the
//! shrink sequence, the churn session, and every committed reproducer —
//! pinned by the property tests in `tests/shrinker_props.rs` and by the
//! reproducer round-trip tests in [`repro`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod objective;
pub mod repro;
pub mod search;
pub mod shrink;

pub use churn::{churn, dashboard_header, ChurnConfig, ChurnReport, WaveMetrics};
pub use objective::{evaluate, fault_excused, Evaluation, VIOLATION_SCORE};
pub use repro::{known_signatures, replay_dir, spec_signature, write_repro, ReplayResult};
pub use search::{search, Finding, SearchConfig, SearchReport, SearchSpace};
pub use shrink::{shrink, ShrinkResult};
