//! # bvc-scenario — declarative scenarios, fault injection, campaign runs
//!
//! The `bvc-core` runners exercise the paper's four algorithms through Rust
//! builders.  This crate adds the layer the ROADMAP's scenario-diversity goal
//! asks for: **declare** an adversarial scenario in TOML — protocol,
//! parameters, honest-input workload, Byzantine strategy, delivery schedule,
//! injected network faults — then **replay** it deterministically or **sweep**
//! it as a campaign across threads, emitting one JSON verdict per instance.
//!
//! ## Quickstart
//!
//! Run one scenario (from the workspace root):
//!
//! ```text
//! cargo run -p bvc-scenario --bin scenario-run -- \
//!     --scenario scenarios/partition_heal.toml --seed 42
//! ```
//!
//! Run every scenario in a directory, fanned across CPU cores, one JSON line
//! per instance on stdout:
//!
//! ```text
//! cargo run -p bvc-scenario --bin campaign-run -- --dir scenarios --jobs 8
//! ```
//!
//! Identical scenario file + identical seed ⇒ **byte-identical** JSON verdict
//! (the determinism property tests pin this), so verdict files diff cleanly
//! across revisions and make regression triage trivial.
//!
//! ## A worked scenario
//!
//! ```toml
//! [scenario]
//! name = "partition-heal"
//! protocol = "approx"          # exact | approx | restricted-sync |
//!                              # restricted-async | iterative |
//!                              # directed-exact | directed-exact-lb
//! n = 5                        # processes
//! f = 1                        # Byzantine processes (the last f ids)
//! d = 2                        # input dimension
//! epsilon = 0.05               # ε-agreement target (approximate protocols)
//! seed = 1                     # base seed; `--seed` overrides per run
//! max_steps = 500000           # async delivery-step cap
//! value_bounds = [0.0, 1.0]    # the paper's a-priori bounds [ν, U]
//! validity = "strict"          # optional: strict | "(1+α)-relaxed" (+ alpha)
//! # alpha = 0.5                # | k-relaxed (+ k) — the relaxed validity
//! # k = 1                      # conditions of Xiang & Vaidya 1601.08067
//!
//! [inputs]
//! generator = "random-ball"    # grid | simplex | random-ball | corners | explicit
//! center = [0.5, 0.5]
//! radius = 0.3
//!
//! [adversary]
//! strategy = "anti-convergence"  # crash[:K] | silent | fixed-outlier |
//!                                # random-noise | equivocate | anti-convergence | benign
//!
//! [delivery]                     # asynchronous protocols only
//! policy = "random-fair"         # random-fair | round-robin | delay-from | delay-to
//! # processes = [4]              # required by delay-from / delay-to
//!
//! [[faults]]                     # zero or more; windows are scheduler ticks
//! kind = "partition"             # (async) or 1-based rounds (sync; start = 0
//! groups = [[0, 1]]              # means "from round 1").  drop | latency |
//! start = 0                      # partition; unlisted processes form the
//! duration = 400                 # other partition side.  Windows must be
//!                                # finite: every fault expires (fairness).
//!
//! # Drop/latency faults take link selectors: `from = [..]` (senders),
//! # `to = [..]` (receivers), or both — `from` + `to` together cover only
//! # the *directed* links from × to, never the replies.
//!
//! [topology]                     # optional: declared adjacency (default:
//! kind = "ring"                  # the complete graph).  complete | ring |
//!                                # torus (+ rows/cols) | random-regular
//!                                # (+ degree) | explicit (+ edges, undirected).
//!                                # The random-regular wiring is drawn
//!                                # deterministically from the instance seed.
//!
//! [campaign]                     # optional: turn the file into a sweep
//! seed_range = [0, 24]           # inclusive integers; or `seeds = [..]`
//! strategies = ["equivocate", "anti-convergence"]
//! policies = ["random-fair", "round-robin"]  # ignored by sync protocols
//! topologies = ["complete", "ring", "torus:2x4", "random-regular:6"]
//! alphas = [0.0, 1.0, 3.0]       # validity axis: (1+α)-relaxed values …
//! ks = [1]                       # … then k-relaxed values
//! # broadcast = ["point-to-point", "local"]  # directed protocols only:
//! #                                # rewrites the instance protocol between
//! #                                # directed-exact / directed-exact-lb
//!
//! [service]                      # optional: run the file as a multi-shot
//! instances = 1000               # consensus stream (`service-run`, the
//! workers = 0                    # `bvc-service` crate).  Instance i runs at
//! seed_cycle = 50                # seed base + (i % seed_cycle) with inputs
//!                                # regenerated from that seed; 0 = no cycle.
//! strategies = ["equivocate", "silent"]  # rotation (empty ⇒ base strategy)
//! shared_cache = true            # chain per-instance Γ caches to one parent
//! # sink = "verdicts.jsonl"      # default stdout; `--out` overrides
//! ```
//!
//! The `iterative` protocol is the incomplete-graph algorithm of Vaidya 2013:
//! it runs on whatever `[topology]` declares (complete by default), accepts
//! `f = 0`, and its verdict carries topology metadata including the
//! **iterative sufficiency check** — scenarios on graphs that fail the check
//! are flagged `expected_solvable = false` up front, and campaign summaries
//! count their violations separately (expected data, not regressions).
//!
//! The `directed-exact` / `directed-exact-lb` pair runs exact consensus on
//! the declared directed topology under point-to-point channels
//! (arXiv:1208.5075) or the local-broadcast delivery model
//! (arXiv:1911.07298).  Their verdicts carry the matching cut-based
//! sufficiency check, and the `broadcast` campaign axis sweeps one scenario
//! across both delivery models — the model shows up in the verdict's
//! `protocol` field, and `scenarios/directed_divergence.toml` pins a graph
//! the two models provably separate.
//!
//! A declared (or swept) `validity` mode selects the relaxed conditions of
//! *Relaxed Byzantine Vector Consensus* (Xiang & Vaidya, arXiv:1601.08067):
//! verdicts are scored against the `(1+α)`-dilated honest hull or the
//! `k`-coordinate projections, the run is admitted at the **lowered**
//! resource bound (e.g. Exact BVC at `3f + 1` instead of
//! `max(3f+1, (d+1)f+1)`), and the exact protocol's Step-2 rule decides in
//! the relaxed safe area.  The verdict carries a `validity` object with the
//! mode, the (lowered) `required_n` and whether `n` meets it — runs below
//! their bound are tallied as *expected-unsolvable*, exactly like
//! insufficient topologies.  `scenarios/alpha_sweep.toml` sweeps α below
//! the strict threshold to show the violation rate collapsing to zero.
//!
//! Fault semantics, and the fairness caveat (every fault window must be
//! finite so the asynchronous executor's eventual-delivery contract still
//! holds after the plan's quiescence horizon), are documented in
//! [`bvc_net::faults`].
//!
//! ## The JSON verdict
//!
//! One object per instance, key order fixed:
//!
//! ```json
//! {"scenario": "partition-heal", "protocol": "approx", "n": 5, "f": 1,
//!  "d": 2, "epsilon": 0.05, "seed": 42, "strategy": "anti-convergence",
//!  "policy": "random-fair", "faults": ["partition"],
//!  "verdict": {"agreement": true, "validity": true, "termination": true,
//!              "max_pairwise_distance": 0.03125},
//!  "rounds": 1234, "messages": {"sent": 5000, "delivered": 4970, "dropped": 0},
//!  "per_process": [{"sent": 1000, "delivered": 990, "dropped": 0}, ...]}
//! ```
//!
//! Programmatic use mirrors the CLI:
//!
//! ```
//! use bvc_scenario::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml(r#"
//! [scenario]
//! name = "doc"
//! protocol = "exact"
//! n = 5
//! f = 1
//! d = 2
//! "#).expect("valid scenario");
//! let outcome = run_scenario(&spec, 42, spec.strategy, spec.policy.clone())
//!     .expect("parameters satisfy the resilience bound");
//! assert!(outcome.verdict.all_hold());
//! assert!(outcome.to_json().starts_with("{\"scenario\": \"doc\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod json;
pub mod report;
pub mod runner;
pub mod schema;
pub mod service;
pub mod toml;

pub use bvc_core::ValidityMode;
pub use bvc_service::{JsonlSink, MemorySink, ServiceConfig, VerdictSink};
pub use bvc_topology::TopologySpec;
pub use campaign::{
    expand, expand_all, run_campaign, run_campaign_streaming, CampaignSummary, Instance,
    InstanceResult,
};
pub use report::{CellKey, CellStats, ViolationTable};
pub use runner::{
    generate_inputs, run_scenario, run_scenario_instance, ScenarioError, ScenarioOutcome,
    TopologyMeta, ValidityMeta,
};
pub use schema::{
    parse_strategy, policy_name, BroadcastModel, CampaignSpec, InputSpec, Protocol, ScenarioSpec,
    SchemaError, ServiceSpec,
};
pub use service::service_config_from_spec;
