//! The session API: configure once, dispatch to any protocol, get one
//! report.
//!
//! A [`BvcSession`] wires a protocol-agnostic [`RunConfig`] to one of the
//! seven [`ProtocolKind`]s — Exact BVC (synchronous), Approximate BVC
//! (asynchronous), the two Section-4 restricted-round variants, the
//! iterative incomplete-graph protocol, and exact consensus on arbitrary
//! directed graphs under point-to-point or local-broadcast delivery —
//! validates the configuration **once**
//! ([`RunConfig::validate`] is the only admission point in the workspace),
//! executes it on the one run path (`drive.rs`: a single `match` on the
//! protocol kind over a shared cast builder and one call site per executor),
//! and scores the outcome into a unified [`RunReport`].
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
//! assert!(report.verdict().all_hold());
//! ```

pub mod config;
pub mod report;

mod drive;

pub use config::{BroadcastModel, InstanceOverrides, ProtocolKind, RunConfig};
pub use report::{RunReport, Verdict};

use crate::approx::ApproxOutput;
use crate::config::{BvcConfig, BvcError};
use crate::validity::validity_check;
use bvc_geometry::{GammaCache, Point, SharedGammaCache};
use bvc_net::ExecutionStats;
use bvc_topology::{Sufficiency, Topology};
use std::sync::Arc;

/// What the run path hands back to the session: the raw execution outcome,
/// before verdict scoring and report assembly (which are uniform across
/// protocols and live in the session).
#[derive(Debug, Clone)]
struct DriverOutcome {
    /// The honest processes' decisions, in honest-index order (processes
    /// that never decided are absent).
    decisions: Vec<Point>,
    /// Whether every honest process decided within the executor's budget.
    terminated: bool,
    /// The agreement tolerance the verdict is judged at (ε, or 0 for exact
    /// consensus: equality).
    tolerance: f64,
    /// Rounds (synchronous) or scheduler delivery steps (asynchronous)
    /// executed.
    rounds: usize,
    /// Message statistics of the execution.
    stats: ExecutionStats,
    /// The protocol's static round budget, if it has one.
    round_budget: Option<usize>,
    /// Full per-process outputs, for protocols that record them (the
    /// approximate protocol's decision + state history + `|Z_i|` sizes).
    outputs: Vec<ApproxOutput>,
    /// The topology sufficiency verdict of the condition-governed protocols
    /// (iterative and the two directed exact kinds).
    sufficiency: Option<Sufficiency>,
}

/// A validated, ready-to-run BVC execution: one [`RunConfig`] bound to one
/// [`ProtocolKind`].
///
/// Construction is the validation point; [`run`](Self::run) cannot fail.
#[derive(Debug, Clone)]
pub struct BvcSession {
    protocol: ProtocolKind,
    config: RunConfig,
    core: BvcConfig,
    topology: Arc<Topology>,
    gamma_cache: SharedGammaCache,
}

impl BvcSession {
    /// Binds `config` to `protocol`, validating it once (structure,
    /// mode-aware admission bound, input shape, topology size).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`RunConfig::validate`].
    pub fn new(protocol: ProtocolKind, config: RunConfig) -> Result<Self, BvcError> {
        let (core, topology) = config.prepare(protocol)?;
        // One Γ cache per run unless the config shares one: every process
        // of the run reuses the same safe-area evaluations (identical
        // multisets recur across processes and rounds), and the cache is
        // mode-keyed, so sharing across validity modes is sound.
        let gamma_cache = config
            .gamma_cache
            .clone()
            .unwrap_or_else(GammaCache::shared);
        Ok(Self {
            protocol,
            config,
            core,
            topology: Arc::new(topology),
            gamma_cache,
        })
    }

    /// The protocol this session dispatches to.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The configuration the session was built from.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The validated core parameters (`n`/`f`/`d`, ε, value bounds).
    pub fn params(&self) -> &BvcConfig {
        &self.core
    }

    /// The resolved communication topology (complete graph unless the
    /// config declared otherwise).
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The Γ cache shared by every process of this run.
    pub fn gamma_cache(&self) -> &SharedGammaCache {
        &self.gamma_cache
    }

    /// Runs the execution and scores it.
    pub fn run(self) -> RunReport {
        bvc_trace::emit(|| bvc_trace::TraceEvent::RunOpen {
            protocol: self.protocol.name().to_string(),
            n: self.core.n,
            f: self.core.f,
            d: self.core.d,
        });
        // Γ queries are attributed to the run as a hit + miss delta, so a
        // config-shared cache still yields per-run totals.
        let queries = |cache: &SharedGammaCache| cache.hits() + cache.misses();
        let before = queries(&self.gamma_cache);
        let mut outcome = self.drive();
        outcome.stats.gamma_queries = queries(&self.gamma_cache) - before;
        self.into_report(outcome)
    }

    /// Scores the verdict and assembles the unified report — the one place
    /// outcomes become results, shared by all seven protocols.
    fn into_report(self, outcome: DriverOutcome) -> RunReport {
        let verdict = Verdict::score(
            &outcome.decisions,
            &self.config.honest_inputs,
            outcome.terminated,
            outcome.tolerance,
            &self.config.validity,
        );
        bvc_trace::emit(|| bvc_trace::TraceEvent::ValidityCheck {
            ok: verdict.all_hold(),
            detail: format!(
                "agreement={} validity={} termination={}",
                verdict.agreement, verdict.validity, verdict.termination
            ),
        });
        let validity = validity_check(
            self.protocol,
            self.config.validity,
            self.core.n,
            self.core.d,
            self.core.f,
        );
        let epsilon = self.protocol.uses_epsilon().then_some(self.core.epsilon);
        RunReport {
            protocol: self.protocol,
            decisions: outcome.decisions,
            verdict,
            validity,
            rounds: outcome.rounds,
            round_budget: outcome.round_budget,
            epsilon,
            stats: outcome.stats,
            topology: Arc::try_unwrap(self.topology).unwrap_or_else(|arc| arc.as_ref().clone()),
            sufficiency: outcome.sufficiency,
            outputs: outcome.outputs,
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::ValidityMode;
    use bvc_adversary::ByzantineStrategy;
    use bvc_topology::Topology;

    fn square_inputs() -> Vec<Point> {
        vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
        ]
    }

    fn session(protocol: ProtocolKind, config: RunConfig) -> RunReport {
        BvcSession::new(protocol, config)
            .expect("parameters satisfy the bound")
            .run()
    }

    #[test]
    fn exact_session_happy_path() {
        let report = session(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .adversary(ByzantineStrategy::FixedOutlier)
                .seed(7),
        );
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
        assert_eq!(report.decisions().len(), 4);
        assert!(report.rounds() <= 4);
        assert!(report.stats().messages_delivered > 0);
        assert_eq!(report.epsilon(), None, "exact consensus has no ε");
        assert!(report.sufficiency().is_none());
        assert!(
            report
                .validity()
                .expect("resource check recorded")
                .satisfied
        );
        assert!(report.topology().is_complete());
    }

    #[test]
    fn session_rejects_insufficient_processes() {
        // d = 3, f = 1 requires n ≥ 5.
        let err = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(4, 1, 3).honest_inputs(vec![
                Point::new(vec![0.0, 0.0, 0.0]),
                Point::new(vec![1.0, 0.0, 0.0]),
                Point::new(vec![0.0, 1.0, 0.0]),
            ]),
        )
        .expect_err("below the bound");
        assert!(matches!(
            err,
            BvcError::InsufficientProcesses { required: 5, .. }
        ));
    }

    #[test]
    fn session_rejects_wrong_input_count_and_zero_faults() {
        let err = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2).honest_inputs(vec![Point::new(vec![0.0, 0.0])]),
        )
        .expect_err("wrong input count");
        assert!(matches!(err, BvcError::InvalidParameter(_)));
        let err = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(3, 0, 2).honest_inputs(square_inputs()[..3].to_vec()),
        )
        .expect_err("f = 0");
        assert!(matches!(err, BvcError::InvalidParameter(_)));
    }

    #[test]
    fn session_rejects_inputs_beyond_the_magnitude_bound() {
        let huge = Point::new(vec![1e155, -1e155]);
        let mut inputs = square_inputs();
        inputs[2] = huge;
        let err = BvcSession::new(
            ProtocolKind::RestrictedSync,
            RunConfig::new(5, 1, 2).honest_inputs(inputs),
        )
        .expect_err("an input beyond MAX_INPUT_MAGNITUDE");
        assert_eq!(err, BvcError::InputTooLarge { value: 1e155 });
        let err = BvcSession::new(
            ProtocolKind::RestrictedSync,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .value_bounds(0.0, 1e300),
        )
        .expect_err("a value bound beyond MAX_INPUT_MAGNITUDE");
        assert_eq!(err, BvcError::InputTooLarge { value: 1e300 });
    }

    #[test]
    fn approx_session_happy_path() {
        let report = session(
            ProtocolKind::Approx,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .adversary(ByzantineStrategy::AntiConvergence)
                .epsilon(0.1)
                .seed(3),
        );
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
        assert!(report.verdict().max_pairwise_distance <= 0.1);
        assert!(report.round_budget().expect("approx has a budget") >= 2);
        let ranges = report.range_history();
        assert!(!ranges.is_empty());
        assert!(ranges.last().unwrap() <= &0.1);
        assert_eq!(report.epsilon(), Some(0.1));
        assert_eq!(report.outputs().len(), 4);
    }

    #[test]
    fn restricted_sessions_happy_path() {
        let report = session(
            ProtocolKind::RestrictedSync,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .adversary(ByzantineStrategy::Equivocate)
                .epsilon(0.1)
                .seed(5),
        );
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );

        // d = 1, f = 1 requires n ≥ 6 for the restricted asynchronous variant.
        let inputs = vec![
            Point::new(vec![0.0]),
            Point::new(vec![0.25]),
            Point::new(vec![0.5]),
            Point::new(vec![0.75]),
            Point::new(vec![1.0]),
        ];
        let report = session(
            ProtocolKind::RestrictedAsync,
            RunConfig::new(6, 1, 1)
                .honest_inputs(inputs)
                .adversary(ByzantineStrategy::AntiConvergence)
                .epsilon(0.1)
                .seed(9),
        );
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
        let err = BvcSession::new(
            ProtocolKind::RestrictedAsync,
            RunConfig::new(5, 1, 1).honest_inputs(vec![
                Point::new(vec![0.0]),
                Point::new(vec![0.5]),
                Point::new(vec![0.75]),
                Point::new(vec![1.0]),
            ]),
        )
        .expect_err("below the bound");
        assert!(matches!(
            err,
            BvcError::InsufficientProcesses { required: 6, .. }
        ));
    }

    #[test]
    fn iterative_session_records_sufficiency_and_topology() {
        // d = 1, f = 1: the sufficiency condition on K_n needs n ≥ 6.
        let inputs: Vec<Point> = (0..5).map(|i| Point::new(vec![i as f64 / 4.0])).collect();
        let report = session(
            ProtocolKind::Iterative,
            RunConfig::new(6, 1, 1)
                .honest_inputs(inputs.clone())
                .adversary(ByzantineStrategy::AntiConvergence)
                .epsilon(0.05)
                .seed(3),
        );
        assert!(report.sufficiency().expect("recorded").is_satisfied());
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
        assert!(report.topology().is_complete());
        assert_eq!(
            report.rounds(),
            report.round_budget().expect("iterative budget") + 1
        );
        assert!(report.validity().is_none(), "no closed-form bound");

        // A violated condition is data, not an error.
        let report = session(
            ProtocolKind::Iterative,
            RunConfig::new(6, 1, 1)
                .honest_inputs(inputs)
                .adversary(ByzantineStrategy::FixedOutlier)
                .epsilon(0.05)
                .topology(Topology::ring(6)),
        );
        assert!(matches!(
            report.sufficiency(),
            Some(Sufficiency::Violated(_))
        ));
        // Validity survives on any topology: the Γ-trimmed update never
        // leaves the hull of honest values.
        assert!(report.verdict().validity, "verdict: {:?}", report.verdict());
    }

    #[test]
    fn iterative_session_accepts_the_fault_free_baseline() {
        let inputs: Vec<Point> = (0..6).map(|i| Point::new(vec![i as f64 / 5.0])).collect();
        let report = session(
            ProtocolKind::Iterative,
            RunConfig::new(6, 0, 1)
                .honest_inputs(inputs)
                .epsilon(0.05)
                .topology(Topology::ring(6)),
        );
        assert!(report.sufficiency().expect("recorded").is_satisfied());
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
    }

    #[test]
    fn exact_strict_rejects_below_threshold_but_relaxed_admits() {
        // n = 8 < max(3f+1, (d+1)f+1) = 9 at f = 2, d = 3.
        let inputs: Vec<Point> = (0..6)
            .map(|i| {
                Point::new(vec![
                    i as f64 / 5.0,
                    (5 - i) as f64 / 5.0,
                    0.3 + 0.1 * i as f64,
                ])
            })
            .collect();
        let err = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(8, 2, 3).honest_inputs(inputs.clone()),
        )
        .expect_err("strict bound");
        assert!(matches!(
            err,
            BvcError::InsufficientProcesses { required: 9, .. }
        ));
        // k = 1 relaxation admits at 3f+1 = 7 and the decoupled trimmed
        // -centre rule always terminates there.
        let report = session(
            ProtocolKind::Exact,
            RunConfig::new(8, 2, 3)
                .honest_inputs(inputs)
                .adversary(ByzantineStrategy::FixedOutlier)
                .seed(1)
                .validity_mode(ValidityMode::KRelaxed(1)),
        );
        let check = report.validity().expect("resource check recorded");
        assert_eq!(check.required_n, 7);
        assert!(check.satisfied);
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
    }

    #[test]
    fn alpha_zero_mode_scores_like_strict_above_threshold() {
        let strict = session(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .seed(7),
        );
        let zero = session(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .seed(7)
                .validity_mode(ValidityMode::AlphaScaled(0.0)),
        );
        assert_eq!(strict.verdict(), zero.verdict());
        for (a, b) in strict.decisions().iter().zip(zero.decisions()) {
            assert_eq!(a.coords(), b.coords(), "α = 0 decisions are bit-equal");
        }
        assert_eq!(
            zero.validity().expect("recorded").required_n,
            4,
            "strict bound at α = 0"
        );
    }

    #[test]
    fn iterative_relaxed_mode_scores_only_and_keeps_strict_sufficiency() {
        // d = 2, f = 1 on K_6: the strict sufficiency condition on K_n is
        // n ≥ (2d+3)f+1 = 8, so the check is violated.  A relaxed validity
        // mode must NOT loosen it — the iterative update rule itself is
        // unchanged, so convergence is no more likely under lenient scoring
        // and the run must stay flagged expected-unsolvable.
        let inputs: Vec<Point> = (0..5)
            .map(|i| Point::new(vec![i as f64 / 4.0, (4 - i) as f64 / 4.0]))
            .collect();
        let report = session(
            ProtocolKind::Iterative,
            RunConfig::new(6, 1, 2)
                .honest_inputs(inputs)
                .epsilon(0.2)
                .seed(2)
                .validity_mode(ValidityMode::KRelaxed(1)),
        );
        assert!(matches!(
            report.sufficiency(),
            Some(Sufficiency::Violated(_))
        ));
        assert_eq!(report.validity_mode(), &ValidityMode::KRelaxed(1));
    }

    #[test]
    fn shared_gamma_cache_is_reused_across_sessions() {
        let cache = GammaCache::shared();
        let first = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .seed(7)
                .gamma_cache(cache.clone()),
        )
        .unwrap();
        assert!(Arc::ptr_eq(first.gamma_cache(), &cache));
        let report = first.run();
        assert!(report.verdict().all_hold());
        // The same decision problem resolves from the cache on a second run.
        let warm = cache.hits();
        let second = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .seed(7)
                .gamma_cache(cache.clone()),
        )
        .unwrap()
        .run();
        assert_eq!(report.decisions(), second.decisions());
        assert!(
            cache.hits() > warm,
            "second session must hit the shared cache"
        );
    }

    /// Two directed 4-cliques bridged by an undirected perfect matching —
    /// satisfies the local-broadcast condition at f = 1, d = 2 but violates
    /// the point-to-point one (the divergence the two papers prove).
    fn divergence_digraph() -> Topology {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        for i in 0..4 {
            edges.push((i, i + 4));
        }
        Topology::from_edges(8, &edges, true).unwrap()
    }

    fn divergence_inputs() -> Vec<Point> {
        (0..7)
            .map(|i| Point::new(vec![i as f64 / 6.0, (6 - i) as f64 / 6.0]))
            .collect()
    }

    #[test]
    fn directed_on_complete_graph_matches_exact_bit_for_bit() {
        // On K_n the directed kinds delegate to the Section-2.2 protocol,
        // so everything observable — decisions (bit-equal), verdict, rounds,
        // message counts — matches ProtocolKind::Exact; only the recorded
        // sufficiency (absent for exact) differs.
        let config = || {
            RunConfig::new(5, 1, 2)
                .honest_inputs(square_inputs())
                .adversary(ByzantineStrategy::Equivocate)
                .seed(11)
        };
        let exact = session(ProtocolKind::Exact, config());
        for protocol in [ProtocolKind::DirectedExact, ProtocolKind::DirectedExactLb] {
            let directed = session(protocol, config());
            assert_eq!(exact.decisions().len(), directed.decisions().len());
            for (a, b) in exact.decisions().iter().zip(directed.decisions()) {
                assert_eq!(
                    a.coords(),
                    b.coords(),
                    "{protocol}: decisions must be bit-equal"
                );
            }
            assert_eq!(exact.verdict(), directed.verdict(), "{protocol}");
            assert_eq!(exact.rounds(), directed.rounds(), "{protocol}");
            assert_eq!(
                exact.stats().messages_sent,
                directed.stats().messages_sent,
                "{protocol}"
            );
            assert!(
                directed.sufficiency().expect("recorded").is_satisfied(),
                "{protocol}: K_5 satisfies both directed conditions at f = 1"
            );
            assert_eq!(directed.epsilon(), None, "{protocol} is exact consensus");
        }
        assert!(exact.sufficiency().is_none());
    }

    #[test]
    fn directed_session_diverges_across_delivery_models() {
        // The same digraph + inputs + crash adversary: condition-violated
        // (expected-unsolvable) under point-to-point, satisfied and decided
        // under local broadcast.
        let config = || {
            RunConfig::new(8, 1, 2)
                .honest_inputs(divergence_inputs())
                .adversary(ByzantineStrategy::Crash(1))
                .seed(4)
                .topology(divergence_digraph())
        };
        let p2p = session(ProtocolKind::DirectedExact, config());
        assert!(
            matches!(p2p.sufficiency(), Some(Sufficiency::Violated(_))),
            "point-to-point condition must be violated: {:?}",
            p2p.sufficiency()
        );
        let lb = session(ProtocolKind::DirectedExactLb, config());
        assert!(
            lb.sufficiency().expect("recorded").is_satisfied(),
            "local-broadcast condition must hold: {:?}",
            lb.sufficiency()
        );
        assert!(lb.verdict().all_hold(), "verdict: {:?}", lb.verdict());
        assert_eq!(lb.rounds(), 9, "n + 1 flood rounds");
    }

    #[test]
    fn directed_session_accepts_the_fault_free_baseline() {
        let inputs: Vec<Point> = (0..6).map(|i| Point::new(vec![i as f64 / 5.0])).collect();
        let report = session(
            ProtocolKind::DirectedExact,
            RunConfig::new(6, 0, 1)
                .honest_inputs(inputs)
                .topology(Topology::ring(6)),
        );
        assert!(report.sufficiency().expect("recorded").is_satisfied());
        assert!(
            report.verdict().all_hold(),
            "verdict: {:?}",
            report.verdict()
        );
    }
}
