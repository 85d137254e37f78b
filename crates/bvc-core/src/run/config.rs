//! The protocol-independent run configuration and its single validation
//! point.
//!
//! [`RunConfig`] carries every knob a BVC execution can take — shape
//! (`n`/`f`/`d`), honest inputs, adversary, seed, ε, value bounds, the
//! asynchronous scheduling knobs, injected faults, topology, validity mode
//! and an optional shared Γ cache.  It is deliberately **protocol-agnostic**:
//! the same config can be dispatched to any [`ProtocolKind`] through
//! [`BvcSession`](super::BvcSession), and everything protocol-specific
//! (admission bounds, which knobs the run actually reads) is decided at
//! validation time, in exactly one place: [`RunConfig::validate`].

use crate::approx::UpdateRule;
use crate::config::{BvcConfig, BvcError, MAX_INPUT_MAGNITUDE};
use crate::validity::{admission_floor, ValidityMode};
use bvc_adversary::ByzantineStrategy;
use bvc_geometry::{Point, SharedGammaCache};
use bvc_net::{DeliveryPolicy, FaultPlan};
use bvc_topology::Topology;

/// The seven protocols a [`BvcSession`](super::BvcSession) can dispatch to:
/// the source paper's four complete-graph algorithms, the iterative
/// incomplete-graph protocol (Vaidya 2013), and exact consensus on arbitrary
/// directed graphs under the point-to-point (arXiv:1208.5075) and
/// local-broadcast (arXiv:1911.07298) delivery models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Exact BVC, synchronous (Theorems 1/3).
    Exact,
    /// Approximate BVC, asynchronous with the AAD exchange (Theorems 4/5).
    Approx,
    /// Restricted-round approximate BVC, synchronous (Theorem 6).
    RestrictedSync,
    /// Restricted-round approximate BVC, asynchronous (Theorem 6).
    RestrictedAsync,
    /// Iterative BVC over a declared topology (incomplete graphs,
    /// synchronous; solvability governed by the topology sufficiency check
    /// instead of a closed-form bound).
    Iterative,
    /// Exact BVC on an arbitrary directed graph, point-to-point delivery
    /// (synchronous; solvability governed by
    /// `Topology::directed_exact_sufficiency`, recorded in the report).
    DirectedExact,
    /// Exact BVC on an arbitrary directed graph under the local-broadcast
    /// delivery model (synchronous; solvability governed by
    /// `Topology::directed_exact_lb_sufficiency`).
    DirectedExactLb,
}

impl ProtocolKind {
    /// All seven protocols, in declaration order (handy for table-driven
    /// tests and sweeps).
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Exact,
        ProtocolKind::Approx,
        ProtocolKind::RestrictedSync,
        ProtocolKind::RestrictedAsync,
        ProtocolKind::Iterative,
        ProtocolKind::DirectedExact,
        ProtocolKind::DirectedExactLb,
    ];

    /// The stable name (`exact`, `approx`, `restricted-sync`,
    /// `restricted-async`, `iterative`, `directed-exact`,
    /// `directed-exact-lb`), matching the scenario schema.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Exact => "exact",
            ProtocolKind::Approx => "approx",
            ProtocolKind::RestrictedSync => "restricted-sync",
            ProtocolKind::RestrictedAsync => "restricted-async",
            ProtocolKind::Iterative => "iterative",
            ProtocolKind::DirectedExact => "directed-exact",
            ProtocolKind::DirectedExactLb => "directed-exact-lb",
        }
    }

    /// Parses a stable name back to a protocol (the inverse of
    /// [`name`](Self::name)), or `None` for unknown names — the form scenario
    /// files and CLI knobs like `chaos-run --protocols` accept.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The broadcast model the protocol assumes of the network, or `None`
    /// for the protocols where the distinction never arises (everything but
    /// the directed pair).
    pub fn broadcast_model(self) -> Option<BroadcastModel> {
        match self {
            ProtocolKind::DirectedExact => Some(BroadcastModel::PointToPoint),
            ProtocolKind::DirectedExactLb => Some(BroadcastModel::Local),
            _ => None,
        }
    }

    /// The same protocol under a different broadcast model, or `None` when
    /// the protocol has no broadcast axis.
    pub fn with_broadcast(self, model: BroadcastModel) -> Option<Self> {
        self.broadcast_model().map(|_| match model {
            BroadcastModel::PointToPoint => ProtocolKind::DirectedExact,
            BroadcastModel::Local => ProtocolKind::DirectedExactLb,
        })
    }

    /// Whether the protocol runs on the asynchronous executor (and therefore
    /// reads the delivery policy, the step cap, and tick-based fault
    /// windows).
    pub fn is_async(self) -> bool {
        matches!(self, ProtocolKind::Approx | ProtocolKind::RestrictedAsync)
    }

    /// Whether the protocol is judged against ε-agreement (every protocol
    /// except the exact-consensus family, whose agreement is equality).
    pub fn uses_epsilon(self) -> bool {
        !matches!(
            self,
            ProtocolKind::Exact | ProtocolKind::DirectedExact | ProtocolKind::DirectedExactLb
        )
    }

    /// Whether this is one of the source paper's four complete-graph
    /// protocols: the kinds that model at least one Byzantine process, are
    /// admitted down to a relaxed validity mode's family bound
    /// ([`admission_floor`]), and record a
    /// [`ValidityCheck`](crate::ValidityCheck) with every run.  The other
    /// three are governed by a graph condition, recorded as the run's
    /// sufficiency verdict.
    pub fn is_paper_protocol(self) -> bool {
        matches!(
            self,
            ProtocolKind::Exact
                | ProtocolKind::Approx
                | ProtocolKind::RestrictedSync
                | ProtocolKind::RestrictedAsync
        )
    }

    /// The fewest processes the protocol can be run with at dimension `d`
    /// and `f` faults under strict validity — the one resilience table: the
    /// paper's four rows (Theorems 1/3, 4/5 and 6), the directed floors, and
    /// `None` for the iterative protocol, whose only resource signal is the
    /// topology sufficiency check.  For the directed kinds the floor is the
    /// part of the graph condition that does not depend on the graph
    /// (arXiv:1208.5075 needs `n ≥ 3f+1` point-to-point; arXiv:1911.07298
    /// weakens it to `n ≥ 2f+1` under local broadcast; the `(d+1)f+1`
    /// decision-step floor is model-independent).
    pub fn min_processes(self, d: usize, f: usize) -> Option<usize> {
        let decision_floor = (d + 1) * f + 1;
        Some(match self {
            ProtocolKind::Exact | ProtocolKind::DirectedExact => (3 * f + 1).max(decision_floor),
            ProtocolKind::DirectedExactLb => (2 * f + 1).max(decision_floor),
            ProtocolKind::Approx | ProtocolKind::RestrictedSync => (d + 2) * f + 1,
            ProtocolKind::RestrictedAsync => (d + 4) * f + 1,
            ProtocolKind::Iterative => return None,
        })
    }
}

/// The delivery guarantee a directed-graph protocol assumes: classical
/// point-to-point channels, or local broadcast (every transmission reaches
/// all out-neighbours identically, so a faulty process cannot equivocate
/// between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BroadcastModel {
    /// Independent per-edge channels (arXiv:1208.5075's model).
    PointToPoint,
    /// Local broadcast (arXiv:1911.07298's model).
    Local,
}

impl BroadcastModel {
    /// The stable schema name (`point-to-point`, `local`).
    pub fn name(self) -> &'static str {
        match self {
            BroadcastModel::PointToPoint => "point-to-point",
            BroadcastModel::Local => "local",
        }
    }

    /// Parses a schema name (`point-to-point` / `p2p`, `local` /
    /// `local-broadcast`), or `None` for anything else.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "point-to-point" | "p2p" => Some(BroadcastModel::PointToPoint),
            "local" | "local-broadcast" => Some(BroadcastModel::Local),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One declarative description of a BVC execution, shared by all seven
/// protocol kinds.
///
/// Build it with [`RunConfig::new`] and the chainable setters (the method
/// names match the fields, and both match the setters of the pre-session
/// per-protocol builders, so migration is mechanical), then hand it to
/// [`BvcSession::new`](super::BvcSession::new), which validates it **once**
/// — structure, admission bound, input shape, topology size — and runs it.
/// Fields are public: the config is plain data, and nothing trusts it until
/// it has passed [`validate`](Self::validate).
///
/// Knobs a protocol does not read are ignored by its run (e.g. the
/// delivery policy for the synchronous protocols), exactly as the scenario
/// schema always treated them.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Total number of processes `n`.
    pub n: usize,
    /// Number of Byzantine processes `f` (the last `f` indices).  The four
    /// complete-graph protocols require `f ≥ 1`; the iterative protocol also
    /// accepts the fault-free `f = 0` baseline.
    pub f: usize,
    /// Dimension `d` of input and decision vectors.
    pub d: usize,
    /// Honest inputs, one per non-faulty process (`n − f` of them).
    pub honest_inputs: Vec<Point>,
    /// The Byzantine strategy of the `f` faulty processes.
    pub adversary: ByzantineStrategy,
    /// Seed of all randomness in the execution (adversary and scheduler).
    pub seed: u64,
    /// The ε of ε-agreement (ignored by exact consensus).
    pub epsilon: f64,
    /// A-priori bounds on the input coordinates (Section 3.2).
    pub value_bounds: (f64, f64),
    /// Which Step-2 subset rule the approximate protocol uses.
    pub update_rule: UpdateRule,
    /// The asynchronous scheduling adversary (asynchronous protocols only).
    pub delivery_policy: DeliveryPolicy,
    /// Cap on scheduler delivery steps (asynchronous protocols only).
    pub max_steps: usize,
    /// Injected network faults (windows in rounds for synchronous
    /// protocols, scheduler ticks for asynchronous ones).
    pub faults: FaultPlan,
    /// Restricts delivery to a declared topology; `None` means the paper's
    /// complete graph.
    pub topology: Option<Topology>,
    /// The validity condition the run is scored against, which also selects
    /// the (possibly lowered) admission bound and — for the exact protocol —
    /// relaxes the Step-2 decision rule itself.
    pub validity: ValidityMode,
    /// A Γ cache to share across runs; `None` gives every run a fresh one
    /// (the pre-session behaviour: one cache per run, shared by all of the
    /// run's processes).
    pub gamma_cache: Option<SharedGammaCache>,
}

impl RunConfig {
    /// A configuration with `n` processes, `f` Byzantine, inputs of
    /// dimension `d`, and the historical defaults everywhere else
    /// (equivocating adversary, seed 0, ε = 0.01, value bounds `[0, 1]`,
    /// witness-optimized update rule, random-fair delivery, 5,000,000 step
    /// cap, no faults, complete graph, strict validity, per-run Γ cache).
    pub fn new(n: usize, f: usize, d: usize) -> Self {
        Self {
            n,
            f,
            d,
            honest_inputs: Vec::new(),
            adversary: ByzantineStrategy::Equivocate,
            seed: 0,
            epsilon: 0.01,
            value_bounds: (0.0, 1.0),
            update_rule: UpdateRule::WitnessOptimized,
            delivery_policy: DeliveryPolicy::RandomFair,
            max_steps: 5_000_000,
            faults: FaultPlan::new(),
            topology: None,
            validity: ValidityMode::Strict,
            gamma_cache: None,
        }
    }

    /// Honest inputs, one per non-faulty process (`n − f` of them).
    pub fn honest_inputs(mut self, inputs: Vec<Point>) -> Self {
        self.honest_inputs = inputs;
        self
    }

    /// The Byzantine strategy of the last `f` processes.
    pub fn adversary(mut self, strategy: ByzantineStrategy) -> Self {
        self.adversary = strategy;
        self
    }

    /// Seed of all randomness in the execution.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The ε of ε-agreement (defaults to `0.01`; ignored by exact
    /// consensus).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// A-priori bounds on the input coordinates (defaults to `[0, 1]`).
    pub fn value_bounds(mut self, lower: f64, upper: f64) -> Self {
        self.value_bounds = (lower, upper);
        self
    }

    /// Which Step-2 subset rule the approximate protocol uses (defaults to
    /// the Appendix F witness optimisation).
    pub fn update_rule(mut self, rule: UpdateRule) -> Self {
        self.update_rule = rule;
        self
    }

    /// The asynchronous scheduling adversary (defaults to
    /// [`DeliveryPolicy::RandomFair`]).
    pub fn delivery_policy(mut self, policy: DeliveryPolicy) -> Self {
        self.delivery_policy = policy;
        self
    }

    /// Cap on scheduler delivery steps (defaults to 5,000,000).
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Injected network faults; windows are measured in rounds for the
    /// synchronous protocols and scheduler ticks for the asynchronous ones.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Restricts delivery to a declared topology (the complete graph is the
    /// default).  The complete-graph protocols treat a failed verdict on an
    /// incomplete topology as expected data, not a bug.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// The validity condition the run is scored against (strict hull
    /// membership by default).  A relaxed mode lowers the admission bound to
    /// the relaxed requirement of arXiv:1601.08067 and — for the exact
    /// protocol — relaxes the Step-2 decision rule itself.
    pub fn validity_mode(mut self, mode: ValidityMode) -> Self {
        self.validity = mode;
        self
    }

    /// Shares a Γ cache across runs (defaults to one fresh cache per run).
    pub fn gamma_cache(mut self, cache: SharedGammaCache) -> Self {
        self.gamma_cache = Some(cache);
        self
    }

    /// Derives the config of one instance of a multi-instance stream: this
    /// config as the template, with the per-instance knobs replaced from
    /// `overrides`.  Everything a service keeps fixed across the stream —
    /// shape, topology, faults, delivery, value bounds, shared Γ cache —
    /// is inherited untouched.
    pub fn for_instance(&self, overrides: &InstanceOverrides) -> RunConfig {
        let mut config = self.clone();
        config.seed = overrides.seed;
        if let Some(inputs) = &overrides.honest_inputs {
            config.honest_inputs = inputs.clone();
        }
        if let Some(strategy) = overrides.adversary {
            config.adversary = strategy;
        }
        if let Some(mode) = overrides.validity {
            config.validity = mode;
        }
        config
    }

    /// The single admission/validation point every protocol goes through —
    /// there is deliberately no other place that checks a resource bound.
    ///
    /// In order: structural validation (`n`, `d`, `f < n`, value bounds,
    /// ε for the protocols judged against it — exact consensus ignores
    /// the knob — and a positive step cap for the asynchronous ones), the
    /// protocol's mode-aware floor from
    /// [`ProtocolKind::min_processes`] (the iterative protocol has none — its
    /// solvability signal is the recorded topology sufficiency check), the
    /// `f ≥ 1` requirement of the four complete-graph protocols, the input
    /// shape, the input magnitude, and the topology size.
    ///
    /// # Errors
    ///
    /// Returns [`BvcError::InsufficientProcesses`] when `n` is below the
    /// protocol's (possibly mode-lowered) floor,
    /// [`BvcError::InputTooLarge`] for an input coordinate or value bound
    /// beyond [`MAX_INPUT_MAGNITUDE`], and [`BvcError::InvalidParameter`]
    /// for every structural violation.
    pub fn validate(&self, protocol: ProtocolKind) -> Result<(), BvcError> {
        self.prepare(protocol).map(|_| ())
    }

    /// [`validate`](Self::validate), returning the validated [`BvcConfig`]
    /// and the resolved topology for the session to run on.
    pub(crate) fn prepare(
        &self,
        protocol: ProtocolKind,
    ) -> Result<(BvcConfig, Topology), BvcError> {
        let result = self.prepare_inner(protocol);
        bvc_trace::emit(|| bvc_trace::TraceEvent::Admission {
            ok: result.is_ok(),
            detail: match &result {
                Ok(_) => format!("{protocol} n={} f={} d={}", self.n, self.f, self.d),
                Err(e) => e.to_string(),
            },
        });
        result
    }

    fn prepare_inner(&self, protocol: ProtocolKind) -> Result<(BvcConfig, Topology), BvcError> {
        let mut core = BvcConfig::new(self.n, self.f, self.d)?
            .with_value_bounds(self.value_bounds.0, self.value_bounds.1)?;
        // ε is only validated for protocols judged against it — exact
        // consensus ignores the knob entirely (the field docs promise so),
        // matching the pre-session builder, which had no ε setter.
        if protocol.uses_epsilon() {
            core = core.with_epsilon(self.epsilon)?;
        }
        // Likewise the step cap, which only the asynchronous executor reads.
        if protocol.is_async() && self.max_steps == 0 {
            return Err(BvcError::InvalidParameter(
                "max_steps must be positive".into(),
            ));
        }
        // One admission branch for every kind: below its (mode-lowered)
        // floor is a configuration error on every graph.  For the directed
        // kinds the graph-dependent part of the condition is recorded by the
        // run as its sufficiency verdict instead.
        if let Some(required) = admission_floor(protocol, &self.validity, core.d, core.f)
            .filter(|&required| core.n < required)
        {
            return Err(BvcError::InsufficientProcesses {
                protocol,
                required,
                actual: core.n,
            });
        }
        if protocol.is_paper_protocol() && core.f == 0 {
            return Err(BvcError::InvalidParameter(
                "the runners model at least one Byzantine process; use f >= 1".into(),
            ));
        }
        if self.honest_inputs.len() != core.honest_count() {
            return Err(BvcError::InvalidParameter(format!(
                "expected {} honest inputs (n − f), got {}",
                core.honest_count(),
                self.honest_inputs.len()
            )));
        }
        if let Some(bad) = self.honest_inputs.iter().find(|p| p.dim() != core.d) {
            return Err(BvcError::InvalidParameter(format!(
                "input {bad} has dimension {}, expected {}",
                bad.dim(),
                core.d
            )));
        }
        let values = self.honest_inputs.iter().flat_map(Point::coords);
        if let Some(&value) = values
            .chain([&core.lower_bound, &core.upper_bound])
            .find(|v| v.abs() > MAX_INPUT_MAGNITUDE)
        {
            return Err(BvcError::InputTooLarge { value });
        }
        let topology = match &self.topology {
            None => Topology::complete(core.n),
            Some(t) if t.len() == core.n => t.clone(),
            Some(t) => {
                return Err(BvcError::InvalidParameter(format!(
                    "topology covers {} processes, run has n = {}",
                    t.len(),
                    core.n
                )))
            }
        };
        Ok((core, topology))
    }
}

/// The per-instance knobs of a multi-instance stream (state-machine-
/// replication style): each consensus instance decides fresh inputs under a
/// fresh seed — and may vary the adversary and the validity condition —
/// while the [`RunConfig`] template fixes everything else for the whole
/// stream.  Resolve one with [`RunConfig::for_instance`].
#[derive(Debug, Clone, Default)]
pub struct InstanceOverrides {
    /// Seed of all randomness in this instance.
    pub seed: u64,
    /// This instance's honest inputs; `None` inherits the template's.
    pub honest_inputs: Option<Vec<Point>>,
    /// This instance's Byzantine strategy; `None` inherits the template's.
    pub adversary: Option<ByzantineStrategy>,
    /// This instance's validity condition; `None` inherits the template's.
    pub validity: Option<ValidityMode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::validity_check;

    fn inputs(count: usize, d: usize) -> Vec<Point> {
        (0..count)
            .map(|i| Point::uniform(d, i as f64 / count.max(2) as f64))
            .collect()
    }

    /// The centralised admission check, table-driven over all seven
    /// protocols × three validity modes: one `validate` call per cell, each
    /// held to the family bound of `admission_floor` and rejected with the
    /// one typed error — the per-builder drift this table replaces is
    /// structurally impossible now, and the table is the regression net
    /// proving it.
    #[test]
    fn admission_table_over_protocols_and_validity_modes() {
        let modes = [
            ValidityMode::Strict,
            ValidityMode::AlphaScaled(0.5),
            ValidityMode::KRelaxed(1),
        ];
        let (d, f) = (3usize, 2usize);
        for protocol in ProtocolKind::ALL {
            for mode in modes {
                // The family bound the mode admits at: the strict floor
                // evaluated at the relaxation family's effective dimension
                // (1 for both relaxed families here) for the paper's
                // protocols.  The directed kinds keep their graph-independent
                // model floor under every validity mode (the flood has no
                // relaxed variant); iterative has no floor.
                let relaxed = protocol.is_paper_protocol() && mode != ValidityMode::Strict;
                let family_d = if relaxed { 1 } else { d };
                let required = protocol.min_processes(family_d, f).unwrap_or(1);
                // One below the bound is rejected with the exact requirement…
                if required > f + 1 {
                    let below = RunConfig::new(required - 1, f, d)
                        .honest_inputs(inputs(required - 1 - f, d))
                        .validity_mode(mode);
                    assert_eq!(
                        below.validate(protocol),
                        Err(BvcError::InsufficientProcesses {
                            protocol,
                            required,
                            actual: required - 1,
                        }),
                        "{protocol} / {mode:?}"
                    );
                }
                // …and the bound itself is admitted…
                let at = RunConfig::new(required.max(f + 2), f, d)
                    .honest_inputs(inputs(required.max(f + 2) - f, d))
                    .validity_mode(mode);
                at.validate(protocol)
                    .unwrap_or_else(|e| panic!("{protocol} / {mode:?}: {e}"));
                // …unless it asks the asynchronous executor for zero steps
                // (the synchronous kinds never read the cap).
                let no_steps = at.max_steps(0).validate(protocol);
                match protocol.is_async() {
                    true => assert!(
                        matches!(no_steps, Err(BvcError::InvalidParameter(_))),
                        "{protocol} / {mode:?}: max_steps = 0 gave {no_steps:?}"
                    ),
                    false => assert_eq!(no_steps, Ok(()), "{protocol} / {mode:?}"),
                }
            }
        }
    }

    /// The one resilience table, all seven kinds.
    #[test]
    fn min_processes_is_the_resilience_table() {
        use ProtocolKind::*;
        // (protocol, d, f, floor) — the paper's four rows first.
        let rows = [
            // d = 1 collapses to the scalar bounds.
            (Exact, 1, 1, 4),
            (Approx, 1, 1, 4),
            (RestrictedSync, 1, 1, 4),
            (RestrictedAsync, 1, 1, 6),
            // d = 3, f = 1: exact needs max(4, 5) = 5; approx needs 6;
            // restricted async 8.
            (Exact, 3, 1, 5),
            (Approx, 3, 1, 6),
            (RestrictedAsync, 3, 1, 8),
            // d = 2, f = 2: exact max(7, 7) = 7; approx 9; restricted async 13.
            (Exact, 2, 2, 7),
            (Approx, 2, 2, 9),
            (RestrictedSync, 2, 2, 9),
            (RestrictedAsync, 2, 2, 13),
            // Small d keeps the 3f + 1 term active for exact consensus.
            (Exact, 1, 3, 10),
            // The directed floors: the LB floor is strictly weaker where
            // 3f+1 dominates…
            (DirectedExact, 1, 2, 7),
            (DirectedExactLb, 1, 2, 5),
            // …and both keep the model-independent (d+1)f+1 decision floor.
            (DirectedExact, 4, 2, 11),
            (DirectedExactLb, 4, 2, 11),
        ];
        for (protocol, d, f, floor) in rows {
            assert_eq!(
                protocol.min_processes(d, f),
                Some(floor),
                "{protocol} d={d} f={f}"
            );
        }
        for protocol in ProtocolKind::ALL {
            // f = 0 is always feasible for a kind with a floor…
            let fault_free = (protocol != Iterative).then_some(1);
            assert_eq!(protocol.min_processes(5, 0), fault_free, "{protocol}");
            // …and only the iterative protocol has none.
            assert_eq!(
                protocol.min_processes(2, 1).is_none(),
                protocol == Iterative
            );
        }
        // n = 5, d = 3, f = 1 meets the exact floor but not approx's, and the
        // rejection names the protocol and both counts.
        let config = RunConfig::new(5, 1, 3).honest_inputs(inputs(4, 3));
        config.validate(Exact).expect("5 >= max(4, 5)");
        let err = config.validate(Approx).unwrap_err();
        assert_eq!(
            err.to_string(),
            "approx requires n >= 6 processes, but only 5 were configured"
        );
    }

    /// The admission bound agrees with the recorded requirement's *family*
    /// variant for every cell — `validate` is the only gate, and it is the
    /// same gate for every protocol.
    #[test]
    fn admission_never_exceeds_the_recorded_requirement_for_complete_rules() {
        // For modes whose decision rule actually relaxes (exact at k = 1 /
        // α > 0), the recorded requirement equals the admission bound.
        let mode = ValidityMode::KRelaxed(1);
        let check = validity_check(ProtocolKind::Exact, mode, 7, 3, 2).expect("recorded");
        assert_eq!(check.required_n, 7);
        assert!(RunConfig::new(7, 2, 3)
            .honest_inputs(inputs(5, 3))
            .validity_mode(mode)
            .validate(ProtocolKind::Exact)
            .is_ok());
    }

    #[test]
    fn zero_faults_rejected_except_for_topology_governed_protocols() {
        // The iterative and directed protocols accept the fault-free
        // baseline (their solvability signal is the graph condition, which
        // is trivial at f = 0); the four complete-graph protocols model at
        // least one Byzantine process.
        for protocol in ProtocolKind::ALL {
            let config = RunConfig::new(6, 0, 2).honest_inputs(inputs(6, 2));
            let result = config.validate(protocol);
            if !protocol.is_paper_protocol() {
                result.unwrap_or_else(|e| panic!("{protocol} accepts f = 0: {e}"));
            } else {
                assert!(
                    matches!(result, Err(BvcError::InvalidParameter(_))),
                    "{protocol} must reject f = 0"
                );
            }
        }
    }

    #[test]
    fn input_shape_and_topology_size_are_validated_once() {
        let err = RunConfig::new(5, 1, 2)
            .honest_inputs(inputs(2, 2))
            .validate(ProtocolKind::Exact)
            .unwrap_err();
        assert!(matches!(err, BvcError::InvalidParameter(_)));
        let err = RunConfig::new(5, 1, 2)
            .honest_inputs(inputs(4, 3))
            .validate(ProtocolKind::Exact)
            .unwrap_err();
        assert!(matches!(err, BvcError::InvalidParameter(_)));
        let err = RunConfig::new(6, 1, 1)
            .honest_inputs(inputs(5, 1))
            .topology(Topology::ring(5))
            .validate(ProtocolKind::Iterative)
            .unwrap_err();
        assert!(matches!(err, BvcError::InvalidParameter(_)));
    }

    #[test]
    fn exact_ignores_the_epsilon_knob_like_its_old_builder() {
        // The old ExactBvcRun builder had no ε setter; a garbage ε must not
        // make an exact session unconstructible…
        let config = RunConfig::new(5, 1, 2)
            .honest_inputs(inputs(4, 2))
            .epsilon(0.0);
        config
            .validate(ProtocolKind::Exact)
            .expect("ε is ignored by exact consensus");
        // …and the two directed exact protocols ignore it the same way…
        for protocol in [ProtocolKind::DirectedExact, ProtocolKind::DirectedExactLb] {
            RunConfig::new(5, 1, 2)
                .honest_inputs(inputs(4, 2))
                .epsilon(0.0)
                .validate(protocol)
                .expect("ε is ignored by the exact-consensus family");
        }
        // …while every ε-judged protocol still rejects it.
        for protocol in [
            ProtocolKind::Approx,
            ProtocolKind::RestrictedSync,
            ProtocolKind::RestrictedAsync,
            ProtocolKind::Iterative,
        ] {
            let config = RunConfig::new(13, 1, 2)
                .honest_inputs(inputs(12, 2))
                .epsilon(0.0);
            assert!(
                matches!(
                    config.validate(protocol),
                    Err(BvcError::InvalidParameter(_))
                ),
                "{protocol} is judged against ε and must validate it"
            );
        }
    }

    #[test]
    fn for_instance_overrides_only_the_per_instance_knobs() {
        let template = RunConfig::new(5, 1, 2)
            .honest_inputs(inputs(4, 2))
            .adversary(ByzantineStrategy::Silent)
            .seed(7)
            .epsilon(0.25);
        let inherited = template.for_instance(&InstanceOverrides {
            seed: 99,
            ..InstanceOverrides::default()
        });
        assert_eq!(inherited.seed, 99);
        assert_eq!(inherited.adversary, ByzantineStrategy::Silent);
        assert_eq!(inherited.honest_inputs.len(), 4);
        assert_eq!(inherited.epsilon, 0.25);
        let replaced = template.for_instance(&InstanceOverrides {
            seed: 3,
            honest_inputs: Some(inputs(4, 2)),
            adversary: Some(ByzantineStrategy::Equivocate),
            validity: Some(ValidityMode::KRelaxed(1)),
        });
        assert_eq!(replaced.adversary, ByzantineStrategy::Equivocate);
        assert_eq!(replaced.validity, ValidityMode::KRelaxed(1));
        replaced
            .validate(ProtocolKind::Exact)
            .expect("derived instance config stays valid");
    }

    #[test]
    fn with_broadcast_flips_only_the_directed_pair() {
        assert_eq!(
            ProtocolKind::DirectedExact.with_broadcast(BroadcastModel::Local),
            Some(ProtocolKind::DirectedExactLb)
        );
        assert_eq!(
            ProtocolKind::DirectedExactLb.with_broadcast(BroadcastModel::PointToPoint),
            Some(ProtocolKind::DirectedExact)
        );
        assert_eq!(
            ProtocolKind::DirectedExactLb.with_broadcast(BroadcastModel::Local),
            Some(ProtocolKind::DirectedExactLb)
        );
        for kind in [
            ProtocolKind::Exact,
            ProtocolKind::Approx,
            ProtocolKind::RestrictedSync,
            ProtocolKind::RestrictedAsync,
            ProtocolKind::Iterative,
        ] {
            assert_eq!(kind.with_broadcast(BroadcastModel::Local), None);
            assert_eq!(kind.broadcast_model(), None);
        }
    }

    #[test]
    fn protocol_kind_surface() {
        assert_eq!(ProtocolKind::ALL.len(), 7);
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_name("nope"), None);
        assert!(ProtocolKind::Approx.is_async());
        assert!(!ProtocolKind::RestrictedSync.is_async());
        assert!(!ProtocolKind::Exact.uses_epsilon());
        assert!(ProtocolKind::Iterative.uses_epsilon());
        assert_eq!(ProtocolKind::RestrictedAsync.name(), "restricted-async");
        assert!(!ProtocolKind::Iterative.is_paper_protocol());
        assert_eq!(ProtocolKind::DirectedExact.name(), "directed-exact");
        assert_eq!(ProtocolKind::DirectedExactLb.name(), "directed-exact-lb");
        assert!(!ProtocolKind::DirectedExact.is_async());
        assert!(!ProtocolKind::DirectedExactLb.is_async());
        assert!(!ProtocolKind::DirectedExact.uses_epsilon());
        assert!(!ProtocolKind::DirectedExactLb.uses_epsilon());
        assert!(!ProtocolKind::DirectedExact.is_paper_protocol());
        assert!(!ProtocolKind::DirectedExactLb.is_paper_protocol());
        assert!(ProtocolKind::RestrictedAsync.is_paper_protocol());
    }
}
