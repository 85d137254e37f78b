//! Deterministic execution of one scenario instance.
//!
//! [`run_scenario`] materialises the honest inputs from the scenario's
//! generator, builds **one** protocol-agnostic [`RunConfig`]
//! ([`run_config_from_spec`]) and dispatches it through [`BvcSession`] (the
//! protocol logic lives in `bvc-core` — the scenario engine never
//! re-implements it, and the schema's `Protocol` *is* the session API's
//! `ProtocolKind`), then packages the unified report as a
//! [`ScenarioOutcome`] whose JSON form is byte-identical for identical
//! `(scenario, seed, strategy, policy)`.

use crate::json::Json;
use crate::schema::{policy_name, InputSpec, Protocol, ScenarioSpec};
use bvc_adversary::ByzantineStrategy;
use bvc_core::{BvcError, BvcSession, RunConfig, ValidityCheck, ValidityMode, Verdict};
use bvc_geometry::{Point, WorkloadGenerator};
use bvc_net::{DeliveryPolicy, ExecutionStats, FaultPlan};
use bvc_topology::{Topology, TopologySpec};
use std::fmt;

/// Salt separating input-generation randomness from executor randomness.
const INPUT_SEED_SALT: u64 = 0x1094_2A7C_5EED_5EED;

/// Salt separating topology-generation randomness from everything else (only
/// the random-regular family actually consumes it).  `pub(crate)` so the
/// service builder materialises the *same* substrate a single run would.
pub(crate) const TOPOLOGY_SEED_SALT: u64 = 0x70B0_70B0_70B0_70B0;

/// Why a scenario instance could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The generator cannot produce the required inputs.
    BadInputs(String),
    /// The run builder rejected the configuration (resilience bound,
    /// parameter validation).
    Rejected(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadInputs(msg) => write!(f, "cannot generate inputs: {msg}"),
            ScenarioError::Rejected(msg) => write!(f, "configuration rejected: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<BvcError> for ScenarioError {
    fn from(e: BvcError) -> Self {
        ScenarioError::Rejected(e.to_string())
    }
}

/// Topology metadata recorded in a verdict when the scenario declared (or
/// swept) a topology.  Absent for plain complete-graph scenarios, whose JSON
/// stays byte-identical to the pre-topology schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyMeta {
    /// The topology family label (`complete`, `ring`, `torus:RxC`, …).
    pub kind: String,
    /// Number of directed inter-process links.
    pub edges: usize,
    /// Smallest in-degree.
    pub min_in_degree: usize,
    /// Smallest out-degree.
    pub min_out_degree: usize,
    /// Whether the graph is strongly connected.
    pub strongly_connected: bool,
    /// Label of the iterative-BVC sufficiency check (`satisfied`,
    /// `violated`, `unknown`).
    pub sufficiency: &'static str,
    /// Whether the protocol is expected to hold its verdict on this topology
    /// (`iterative`: the sufficiency check passed or was too large to decide;
    /// the complete-graph protocols: the topology is actually complete).  A
    /// violated verdict with `expected_solvable = false` is data, not a
    /// regression.
    pub expected_solvable: bool,
}

impl TopologyMeta {
    fn from_topology(topology: &Topology, protocol: Protocol, f: usize, d: usize) -> Self {
        Self::with_sufficiency(topology, protocol, &topology.iterative_sufficiency(f, d))
    }

    /// Builds the metadata from an already-computed sufficiency verdict (the
    /// iterative run builder computes one anyway; reusing it avoids running
    /// the exponential partition enumeration twice per instance).
    fn with_sufficiency(
        topology: &Topology,
        protocol: Protocol,
        sufficiency: &bvc_topology::Sufficiency,
    ) -> Self {
        // The graph-governed kinds: unknown is treated as expected, so
        // surprises surface loudly instead of being excused by an unchecked
        // condition.
        let expected_solvable = if protocol.is_paper_protocol() {
            topology.is_complete()
        } else {
            !matches!(sufficiency, bvc_topology::Sufficiency::Violated(_))
        };
        Self {
            kind: topology.label().to_string(),
            edges: topology.edge_count(),
            min_in_degree: topology.min_in_degree(),
            min_out_degree: topology.min_out_degree(),
            strongly_connected: topology.is_strongly_connected(),
            sufficiency: sufficiency.label(),
            expected_solvable,
        }
    }
}

/// Validity metadata recorded in a verdict when the scenario declared (or
/// swept) a validity mode.  Absent for plain strict scenarios, whose JSON
/// stays byte-identical to the pre-validity schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidityMeta {
    /// Stable mode label (`strict`, `(1+0.5)-relaxed`, `2-relaxed`).
    pub mode: String,
    /// The α of `(1+α)`-relaxed modes.
    pub alpha: Option<f64>,
    /// The k of `k`-relaxed modes.
    pub k: Option<usize>,
    /// The (possibly lowered) minimum `n` for the protocol under this mode
    /// (`None` for the graph-governed kinds, whose resource signal is the
    /// topology sufficiency check).
    pub required_n: Option<usize>,
    /// Whether the run meets its resource requirement.  A violated verdict
    /// with `satisfied = false` is expected data (mirrors
    /// [`TopologyMeta::expected_solvable`]).
    pub satisfied: bool,
}

impl ValidityMeta {
    /// The metadata of a run scored under `mode`, with the run's recorded
    /// resource check — `None` for the graph-governed kinds, which have no
    /// closed-form `n` bound: their expected-solvable signal lives in the
    /// topology metadata.
    fn new(mode: &ValidityMode, check: Option<&ValidityCheck>) -> Self {
        let (alpha, k) = match mode {
            ValidityMode::Strict => (None, None),
            ValidityMode::AlphaScaled(a) => (Some(*a), None),
            ValidityMode::KRelaxed(k) => (None, Some(*k)),
        };
        Self {
            mode: mode.label(),
            alpha,
            k,
            required_n: check.map(|check| check.required_n),
            satisfied: check.is_none_or(|check| check.satisfied),
        }
    }
}

/// The outcome of one scenario instance, ready for JSON serialisation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Protocol under test.
    pub protocol: Protocol,
    /// `(n, f, d)` of the run.
    pub shape: (usize, usize, usize),
    /// ε the verdict was judged against (`None` for exact consensus).
    pub epsilon: Option<f64>,
    /// The executor seed used.
    pub seed: u64,
    /// Stable name of the Byzantine strategy.
    pub strategy: String,
    /// Stable name of the delivery policy (async protocols; `"sync"` for
    /// lock-step rounds).
    pub policy: String,
    /// Names of the injected fault kinds, in schedule order.
    pub faults: Vec<&'static str>,
    /// Topology metadata (`None` for plain complete-graph scenarios).
    pub topology: Option<TopologyMeta>,
    /// Validity metadata (`None` for plain strict scenarios).
    pub validity: Option<ValidityMeta>,
    /// The scored verdict.
    pub verdict: Verdict,
    /// Rounds (sync) or delivery steps (async) executed.
    pub rounds: usize,
    /// Message statistics, including per-process attribution.
    pub stats: ExecutionStats,
}

impl ScenarioOutcome {
    /// Whether the run was set up to satisfy its verdict.  `false` on a
    /// topology flagged insufficient up front, or below the resource bound
    /// of its validity mode: a violated verdict there is data the campaign
    /// set out to collect, not a regression.
    pub fn expected_solvable(&self) -> bool {
        let unsolvable = self.topology.as_ref().is_some_and(|t| !t.expected_solvable)
            || self.validity.as_ref().is_some_and(|v| !v.satisfied);
        !unsolvable
    }

    /// Serialises the outcome as a single deterministic JSON line.
    pub fn to_json(&self) -> String {
        let per_process: Vec<Json> = self
            .stats
            .per_process
            .iter()
            .map(|c| {
                Json::object()
                    .field("sent", c.sent)
                    .field("delivered", c.delivered)
                    .field("dropped", c.dropped)
            })
            .collect();
        let epsilon = match self.epsilon {
            Some(e) => Json::Float(e),
            None => Json::Null,
        };
        let distance = if self.verdict.max_pairwise_distance.is_finite() {
            Json::Float(self.verdict.max_pairwise_distance)
        } else {
            Json::Null
        };
        let mut json = Json::object()
            .field("scenario", self.scenario.as_str())
            .field("protocol", self.protocol.name())
            .field("n", self.shape.0)
            .field("f", self.shape.1)
            .field("d", self.shape.2)
            .field("epsilon", epsilon)
            .field("seed", self.seed)
            .field("strategy", self.strategy.as_str())
            .field("policy", self.policy.as_str())
            .field(
                "faults",
                Json::Array(self.faults.iter().map(|&k| Json::from(k)).collect()),
            );
        if let Some(meta) = &self.topology {
            json = json.field(
                "topology",
                Json::object()
                    .field("kind", meta.kind.as_str())
                    .field("edges", meta.edges)
                    .field("min_in_degree", meta.min_in_degree)
                    .field("min_out_degree", meta.min_out_degree)
                    .field("strongly_connected", meta.strongly_connected)
                    .field("sufficiency", meta.sufficiency)
                    .field("expected_solvable", meta.expected_solvable),
            );
        }
        if let Some(meta) = &self.validity {
            let mut obj = Json::object().field("mode", meta.mode.as_str());
            if let Some(alpha) = meta.alpha {
                obj = obj.field("alpha", Json::Float(alpha));
            }
            if let Some(k) = meta.k {
                obj = obj.field("k", k);
            }
            if let Some(required_n) = meta.required_n {
                obj = obj.field("required_n", required_n);
            }
            json = json.field("validity", obj.field("satisfied", meta.satisfied));
        }
        json.field(
            "verdict",
            Json::object()
                .field("agreement", self.verdict.agreement)
                .field("validity", self.verdict.validity)
                .field("termination", self.verdict.termination)
                .field("max_pairwise_distance", distance),
        )
        .field("rounds", self.rounds)
        .field(
            "messages",
            Json::object()
                .field("sent", self.stats.messages_sent)
                .field("delivered", self.stats.messages_delivered)
                .field("dropped", self.stats.messages_dropped),
        )
        .field("per_process", Json::Array(per_process))
        .to_string()
    }
}

/// Generates the `n − f` honest inputs a scenario declares.
///
/// # Errors
///
/// Returns [`ScenarioError::BadInputs`] when the generator cannot satisfy the
/// scenario shape (wrong explicit count, zero dimension, bad bounds).
pub fn generate_inputs(spec: &ScenarioSpec, seed: u64) -> Result<Vec<Point>, ScenarioError> {
    let count = spec
        .n
        .checked_sub(spec.f)
        .filter(|&c| c > 0)
        .ok_or_else(|| ScenarioError::BadInputs("need n > f".into()))?;
    if spec.d == 0 {
        return Err(ScenarioError::BadInputs("d must be positive".into()));
    }
    let (lo, hi) = spec.value_bounds;
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(ScenarioError::BadInputs(format!(
            "value_bounds must be finite with lower < upper, got [{lo}, {hi}]"
        )));
    }
    let mut generator = WorkloadGenerator::new(seed ^ INPUT_SEED_SALT);
    let points = match &spec.inputs {
        InputSpec::Grid => grid_points(count, spec.d, lo, hi),
        InputSpec::Simplex => generator
            .probability_vectors(count, spec.d)
            .points()
            .to_vec(),
        InputSpec::RandomBall { center, radius } => {
            let centre = Point::new(center.clone());
            generator
                .clustered(count, &centre, *radius)
                .points()
                .to_vec()
        }
        InputSpec::Corners => corner_points(count, spec.d, lo, hi),
        InputSpec::Explicit { points } => {
            if points.len() != count {
                return Err(ScenarioError::BadInputs(format!(
                    "explicit inputs list {} points, need n − f = {count}",
                    points.len()
                )));
            }
            points.iter().cloned().map(Point::new).collect()
        }
    };
    Ok(points)
}

/// Synchronous executors evaluate fault windows at 1-based round numbers, so
/// a window starting at time 0 would silently lose its first unit (no round 0
/// exists).  The schema defines `start = 0` as "from the beginning"; shift
/// such windows to round 1 so they cover the declared number of rounds.
fn sync_rounds_plan(plan: &FaultPlan) -> FaultPlan {
    let mut adjusted = FaultPlan::new();
    for event in plan.events() {
        let mut event = event.clone();
        if event.start == 0 {
            event.start = 1;
        }
        adjusted
            .push(event)
            .expect("shifting a validated window keeps it valid");
    }
    adjusted
}

/// Row-major lattice over `[lo, hi]^d`, truncated to `count` points.
fn grid_points(count: usize, d: usize, lo: f64, hi: f64) -> Vec<Point> {
    // Smallest per-axis resolution whose lattice covers `count` points; a
    // lattice too large to count in `usize` covers it already.
    let covers = |k: usize| {
        u32::try_from(d)
            .ok()
            .and_then(|d| k.checked_pow(d))
            .is_none_or(|cells| cells >= count)
    };
    let mut k = 1usize;
    while !covers(k) {
        k += 1;
    }
    let coordinate = |i: usize| {
        if k == 1 {
            0.5 * (lo + hi)
        } else {
            lo + (hi - lo) * i as f64 / (k - 1) as f64
        }
    };
    (0..count)
        .map(|mut index| {
            let coords = (0..d)
                .map(|_| {
                    let i = index % k;
                    index /= k;
                    coordinate(i)
                })
                .collect();
            Point::new(coords)
        })
        .collect()
}

/// Cycles through the `2^d` corners of `[lo, hi]^d` (maximum-spread inputs).
fn corner_points(count: usize, d: usize, lo: f64, hi: f64) -> Vec<Point> {
    let corners = 1usize << d.min(62);
    (0..count)
        .map(|j| {
            let mask = j % corners;
            Point::new(
                (0..d)
                    .map(|l| if (mask >> l) & 1 == 1 { hi } else { lo })
                    .collect(),
            )
        })
        .collect()
}

/// Runs one instance of a scenario: the spec with `seed`, `strategy` and
/// `policy` overriding the corresponding base values and the scenario's own
/// `[topology]` section (if any) selecting the substrate.
///
/// # Errors
///
/// Propagates input-generation failures and run-builder rejections; a run
/// whose verdict fails is **not** an error — failed verdicts are data.
pub fn run_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    strategy: ByzantineStrategy,
    policy: DeliveryPolicy,
) -> Result<ScenarioOutcome, ScenarioError> {
    run_scenario_instance(
        spec,
        seed,
        strategy,
        policy,
        spec.topology.as_ref(),
        spec.validity.as_ref(),
    )
}

/// [`run_scenario`] with every campaign axis made explicit: topology *and*
/// validity mode, so sweeps can override both per instance.
///
/// The topology is materialised deterministically from the instance seed
/// (only the random-regular family consumes it).  `None` means the plain
/// complete graph *and* suppresses the `topology` verdict field, keeping
/// pre-topology scenarios byte-identical; likewise a `None` validity means
/// strict scoring with no `validity` verdict field.  A declared (or swept)
/// mode is threaded into the run builder: it selects the scoring predicate,
/// lowers the admission bound to the relaxed requirement, and — for the
/// exact protocol — relaxes the Step-2 decision rule itself.
///
/// # Errors
///
/// Same as [`run_scenario`]; an unbuildable topology (size mismatch,
/// infeasible degree) is a rejection.
pub fn run_scenario_instance(
    spec: &ScenarioSpec,
    seed: u64,
    strategy: ByzantineStrategy,
    policy: DeliveryPolicy,
    topology_spec: Option<&TopologySpec>,
    validity: Option<&ValidityMode>,
) -> Result<ScenarioOutcome, ScenarioError> {
    let topology = match topology_spec {
        None => None,
        Some(t) => Some(
            t.build(spec.n, seed ^ TOPOLOGY_SEED_SALT)
                .map_err(|e| ScenarioError::Rejected(e.to_string()))?,
        ),
    };
    let config = run_config_from_spec(
        spec,
        seed,
        strategy,
        policy.clone(),
        topology.as_ref(),
        validity,
    )?;
    let report = BvcSession::new(spec.protocol, config)?.run();

    // Topology metadata: the iterative protocol always reports its substrate
    // (the session resolves the complete graph by default, and its driver
    // already computed the sufficiency verdict — recomputing the exponential
    // partition enumeration here would double the cost per instance); the
    // complete-graph protocols report it only when the scenario declared or
    // swept one.
    let topology_meta = match report.sufficiency() {
        Some(sufficiency) => Some(TopologyMeta::with_sufficiency(
            report.topology(),
            spec.protocol,
            sufficiency,
        )),
        None => topology
            .as_ref()
            .map(|t| TopologyMeta::from_topology(t, spec.protocol, spec.f, spec.d)),
    };
    // Validity metadata only when the scenario declared (or swept) a mode;
    // the graph-governed kinds have no closed-form resource check, so their
    // metadata carries the mode alone.
    let validity_meta =
        validity.map(|_| ValidityMeta::new(report.validity_mode(), report.validity()));
    let policy_label = if spec.protocol.is_async() {
        policy_name(&policy)
    } else {
        "sync".to_string()
    };
    Ok(ScenarioOutcome {
        scenario: spec.name.clone(),
        protocol: spec.protocol,
        shape: (spec.n, spec.f, spec.d),
        epsilon: report.epsilon(),
        seed,
        strategy: strategy.label(),
        policy: policy_label,
        faults: spec.faults.events().iter().map(|e| e.kind.name()).collect(),
        topology: topology_meta,
        validity: validity_meta,
        verdict: report.verdict().clone(),
        rounds: report.rounds(),
        stats: report.stats().clone(),
    })
}

/// Builds the session [`RunConfig`] for one scenario instance: honest inputs
/// from the scenario's generator, the instance's seed / strategy / policy,
/// the scenario's ε, value bounds, step cap and fault plan (fault windows
/// shifted to 1-based rounds for the synchronous protocols), plus the two
/// campaign axes made explicit — the already-materialised topology override
/// and the instance's validity mode (`None` means strict scoring, mirroring
/// the suppressed `validity` verdict field; pass `spec.validity.as_ref()`
/// to apply a scenario's own declared mode).
///
/// # Errors
///
/// Returns [`ScenarioError::BadInputs`] when the input generator cannot
/// satisfy the scenario shape.
pub fn run_config_from_spec(
    spec: &ScenarioSpec,
    seed: u64,
    strategy: ByzantineStrategy,
    policy: DeliveryPolicy,
    topology: Option<&Topology>,
    validity: Option<&ValidityMode>,
) -> Result<RunConfig, ScenarioError> {
    let faults = if spec.protocol.is_async() {
        spec.faults.clone()
    } else {
        sync_rounds_plan(&spec.faults)
    };
    let mut config = RunConfig::new(spec.n, spec.f, spec.d)
        .honest_inputs(generate_inputs(spec, seed)?)
        .adversary(strategy)
        .seed(seed)
        .epsilon(spec.epsilon)
        .value_bounds(spec.value_bounds.0, spec.value_bounds.1)
        .delivery_policy(policy)
        .max_steps(spec.max_steps)
        .validity_mode(validity.copied().unwrap_or(ValidityMode::Strict))
        .faults(faults);
    if let Some(t) = topology {
        config = config.topology(t.clone());
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(protocol: &str) -> ScenarioSpec {
        let (n, f, d) = match protocol {
            "exact" => (5, 1, 2),
            "approx" => (5, 1, 2),
            "restricted-sync" => (5, 1, 2),
            "restricted-async" => (6, 1, 1),
            _ => unreachable!(),
        };
        ScenarioSpec::from_toml(&format!(
            "[scenario]\nname = \"t\"\nprotocol = \"{protocol}\"\nn = {n}\nf = {f}\nd = {d}\n\
             epsilon = 0.1\nmax_steps = 500000\n"
        ))
        .unwrap()
    }

    #[test]
    fn grid_inputs_cover_the_box_deterministically() {
        let s = spec("exact");
        let a = generate_inputs(&s, 1).unwrap();
        let b = generate_inputs(&s, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for p in &a {
            assert!(p.coords().iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn corner_inputs_hit_extremes() {
        let mut s = spec("exact");
        s.inputs = InputSpec::Corners;
        let points = generate_inputs(&s, 0).unwrap();
        assert_eq!(points[0].coords(), &[0.0, 0.0]);
        assert_eq!(points[1].coords(), &[1.0, 0.0]);
        assert_eq!(points[2].coords(), &[0.0, 1.0]);
        assert_eq!(points[3].coords(), &[1.0, 1.0]);
    }

    #[test]
    fn all_four_protocols_run_and_serialize() {
        for protocol in ["exact", "approx", "restricted-sync", "restricted-async"] {
            let s = spec(protocol);
            let outcome = run_scenario(&s, 3, s.strategy, s.policy.clone())
                .unwrap_or_else(|e| panic!("{protocol}: {e}"));
            assert!(
                outcome.verdict.all_hold(),
                "{protocol} verdict: {:?}",
                outcome.verdict
            );
            let json = outcome.to_json();
            assert!(json.contains(&format!("\"protocol\": \"{protocol}\"")));
            assert!(json.contains("\"per_process\""));
        }
    }

    #[test]
    fn json_is_byte_identical_for_equal_runs() {
        let s = spec("approx");
        let a = run_scenario(&s, 42, s.strategy, s.policy.clone()).unwrap();
        let b = run_scenario(&s, 42, s.strategy, s.policy.clone()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn explicit_inputs_must_count_n_minus_f() {
        let mut s = spec("exact");
        s.inputs = InputSpec::Explicit {
            points: vec![vec![0.0, 0.0]],
        };
        assert!(matches!(
            generate_inputs(&s, 0),
            Err(ScenarioError::BadInputs(_))
        ));
    }

    #[test]
    fn sync_fault_windows_starting_at_zero_cover_round_one() {
        // Rounds are 1-based, so a raw start = 0 window of duration 1 would
        // never fire; the runner shifts it to round 1 and the drop fault must
        // actually destroy round-1 messages.
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"t\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n\
             [[faults]]\nkind = \"drop\"\nrate = 1.0\nfrom = [0]\nstart = 0\nduration = 1\n",
        )
        .unwrap();
        let outcome = run_scenario(&spec, 1, spec.strategy, spec.policy.clone()).unwrap();
        assert!(
            outcome.stats.messages_dropped > 0,
            "a start = 0 window must cover round 1, not vanish"
        );
        assert_eq!(
            outcome.stats.per_process[0].dropped,
            outcome.stats.messages_dropped
        );
    }

    #[test]
    fn bound_violations_surface_as_rejections() {
        // (d+2)f+1 = 5 > 4; at d = 70 the grid generator must still produce
        // its n − f points (its lattice size overflows `usize`) so admission
        // can reject.
        for d in [2, 70] {
            let mut s = spec("approx");
            (s.n, s.d) = (4, d);
            assert_eq!(generate_inputs(&s, 0).unwrap().len(), 3, "d = {d}");
            let err = run_scenario(&s, 0, s.strategy, s.policy.clone()).unwrap_err();
            assert!(matches!(err, ScenarioError::Rejected(_)), "d = {d}");
        }
    }
}
