//! Hill-climbing search with restarts over scenario specs.
//!
//! The loop is deliberately simple and **fully deterministic**: one
//! `StdRng` seeded from the master seed drives restart sampling and every
//! mutation, and each decision is appended to a textual trace — the
//! shrinker property tests pin that the same master seed produces a
//! byte-identical trace.  Each restart samples a fresh [`ScenarioSpec`]
//! near a protocol's resource boundary, then climbs: a mutation is kept iff
//! its score is no worse than the incumbent's, and any genuine violation
//! ends the restart with a finding (deduplicated by family signature).
//!
//! Every spec the lab builds keeps two invariants, restored by one helper
//! after each change: exactly `n − f` explicit honest points of dimension
//! `d`, and `name` equal to its family signature ([`spec_signature`]).
//! The lab's faults are latency windows on single directed links.  On a
//! synchronous protocol such a window holds messages past their round, so
//! a violation under it is expected data, like one under a drop fault
//! (which breaks the reliable-channel assumption), and is not a finding
//! ([`fault_excused`](crate::objective::fault_excused)).

use crate::objective::{evaluate, Evaluation};
use crate::repro::spec_signature;
use bvc_adversary::ByzantineStrategy;
use bvc_core::{admission_floor, FaultEvent, FaultKind, FaultPlan, LinkSelector, RunConfig};
use bvc_net::{DeliveryPolicy, ProcessId};
use bvc_scenario::{BroadcastModel, InputSpec, Protocol, ScenarioSpec, TopologySpec, ValidityMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The strategies a restart or a `swap-strategy` mutation draws from (a
/// restart may also draw a split-brain mask).
const STRATEGIES: [ByzantineStrategy; 4] = [
    ByzantineStrategy::Equivocate,
    ByzantineStrategy::FixedOutlier,
    ByzantineStrategy::AntiConvergence,
    ByzantineStrategy::RandomNoise,
];

/// The sampling/mutation space the search explores.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Protocols to attack.
    pub protocols: Vec<Protocol>,
    /// Inclusive range of Byzantine counts.
    pub f_range: (usize, usize),
    /// Inclusive range of dimensions.
    pub d_range: (usize, usize),
    /// How far below/above the protocol's boundary (strict bound, or the
    /// relaxed family bound when the sampled validity is relaxed) the
    /// sampled `n` may sit.
    pub n_slack: usize,
    /// Largest α a restart or mutation may pick.
    pub alpha_max: f64,
    /// Async delivery-step cap for sampled specs.
    pub max_steps: usize,
    /// Topologies a **directed** spec may declare.  Drawn only when the
    /// sampled or mutated protocol is one of the directed kinds, so spaces
    /// without a directed protocol consume no extra randomness and their
    /// traces stay byte-identical to the pre-digraph search.
    pub directed_topologies: Vec<TopologySpec>,
}

impl SearchSpace {
    /// Whether the space contains a directed protocol kind — the gate that
    /// unlocks the digraph-aware mutation operators (and with them a wider
    /// operator draw, which is why it is a property of the *space*, not of
    /// the current spec: the draw sequence must not depend on search
    /// state that classic spaces never reach).
    pub fn has_directed(&self) -> bool {
        self.protocols.iter().any(|p| p.broadcast_model().is_some())
    }

    /// One topology for a directed spec (`None` when the space declares
    /// none — the spec then runs on the complete graph).
    fn pick_topology(&self, rng: &mut StdRng) -> Option<TopologySpec> {
        if self.directed_topologies.is_empty() {
            None
        } else {
            let i = rng.gen_range(0..self.directed_topologies.len());
            Some(self.directed_topologies[i].clone())
        }
    }
}

impl Default for SearchSpace {
    /// The default space is the whole complete-graph scenario surface the
    /// repo's campaigns sweep, centred on the resource boundaries — it is
    /// NOT seeded with any known failure: every shape/validity cell near a
    /// bound is sampled with equal probability.
    fn default() -> Self {
        Self {
            protocols: vec![Protocol::Exact, Protocol::RestrictedSync, Protocol::Approx],
            f_range: (1, 2),
            d_range: (1, 3),
            n_slack: 2,
            alpha_max: 4.0,
            max_steps: 400_000,
            // Only drawn from once a directed protocol enters the space
            // (the `--protocols` knob); the default protocol list above is
            // deliberately unchanged so the seed-0 CI trajectory is too.
            directed_topologies: vec![
                TopologySpec::Complete,
                TopologySpec::RandomRegular { degree: 4 },
                TopologySpec::Ring,
            ],
        }
    }
}

/// One genuine violation the search found.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violating spec, exactly as evaluated; its `name` is the family
    /// signature at discovery time.
    pub spec: ScenarioSpec,
    /// Verdict flags `(agreement, validity, termination)` of the violation.
    pub flags: (bool, bool, bool),
    /// Objective score of the violating run.
    pub score: f64,
    /// Restart index that produced it.
    pub restart: usize,
}

/// The result of one search run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Genuine violations, deduplicated by family signature, in discovery
    /// order.
    pub findings: Vec<Finding>,
    /// Total spec evaluations performed.
    pub evaluations: usize,
    /// Best score seen across the whole run.
    pub best_score: f64,
    /// The deterministic decision trace: one line per restart sample and
    /// per mutation, identical for identical master seeds.
    pub trace: Vec<String>,
}

/// Search budget and seed.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Master seed driving all sampling and mutation.
    pub master_seed: u64,
    /// Independent restarts.
    pub restarts: usize,
    /// Mutations attempted per restart.
    pub iters: usize,
    /// The space to explore.
    pub space: SearchSpace,
}

impl SearchConfig {
    /// A config over the default space.
    pub fn new(master_seed: u64, restarts: usize, iters: usize) -> Self {
        Self {
            master_seed,
            restarts,
            iters,
            space: SearchSpace::default(),
        }
    }
}

/// The explicit honest inputs of a lab spec.
pub(crate) fn points_mut(spec: &mut ScenarioSpec) -> &mut Vec<Vec<f64>> {
    match &mut spec.inputs {
        InputSpec::Explicit { points } => points,
        other => unreachable!("lab specs list their inputs, found `{}`", other.name()),
    }
}

/// Restores the two invariants of a lab spec after a change: exactly
/// `n − f` explicit honest points of dimension `d` (each missing
/// coordinate drawn by `draw`), and `name` equal to the family signature,
/// which the verdict line and a pinned reproducer carry.
pub(crate) fn fit(spec: &mut ScenarioSpec, mut draw: impl FnMut() -> f64) {
    let (honest, d) = (spec.n - spec.f, spec.d);
    let points = points_mut(spec);
    points.truncate(honest);
    while points.len() < honest {
        points.push((0..d).map(|_| draw()).collect());
    }
    for point in points.iter_mut() {
        point.truncate(d);
        while point.len() < d {
            point.push(draw());
        }
    }
    spec.name = spec_signature(spec);
}

/// Rewrites the spec's fault events through `edit`; every lab fault is a
/// latency window of positive, finite length, so the plan stays valid.
pub(crate) fn edit_faults(spec: &mut ScenarioSpec, edit: impl FnOnce(&mut Vec<FaultEvent>)) {
    let mut events = spec.faults.events().to_vec();
    edit(&mut events);
    spec.faults = FaultPlan::new();
    for event in events {
        spec.faults
            .push(event)
            .expect("lab fault windows are positive and finite");
    }
}

/// Samples a restart spec near a resource boundary (also the churn
/// engine's cell generator).
pub(crate) fn sample(rng: &mut StdRng, space: &SearchSpace) -> ScenarioSpec {
    let protocol = space.protocols[rng.gen_range(0..space.protocols.len())];
    let f = rng.gen_range(space.f_range.0..=space.f_range.1);
    let d = rng.gen_range(space.d_range.0..=space.d_range.1);
    let validity = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(ValidityMode::AlphaScaled(
            rng.gen_range(0.0..=space.alpha_max),
        )),
        _ => Some(ValidityMode::KRelaxed(rng.gen_range(1..=d))),
    };
    // Centre n on the core's admission floor for this validity family
    // (probing the boundary is the generic heuristic — cells below their
    // own bound are simply rejected and scored out).
    let mode = validity.unwrap_or(ValidityMode::Strict);
    let bound = admission_floor(protocol, &mode, d, f).unwrap_or(0);
    let lo = bound.saturating_sub(space.n_slack).max(f + 2);
    let hi = bound + space.n_slack;
    let n = rng.gen_range(lo..=hi);
    let strategy = match rng.gen_range(0..STRATEGIES.len() + 1) {
        i if i < STRATEGIES.len() => STRATEGIES[i],
        _ => ByzantineStrategy::SplitBrain(rng.gen_range(1..(1u64 << n.min(16)))),
    };
    // Directed protocols live or die by their graph condition, so every
    // directed restart declares a topology; the classic kinds keep the
    // complete graph and draw nothing here.
    let topology = if protocol.broadcast_model().is_some() {
        space.pick_topology(rng)
    } else {
        None
    };
    let defaults = RunConfig::new(n, f, d);
    let mut spec = ScenarioSpec {
        name: String::new(),
        protocol,
        n,
        f,
        d,
        epsilon: 0.1,
        seed: rng.gen_range(0..1000u64),
        max_steps: space.max_steps,
        value_bounds: defaults.value_bounds,
        inputs: InputSpec::Explicit { points: Vec::new() },
        strategy,
        policy: defaults.delivery_policy,
        faults: FaultPlan::new(),
        topology,
        validity,
        campaign: None,
        service: None,
    };
    fit(&mut spec, || rng.gen_range(0.0..=1.0));
    spec
}

/// Applies one named mutation, returning the mutated spec and the
/// operator label recorded in the trace.
pub(crate) fn mutate(
    spec: &ScenarioSpec,
    rng: &mut StdRng,
    space: &SearchSpace,
) -> (ScenarioSpec, String) {
    let mut g = spec.clone();
    // Spaces holding a directed protocol unlock two digraph operators
    // (protocol swap, broadcast-flip/retopo).  The wider draw is gated on
    // the space — fixed per run — so classic spaces keep the exact operator
    // distribution (and rng stream) of the pre-digraph search.
    let operators = if space.has_directed() { 14u32 } else { 12 };
    let op = match rng.gen_range(0..operators) {
        0 => {
            let d = g.d;
            let points = points_mut(&mut g);
            let p = rng.gen_range(0..points.len());
            let c = rng.gen_range(0..d);
            let delta = rng.gen_range(-0.25..=0.25);
            points[p][c] = (points[p][c] + delta).clamp(0.0, 1.0);
            format!("nudge-input:p{p}c{c}")
        }
        1 => {
            g.seed = rng.gen_range(0..1000u64);
            "reseed".to_string()
        }
        2 => {
            g.strategy = STRATEGIES[rng.gen_range(0..STRATEGIES.len())];
            format!("swap-strategy:{}", g.strategy.label())
        }
        3 => {
            let mask = rng.gen_range(1..(1u64 << g.n.min(16)));
            g.strategy = ByzantineStrategy::SplitBrain(mask);
            format!("retarget-mask:{mask}")
        }
        4 => {
            // The α knob: multiply an existing α (factors < 1 weaken the
            // relaxation — the monotone direction toward an empty Γ_α), or
            // enter the α family fresh.
            let alpha = match g.validity {
                Some(ValidityMode::AlphaScaled(a)) => {
                    let factor: f64 = [0.25, 0.5, 0.75, 1.5, 2.0][rng.gen_range(0..5usize)];
                    (a * factor).clamp(0.01, space.alpha_max)
                }
                _ => rng.gen_range(0.0..=space.alpha_max),
            };
            g.validity = Some(ValidityMode::AlphaScaled(alpha));
            "scale-alpha".to_string()
        }
        5 => {
            g.validity = Some(ValidityMode::KRelaxed(rng.gen_range(1..=g.d)));
            "relax-k".to_string()
        }
        6 => {
            g.validity = None;
            "strict-mode".to_string()
        }
        7 => {
            if rng.gen_bool(0.5) && g.n > g.f + 2 {
                g.n -= 1;
                "shrink-n".to_string()
            } else {
                g.n += 1;
                "grow-n".to_string()
            }
        }
        8 => {
            if rng.gen_bool(0.5) && g.f > 1 {
                g.f -= 1;
            } else if g.n > g.f + 3 {
                g.f += 1;
            }
            "retune-f".to_string()
        }
        9 => {
            if g.faults.events().len() < 3 {
                let from = rng.gen_range(0..g.n);
                let to = (from + rng.gen_range(1..g.n)) % g.n;
                let links =
                    LinkSelector::Directed(vec![ProcessId::new(from)], vec![ProcessId::new(to)]);
                let extra = rng.gen_range(1..=5usize);
                let event = FaultEvent {
                    kind: FaultKind::Latency { extra, links },
                    start: rng.gen_range(1..=3usize),
                    duration: rng.gen_range(1..=6usize),
                };
                edit_faults(&mut g, |events| events.push(event));
                "fault-add".to_string()
            } else {
                g.faults = FaultPlan::new();
                "fault-clear".to_string()
            }
        }
        10 => {
            if g.faults.is_empty() {
                g.policy = match g.policy {
                    DeliveryPolicy::RoundRobin => DeliveryPolicy::RandomFair,
                    _ => DeliveryPolicy::RoundRobin,
                };
                "delivery-flip".to_string()
            } else {
                let i = rng.gen_range(0..g.faults.events().len());
                edit_faults(&mut g, |events| {
                    events.remove(i);
                });
                format!("fault-drop:{i}")
            }
        }
        11 => {
            let lo = space.d_range.0;
            let hi = space.d_range.1;
            g.d = if rng.gen_bool(0.5) && g.d > lo {
                g.d - 1
            } else {
                (g.d + 1).min(hi)
            };
            "redim".to_string()
        }
        12 => {
            // Digraph operator: hop to any protocol in the space.  Entering
            // the directed family brings a topology along (the graph
            // condition is what makes those kinds interesting); leaving it
            // sheds the topology so classic specs stay classic.
            let protocol = space.protocols[rng.gen_range(0..space.protocols.len())];
            g.protocol = protocol;
            if protocol.broadcast_model().is_some() {
                if g.topology.is_none() {
                    g.topology = space.pick_topology(rng);
                }
            } else {
                g.topology = None;
            }
            format!("swap-protocol:{}", protocol.name())
        }
        _ => {
            // Digraph operator: on a directed spec, flip the delivery
            // model (point-to-point ↔ local broadcast — the tighter cut
            // threshold is exactly the boundary worth probing) or rewire
            // onto a different topology; elsewhere fall back to a reseed so
            // the operator is never a silent no-op.
            match g.protocol.broadcast_model() {
                Some(model) => {
                    if rng.gen_bool(0.5) {
                        let flipped = match model {
                            BroadcastModel::PointToPoint => BroadcastModel::Local,
                            BroadcastModel::Local => BroadcastModel::PointToPoint,
                        };
                        g.protocol = g
                            .protocol
                            .with_broadcast(flipped)
                            .expect("directed protocols always have a broadcast axis");
                        "flip-broadcast".to_string()
                    } else {
                        g.topology = space.pick_topology(rng);
                        let topology = g.topology.as_ref().unwrap_or(&TopologySpec::Complete);
                        format!("retopo:{}", topology.name())
                    }
                }
                None => {
                    g.seed = rng.gen_range(0..1000u64);
                    "reseed".to_string()
                }
            }
        }
    };
    // A shape operator (grow/shrink n, retune f, redim) draws the new
    // coordinates here, in the order the points are laid out; every other
    // operator leaves the shape alone and only renames.
    fit(&mut g, || rng.gen_range(0.0..=1.0));
    (g, op)
}

/// Score formatting for the trace: fixed precision so the trace is
/// byte-stable and readable.
fn fmt_score(score: f64) -> String {
    if score == f64::NEG_INFINITY {
        "rejected".to_string()
    } else {
        format!("{score:.3}")
    }
}

/// Runs the full hill-climbing search.
pub fn search(config: &SearchConfig) -> SearchReport {
    let mut rng = StdRng::seed_from_u64(config.master_seed);
    let mut report = SearchReport {
        findings: Vec::new(),
        evaluations: 0,
        best_score: f64::NEG_INFINITY,
        trace: Vec::new(),
    };

    for restart in 0..config.restarts {
        let mut current = sample(&mut rng, &config.space);
        let mut eval = evaluate(&current);
        report.evaluations += 1;
        report.trace.push(format!(
            "r{restart} sample {} -> {}",
            current.name,
            fmt_score(eval.score)
        ));
        report.best_score = report.best_score.max(eval.score);
        if record_if_violation(&mut report, &current, &eval, restart) {
            continue;
        }

        for iter in 0..config.iters {
            let (candidate, op) = mutate(&current, &mut rng, &config.space);
            let cand_eval = evaluate(&candidate);
            report.evaluations += 1;
            let accepted = cand_eval.score >= eval.score;
            report.trace.push(format!(
                "r{restart}.{iter} {op} -> {} {}",
                fmt_score(cand_eval.score),
                if accepted { "accept" } else { "keep" }
            ));
            if record_if_violation(&mut report, &candidate, &cand_eval, restart) {
                break;
            }
            if accepted {
                current = candidate;
                eval = cand_eval;
            }
            report.best_score = report.best_score.max(eval.score);
        }
    }
    report
}

/// Records a finding (deduplicated by signature); returns whether the
/// evaluation was a violation (ending the restart either way — staying on a
/// violation would just rediscover the same family every iteration).
fn record_if_violation(
    report: &mut SearchReport,
    spec: &ScenarioSpec,
    eval: &Evaluation,
    restart: usize,
) -> bool {
    if !eval.violation {
        return false;
    }
    report.best_score = report.best_score.max(eval.score);
    let signature = &spec.name;
    if !report.findings.iter().any(|f| f.spec.name == *signature) {
        report
            .trace
            .push(format!("r{restart} VIOLATION {signature}"));
        report.findings.push(Finding {
            spec: spec.clone(),
            flags: eval.verdict_flags(),
            score: eval.score,
            restart,
        });
    } else {
        report
            .trace
            .push(format!("r{restart} violation (known) {signature}"));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny cheap space for debug-build tests: exact protocol, d = 1,
    /// smallest shapes.
    fn tiny_config(seed: u64) -> SearchConfig {
        SearchConfig {
            master_seed: seed,
            restarts: 2,
            iters: 3,
            space: SearchSpace {
                protocols: vec![Protocol::Exact],
                f_range: (1, 1),
                d_range: (1, 1),
                n_slack: 1,
                alpha_max: 2.0,
                max_steps: 100_000,
                directed_topologies: Vec::new(),
            },
        }
    }

    /// A cheap digraph space: both directed kinds over small topologies.
    fn directed_config(seed: u64) -> SearchConfig {
        SearchConfig {
            master_seed: seed,
            restarts: 2,
            iters: 4,
            space: SearchSpace {
                protocols: vec![Protocol::DirectedExact, Protocol::DirectedExactLb],
                f_range: (1, 1),
                d_range: (1, 1),
                n_slack: 1,
                alpha_max: 2.0,
                max_steps: 100_000,
                directed_topologies: vec![TopologySpec::Complete, TopologySpec::Ring],
            },
        }
    }

    #[test]
    fn same_seed_produces_a_byte_identical_trace() {
        let a = search(&tiny_config(42));
        let b = search(&tiny_config(42));
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.evaluations, b.evaluations);
        assert!(a.evaluations >= 2, "both restarts evaluated");
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = search(&tiny_config(1));
        let b = search(&tiny_config(2));
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn the_default_space_has_no_directed_protocols() {
        // The seed-0 CI search trajectory is byte-stable only because the
        // digraph operators stay locked behind the explicit `--protocols`
        // opt-in: the default space must never grow a directed kind without
        // regenerating every pinned chaos artefact.
        assert!(!SearchSpace::default().has_directed());
    }

    #[test]
    fn directed_spaces_search_deterministically_over_digraph_specs() {
        let a = search(&directed_config(9));
        let b = search(&directed_config(9));
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.evaluations, b.evaluations);
        assert!(
            a.trace.iter().any(|line| line.contains("directed-exact")),
            "directed spaces must actually sample directed specs: {:?}",
            a.trace
        );
    }

    #[test]
    fn fit_restores_the_shape_invariant_and_the_name() {
        let mut spec = sample(&mut StdRng::seed_from_u64(3), &tiny_config(0).space);
        spec.n = 7;
        spec.d = 3;
        spec.validity = Some(ValidityMode::KRelaxed(2));
        fit(&mut spec, || 0.5);
        let InputSpec::Explicit { points } = &spec.inputs else {
            panic!("lab specs list their inputs");
        };
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.len() == 3));
        assert!(points.iter().flatten().all(|c| (0.0..=1.0).contains(c)));
        assert_eq!(spec.name, "exact-n7f1d3-k2");
    }
}
