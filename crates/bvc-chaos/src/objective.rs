//! Spec evaluation and the search objective.
//!
//! One evaluation = one deterministic run of the spec as given.  The score rewards, in
//! order of magnitude: an outright **genuine** verdict violation (the search
//! target), then generic *danger heuristics* that give hill-climbing a
//! gradient toward one — operating below the strict resource bound under a
//! relaxed validity mode, weaker relaxations (smaller α), larger decision
//! spread relative to ε, and longer runs.  A violation only counts as
//! genuine when nothing excused it up front: the resource check was
//! satisfied, the substrate was declared solvable, and no fault window
//! stepped outside the protocol's model ([`fault_excused`]).

use bvc_scenario::{run_scenario, ScenarioOutcome, ScenarioSpec, ValidityMode};

/// Score assigned to any genuine violation, dwarfing every heuristic term.
pub const VIOLATION_SCORE: f64 = 1e6;

/// The outcome of evaluating one spec.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The scenario outcome, when the instance ran (`None` ⇒ rejected at
    /// admission).
    pub outcome: Option<ScenarioOutcome>,
    /// The rejection message, when it did not.
    pub rejected: Option<String>,
    /// Whether the run is a genuine violation (unexcused failed verdict).
    pub violation: bool,
    /// The objective score (higher = more interesting to the search).
    pub score: f64,
}

impl Evaluation {
    /// The violated-verdict flags `(agreement, validity, termination)`,
    /// used by the shrinker to check a reduction preserves the *same*
    /// violation.  All-true when the instance was rejected.
    pub fn verdict_flags(&self) -> (bool, bool, bool) {
        match &self.outcome {
            Some(o) => (
                o.verdict.agreement,
                o.verdict.validity,
                o.verdict.termination,
            ),
            None => (true, true, true),
        }
    }
}

/// Runs one spec through the scenario runner and scores it.
pub fn evaluate(spec: &ScenarioSpec) -> Evaluation {
    let outcome = match run_scenario(spec, spec.seed, spec.strategy, spec.policy.clone()) {
        Ok(outcome) => outcome,
        Err(e) => return rejected(e.to_string()),
    };

    let expected_unsolvable = !outcome.expected_solvable();
    let violation = !outcome.verdict.all_hold() && !expected_unsolvable && !fault_excused(&outcome);

    let score = if violation {
        VIOLATION_SCORE
            + outcome.verdict.max_pairwise_distance.max(0.0)
            + outcome.rounds as f64 * 1e-3
    } else {
        let mut score = 0.0;
        // Decision spread relative to ε: how close an ε-agreement run came
        // to disagreeing (exact runs that hold have zero spread).
        if let Some(epsilon) = outcome.epsilon {
            if epsilon > 0.0 && outcome.verdict.max_pairwise_distance.is_finite() {
                score += 10.0 * (outcome.verdict.max_pairwise_distance / epsilon).clamp(0.0, 1.0);
            }
        }
        // Longer runs sit closer to the termination cliff.
        score += (outcome.rounds as f64).min(1e4) * 1e-3;
        if expected_unsolvable {
            // Below even the relaxed bound (or on an insufficient
            // topology): failures here are anticipated, never genuine —
            // push the search back toward admissible-but-risky territory.
            score -= 50.0;
        } else if spec
            .protocol
            .min_processes(spec.d, spec.f)
            .is_some_and(|floor| spec.n < floor)
        {
            // Below the strict floor yet admitted, so only by a relaxed mode:
            // the regime where the relaxed decision rule is load-bearing.
            score += 25.0;
        }
        // Weaker relaxations are riskier: the dilated safe area Γ_α shrinks
        // monotonically as α does.
        if let Some(ValidityMode::AlphaScaled(alpha)) = spec.validity {
            score += 10.0 / (1.0 + alpha);
        }
        score
    };

    Evaluation {
        outcome: Some(outcome),
        rejected: None,
        violation,
        score,
    }
}

/// Whether a fault window of the run stepped outside the protocol's model,
/// so a failed verdict under it is expected data, not a finding: a drop
/// breaks the reliable channels every protocol assumes, and on a
/// synchronous protocol a latency or partition window holds a message past
/// the round it was sent in, which breaks synchrony.
pub fn fault_excused(outcome: &ScenarioOutcome) -> bool {
    let synchronous = !outcome.protocol.is_async();
    outcome
        .faults
        .iter()
        .any(|&kind| kind == "drop" || (synchronous && matches!(kind, "latency" | "partition")))
}

fn rejected(message: String) -> Evaluation {
    Evaluation {
        outcome: None,
        rejected: Some(message),
        violation: false,
        score: f64::NEG_INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::fit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base_spec() -> ScenarioSpec {
        let text = r#"
[scenario]
name = "exact-n4f1d1-strict"
protocol = "exact"
n = 4
f = 1
d = 1
epsilon = 0.1
seed = 0
max_steps = 200000

[inputs]
generator = "explicit"
points = [[0.2], [0.5], [0.8]]
"#;
        ScenarioSpec::from_toml(text).expect("the base spec parses")
    }

    /// The base spec after `edit`, refitted with coordinates drawn from `seed`.
    fn reshaped(edit: impl FnOnce(&mut ScenarioSpec), seed: u64) -> ScenarioSpec {
        let mut spec = base_spec();
        edit(&mut spec);
        let mut rng = StdRng::seed_from_u64(seed);
        fit(&mut spec, || rng.gen_range(0.0..=1.0));
        spec
    }

    #[test]
    fn a_passing_run_scores_low_and_is_not_a_violation() {
        let eval = evaluate(&base_spec());
        assert!(!eval.violation);
        assert!(eval.rejected.is_none());
        assert!(eval.score < VIOLATION_SCORE);
        assert_eq!(eval.verdict_flags(), (true, true, true));
    }

    #[test]
    fn an_inadmissible_spec_is_rejected_with_minus_infinity() {
        // n = 3 is below the exact strict bound 3f+1 = 4.
        let eval = evaluate(&reshaped(|s| s.n = 3, 0));
        assert!(eval.rejected.is_some());
        assert_eq!(eval.score, f64::NEG_INFINITY);
    }

    #[test]
    fn a_latency_window_on_a_synchronous_protocol_excuses_its_violation() {
        // What `chaos-run --search --seed 3 --restarts 6 --iters 12
        // --protocols directed-exact,directed-exact-lb,exact` shrank to before
        // the excuse: n = 5 is above exact's strict floor 4, and the one
        // latency window holds ten of process 2's messages to process 0 past
        // their round.
        let text = r#"
[scenario]
name = "exact-n5f1d2-strict"
protocol = "exact"
n = 5
f = 1
d = 2
epsilon = 0.1
seed = 0
max_steps = 400000

[inputs]
generator = "explicit"
points = [[0.4, 0.2], [0.7, 0.3], [0.3, 0.9], [0.8, 0.5]]

[adversary]
strategy = "equivocate"

[[faults]]
kind = "latency"
extra = 3
from = [2]
to = [0]
start = 2
duration = 2
"#;
        let spec = ScenarioSpec::from_toml(text).expect("the pinned spec parses");
        let eval = evaluate(&spec);
        let outcome = eval.outcome.as_ref().expect("admitted above the floor");
        assert_eq!(eval.verdict_flags(), (false, false, true));
        assert!(outcome.expected_solvable());
        assert_eq!(
            (
                outcome.stats.messages_sent,
                outcome.stats.messages_delivered
            ),
            (220, 210)
        );
        assert!(fault_excused(outcome));
        assert!(!eval.violation, "a held message breaks synchrony");
        assert!(eval.score < VIOLATION_SCORE);
        // An asynchronous protocol's model has no rounds to miss: the same
        // window there excuses nothing.
        let mut asynchronous = outcome.clone();
        asynchronous.protocol = bvc_scenario::Protocol::Approx;
        assert!(!fault_excused(&asynchronous));
        asynchronous.faults = vec!["latency", "drop"];
        assert!(
            fault_excused(&asynchronous),
            "a drop excuses on any protocol"
        );
    }

    #[test]
    fn below_strict_floor_relaxed_runs_earn_the_boundary_bonus() {
        // Exact at d = 3, f = 1: strict bound max(3f+1, (d+1)f+1) = 5; the
        // α-relaxed family bound is 3f+1 = 4, so n = 4 is admitted only by
        // the relaxation — exactly the risky regime the bonus rewards.
        let spec = reshaped(
            |s| {
                s.d = 3;
                s.validity = Some(ValidityMode::AlphaScaled(3.0));
            },
            7,
        );
        let eval = evaluate(&spec);
        assert!(eval.rejected.is_none(), "relaxed admission must hold");
        if !eval.violation {
            assert!(eval.score >= 25.0, "boundary bonus missing: {}", eval.score);
        }
    }
}
