//! Genome evaluation and the search objective.
//!
//! One evaluation = one deterministic scenario run.  The score rewards, in
//! order of magnitude: an outright **genuine** verdict violation (the search
//! target), then generic *danger heuristics* that give hill-climbing a
//! gradient toward one — operating below the strict resource bound under a
//! relaxed validity mode, weaker relaxations (smaller α), larger decision
//! spread relative to ε, and longer runs.  A violation only counts as
//! genuine when nothing excused it up front: the resource check was
//! satisfied, the substrate was declared solvable, and no drop fault broke
//! the reliable-channel assumption.

use crate::genome::{ChaosGenome, ValidityGene};
use bvc_scenario::{run_scenario, ScenarioOutcome};

/// Score assigned to any genuine violation, dwarfing every heuristic term.
pub const VIOLATION_SCORE: f64 = 1e6;

/// The outcome of evaluating one genome.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The scenario outcome, when the instance ran (`None` ⇒ rejected at
    /// schema parse or admission).
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

/// Runs one genome through the scenario runner and scores it.
pub fn evaluate(genome: &ChaosGenome) -> Evaluation {
    let spec = match genome.to_spec() {
        Ok(spec) => spec,
        Err(e) => return rejected(e.to_string()),
    };
    let outcome = match run_scenario(&spec, genome.seed, spec.strategy, spec.policy.clone()) {
        Ok(outcome) => outcome,
        Err(e) => return rejected(e.to_string()),
    };

    let drop_excused = outcome.faults.contains(&"drop");
    let expected_unsolvable = !outcome.expected_solvable();
    let violation = !outcome.verdict.all_hold() && !expected_unsolvable && !drop_excused;

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
        } else if genome
            .protocol
            .min_processes(genome.d, genome.f)
            .is_some_and(|floor| genome.n < floor)
        {
            // Below the strict floor yet admitted, so only by a relaxed mode:
            // the regime where the relaxed decision rule is load-bearing.
            score += 25.0;
        }
        // Weaker relaxations are riskier: the dilated safe area Γ_α shrinks
        // monotonically as α does.
        if let ValidityGene::Alpha(alpha) = genome.validity {
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
    use bvc_scenario::Protocol;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_genome() -> ChaosGenome {
        ChaosGenome {
            protocol: Protocol::Exact,
            n: 4,
            f: 1,
            d: 1,
            epsilon: 0.1,
            seed: 0,
            points: vec![vec![0.2], vec![0.5], vec![0.8]],
            strategy: "equivocate".to_string(),
            validity: ValidityGene::Strict,
            topology: None,
            faults: Vec::new(),
            round_robin: false,
            max_steps: 200_000,
        }
    }

    #[test]
    fn a_passing_run_scores_low_and_is_not_a_violation() {
        let eval = evaluate(&base_genome());
        assert!(!eval.violation);
        assert!(eval.rejected.is_none());
        assert!(eval.score < VIOLATION_SCORE);
        assert_eq!(eval.verdict_flags(), (true, true, true));
    }

    #[test]
    fn an_inadmissible_genome_is_rejected_with_minus_infinity() {
        let mut g = base_genome();
        g.n = 3; // below the exact strict bound 3f+1 = 4
        g.fix_points(&mut StdRng::seed_from_u64(0));
        let eval = evaluate(&g);
        assert!(eval.rejected.is_some());
        assert_eq!(eval.score, f64::NEG_INFINITY);
    }

    #[test]
    fn below_strict_floor_relaxed_runs_earn_the_boundary_bonus() {
        // Exact at d = 3, f = 1: strict bound max(3f+1, (d+1)f+1) = 5; the
        // α-relaxed family bound is 3f+1 = 4, so n = 4 is admitted only by
        // the relaxation — exactly the risky regime the bonus rewards.
        let mut g = base_genome();
        g.d = 3;
        g.n = 4;
        g.validity = ValidityGene::Alpha(3.0);
        g.fix_points(&mut StdRng::seed_from_u64(7));
        let eval = evaluate(&g);
        assert!(eval.rejected.is_none(), "relaxed admission must hold");
        if !eval.violation {
            assert!(eval.score >= 25.0, "boundary bonus missing: {}", eval.score);
        }
    }
}
