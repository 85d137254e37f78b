//! Driver for Approximate BVC over the asynchronous simulator (Section 3.2:
//! ε-Agreement, Validity, Termination — Theorems 4 and 5).

use super::{make_forge, BvcSession, DriverOutcome, ProtocolDriver};
use crate::approx::{ApproxBvcProcess, ApproxOutput, ByzantineApproxProcess};
use bvc_geometry::Point;
use bvc_net::{AsyncNetwork, AsyncProcess};
use std::sync::Arc;

pub(super) struct ApproxDriver;

impl ProtocolDriver for ApproxDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        let config = session.params();
        let rc = session.config();
        // Overlapping B_i[t] sets across processes share their Step-2
        // subset evaluations through the run's cache.
        let gamma_cache = session.gamma_cache().clone();
        let mut processes: Vec<
            Box<dyn AsyncProcess<Msg = crate::aad::AadMsg, Output = ApproxOutput>>,
        > = Vec::new();
        for (i, input) in rc.honest_inputs.iter().enumerate() {
            processes.push(Box::new(
                ApproxBvcProcess::new(config.clone(), i, input.clone(), rc.update_rule)
                    .with_gamma_cache(gamma_cache.clone()),
            ));
        }
        for b in 0..config.f {
            let me = config.honest_count() + b;
            let forge = make_forge(rc.adversary, config, rc.seed, b);
            processes.push(Box::new(ByzantineApproxProcess::new(
                config.clone(),
                me,
                Point::uniform(config.d, 0.5 * (config.lower_bound + config.upper_bound)),
                rc.update_rule,
                forge,
            )));
        }
        let honest = session.honest_indices();
        let outcome =
            AsyncNetwork::new(processes, rc.delivery_policy.clone(), rc.seed, rc.max_steps)
                .with_topology(Arc::clone(session.topology()))
                .with_faults(rc.faults.clone())
                .run(&honest);
        let outputs: Vec<ApproxOutput> = session.honest_decisions(&outcome.outputs);
        let terminated = outputs.len() == honest.len() && outcome.completed;
        let decisions: Vec<Point> = outputs.iter().map(|o| o.decision.clone()).collect();
        DriverOutcome {
            decisions,
            terminated,
            tolerance: config.epsilon,
            rounds: outcome.stats.steps,
            round_budget: Some(ApproxBvcProcess::round_budget(config, rc.update_rule)),
            stats: outcome.stats,
            outputs,
            sufficiency: None,
        }
    }
}
