//! Driver for the restricted-round asynchronous algorithm (Section 4,
//! Theorem 6).

use super::{make_forge, BvcSession, DriverOutcome, ProtocolDriver};
use crate::restricted::{ByzantineRestrictedAsync, RestrictedAsyncProcess, StateMsg};
use bvc_geometry::Point;
use bvc_net::{AsyncNetwork, AsyncProcess};
use std::sync::Arc;

pub(super) struct RestrictedAsyncDriver;

impl ProtocolDriver for RestrictedAsyncDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        let config = session.params();
        let rc = session.config();
        // Partial sharing: asynchronous B_i[t] sets overlap without being
        // identical, so the run's cache still deduplicates most solves.
        let gamma_cache = session.gamma_cache().clone();
        let mut processes: Vec<Box<dyn AsyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in rc.honest_inputs.iter().enumerate() {
            processes.push(Box::new(
                RestrictedAsyncProcess::new(config.clone(), i, input.clone())
                    .with_gamma_cache(gamma_cache.clone()),
            ));
        }
        for b in 0..config.f {
            let me = config.honest_count() + b;
            let forge = make_forge(rc.adversary, config, rc.seed, b);
            processes.push(Box::new(ByzantineRestrictedAsync::new(
                config.clone(),
                me,
                forge,
            )));
        }
        let honest = session.honest_indices();
        let outcome =
            AsyncNetwork::new(processes, rc.delivery_policy.clone(), rc.seed, rc.max_steps)
                .with_topology(Arc::clone(session.topology()))
                .with_faults(rc.faults.clone())
                .run(&honest);
        let decisions = session.honest_decisions(&outcome.outputs);
        let terminated = decisions.len() == honest.len() && outcome.completed;
        DriverOutcome {
            decisions,
            terminated,
            tolerance: config.epsilon,
            rounds: outcome.stats.steps,
            stats: outcome.stats,
            round_budget: None,
            outputs: Vec::new(),
            sufficiency: None,
        }
    }
}
