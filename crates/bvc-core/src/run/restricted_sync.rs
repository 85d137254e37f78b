//! Driver for the restricted-round synchronous algorithm (Section 4,
//! Theorem 6).

use super::{make_forge, BvcSession, DriverOutcome, ProtocolDriver};
use crate::restricted::{ByzantineRestrictedSync, RestrictedSyncProcess, StateMsg};
use bvc_geometry::Point;
use bvc_net::{SyncNetwork, SyncProcess};
use std::sync::Arc;

pub(super) struct RestrictedSyncDriver;

impl ProtocolDriver for RestrictedSyncDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        let config = session.params();
        let rc = session.config();
        // In a synchronous round every honest process sees the same states,
        // so each round's C(n, n−f) safe-area solves happen once system-wide
        // instead of once per process.
        let gamma_cache = session.gamma_cache().clone();
        let mut processes: Vec<Box<dyn SyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in rc.honest_inputs.iter().enumerate() {
            processes.push(Box::new(
                RestrictedSyncProcess::new(config.clone(), i, input.clone())
                    .with_gamma_cache(gamma_cache.clone()),
            ));
        }
        for b in 0..config.f {
            let me = config.honest_count() + b;
            let forge = make_forge(rc.adversary, config, rc.seed, b);
            processes.push(Box::new(ByzantineRestrictedSync::new(
                config.clone(),
                me,
                forge,
            )));
        }
        let honest = session.honest_indices();
        let network = SyncNetwork::new(processes, RestrictedSyncProcess::total_rounds(config) + 1)
            .with_topology(Arc::clone(session.topology()))
            .with_faults(rc.faults.clone(), rc.seed);
        let outcome = network.run(&honest);
        let decisions = session.honest_decisions(&outcome.outputs);
        let terminated = decisions.len() == honest.len();
        DriverOutcome {
            decisions,
            terminated,
            tolerance: config.epsilon,
            rounds: outcome.rounds,
            stats: outcome.stats,
            round_budget: None,
            outputs: Vec::new(),
            sufficiency: None,
        }
    }
}
