//! Driver for Exact BVC over the synchronous executor (Section 2.2:
//! Agreement, Validity, Termination — Theorems 1 and 3).

use super::{make_forge, BvcSession, DriverOutcome, ProtocolDriver};
use crate::exact::{ByzantineExactProcess, ExactBvcProcess, ExactMsg};
use bvc_geometry::Point;
use bvc_net::{SyncNetwork, SyncProcess};
use std::sync::Arc;

pub(super) struct ExactDriver;

impl ProtocolDriver for ExactDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        let config = session.params();
        let rc = session.config();
        // Step 1 gives all honest processes the same multiset, so the
        // Step-2 decision LP runs once system-wide through the shared cache.
        let gamma_cache = session.gamma_cache().clone();
        let mut processes: Vec<Box<dyn SyncProcess<Msg = ExactMsg, Output = Point>>> = Vec::new();
        for (i, input) in rc.honest_inputs.iter().enumerate() {
            processes.push(Box::new(
                ExactBvcProcess::new(config.clone(), i, input.clone())
                    .with_validity_mode(rc.validity)
                    .with_gamma_cache(gamma_cache.clone()),
            ));
        }
        for b in 0..config.f {
            let me = config.honest_count() + b;
            let forge = make_forge(rc.adversary, config, rc.seed, b);
            processes.push(Box::new(
                ByzantineExactProcess::new(
                    config.clone(),
                    me,
                    Point::uniform(config.d, config.lower_bound),
                    forge,
                )
                .with_gamma_cache(gamma_cache.clone()),
            ));
        }
        let honest = session.honest_indices();
        let outcome = SyncNetwork::new(processes, ExactBvcProcess::total_rounds(config))
            .with_topology(Arc::clone(session.topology()))
            .with_faults(rc.faults.clone(), rc.seed)
            .run(&honest);
        let decisions = session.honest_decisions(&outcome.outputs);
        let terminated = decisions.len() == honest.len();
        DriverOutcome {
            decisions,
            terminated,
            // Exact consensus: agreement means identical decisions (up to
            // LP round-off).
            tolerance: 1e-6,
            rounds: outcome.rounds,
            stats: outcome.stats,
            round_budget: None,
            outputs: Vec::new(),
            sufficiency: None,
        }
    }
}
