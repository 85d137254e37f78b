//! Driver for iterative BVC on a (possibly incomplete) graph (Vaidya 2013,
//! arXiv:1307.2483).
//!
//! Unlike the paper's four complete-graph algorithms this driver accepts
//! `f = 0` (the fault-free baseline of the convergence analysis) and imposes
//! no closed-form resilience bound: solvability is governed by the
//! topology's `iterative_sufficiency` check, whose verdict the report
//! records.  A topology that *violates* the condition is not an error — the
//! run executes and the recorded sufficiency tells the caller the verdict
//! was expected-unsolvable.

use super::{make_forge, BvcSession, DriverOutcome, ProtocolDriver};
use crate::iterative::{iterative_round_budget, ByzantineIterativeProcess, IterativeBvcProcess};
use crate::restricted::StateMsg;
use bvc_geometry::Point;
use bvc_net::{SyncNetwork, SyncProcess};
use std::sync::Arc;

pub(super) struct IterativeDriver;

impl ProtocolDriver for IterativeDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        let config = session.params();
        let rc = session.config();
        let topology = Arc::clone(session.topology());
        // The sufficiency condition keeps the strict dimension regardless of
        // the validity mode: the update rule has no relaxed variant, so a
        // sparser graph does not become expected-solvable under lenient
        // scoring.
        let sufficiency = topology.iterative_sufficiency(config.f, config.d);

        // Neighborhood multisets overlap across processes and recur across
        // rounds once the states cluster; the run's cache deduplicates them.
        let gamma_cache = session.gamma_cache().clone();
        let mut processes: Vec<Box<dyn SyncProcess<Msg = StateMsg, Output = Point>>> = Vec::new();
        for (i, input) in rc.honest_inputs.iter().enumerate() {
            processes.push(Box::new(
                IterativeBvcProcess::new(config.clone(), i, input.clone(), Arc::clone(&topology))
                    .with_gamma_cache(gamma_cache.clone()),
            ));
        }
        for b in 0..config.f {
            let me = config.honest_count() + b;
            let forge = make_forge(rc.adversary, config, rc.seed, b);
            processes.push(Box::new(ByzantineIterativeProcess::new(
                me,
                Arc::clone(&topology),
                forge,
            )));
        }
        let honest = session.honest_indices();
        let outcome = SyncNetwork::new(processes, IterativeBvcProcess::total_rounds(config))
            .with_topology(topology)
            .with_faults(rc.faults.clone(), rc.seed)
            .run(&honest);
        let decisions = session.honest_decisions(&outcome.outputs);
        let terminated = decisions.len() == honest.len();
        DriverOutcome {
            decisions,
            terminated,
            tolerance: config.epsilon,
            rounds: outcome.rounds,
            stats: outcome.stats,
            round_budget: Some(iterative_round_budget(config)),
            outputs: Vec::new(),
            sufficiency: Some(sufficiency),
        }
    }
}
