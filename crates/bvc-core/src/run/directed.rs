//! Drivers for exact BVC on arbitrary directed graphs — point-to-point
//! (Tseng & Vaidya, arXiv:1208.5075) and local-broadcast (Khan, Tseng &
//! Vaidya, arXiv:1911.07298).
//!
//! Both drivers record the model's graph condition as the run's sufficiency
//! verdict (the iterative-driver idiom: a violated condition is data, not an
//! error — the verdict scoring says what actually happened).  On a complete
//! topology they delegate to the Section-2.2 [`ExactDriver`], because `K_n`
//! is exactly the setting that protocol is proven for — this is what makes
//! the `K_n` verdicts byte-identical to the `exact` protocol, and local
//! broadcast is vacuous there (every receiver set is all of Π, so the
//! delivery guarantee adds nothing the complete-graph protocol does not
//! already tolerate).

use super::exact::ExactDriver;
use super::{make_forge, BvcSession, DriverOutcome, ProtocolDriver};
use crate::directed::{ByzantineDirectedProcess, DirectedExactProcess, DirectedMsg};
use bvc_geometry::Point;
use bvc_net::{SyncNetwork, SyncProcess};
use std::sync::Arc;

pub(super) struct DirectedExactDriver;

impl ProtocolDriver for DirectedExactDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        execute_directed(session, false)
    }
}

pub(super) struct DirectedExactLbDriver;

impl ProtocolDriver for DirectedExactLbDriver {
    fn execute(&self, session: &BvcSession) -> DriverOutcome {
        execute_directed(session, true)
    }
}

fn execute_directed(session: &BvcSession, local_broadcast: bool) -> DriverOutcome {
    let config = session.params();
    let rc = session.config();
    let topology = Arc::clone(session.topology());
    // The model's graph condition, recorded in the report.  Like the
    // iterative driver, a violated condition does not abort the run — the
    // scenario layer flags such runs expected-unsolvable and the verdict
    // shows whether the flood actually broke.
    let sufficiency = if local_broadcast {
        topology.directed_exact_lb_sufficiency(config.f, config.d)
    } else {
        topology.directed_exact_sufficiency(config.f, config.d)
    };

    // On K_n with the Section-2.2 preconditions met, run the real
    // complete-graph protocol: its Byzantine broadcast already defeats
    // everything the directed condition guards against there, and the
    // verdicts stay byte-identical to ProtocolKind::Exact.
    let exact_preconditions =
        config.f >= 1 && config.n >= (3 * config.f + 1).max((config.d + 1) * config.f + 1);
    if topology.is_complete() && exact_preconditions {
        let mut outcome = ExactDriver.execute(session);
        outcome.sufficiency = Some(sufficiency);
        return outcome;
    }

    let gamma_cache = session.gamma_cache().clone();
    let mut processes: Vec<Box<dyn SyncProcess<Msg = DirectedMsg, Output = Point>>> = Vec::new();
    for (i, input) in rc.honest_inputs.iter().enumerate() {
        processes.push(Box::new(
            DirectedExactProcess::new(config.clone(), i, input.clone(), Arc::clone(&topology))
                .with_validity_mode(rc.validity)
                .with_gamma_cache(gamma_cache.clone()),
        ));
    }
    for b in 0..config.f {
        let me = config.honest_count() + b;
        let forge = make_forge(rc.adversary, config, rc.seed, b);
        processes.push(Box::new(ByzantineDirectedProcess::new(
            config.clone(),
            me,
            Point::uniform(config.d, config.lower_bound),
            Arc::clone(&topology),
            forge,
        )));
    }
    let honest = session.honest_indices();
    let outcome = SyncNetwork::new(processes, DirectedExactProcess::total_rounds(config))
        .with_topology(topology)
        .with_local_broadcast(local_broadcast)
        .with_faults(rc.faults.clone(), rc.seed)
        .run(&honest);
    let decisions = session.honest_decisions(&outcome.outputs);
    let terminated = decisions.len() == honest.len();
    DriverOutcome {
        decisions,
        terminated,
        // Exact consensus: agreement means identical decisions (up to LP
        // round-off), same as the complete-graph exact driver.
        tolerance: 1e-6,
        rounds: outcome.rounds,
        stats: outcome.stats,
        round_budget: None,
        outputs: Vec::new(),
        sufficiency: Some(sufficiency),
    }
}
