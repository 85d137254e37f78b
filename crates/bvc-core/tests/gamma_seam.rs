//! Every process of a run, Byzantine skeletons included, asks Γ through the
//! run's cache, so every LP a run solves is inside a traced `gamma` query:
//! the Γ engine's simplex solves are followed directly by the `gamma` event
//! of the query that needed them.  The one other source of solves is
//! scoring (hull-membership LPs of the decisions), which runs just before
//! the run's `validity_check` event and is told apart here by re-running it.

use bvc_core::{BvcSession, ProtocolKind, RunConfig, ValidityMode};
use bvc_geometry::{Point, PointMultiset, WorkloadGenerator};
use bvc_topology::Topology;
use bvc_trace::{TraceEvent, TraceHandle, Tracer};
use std::sync::{Arc, Mutex};

/// Keeps every event it is handed, in emission order.
struct Recorder(Arc<Mutex<Vec<TraceEvent>>>);

impl Tracer for Recorder {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// The events `run` emits on slot 0, and what it returns.
fn traced<T>(run: impl FnOnce() -> T) -> (Vec<TraceEvent>, T) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let value = {
        let handle = TraceHandle::new(Box::new(Recorder(Arc::clone(&events))), false);
        let _scope = bvc_trace::install(handle, 0);
        run()
    };
    let events = std::mem::take(&mut *events.lock().unwrap());
    (events, value)
}

fn is_simplex(event: &TraceEvent) -> bool {
    matches!(event, TraceEvent::Simplex { .. })
}

/// `(solves not followed directly by a gamma event, all solves)` of one
/// traced session, scoring's solves excluded from both.
fn orphan_solves(protocol: ProtocolKind, config: RunConfig) -> (usize, usize) {
    let session = BvcSession::new(protocol, config).expect("admitted");
    let (events, report) = traced(|| session.run());
    let check = events
        .iter()
        .position(|e| matches!(e, TraceEvent::ValidityCheck { .. }))
        .expect("a run ends with its validity check");
    // Scoring: strict hull membership of each decision, stopping at the
    // first outside, and nothing at all for a run that did not terminate.
    let honest = PointMultiset::new(report.config().honest_inputs.clone());
    let (rescored, _) = traced(|| {
        report.verdict().termination
            && report
                .decisions()
                .iter()
                .all(|d| ValidityMode::Strict.contains(&honest, d))
    });
    let scoring = rescored.iter().filter(|e| is_simplex(e)).count();
    let trailing = events[..check]
        .iter()
        .rev()
        .take_while(|e| is_simplex(e))
        .count();
    assert!(
        trailing >= scoring,
        "{protocol:?}: scoring solves {scoring} LPs, but only {trailing} precede the validity check"
    );
    let run = &events[..check - scoring];
    let (mut orphans, mut total, mut pending) = (0, 0, 0);
    for event in run {
        if is_simplex(event) {
            pending += 1;
            total += 1;
            continue;
        }
        if !matches!(event, TraceEvent::Gamma { .. }) {
            orphans += pending;
        }
        pending = 0;
    }
    (orphans + pending, total)
}

fn inputs(seed: u64, count: usize, d: usize) -> Vec<Point> {
    WorkloadGenerator::new(seed)
        .box_points(count, d, 0.0, 1.0)
        .into_points()
}

fn config(n: usize, f: usize, d: usize, seed: u64) -> RunConfig {
    RunConfig::new(n, f, d)
        .honest_inputs(inputs(seed, n - f, d))
        .seed(seed)
}

#[test]
fn every_lp_solve_of_a_run_is_inside_a_traced_gamma_query() {
    let mut solved = 0;
    for seed in 1..=3u64 {
        let graph = || Topology::random_regular(7, 4, seed).expect("a 4-regular graph on 7");
        let runs = [
            (ProtocolKind::Approx, config(6, 1, 2, seed).epsilon(0.05)),
            (
                ProtocolKind::DirectedExact,
                config(7, 1, 2, seed).topology(graph()),
            ),
            (
                ProtocolKind::DirectedExactLb,
                config(7, 1, 2, seed).topology(graph()),
            ),
            (ProtocolKind::Exact, config(5, 1, 2, seed)),
            (
                ProtocolKind::RestrictedSync,
                config(5, 1, 2, seed).epsilon(0.1),
            ),
            (
                ProtocolKind::RestrictedAsync,
                config(7, 1, 2, seed).epsilon(0.1),
            ),
            (ProtocolKind::Iterative, config(7, 1, 2, seed).epsilon(0.1)),
            // The strict d = 2 Γ path solves no LP (the depth region answers
            // it), so the solves this test follows come from d = 3: the
            // spatial region's centre LP on a probe miss that no member
            // answers.
            (ProtocolKind::Exact, config(7, 1, 3, seed)),
            (ProtocolKind::Approx, config(6, 1, 3, seed).epsilon(0.05)),
        ];
        for (protocol, config) in runs {
            let (orphans, total) = orphan_solves(protocol, config);
            assert_eq!(
                orphans, 0,
                "{protocol:?} seed {seed}: {orphans} of {total} LP solves are inside no gamma query"
            );
            solved += total;
        }
    }
    assert!(solved > 0, "the runs solve LPs at all");
}
