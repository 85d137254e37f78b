//! Integration tests: the same protocol state machines deliver the same
//! guarantees on the deterministic event simulator and on the
//! thread-per-process runtime.

use bvc::adversary::{ByzantineStrategy, Forging, PointForge};
use bvc::core::{AadMsg, ApproxBvcProcess, ApproxOutput, BvcConfig, UpdateRule};
use bvc::geometry::{ConvexHull, Point, PointMultiset};
use bvc::net::{run_threaded, AsyncNetwork, AsyncProcess, DeliveryPolicy};
use std::time::Duration;

fn config() -> BvcConfig {
    BvcConfig::new(5, 1, 2)
        .unwrap()
        .with_epsilon(0.1)
        .unwrap()
        .with_value_bounds(0.0, 1.0)
        .unwrap()
}

fn honest_inputs() -> Vec<Point> {
    vec![
        Point::new(vec![0.1, 0.2]),
        Point::new(vec![0.8, 0.1]),
        Point::new(vec![0.4, 0.9]),
        Point::new(vec![0.6, 0.5]),
    ]
}

fn build_processes(
    config: &BvcConfig,
) -> Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput> + Send>> {
    let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput> + Send>> =
        Vec::new();
    for (i, input) in honest_inputs().iter().enumerate() {
        processes.push(Box::new(ApproxBvcProcess::new(
            config.clone(),
            i,
            input.clone(),
            UpdateRule::WitnessOptimized,
        )));
    }
    let mut forge = PointForge::new(ByzantineStrategy::Equivocate, 2, 0.0, 1.0, 77);
    forge.set_honest_value(Point::new(vec![0.5, 0.5]));
    processes.push(Box::new(Forging::new(
        ApproxBvcProcess::new(
            config.clone(),
            4,
            Point::new(vec![0.5, 0.5]),
            UpdateRule::WitnessOptimized,
        ),
        forge,
    )));
    processes
}

fn check(decisions: &[Point], epsilon: f64) {
    let hull = ConvexHull::new(PointMultiset::new(honest_inputs()));
    for d in decisions {
        assert!(hull.contains(d), "decision {d} escaped the honest hull");
    }
    for pair in decisions.windows(2) {
        assert!(
            pair[0].linf_distance(&pair[1]) <= epsilon,
            "spread exceeds epsilon"
        );
    }
}

#[test]
fn simulator_execution_meets_the_guarantees() {
    let config = config();
    // The simulator needs non-Send boxes; rebuild with the plain trait object.
    let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput>>> = Vec::new();
    for p in build_processes(&config) {
        processes.push(p);
    }
    let outcome =
        AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, 31, 2_000_000).run(&[0, 1, 2, 3]);
    assert!(outcome.completed);
    let decisions: Vec<Point> = (0..4)
        .map(|i| outcome.outputs[i].as_ref().unwrap().decision.clone())
        .collect();
    check(&decisions, config.epsilon);
}

#[test]
fn threaded_execution_meets_the_same_guarantees() {
    let config = config();
    let processes = build_processes(&config);
    let outcome = run_threaded(processes, &[0, 1, 2, 3], Duration::from_secs(120));
    assert!(outcome.completed, "threads must decide within the deadline");
    let decisions: Vec<Point> = (0..4)
        .map(|i| outcome.outputs[i].as_ref().unwrap().decision.clone())
        .collect();
    check(&decisions, config.epsilon);
}

#[test]
fn adversarial_scheduling_policies_all_meet_the_guarantees() {
    let config = config();
    for policy in [
        DeliveryPolicy::RandomFair,
        DeliveryPolicy::RoundRobin,
        DeliveryPolicy::DelayFrom(vec![bvc::net::ProcessId::new(0)]),
        DeliveryPolicy::DelayTo(vec![bvc::net::ProcessId::new(1)]),
    ] {
        let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput>>> =
            Vec::new();
        for p in build_processes(&config) {
            processes.push(p);
        }
        let outcome =
            AsyncNetwork::new(processes, policy.clone(), 13, 3_000_000).run(&[0, 1, 2, 3]);
        assert!(outcome.completed, "policy {policy:?} blocked termination");
        let decisions: Vec<Point> = (0..4)
            .map(|i| outcome.outputs[i].as_ref().unwrap().decision.clone())
            .collect();
        check(&decisions, config.epsilon);
    }
}
