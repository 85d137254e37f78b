//! Integration tests: the asynchronous approximate BVC protocol meets its
//! guarantees under every schedule in a table of seeded and adversarial
//! delivery policies on the deterministic event simulator.  Each row is a
//! reproducible schedule: a failing row replays exactly from its policy and
//! seed.

use bvc::adversary::{ByzantineStrategy, Forging, PointForge};
use bvc::core::{AadMsg, ApproxBvcProcess, ApproxOutput, BvcConfig, UpdateRule};
use bvc::geometry::{ConvexHull, GammaCache, Point, PointMultiset};
use bvc::net::{AsyncNetwork, AsyncProcess, DeliveryPolicy, ProcessId};

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
) -> Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput>>> {
    let cache = GammaCache::shared();
    let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput>>> = Vec::new();
    for (i, input) in honest_inputs().iter().enumerate() {
        processes.push(Box::new(ApproxBvcProcess::new(
            config.clone(),
            i,
            input.clone(),
            UpdateRule::WitnessOptimized,
            cache.clone(),
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
            cache,
        ),
        forge,
    )));
    processes
}

fn check(decisions: &[Point], epsilon: f64, row: &str) {
    let hull = ConvexHull::new(PointMultiset::new(honest_inputs()));
    for d in decisions {
        assert!(
            hull.contains(d),
            "{row}: decision {d} escaped the honest hull"
        );
    }
    for pair in decisions.windows(2) {
        assert!(
            pair[0].linf_distance(&pair[1]) <= epsilon,
            "{row}: spread exceeds epsilon"
        );
    }
}

#[test]
fn simulator_execution_meets_the_guarantees() {
    let config = config();
    let processes = build_processes(&config);
    let outcome =
        AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, 31, 2_000_000).run(&[0, 1, 2, 3]);
    assert!(outcome.completed);
    let decisions: Vec<Point> = (0..4)
        .map(|i| outcome.outputs[i].as_ref().unwrap().decision.clone())
        .collect();
    check(&decisions, config.epsilon, "RandomFair at seed 31");
}

/// The schedule table: `RandomFair` at seeds 1–10 and 13, and each
/// adversarial policy at seed 13.
fn schedules() -> Vec<(DeliveryPolicy, u64)> {
    let random = (1..=10).chain([13]);
    let mut table: Vec<(DeliveryPolicy, u64)> = random
        .map(|seed| (DeliveryPolicy::RandomFair, seed))
        .collect();
    for policy in [
        DeliveryPolicy::RoundRobin,
        DeliveryPolicy::DelayFrom(vec![ProcessId::new(0)]),
        DeliveryPolicy::DelayTo(vec![ProcessId::new(1)]),
    ] {
        table.push((policy, 13));
    }
    table
}

#[test]
fn adversarial_scheduling_policies_all_meet_the_guarantees() {
    let config = config();
    for (policy, seed) in schedules() {
        let row = format!("policy {policy:?} at seed {seed}");
        let processes = build_processes(&config);
        let outcome = AsyncNetwork::new(processes, policy, seed, 3_000_000).run(&[0, 1, 2, 3]);
        assert!(outcome.completed, "{row}: blocked termination");
        let decisions: Vec<Point> = (0..4)
            .map(|i| outcome.outputs[i].as_ref().unwrap().decision.clone())
            .collect();
        check(&decisions, config.epsilon, &row);
    }
}
