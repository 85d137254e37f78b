//! Running the asynchronous approximate BVC protocol on real OS threads.
//!
//! The experiments and tests mostly use the deterministic event simulator,
//! but the protocol implementations are plain state machines and run
//! unchanged on the thread-per-process runtime backed by `crossbeam`
//! channels.  This example launches six threads (one Byzantine) and lets the
//! operating-system scheduler provide the asynchrony.
//!
//! Run with:
//!
//! ```text
//! cargo run --example threaded_runtime
//! ```

use bvc::adversary::{ByzantineStrategy, Forging, PointForge};
use bvc::core::{AadMsg, ApproxBvcProcess, ApproxOutput, BvcConfig, UpdateRule};
use bvc::geometry::{ConvexHull, Point, PointMultiset};
use bvc::net::{run_threaded, AsyncProcess};
use std::time::Duration;

fn main() {
    // d = 2, f = 1 ⇒ n ≥ (d+2)f+1 = 5; use 6.
    let config = BvcConfig::new(6, 1, 2)
        .expect("valid parameters")
        .with_epsilon(0.05)
        .expect("valid epsilon")
        .with_value_bounds(0.0, 1.0)
        .expect("valid bounds");

    let honest_inputs = vec![
        Point::new(vec![0.1, 0.1]),
        Point::new(vec![0.9, 0.1]),
        Point::new(vec![0.5, 0.9]),
        Point::new(vec![0.3, 0.5]),
        Point::new(vec![0.7, 0.5]),
    ];

    println!("Approximate BVC on the thread-per-process runtime (n = 6, f = 1, d = 2)");
    println!("epsilon = {}", config.epsilon);

    let mut processes: Vec<Box<dyn AsyncProcess<Msg = AadMsg, Output = ApproxOutput> + Send>> =
        Vec::new();
    for (i, input) in honest_inputs.iter().enumerate() {
        processes.push(Box::new(ApproxBvcProcess::new(
            config.clone(),
            i,
            input.clone(),
            UpdateRule::WitnessOptimized,
        )));
    }
    let mut forge = PointForge::new(ByzantineStrategy::Equivocate, 2, 0.0, 1.0, 7);
    forge.set_honest_value(Point::new(vec![0.5, 0.5]));
    processes.push(Box::new(Forging::new(
        ApproxBvcProcess::new(
            config.clone(),
            5,
            Point::new(vec![0.5, 0.5]),
            UpdateRule::WitnessOptimized,
        ),
        forge,
    )));

    let outcome = run_threaded(processes, &[0, 1, 2, 3, 4], Duration::from_secs(60));
    assert!(
        outcome.completed,
        "honest processes must decide within the deadline"
    );

    let decisions: Vec<Point> = (0..5)
        .map(|i| {
            outcome.outputs[i]
                .as_ref()
                .expect("decided")
                .decision
                .clone()
        })
        .collect();
    println!("\ndecisions:");
    for (i, d) in decisions.iter().enumerate() {
        println!("  thread {} -> {d}", i + 1);
    }

    let mut max_spread: f64 = 0.0;
    for i in 0..decisions.len() {
        for j in (i + 1)..decisions.len() {
            max_spread = max_spread.max(decisions[i].linf_distance(&decisions[j]));
        }
    }
    let hull = ConvexHull::new(PointMultiset::new(honest_inputs));
    let valid = decisions.iter().all(|d| hull.contains(d));
    println!(
        "\nmax pairwise spread: {max_spread:.5} (epsilon = {})",
        config.epsilon
    );
    println!("validity: {valid}");
    println!("messages delivered: {}", outcome.stats.messages_delivered);
    assert!(max_spread <= config.epsilon && valid);
    println!("\nSame protocol, real threads, same guarantees.");
}
