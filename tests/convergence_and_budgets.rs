//! Integration tests: the convergence formulas (γ, round budget, guaranteed
//! range) are mutually consistent and consistent with actual executions —
//! the algorithm really does finish within its static budget with a spread
//! no larger than ε, and the measured range stays under the equation-(13)
//! envelope every round.

use bvc::adversary::{ByzantineStrategy, PointForge, StateForger};
use bvc::core::{
    gamma, gamma_witness_optimized, guaranteed_range, round_threshold, BvcConfig, BvcSession,
    ProtocolKind, RunConfig, StateExchangeProcess, StateMsg, UpdateRule,
};
use bvc::geometry::{GammaCache, Point, PointMultiset, WorkloadGenerator};
use bvc::net::{Delivery, DeliveryPolicy, ProcessId, SyncProcess};

/// Asserts `ρ[t] ≤ (1 − γ)^t · ρ[0]` (equation (13)) at every recorded round.
fn assert_under_envelope(label: &str, ranges: &[f64], gamma: f64) {
    assert!(ranges.len() > 1, "{label}: no rounds recorded");
    for (t, &rho) in ranges.iter().enumerate() {
        let bound = (1.0 - gamma).powi(t as i32) * ranges[0];
        assert!(
            rho <= bound + 1e-9,
            "{label}: ρ[{t}] = {rho} exceeds (1−γ)^t·ρ[0] = {bound}"
        );
    }
}

#[test]
fn range_stays_under_the_equation_13_envelope() {
    let (n, f, d, eps) = (5usize, 1usize, 2usize, 0.05);
    let inputs = |seed| {
        WorkloadGenerator::new(seed)
            .box_points(n - f, d, 0.0, 1.0)
            .into_points()
    };

    // Approximate BVC under an anti-convergence adversary, with p1's traffic
    // starved so the honest processes complete rounds on different B sets.
    // It budgets with Appendix F's γ.
    let run = BvcSession::new(
        ProtocolKind::Approx,
        RunConfig::new(n, f, d)
            .honest_inputs(inputs(777))
            .adversary(ByzantineStrategy::AntiConvergence)
            .epsilon(eps)
            .update_rule(UpdateRule::WitnessOptimized)
            .delivery_policy(DeliveryPolicy::DelayFrom(vec![ProcessId::new(0)]))
            .seed(99),
    )
    .expect("parameters satisfy the bound")
    .run();
    assert_under_envelope("approx", &run.range_history(), gamma_witness_optimized(n));

    // Restricted synchronous rounds, where the adversary's per-receiver
    // equivocation enters B_i directly (no reliable broadcast), so honest
    // states differ after round 1.  Driven lock-step by hand to keep the
    // concrete process histories; it budgets with the full-rule γ.
    let config = BvcConfig::new(n, f, d)
        .and_then(|c| c.with_epsilon(eps))
        .expect("valid parameters");
    let cache = GammaCache::shared();
    let mut honest: Vec<StateExchangeProcess> = inputs(4242)
        .into_iter()
        .enumerate()
        .map(|(i, p)| StateExchangeProcess::restricted_sync(config.clone(), i, p, cache.clone()))
        .collect();
    let mut forge = PointForge::new(ByzantineStrategy::AntiConvergence, d, 0.0, 1.0, 5);
    forge.set_honest_value(Point::uniform(d, 0.5));
    let rounds = 20;
    let mut byzantine = StateForger::new((0..n - 1).collect(), rounds, forge, StateMsg::new);
    let mut inboxes: Vec<Vec<Delivery<StateMsg>>> = vec![Vec::new(); n];
    for round in 1..=rounds {
        // Senders in index order, so every inbox is sorted by sender.
        let mut next: Vec<Vec<Delivery<StateMsg>>> = vec![Vec::new(); n];
        for (i, process) in honest.iter_mut().enumerate() {
            for out in process.round(round, &inboxes[i]) {
                next[out.to.index()].push(Delivery::new(ProcessId::new(i), out.msg));
            }
        }
        for out in byzantine.round(round, &inboxes[n - 1]) {
            next[out.to.index()].push(Delivery::new(ProcessId::new(n - 1), out.msg));
        }
        inboxes = next;
    }
    let recorded = honest.iter().map(|p| p.core().history().len()).min();
    let ranges: Vec<f64> = (0..recorded.unwrap_or(0))
        .map(|t| {
            let states = honest
                .iter()
                .map(|p| p.core().history()[t].clone())
                .collect();
            PointMultiset::new(states).coordinate_range()
        })
        .collect();
    assert_under_envelope("restricted-sync", &ranges, gamma(n, f));
}

#[test]
fn round_threshold_is_sufficient_for_the_guaranteed_range() {
    // For a grid of (n, f, ε): after `round_threshold` rounds the worst-case
    // range must be at most ε — the inequality chain (13)–(15) of the paper.
    for &(n, f) in &[(4usize, 1usize), (5, 1), (6, 1), (7, 2), (9, 2)] {
        for &eps in &[0.5, 0.1, 0.01, 0.001] {
            for g in [gamma(n, f), gamma_witness_optimized(n)] {
                let t = round_threshold(g, 0.0, 1.0, eps);
                let range = guaranteed_range(g, 1.0, t);
                assert!(
                    range <= eps * (1.0 + 1e-9),
                    "n={n} f={f} eps={eps}: {t} rounds leave range {range}"
                );
                // One round fewer must NOT be sufficient in the worst case
                // (unless the initial range is already within ε or the
                // threshold bottomed out at 1).
                if t > 2 && 1.0 > eps {
                    let prev = guaranteed_range(g, 1.0, t - 2);
                    assert!(
                        prev > eps,
                        "n={n} f={f} eps={eps}: the budget {t} is not tight-ish (t-2 already enough)"
                    );
                }
            }
        }
    }
}

#[test]
fn witness_gamma_never_needs_more_rounds_than_full_gamma() {
    for &(n, f) in &[(4usize, 1usize), (5, 1), (7, 2), (9, 2), (13, 3)] {
        let g_full = gamma(n, f);
        let g_wit = gamma_witness_optimized(n);
        assert!(g_wit >= g_full - 1e-15);
        let t_full = round_threshold(g_full, 0.0, 1.0, 0.01);
        let t_wit = round_threshold(g_wit, 0.0, 1.0, 0.01);
        assert!(
            t_wit <= t_full,
            "n={n} f={f}: witness budget {t_wit} > full {t_full}"
        );
    }
}

#[test]
fn executions_respect_their_static_budget_and_epsilon() {
    // Actual asynchronous executions: the recorded history length equals the
    // budget plus the input entry, and the final spread is within ε.
    let mut workload = WorkloadGenerator::new(31);
    for &(d, eps) in &[(1usize, 0.1f64), (2, 0.1)] {
        let f = 1;
        let n = ProtocolKind::Approx.min_processes(d, f).unwrap();
        let inputs: Vec<Point> = workload.box_points(n - f, d, 0.0, 1.0).into_points();
        let run = BvcSession::new(
            ProtocolKind::Approx,
            RunConfig::new(n, f, d)
                .honest_inputs(inputs)
                .adversary(ByzantineStrategy::AntiConvergence)
                .epsilon(eps)
                .update_rule(UpdateRule::WitnessOptimized)
                .seed(77),
        )
        .expect("bound satisfied")
        .run();
        let budget = run.round_budget().expect("approx has a static budget");
        let config = BvcConfig::new(n, f, d).unwrap().with_epsilon(eps).unwrap();
        assert_eq!(
            budget,
            round_threshold(
                gamma_witness_optimized(n),
                config.lower_bound,
                config.upper_bound,
                eps
            )
        );
        for output in run.outputs() {
            assert_eq!(
                output.history.len(),
                budget + 1,
                "history must record the input plus one state per budgeted round"
            );
        }
        assert!(run.verdict().max_pairwise_distance <= eps);
        // The range history never increases above the initial honest range
        // (validity of the intermediate states).
        let ranges = run.range_history();
        let initial = ranges[0];
        assert!(ranges.iter().all(|&r| r <= initial + 1e-9));
        // And it ends within ε.
        assert!(*ranges.last().unwrap() <= eps);
    }
}

#[test]
fn budgets_grow_logarithmically_in_one_over_epsilon() {
    let g = gamma(5, 1);
    let t1 = round_threshold(g, 0.0, 1.0, 0.1);
    let t2 = round_threshold(g, 0.0, 1.0, 0.01);
    let t3 = round_threshold(g, 0.0, 1.0, 0.001);
    // Each factor-of-ten tightening adds roughly the same number of rounds.
    let d1 = t2 as isize - t1 as isize;
    let d2 = t3 as isize - t2 as isize;
    assert!(
        (d1 - d2).abs() <= 1,
        "increments {d1} vs {d2} should match within 1"
    );
}

#[test]
fn budgets_scale_with_the_value_range() {
    let g = gamma(4, 1);
    let narrow = round_threshold(g, 0.0, 1.0, 0.01);
    let wide = round_threshold(g, -100.0, 100.0, 0.01);
    assert!(wide > narrow);
    let same = round_threshold(g, 5.0, 6.0, 0.01);
    assert_eq!(
        same, narrow,
        "only the range U − ν matters, not its location"
    );
}
