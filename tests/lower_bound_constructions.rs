//! Integration tests: the impossibility constructions of Theorems 1 and 4
//! behave exactly as the paper argues, across dimensions.

use bvc::core::{theorem1_control_inputs, theorem1_evidence, theorem4_evidence};
use bvc::geometry::{gamma_is_empty, leave_one_out_intersection, Point, PointMultiset};

#[test]
fn theorem1_standard_basis_construction_is_infeasible_up_to_dimension_six() {
    for d in 1..=6 {
        let evidence = theorem1_evidence(d);
        assert_eq!(evidence.n, d + 1);
        assert!(
            evidence.intersection_empty,
            "d = {d}: the leave-one-out hulls must have empty intersection"
        );
    }
}

#[test]
fn theorem1_gamma_is_also_empty_for_the_construction() {
    // The Γ operator with f = 1 on the same inputs is empty as well (it is
    // the same intersection when |Y| = d + 1).
    for d in 1..=6 {
        let mut points: Vec<Point> = (0..d).map(|i| Point::standard_basis(d, i)).collect();
        points.push(Point::origin(d));
        let y = PointMultiset::new(points);
        assert!(gamma_is_empty(&y, 1), "d = {d}");
        assert!(leave_one_out_intersection(&y).is_none(), "d = {d}");
    }
}

#[test]
fn theorem1_control_configuration_is_feasible() {
    // Adding one more (interior) point makes the intersection non-empty:
    // the impossibility is a property of n = d + 1, not of the machinery.
    for d in 1..=6 {
        let control = theorem1_control_inputs(d);
        assert_eq!(control.len(), d + 2);
        assert!(
            leave_one_out_intersection(&control).is_some(),
            "d = {d}: control must be feasible"
        );
        assert!(
            !gamma_is_empty(&control, 1),
            "d = {d}: same hulls, same answer"
        );
    }
}

#[test]
fn theorem4_forced_decisions_violate_epsilon_agreement() {
    for d in 1..=6 {
        for &eps in &[0.1, 0.01] {
            let evidence = theorem4_evidence(d, eps);
            assert_eq!(evidence.n, d + 2);
            assert!(
                evidence.violates_epsilon_agreement(),
                "d = {d}, eps = {eps}: {evidence:?}"
            );
            // The forced decisions are 4ε apart, four times the allowance.
            assert!((evidence.max_pairwise_distance - 4.0 * eps).abs() < 1e-9);
        }
    }
}

#[test]
fn theorem4_every_process_is_forced_to_its_own_input() {
    let evidence = theorem4_evidence(3, 0.05);
    assert_eq!(evidence.forced_to_own_input.len(), 4); // p_1 .. p_{d+1}
    assert!(evidence.forced_to_own_input.iter().all(|&b| b));
}

#[test]
fn sufficiency_and_necessity_meet_with_no_gap() {
    // The constructions are infeasible with n = (d+1)f (exact) and n = (d+2)f
    // (approximate) when f = 1, while the algorithms run successfully at
    // n = (d+1)f + 1 and (d+2)f + 1 — tests/resilience_bounds.rs asserts the
    // sufficiency side at every shape; here we spot-check d = 2.
    use bvc::adversary::ByzantineStrategy;
    use bvc::core::{BvcSession, ProtocolKind, RunConfig};
    let d = 2;
    // Exact at n = (d+1)·1 + 1 = 4.
    let run = BvcSession::new(
        ProtocolKind::Exact,
        RunConfig::new(4, 1, d)
            .honest_inputs(vec![
                Point::new(vec![1.0, 0.0]),
                Point::new(vec![0.0, 1.0]),
                Point::new(vec![0.0, 0.0]),
            ])
            .adversary(ByzantineStrategy::Equivocate)
            .seed(2),
    )
    .expect("n = (d+1)f+1 suffices")
    .run();
    assert!(run.verdict().all_hold());
    // Approximate at n = (d+2)·1 + 1 = 5, on the same basis-plus-origin shape
    // that defeats n = d + 2 = 4.
    let run = BvcSession::new(
        ProtocolKind::Approx,
        RunConfig::new(5, 1, d)
            .honest_inputs(vec![
                Point::new(vec![1.0, 0.0]),
                Point::new(vec![0.0, 1.0]),
                Point::new(vec![0.0, 0.0]),
                Point::new(vec![0.5, 0.5]),
            ])
            .adversary(ByzantineStrategy::AntiConvergence)
            .epsilon(0.1)
            .seed(2),
    )
    .expect("n = (d+2)f+1 suffices")
    .run();
    assert!(run.verdict().all_hold());
}
