//! Integration tests: the algorithms deliver their guarantees exactly at the
//! paper's resilience bounds, across dimensions, fault counts and adversary
//! strategies — and the session refuses to run below the bounds.

use bvc::adversary::ByzantineStrategy;
use bvc::core::{
    BvcError, BvcSession, InstanceOverrides, ProtocolKind, RunConfig, RunReport, UpdateRule,
};
use bvc::geometry::combinatorics::binomial;
use bvc::geometry::{Point, WorkloadGenerator};
use bvc::service::{BvcService, ServiceConfig, ServiceError};

fn honest_inputs(seed: u64, count: usize, d: usize) -> Vec<Point> {
    WorkloadGenerator::new(seed)
        .box_points(count, d, 0.0, 1.0)
        .into_points()
}

fn run(kind: ProtocolKind, config: RunConfig) -> RunReport {
    BvcSession::new(kind, config)
        .expect("parameters satisfy the bound")
        .run()
}

#[test]
fn exact_bvc_at_the_tight_bound_for_several_dimensions() {
    // For each (d, f), run with exactly n = max(3f+1, (d+1)f+1) processes.
    // Every run takes f + 2 broadcast rounds plus the closing round.
    for &(d, f) in &[(1usize, 1usize), (2, 1), (3, 1), (4, 1), (2, 2)] {
        let n = ProtocolKind::Exact.min_processes(d, f).unwrap();
        for (s, strategy) in ByzantineStrategy::active_attacks().into_iter().enumerate() {
            let inputs = honest_inputs(100 + s as u64, n - f, d);
            let report = run(
                ProtocolKind::Exact,
                RunConfig::new(n, f, d)
                    .honest_inputs(inputs)
                    .adversary(strategy)
                    .seed(7 + s as u64),
            );
            assert!(
                report.verdict().all_hold(),
                "d={d} f={f} n={n} strategy={strategy:?}: verdict {:?}",
                report.verdict()
            );
            assert_eq!(report.rounds(), f + 3, "d={d} f={f} strategy={strategy:?}");
        }
    }
}

#[test]
fn exact_bvc_refuses_to_run_below_the_bound() {
    // d = 3, f = 1 needs n >= 5; n = 4 must be rejected.
    let err = BvcSession::new(
        ProtocolKind::Exact,
        RunConfig::new(4, 1, 3).honest_inputs(honest_inputs(1, 3, 3)),
    )
    .expect_err("below the bound");
    match err {
        BvcError::InsufficientProcesses {
            required, actual, ..
        } => {
            assert_eq!(required, 5);
            assert_eq!(actual, 4);
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

/// Theorem 5 at one ε: every guarantee holds with n = (d+2)f+1 for
/// d ∈ {1, 2, 3}, f = 1, under three forging strategies.
fn approximate_bvc_holds_at_the_tight_bound(eps: f64) {
    let strategies = [
        ByzantineStrategy::FixedOutlier,
        ByzantineStrategy::Equivocate,
        ByzantineStrategy::AntiConvergence,
    ];
    for d in 1..=3 {
        let f = 1;
        let n = ProtocolKind::Approx.min_processes(d, f).unwrap();
        for (s, strategy) in strategies.into_iter().enumerate() {
            let report = run(
                ProtocolKind::Approx,
                RunConfig::new(n, f, d)
                    .honest_inputs(honest_inputs(200 + d as u64, n - f, d))
                    .adversary(strategy)
                    .epsilon(eps)
                    .update_rule(UpdateRule::WitnessOptimized)
                    .seed(11 + s as u64),
            );
            let verdict = report.verdict();
            assert!(
                verdict.all_hold() && verdict.max_pairwise_distance <= eps,
                "d={d} n={n} eps={eps} strategy={strategy:?}: verdict {verdict:?}"
            );
        }
    }
}

#[test]
fn approximate_bvc_at_the_tight_bound() {
    approximate_bvc_holds_at_the_tight_bound(0.1);
}

// A separate test so the two ε run on separate test threads.
#[test]
fn approximate_bvc_at_the_tight_bound_with_a_finer_epsilon() {
    approximate_bvc_holds_at_the_tight_bound(0.02);
}

#[test]
fn approximate_bvc_refuses_to_run_below_the_bound() {
    // d = 2, f = 1 needs n >= 5.
    let err = BvcSession::new(
        ProtocolKind::Approx,
        RunConfig::new(4, 1, 2).honest_inputs(honest_inputs(3, 3, 2)),
    )
    .expect_err("below the bound");
    assert!(matches!(
        err,
        BvcError::InsufficientProcesses {
            required: 5,
            actual: 4,
            ..
        }
    ));
}

#[test]
fn approximate_bvc_full_rule_matches_witness_rule_guarantees() {
    // Both Step-2 rules hold at the tight bound.  Z_i has one point per
    // (n−f)-subset of B_i under the full rule, at most C(n, n−f), and one
    // per witness under Appendix F's rule, at most n.
    let f = 1;
    for d in [1, 2] {
        let n = ProtocolKind::Approx.min_processes(d, f).unwrap();
        let inputs = honest_inputs(42, n - f, d);
        for (rule, bound) in [
            (UpdateRule::FullSubsets, binomial(n, n - f)),
            (UpdateRule::WitnessOptimized, n as u128),
        ] {
            let report = run(
                ProtocolKind::Approx,
                RunConfig::new(n, f, d)
                    .honest_inputs(inputs.clone())
                    .adversary(ByzantineStrategy::Equivocate)
                    .epsilon(0.05)
                    .update_rule(rule)
                    .seed(5),
            );
            assert!(
                report.verdict().all_hold(),
                "d={d} rule {rule:?}: {:?}",
                report.verdict()
            );
            let mut sizes = report.outputs().iter().flat_map(|o| &o.zi_sizes);
            assert!(
                sizes.all(|&size| size as u128 <= bound),
                "d={d} rule {rule:?}: some |Z_i| exceeds {bound}"
            );
        }
    }
}

/// Theorem 6 for one restricted kind: at each `(d, f, floor)` row the kind
/// holds under attack with exactly `floor` processes and is rejected with
/// one fewer.
fn restricted_at_its_bound_and_rejected_below(
    kind: ProtocolKind,
    rows: [(usize, usize, usize); 2],
) {
    for (d, f, floor) in rows {
        assert_eq!(kind.min_processes(d, f), Some(floor), "{kind} d={d} f={f}");
        for strategy in [
            ByzantineStrategy::FixedOutlier,
            ByzantineStrategy::AntiConvergence,
        ] {
            let report = run(
                kind,
                RunConfig::new(floor, f, d)
                    .honest_inputs(honest_inputs(600 + d as u64, floor - f, d))
                    .adversary(strategy)
                    .epsilon(0.1)
                    .seed(5),
            );
            assert!(
                report.verdict().all_hold(),
                "{kind} d={d} f={f} strategy={strategy:?}: verdict {:?}",
                report.verdict()
            );
        }
        let below =
            RunConfig::new(floor - 1, f, d).honest_inputs(honest_inputs(3, floor - 1 - f, d));
        let err = BvcSession::new(kind, below).expect_err("below the bound");
        assert!(
            matches!(err, BvcError::InsufficientProcesses { required, .. } if required == floor),
            "{kind} d={d} f={f}: {err:?}"
        );
    }
}

#[test]
fn restricted_sync_at_its_bound_and_rejected_below() {
    // (d+2)f+1: one more process than exact consensus at d = 2.
    restricted_at_its_bound_and_rejected_below(
        ProtocolKind::RestrictedSync,
        [(1, 1, 4), (2, 1, 5)],
    );
}

#[test]
fn restricted_async_at_its_bound_and_rejected_below() {
    // (d+4)f+1: 2f more than the AAD-based algorithm.
    restricted_at_its_bound_and_rejected_below(
        ProtocolKind::RestrictedAsync,
        [(1, 1, 6), (2, 1, 7)],
    );
}

#[test]
fn directed_kinds_below_their_floor_are_insufficient_processes_at_every_entry() {
    // d = 1, f = 2: point-to-point needs max(3f+1, (d+1)f+1) = 7, local
    // broadcast max(2f+1, (d+1)f+1) = 5 — on every graph, so one below is
    // the same typed rejection as the paper's kinds, through the session
    // and through the service.
    for (kind, floor) in [
        (ProtocolKind::DirectedExact, 7),
        (ProtocolKind::DirectedExactLb, 5),
    ] {
        assert_eq!(kind.min_processes(1, 2), Some(floor));
        let n = floor - 1;
        let config = RunConfig::new(n, 2, 1).honest_inputs(honest_inputs(31, n - 2, 1));
        let expected = BvcError::InsufficientProcesses {
            protocol: kind,
            required: floor,
            actual: n,
        };
        let err = BvcSession::new(kind, config.clone()).expect_err("below the floor");
        assert_eq!(err, expected, "{kind} through BvcSession::new");
        let stream = ServiceConfig::new(kind, config).instances(vec![InstanceOverrides::default()]);
        match BvcService::new(stream).err() {
            Some(ServiceError::Instance { index: 0, source }) => {
                assert_eq!(source, expected, "{kind} through BvcService::new");
            }
            other => panic!("{kind}: expected an instance rejection, got {other:?}"),
        }
    }
}

#[test]
fn crash_and_silent_adversaries_never_block_termination() {
    for strategy in [ByzantineStrategy::Crash(1), ByzantineStrategy::Silent] {
        let report = run(
            ProtocolKind::Exact,
            RunConfig::new(5, 1, 2)
                .honest_inputs(honest_inputs(91, 4, 2))
                .adversary(strategy)
                .seed(9),
        );
        assert!(
            report.verdict().termination,
            "{strategy:?} blocked termination"
        );
        assert!(report.verdict().all_hold());

        let report = run(
            ProtocolKind::Approx,
            RunConfig::new(5, 1, 2)
                .honest_inputs(honest_inputs(92, 4, 2))
                .adversary(strategy)
                .epsilon(0.1)
                .seed(9),
        );
        assert!(
            report.verdict().termination,
            "{strategy:?} blocked async termination"
        );
        assert!(report.verdict().all_hold());
    }
}

#[test]
fn larger_systems_with_two_faults() {
    // d = 2, f = 2: exact needs n >= 7.
    let inputs = honest_inputs(123, 5, 2);
    let report = run(
        ProtocolKind::Exact,
        RunConfig::new(7, 2, 2)
            .honest_inputs(inputs)
            .adversary(ByzantineStrategy::Equivocate)
            .seed(17),
    );
    assert!(
        report.verdict().all_hold(),
        "verdict: {:?}",
        report.verdict()
    );
}

#[test]
fn decision_is_deterministic_for_a_fixed_seed() {
    let inputs = honest_inputs(5, 4, 2);
    let config = RunConfig::new(5, 1, 2)
        .honest_inputs(inputs)
        .adversary(ByzantineStrategy::RandomNoise)
        .seed(1234);
    let run1 = run(ProtocolKind::Exact, config.clone());
    let run2 = run(ProtocolKind::Exact, config);
    for (a, b) in run1.decisions().iter().zip(run2.decisions()) {
        assert!(a.approx_eq(b, 1e-12));
    }
}
