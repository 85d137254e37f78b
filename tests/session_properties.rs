//! Property tests pinning the session API's config/driver separation: one
//! `RunConfig` is protocol-agnostic data, and dispatching it to different
//! drivers changes the execution — never the configuration-derived facts.

use bvc::core::{BvcSession, ProtocolKind, RunConfig, ValidityMode};
use bvc::geometry::{ConvexHull, Point, PointMultiset};
use proptest::prelude::*;

fn point_strategy(d: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(0.0f64..1.0, d).prop_map(Point::new)
}

proptest! {
    // End-to-end protocol executions are comparatively expensive; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `RunConfig` built once and dispatched to exact vs restricted-sync
    /// on the same seed: the honest-input hull the verdicts are scored
    /// against is identical (the config owns the inputs; no driver mutates
    /// them), the recorded `ValidityCheck.required_n` is the same (at
    /// d = 1, f = 1 both bounds are 4 — max(3f+1, 2f+1) and (d+2)f+1), and
    /// every decision of either driver lies in that one shared hull.
    #[test]
    fn one_config_dispatched_to_two_drivers_shares_hull_and_requirement(
        inputs in prop::collection::vec(point_strategy(1), 5),
        seed in 0u64..1000,
    ) {
        let config = RunConfig::new(6, 1, 1)
            .honest_inputs(inputs.clone())
            .epsilon(0.1)
            .seed(seed);
        let exact = BvcSession::new(ProtocolKind::Exact, config.clone())
            .expect("n = 6 satisfies the exact bound")
            .run();
        let restricted = BvcSession::new(ProtocolKind::RestrictedSync, config)
            .expect("n = 6 satisfies the restricted-sync bound")
            .run();

        // Config-derived facts are driver-independent.
        prop_assert_eq!(exact.honest_inputs(), restricted.honest_inputs());
        prop_assert_eq!(exact.honest_inputs(), &inputs[..]);
        let exact_check = exact.validity().expect("recorded");
        let restricted_check = restricted.validity().expect("recorded");
        prop_assert_eq!(exact_check.required_n, 4);
        prop_assert_eq!(
            exact_check.required_n, restricted_check.required_n,
            "at d = 1, f = 1 the two settings' bounds coincide"
        );
        prop_assert_eq!(&exact_check.mode, &ValidityMode::Strict);
        prop_assert!(exact_check.satisfied && restricted_check.satisfied);
        prop_assert_eq!(
            Some(exact_check.required_n),
            ProtocolKind::Exact.min_processes(1, 1)
        );
        prop_assert_eq!(
            Some(restricted_check.required_n),
            ProtocolKind::RestrictedSync.min_processes(1, 1)
        );

        // The executions differ per protocol, but both are scored against
        // the one hull the shared config defines.
        let hull = ConvexHull::new(PointMultiset::new(inputs));
        for report in [&exact, &restricted] {
            prop_assert!(report.verdict().all_hold(), "{:?}", report.verdict());
            for decision in report.decisions() {
                prop_assert!(hull.contains(decision), "{decision} left the hull");
            }
        }
        prop_assert_eq!(exact.protocol(), ProtocolKind::Exact);
        prop_assert_eq!(restricted.protocol(), ProtocolKind::RestrictedSync);
    }

    /// Dispatch does not consume config determinism: the same config run
    /// twice through the same driver is bit-identical, and cloning the
    /// config before the first dispatch changes nothing.
    #[test]
    fn config_reuse_is_bit_deterministic(
        inputs in prop::collection::vec(point_strategy(2), 4),
        seed in 0u64..1000,
    ) {
        let config = RunConfig::new(5, 1, 2)
            .honest_inputs(inputs)
            .epsilon(0.1)
            .seed(seed);
        let a = BvcSession::new(ProtocolKind::Exact, config.clone())
            .expect("bound satisfied")
            .run();
        let b = BvcSession::new(ProtocolKind::Exact, config)
            .expect("bound satisfied")
            .run();
        prop_assert_eq!(a.decisions(), b.decisions());
        prop_assert_eq!(a.verdict(), b.verdict());
        prop_assert_eq!(a.rounds(), b.rounds());
    }
}
