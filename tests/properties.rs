//! Property-based tests (proptest) over the core invariants:
//!
//! * geometry — Γ points always lie inside the source hull and inside every
//!   defining subset hull; Tverberg thresholds; convex-combination witnesses.
//! * algorithms — for random inputs, seeds and adversaries at the resilience
//!   bound, Exact BVC satisfies Agreement + Validity and Approximate BVC
//!   satisfies ε-Agreement + Validity.

use bvc::adversary::ByzantineStrategy;
use bvc::core::{BvcSession, ProtocolKind, RunConfig, UpdateRule};
use bvc::geometry::{gamma_contains, gamma_point, ConvexHull, Point, PointMultiset};
use proptest::prelude::*;

fn point_strategy(d: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(0.0f64..1.0, d).prop_map(Point::new)
}

fn multiset_strategy(len: usize, d: usize) -> impl Strategy<Value = PointMultiset> {
    prop::collection::vec(point_strategy(d), len).prop_map(PointMultiset::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 1: with |Y| ≥ (d+1)f+1 the safe area is non-empty, and its
    /// chosen point lies in the hull of every (|Y|−f)-subset.
    #[test]
    fn gamma_point_exists_and_is_in_every_subset_hull(
        y in multiset_strategy(4, 1),
    ) {
        let p = gamma_point(&y, 1).expect("Lemma 1: |Y| = 4 >= (1+1)*1+1");
        prop_assert!(gamma_contains(&y, 1, &p));
        for subset in y.subsets_of_size(3) {
            prop_assert!(ConvexHull::new(subset).contains(&p));
        }
    }

    /// Same in two dimensions with |Y| = (d+1)f+1 = 4.
    #[test]
    fn gamma_point_exists_in_two_dimensions(
        y in multiset_strategy(4, 2),
    ) {
        let p = gamma_point(&y, 1).expect("Lemma 1: |Y| = 4 >= (2+1)*1+1... ");
        prop_assert!(gamma_contains(&y, 1, &p));
    }

    /// A convex-combination witness returned by the hull reconstructs the
    /// queried point.
    #[test]
    fn convex_combination_witness_reconstructs(
        y in multiset_strategy(5, 2),
        w in prop::collection::vec(0.01f64..1.0, 5),
    ) {
        let total: f64 = w.iter().sum();
        let weights: Vec<f64> = w.iter().map(|x| x / total).collect();
        let target = Point::convex_combination(y.points(), &weights);
        let hull = ConvexHull::new(y);
        let witness = hull.convex_combination(&target).expect("target is inside by construction");
        let rebuilt = Point::convex_combination(hull.generators().points(), &witness);
        prop_assert!(rebuilt.approx_eq(&target, 1e-5));
    }

    /// Points strictly outside the bounding box of the generators are never
    /// reported as hull members.
    #[test]
    fn points_outside_bounding_box_are_rejected(
        y in multiset_strategy(4, 2),
        shift in 0.5f64..10.0,
    ) {
        let hull = ConvexHull::new(y.clone());
        let max = y.coordinate_max();
        let outside = Point::new(vec![max.coord(0) + shift, max.coord(1) + shift]);
        prop_assert!(!hull.contains(&outside));
    }
}

proptest! {
    // End-to-end protocol executions are comparatively expensive; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exact BVC at the tight bound satisfies agreement and validity for
    /// random inputs, seeds and active adversaries (d = 2, f = 1, n = 4).
    #[test]
    fn exact_bvc_holds_for_random_inputs(
        inputs in prop::collection::vec(point_strategy(2), 3),
        seed in 0u64..1000,
        strategy_index in 0usize..4,
    ) {
        let strategy = ByzantineStrategy::active_attacks()[strategy_index];
        let run = BvcSession::new(
            ProtocolKind::Exact,
            RunConfig::new(4, 1, 2)
                .honest_inputs(inputs)
                .adversary(strategy)
                .seed(seed),
        )
        .expect("parameters satisfy the bound")
        .run();
        prop_assert!(run.verdict().agreement, "agreement failed: {:?}", run.verdict());
        prop_assert!(run.verdict().validity, "validity failed: {:?}", run.verdict());
        prop_assert!(run.verdict().termination);
    }

    /// Approximate BVC at the tight bound satisfies ε-agreement and validity
    /// for random scalar inputs and adversaries (d = 1, f = 1, n = 4).
    #[test]
    fn approx_bvc_holds_for_random_inputs(
        values in prop::collection::vec(0.0f64..1.0, 3),
        seed in 0u64..1000,
        strategy_index in 0usize..4,
    ) {
        let strategy = ByzantineStrategy::active_attacks()[strategy_index];
        let inputs: Vec<Point> = values.iter().map(|&v| Point::new(vec![v])).collect();
        let run = BvcSession::new(
            ProtocolKind::Approx,
            RunConfig::new(4, 1, 1)
                .honest_inputs(inputs)
                .adversary(strategy)
                .epsilon(0.1)
                .update_rule(UpdateRule::WitnessOptimized)
                .seed(seed),
        )
        .expect("parameters satisfy the bound")
        .run();
        prop_assert!(run.verdict().agreement, "ε-agreement failed: {:?}", run.verdict());
        prop_assert!(run.verdict().validity, "validity failed: {:?}", run.verdict());
    }
}
