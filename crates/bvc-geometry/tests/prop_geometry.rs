//! Property-based tests of the geometric substrate, close to the data
//! structures: hull membership, Γ monotonicity, Tverberg guarantees and
//! workload generators.

use bvc_geometry::{
    find_tverberg_partition, gamma_contains, gamma_point, tverberg_threshold, ConvexHull, Point,
    PointMultiset, WorkloadGenerator,
};
use proptest::prelude::*;

fn points(len: usize, d: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(-5.0f64..5.0, d).prop_map(Point::new),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The centroid of a point set is always inside its convex hull.
    #[test]
    fn centroid_is_inside_the_hull(pts in points(5, 2)) {
        let centroid = Point::centroid(&pts);
        let hull = ConvexHull::new(PointMultiset::new(pts));
        prop_assert!(hull.contains(&centroid));
    }

    /// Every generator of a hull is a member of the hull.
    #[test]
    fn generators_are_members(pts in points(4, 3)) {
        let hull = ConvexHull::new(PointMultiset::new(pts.clone()));
        for p in &pts {
            prop_assert!(hull.contains(p));
        }
    }

    /// Γ(Y) with f = 0 is the hull of Y under a narrower band: both hold
    /// the centroid, and a point 5e-8 left of the leftmost member is in the
    /// hull (within the membership LP's band) but not in Γ.
    #[test]
    fn gamma_with_zero_faults_is_the_hull(pts in points(4, 2)) {
        let y = PointMultiset::new(pts.clone());
        let hull = ConvexHull::new(y.clone());
        let centroid = Point::centroid(&pts);
        prop_assert!(hull.contains(&centroid) && gamma_contains(&y, 0, &centroid));
        let leftmost = pts.iter().fold(&pts[0], |m, p| if p.coord(0) < m.coord(0) { p } else { m });
        let band = Point::new(vec![leftmost.coord(0) - 5e-8, leftmost.coord(1)]);
        prop_assert!(hull.contains(&band) && !gamma_contains(&y, 0, &band), "{}", band);
    }

    /// Γ is monotone in f: anything inside Γ with a larger f is inside Γ with
    /// a smaller f (removing fewer points only enlarges the hulls).
    #[test]
    fn gamma_is_monotone_in_f(pts in points(7, 2)) {
        let y = PointMultiset::new(pts);
        if let Some(p) = gamma_point(&y, 2) {
            prop_assert!(gamma_contains(&y, 1, &p));
        }
    }

    /// Lemma 1 / Tverberg: at the threshold size a partition into f + 1
    /// intersecting parts exists and its common point lies in Γ.
    #[test]
    fn tverberg_partition_exists_at_threshold(pts in points(tverberg_threshold(2, 1), 2)) {
        let y = PointMultiset::new(pts);
        let partition = find_tverberg_partition(&y, 2).expect("Radon/Tverberg at threshold");
        prop_assert!(gamma_contains(&y, 1, &partition.point));
    }

    /// Probability-vector workloads always produce probability vectors.
    #[test]
    fn probability_workload_invariant(seed in 0u64..10_000, dim in 2usize..6) {
        let ms = WorkloadGenerator::new(seed).probability_vectors(4, dim);
        for p in ms.iter() {
            let sum: f64 = p.coords().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(p.coords().iter().all(|&c| c >= 0.0));
        }
    }

    /// L∞ distance is a metric bounded by the L2 distance.
    #[test]
    fn linf_is_bounded_by_l2(a in points(1, 3), b in points(1, 3)) {
        let (a, b) = (&a[0], &b[0]);
        prop_assert!(a.linf_distance(b) <= a.distance(b) + 1e-12);
        prop_assert!((a.linf_distance(b) - b.linf_distance(a)).abs() < 1e-12);
    }
}
