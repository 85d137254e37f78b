//! Property tests pinning the Γ-engine fast paths to the naive all-LPs
//! formulation of equation (1): the `d = 1` closed form, the lazy
//! active-set path, and the shared cache must agree with materialising
//! every `(|Y|−f)`-subset hull and solving the monolithic joint LP —
//! on membership, on emptiness, and on chosen-point determinism.

use bvc_geometry::{
    gamma_contains, gamma_is_empty, gamma_point, ConvexHull, GammaCache, Point, PointMultiset,
};
use proptest::prelude::*;

fn points(len: usize, d: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(-5.0f64..5.0, d).prop_map(Point::new),
        len,
    )
}

/// The naive reference: every subset hull materialised up front.
fn naive_hulls(y: &PointMultiset, f: usize) -> Vec<ConvexHull> {
    y.subsets_of_size(y.len() - f)
        .into_iter()
        .map(ConvexHull::new)
        .collect()
}

fn naive_contains(y: &PointMultiset, f: usize, p: &Point) -> bool {
    naive_hulls(y, f).iter().all(|h| h.contains(p))
}

fn naive_point(y: &PointMultiset, f: usize) -> Option<Point> {
    ConvexHull::common_point(&naive_hulls(y, f))
}

/// The distance from `q` to the nearest segment between two of `pts` in
/// the plane: for a `q` outside their hull, its distance to the hull.
fn distance_to_edges(pts: &[Point], q: &Point) -> f64 {
    let mut nearest = f64::INFINITY;
    for a in pts {
        for b in pts {
            let (ux, uy) = (b.coord(0) - a.coord(0), b.coord(1) - a.coord(1));
            let (vx, vy) = (q.coord(0) - a.coord(0), q.coord(1) - a.coord(1));
            let length = ux * ux + uy * uy;
            let t = if length > 0.0 {
                ((ux * vx + uy * vy) / length).clamp(0.0, 1.0)
            } else {
                0.0
            };
            nearest = nearest.min((vx - t * ux).hypot(vy - t * uy));
        }
    }
    nearest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// d = 1 closed form: membership agrees with the naive all-LPs
    /// implementation on generators, random queries, and far-outside points.
    #[test]
    fn d1_closed_form_membership_agrees_with_naive(
        pts in points(5, 1),
        probe in -6.0f64..6.0,
    ) {
        let y = PointMultiset::new(pts.clone());
        for f in [1usize, 2] {
            let queries: Vec<Point> = pts
                .iter()
                .cloned()
                .chain([Point::new(vec![probe]), Point::new(vec![40.0])])
                .collect();
            for q in &queries {
                prop_assert_eq!(
                    gamma_contains(&y, f, q),
                    naive_contains(&y, f, q),
                    "d=1 membership diverged at {} (f={})", q, f
                );
            }
        }
    }

    /// d = 1 closed form: emptiness agrees with the naive implementation.
    #[test]
    fn d1_closed_form_emptiness_agrees_with_naive(pts in points(4, 1)) {
        let y = PointMultiset::new(pts);
        for f in [1usize, 2] {
            prop_assert_eq!(
                gamma_is_empty(&y, f),
                naive_point(&y, f).is_none(),
                "d=1 emptiness diverged (f={})", f
            );
        }
    }

    /// d = 1 closed form: the chosen point is in the naive Γ and is
    /// deterministic across calls and member reorderings.
    #[test]
    fn d1_closed_form_point_is_safe_and_deterministic(pts in points(6, 1)) {
        let y = PointMultiset::new(pts.clone());
        if let Some(p) = gamma_point(&y, 2) {
            prop_assert!(naive_contains(&y, 2, &p), "closed-form point {} outside naive Γ", p);
            let mut reordered = pts;
            reordered.reverse();
            let p2 = gamma_point(&PointMultiset::new(reordered), 2)
                .expect("Γ of a reordered multiset is the same set");
            prop_assert!(p.approx_eq(&p2, 1e-12));
        }
    }

    /// Lazy path (above the Lemma 1 threshold): membership agrees with the
    /// naive implementation on generators and random queries, at d = 2 and
    /// at |Y| = 10, f = 2, d = 3 — the 45-subset shape of the exact
    /// protocol's Γ(S) query.
    #[test]
    fn lazy_membership_agrees_with_naive(
        pts in points(5, 2),
        probe in prop::collection::vec(-6.0f64..6.0, 2),
        heavy_pts in points(10, 3),
        heavy_probe in prop::collection::vec(-6.0f64..6.0, 3),
    ) {
        for (pts, f, probe) in [(pts, 1usize, probe), (heavy_pts, 2, heavy_probe)] {
            let far = Point::new(vec![40.0; probe.len()]);
            let y = PointMultiset::new(pts.clone());
            let queries: Vec<Point> = pts
                .iter()
                .cloned()
                .chain([Point::new(probe), far])
                .collect();
            for q in &queries {
                prop_assert_eq!(
                    gamma_contains(&y, f, q),
                    naive_contains(&y, f, q),
                    "lazy membership diverged at {} (|Y|={}, f={})", q, y.len(), f
                );
            }
        }
    }

    /// Lazy path: the chosen point lies in the naive Γ (every materialised
    /// hull contains it) and never misses a Γ the naive path can certify
    /// non-empty — same two shapes.
    #[test]
    fn lazy_point_is_inside_naive_gamma(pts in points(6, 2), heavy_pts in points(10, 3)) {
        for (pts, f) in [(pts, 1usize), (heavy_pts, 2)] {
            let y = PointMultiset::new(pts);
            match gamma_point(&y, f) {
                Some(p) => prop_assert!(
                    naive_contains(&y, f, &p),
                    "lazy point {} outside naive Γ (|Y|={}, f={})", p, y.len(), f
                ),
                None => prop_assert!(
                    naive_point(&y, f).is_none(),
                    "lazy reported empty where the naive joint LP found a point (|Y|={}, f={})",
                    y.len(), f
                ),
            }
        }
    }

    /// Lazy path: emptiness decisions match the naive joint LP on clearly
    /// empty (below-threshold) shapes.
    #[test]
    fn lazy_emptiness_agrees_below_threshold(pts in points(3, 2)) {
        let y = PointMultiset::new(pts);
        prop_assert_eq!(gamma_is_empty(&y, 1), naive_point(&y, 1).is_none());
    }

    /// Chosen-point determinism: same multiset ⇒ same point, across repeated
    /// calls, member reorderings (different processes receive the same
    /// multiset in different orders), and the cached path.
    #[test]
    fn chosen_point_is_deterministic_across_processes(pts in points(5, 2)) {
        let y = PointMultiset::new(pts.clone());
        let mut reordered = pts;
        reordered.rotate_left(2);
        let perm = PointMultiset::new(reordered);
        let cache = GammaCache::new();
        let direct = gamma_point(&y, 1);
        let again = gamma_point(&y, 1);
        let permuted = gamma_point(&perm, 1);
        let cached = cache.find_point(&y, 1);
        let cached_perm = cache.find_point(&perm, 1);
        prop_assert_eq!(direct.is_some(), permuted.is_some());
        prop_assert_eq!(direct.is_some(), cached.is_some());
        if let (Some(a), Some(b), Some(c), Some(d), Some(e)) =
            (&direct, &again, &permuted, &cached, &cached_perm)
        {
            prop_assert!(a.approx_eq(b, 1e-15));
            prop_assert!(a.approx_eq(c, 1e-15), "reordering changed the point: {} vs {}", a, c);
            prop_assert!(a.approx_eq(d, 1e-15), "cache changed the point: {} vs {}", a, d);
            prop_assert!(a.approx_eq(e, 1e-15));
        }
    }

    /// Cached path: the emptiness answer is identical to the uncached
    /// engine, before and after the entry is resident.
    #[test]
    fn cached_queries_agree_with_uncached(pts in points(5, 2)) {
        let y = PointMultiset::new(pts);
        let cache = GammaCache::new();
        for _ in 0..2 {
            prop_assert_eq!(cache.find_point(&y, 1).is_none(), gamma_is_empty(&y, 1));
        }
        prop_assert!(cache.hits() > 0, "second pass must be served from the cache");
    }

    /// f = 0 is plain hull membership under a narrower band: Γ accepts
    /// nothing the hull rejects, and rejects what the hull accepts only
    /// within twice the membership LP's band outside it — as a point 5e-8
    /// left of the leftmost member is.
    #[test]
    fn zero_fault_gamma_is_plain_hull(pts in points(4, 2), probe in prop::collection::vec(-6.0f64..6.0, 2)) {
        let y = PointMultiset::new(pts.clone());
        let hull = ConvexHull::new(y.clone());
        let leftmost = pts.iter().fold(&pts[0], |m, p| if p.coord(0) < m.coord(0) { p } else { m });
        let band = Point::new(vec![leftmost.coord(0) - 5e-8, leftmost.coord(1)]);
        prop_assert!(hull.contains(&band) && !gamma_contains(&y, 0, &band), "{}", band);
        let q = Point::new(probe);
        let (in_gamma, in_hull) = (gamma_contains(&y, 0, &q), hull.contains(&q));
        prop_assert!(in_hull || !in_gamma, "{} is in Γ, not in the hull", q);
        prop_assert!(
            in_gamma == in_hull || distance_to_edges(&pts, &q) <= 2e-7,
            "{} is in the hull, not in Γ, and not near the hull", q
        );
    }
}
