//! Regression pins for Γ at the exact Lemma-1 threshold `|Y| = (d+1)f + 1`.
//!
//! At the threshold the safe area is guaranteed non-empty but can degenerate
//! to a *single point* (a Tverberg point), where any LP formulation operates
//! at its numerical worst: the feasible region has zero volume, so a solver
//! may report it empty at tolerance.  The contract pinned here (and
//! documented in this crate's README) is one-sided robustness: **whenever
//! the naive all-hulls formulation accepts — finds a point, or holds a
//! membership — the lazy engine accepts too.**  The lazy path may be
//! *strictly more* robust (its closed forms and multiplicity accepts dodge
//! the LP entirely), never less.

use bvc_geometry::{
    gamma_contains, gamma_point, tverberg_threshold, ConvexHull, Point, PointMultiset,
    WorkloadGenerator,
};

fn pts(coords: &[&[f64]]) -> PointMultiset {
    PointMultiset::new(coords.iter().map(|c| Point::new(c.to_vec())).collect())
}

/// The naive Section-2.2 formulation: materialise every `(|Y|−f)`-subset
/// hull, solve the monolithic joint LP.
fn naive_point(y: &PointMultiset, f: usize) -> Option<Point> {
    let hulls: Vec<ConvexHull> = y
        .subsets_of_size(y.len() - f)
        .into_iter()
        .map(ConvexHull::new)
        .collect();
    ConvexHull::common_point(&hulls)
}

/// Threshold families in d = 2, f = 1 (|Y| = 4): a triangle plus an interior
/// point placed `offset` away from the centroid.  At `offset = 0` Γ is
/// exactly the centroid — a zero-volume region.
fn triangle_plus_interior(offset: f64) -> PointMultiset {
    let centroid_x = 1.0 + offset;
    pts(&[&[0.0, 0.0], &[3.0, 0.0], &[0.0, 3.0], &[centroid_x, 1.0]])
}

#[test]
fn lazy_accepts_whatever_the_naive_path_accepts_near_the_point_threshold() {
    // Sweep the interior point through the degenerate configuration,
    // including perturbations below, at, and above the LP tolerance.
    for &offset in &[
        0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 0.01, 0.1, -1e-9, -1e-7, -0.01,
    ] {
        let y = triangle_plus_interior(offset);
        let naive = naive_point(&y, 1);
        let lazy = gamma_point(&y, 1);
        if let Some(p) = &naive {
            let q = lazy.as_ref().unwrap_or_else(|| {
                panic!("offset {offset}: naive found {p}, lazy must not report empty")
            });
            // Both chosen points must be accepted by the lazy membership
            // test — the three queries have to agree with each other.
            assert!(
                gamma_contains(&y, 1, q),
                "offset {offset}: lazy point {q} fails its own membership"
            );
            assert!(
                gamma_contains(&y, 1, p),
                "offset {offset}: naive point {p} rejected by lazy membership"
            );
        }
    }
}

#[test]
fn gamma_point_exists_from_the_floor_up() {
    // Lemma 1 on generic inputs: n points drawn uniformly from [0, 1]^d have
    // a safe point for every n from the exact-consensus floor
    // max(3f+1, (d+1)f+1) to three above it.
    for (f, d) in [(1, 2), (1, 3), (2, 2)] {
        let floor = tverberg_threshold(d, f).max(3 * f + 1);
        for n in floor..=floor + 3 {
            let y = WorkloadGenerator::new(1000 + n as u64).box_points(n, d, 0.0, 1.0);
            let p = gamma_point(&y, f)
                .unwrap_or_else(|| panic!("n={n} f={f} d={d}: Lemma 1 promises a point"));
            assert!(gamma_contains(&y, f, &p), "n={n} f={f} d={d}: {p}");
        }
    }
}

#[test]
fn exact_threshold_tverberg_point_is_found_by_both_paths() {
    // |Y| = (d+1)f + 1 = 4 with the interior point exactly at the centroid:
    // Γ = {centroid}.  Both formulations must find it (the degenerate case
    // the PR-2 caveat recorded: here the lazy path's multiplicity/trimmed-box
    // machinery keeps it at least as robust as the naive LP).
    let y = triangle_plus_interior(0.0);
    let naive = naive_point(&y, 1).expect("naive joint LP finds the Tverberg point");
    let lazy = gamma_point(&y, 1).expect("lazy engine finds the Tverberg point");
    let centroid = Point::new(vec![1.0, 1.0]);
    assert!(
        naive.approx_eq(&centroid, 1e-6),
        "naive point {naive} should be the centroid"
    );
    assert!(
        lazy.approx_eq(&centroid, 1e-6),
        "lazy point {lazy} should be the centroid"
    );
    assert!(gamma_contains(&y, 1, &centroid));
}

#[test]
fn near_point_gamma_with_duplicated_member_uses_the_multiplicity_accept() {
    // A point appearing f + 1 = 2 times survives every f-removal: the lazy
    // engine accepts it with no LP at all, while the naive formulation has
    // to push a zero-volume region through the solver.  The lazy answer must
    // dominate the naive one.
    let y = pts(&[&[1.0, 1.0], &[1.0, 1.0], &[9.0, 0.0], &[0.0, 9.0]]);
    assert!(gamma_contains(&y, 1, &Point::new(vec![1.0, 1.0])));
    if let Some(p) = naive_point(&y, 1) {
        assert!(
            gamma_point(&y, 1).is_some(),
            "naive found {p}; lazy must agree the region is non-empty"
        );
    }
}

#[test]
fn d1_threshold_interval_matches_the_lp_tolerance_band() {
    // d = 1, f = 1, |Y| = 2f + 1 = 3: Γ is the singleton {median}.  The
    // closed form must accept the median and agree with the naive LP on
    // within-tolerance inverted intervals (the documented tolerance band).
    let y = pts(&[&[0.0], &[0.5], &[1.0]]);
    assert!(!bvc_geometry::gamma_is_empty(&y, 1));
    let p = gamma_point(&y, 1).expect("singleton interval");
    assert!((p.coord(0) - 0.5).abs() < 1e-9);
    assert!(gamma_contains(&y, 1, &p));
    if let Some(q) = naive_point(&y, 1) {
        assert!(
            gamma_contains(&y, 1, &q),
            "naive point {q} must be accepted"
        );
    }
}
