//! Convex hulls of point multisets, represented implicitly.
//!
//! The consensus algorithms never need an explicit facet representation of a
//! convex hull; they only need to answer two questions about `H(T)`, the hull
//! of a multiset `T`:
//!
//! 1. *membership*: is a given point `p` inside `H(T)`?
//! 2. *witness*: exhibit convex-combination weights showing `p ∈ H(T)`.
//!
//! Both reduce to a small linear-programming feasibility problem (find
//! `α ≥ 0`, `Σα = 1`, `Σ α_i t_i = p`), which is how Section 2.2 of the paper
//! treats them.  Membership runs the solver in feasibility-only mode (no
//! witness extraction) and is preceded by two exact short-circuits — a
//! bounding-box reject and a generator-equality accept — that dispose of most
//! queries the Γ engine generates without touching the solver at all.
//!
//! The common-point query over several hulls — one LP that decides whether
//! they share a point and, if so, produces one — is
//! [`ConvexHull::common_point`]; the LP itself, and the active-set search
//! that reaches the same answer through much smaller programs when the hulls
//! are a subset family of one multiset (the Γ engine's case), live in the
//! crate's `family` module.

use crate::family::joint_common_point;
use crate::multiset::PointMultiset;
use crate::point::Point;
use bvc_lp::{LinearProgram, Objective, Relation, SolveStatus};

use crate::tolerance::GENERATOR_EQ_TOLERANCE;
pub use crate::tolerance::HULL_TOLERANCE;

/// A convex hull `H(T)` of a multiset of points, represented implicitly by its
/// generating points (plus their cached axis-aligned bounding box).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexHull {
    generators: PointMultiset,
    /// Per-coordinate minimum of the generators.
    lower: Vec<f64>,
    /// Per-coordinate maximum of the generators.
    upper: Vec<f64>,
}

impl ConvexHull {
    /// Creates the hull of the given generating multiset.
    pub fn new(generators: PointMultiset) -> Self {
        let lower = generators.coordinate_min().into_coords();
        let upper = generators.coordinate_max().into_coords();
        Self {
            generators,
            lower,
            upper,
        }
    }

    /// The generating points.
    pub fn generators(&self) -> &PointMultiset {
        &self.generators
    }

    /// The ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.generators.dim()
    }

    /// The axis-aligned bounding box of the generators, as
    /// `(per-coordinate minima, per-coordinate maxima)`.
    pub fn bounding_box(&self) -> (&[f64], &[f64]) {
        (&self.lower, &self.upper)
    }

    /// `true` when `point` lies outside the bounding box by more than the
    /// hull tolerance — a certificate that the membership LP would reject it.
    #[inline]
    fn bounding_box_rejects(&self, point: &Point) -> bool {
        point
            .coords()
            .iter()
            .zip(self.lower.iter().zip(&self.upper))
            .any(|(&c, (&lo, &hi))| c < lo - HULL_TOLERANCE || c > hi + HULL_TOLERANCE)
    }

    /// `true` when `point` coincides with one of the generators (within
    /// [`GENERATOR_EQ_TOLERANCE`]) — a certificate of membership.
    #[inline]
    fn equals_a_generator(&self, point: &Point) -> bool {
        self.generators
            .iter()
            .any(|g| g.approx_eq(point, GENERATOR_EQ_TOLERANCE))
    }

    /// Returns `true` if `point` lies in this hull (within LP tolerance).
    ///
    /// Fast paths: a bounding-box reject and a generator-equality accept skip
    /// the solver entirely; otherwise the membership LP runs in
    /// feasibility-only mode (phase 1 of the two-phase simplex, no witness).
    ///
    /// # Panics
    ///
    /// Panics if `point.dim()` differs from the hull's dimension.
    pub fn contains(&self, point: &Point) -> bool {
        assert_eq!(
            point.dim(),
            self.dim(),
            "query point dimension must match the hull dimension"
        );
        if self.bounding_box_rejects(point) {
            return false;
        }
        if self.equals_a_generator(point) {
            return true;
        }
        self.membership_lp(point).solve_feasibility() == SolveStatus::Optimal
    }

    /// The feasibility program `Σ α = 1`, `Σ α_i g_i = point`, `α ≥ 0`.
    fn membership_lp(&self, point: &Point) -> LinearProgram {
        let k = self.generators.len();
        let d = self.dim();
        let mut lp = LinearProgram::new(k, Objective::Minimize);
        lp.add_constraint(vec![1.0; k], Relation::Equal, 1.0);
        for l in 0..d {
            let coeffs: Vec<f64> = self.generators.iter().map(|g| g.coord(l)).collect();
            lp.add_constraint(coeffs, Relation::Equal, point.coord(l));
        }
        lp
    }

    /// Returns convex-combination weights `α` over the generators such that
    /// `Σ α_i g_i = point`, or `None` if `point` is outside the hull.
    ///
    /// # Panics
    ///
    /// Panics if `point.dim()` differs from the hull's dimension.
    pub fn convex_combination(&self, point: &Point) -> Option<Vec<f64>> {
        assert_eq!(
            point.dim(),
            self.dim(),
            "query point dimension must match the hull dimension"
        );
        let solution = self.membership_lp(point).solve();
        if solution.status != SolveStatus::Optimal {
            return None;
        }
        let clamped: Vec<f64> = solution.values.iter().map(|&w| w.max(0.0)).collect();
        let weights = normalise(&clamped);
        // Double-check the witness numerically before handing it out.
        let reconstructed = Point::convex_combination(self.generators.points(), &weights);
        if reconstructed.approx_eq(point, HULL_TOLERANCE) {
            Some(weights)
        } else {
            None
        }
    }

    /// Returns a point common to all the given hulls, if one exists.
    ///
    /// This solves a single LP with a free point variable `z ∈ R^d` and one
    /// block of convex-combination variables per hull, mirroring the linear
    /// program of Section 2.2 of the paper (there the hulls are the
    /// `H(T)` for all `(n−f)`-subsets `T`).
    ///
    /// `None` means *no point was certified*: either the joint LP proved the
    /// intersection empty, or (rarely, on numerically degenerate input) the
    /// solver stalled or its candidate failed per-hull re-verification.
    /// This best-effort contract matches the protocols' use of Γ, which skip
    /// subsets whose safe area yields no point.
    ///
    /// # Panics
    ///
    /// Panics if `hulls` is empty or the hulls disagree on dimension.
    pub fn common_point(hulls: &[ConvexHull]) -> Option<Point> {
        assert!(!hulls.is_empty(), "need at least one hull");
        assert!(
            hulls.iter().all(|h| h.dim() == hulls[0].dim()),
            "all hulls must share a dimension"
        );
        joint_common_point(&hulls.iter().collect::<Vec<_>>())
    }
}

fn normalise(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return weights.to_vec();
    }
    weights.iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> ConvexHull {
        ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![2.0, 0.0]),
            Point::new(vec![0.0, 2.0]),
        ]))
    }

    #[test]
    fn vertices_and_interior_are_inside() {
        let hull = triangle();
        assert!(hull.contains(&Point::new(vec![0.0, 0.0])));
        assert!(hull.contains(&Point::new(vec![2.0, 0.0])));
        assert!(hull.contains(&Point::new(vec![0.5, 0.5])));
        assert!(hull.contains(&Point::new(vec![1.0, 1.0]))); // on the hypotenuse
    }

    #[test]
    fn outside_points_are_rejected() {
        let hull = triangle();
        assert!(!hull.contains(&Point::new(vec![1.5, 1.5])));
        assert!(!hull.contains(&Point::new(vec![-0.1, 0.0])));
        assert!(!hull.contains(&Point::new(vec![3.0, 0.0])));
    }

    #[test]
    fn bounding_box_matches_generators() {
        let hull = triangle();
        let (lo, hi) = hull.bounding_box();
        assert_eq!(lo, &[0.0, 0.0]);
        assert_eq!(hi, &[2.0, 2.0]);
    }

    #[test]
    fn bounding_box_reject_agrees_with_lp_reject() {
        // A point inside the bounding box but outside the hull must still be
        // rejected (by the LP), and a point far outside the box must be
        // rejected by the short-circuit.
        let hull = triangle();
        assert!(!hull.contains(&Point::new(vec![1.9, 1.9]))); // in box, out of hull
        assert!(!hull.contains(&Point::new(vec![50.0, 50.0]))); // box reject
    }

    #[test]
    fn convex_combination_witness_reconstructs_the_point() {
        let hull = triangle();
        let p = Point::new(vec![0.4, 0.6]);
        let weights = hull.convex_combination(&p).expect("p is inside");
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(weights.iter().all(|&w| w >= 0.0));
        let rebuilt = Point::convex_combination(hull.generators().points(), &weights);
        assert!(rebuilt.approx_eq(&p, 1e-6));
    }

    #[test]
    fn degenerate_hull_of_single_point() {
        let hull = ConvexHull::new(PointMultiset::new(vec![Point::new(vec![1.0, 2.0, 3.0])]));
        assert!(hull.contains(&Point::new(vec![1.0, 2.0, 3.0])));
        assert!(!hull.contains(&Point::new(vec![1.0, 2.0, 3.1])));
    }

    #[test]
    fn segment_hull_in_three_dimensions() {
        let hull = ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![0.0, 0.0, 0.0]),
            Point::new(vec![2.0, 2.0, 2.0]),
        ]));
        assert!(hull.contains(&Point::new(vec![1.0, 1.0, 1.0])));
        assert!(!hull.contains(&Point::new(vec![1.0, 1.0, 1.2])));
    }

    #[test]
    fn duplicate_generators_do_not_confuse_membership() {
        let hull = ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![0.0]),
            Point::new(vec![0.0]),
            Point::new(vec![1.0]),
        ]));
        assert!(hull.contains(&Point::new(vec![0.5])));
        assert!(!hull.contains(&Point::new(vec![1.5])));
    }

    #[test]
    #[should_panic(expected = "dimension must match")]
    fn dimension_mismatch_panics() {
        let hull = triangle();
        let _ = hull.contains(&Point::new(vec![0.0]));
    }

    #[test]
    fn common_point_of_overlapping_segments() {
        let h1 = ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![0.0]),
            Point::new(vec![2.0]),
        ]));
        let h2 = ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![1.0]),
            Point::new(vec![3.0]),
        ]));
        let p = ConvexHull::common_point(&[h1.clone(), h2.clone()]).expect("they overlap");
        assert!(h1.contains(&p) && h2.contains(&p));
        assert!(p.coord(0) >= 1.0 - 1e-6 && p.coord(0) <= 2.0 + 1e-6);
    }

    #[test]
    fn common_point_absent_for_disjoint_hulls() {
        let h1 = ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
        ]));
        let h2 = ConvexHull::new(PointMultiset::new(vec![
            Point::new(vec![3.0, 3.0]),
            Point::new(vec![4.0, 3.0]),
        ]));
        assert!(ConvexHull::common_point(&[h1, h2]).is_none());
    }

    #[test]
    fn common_point_of_three_triangles_sharing_centre() {
        // Three triangles around the origin that all contain the origin.
        let mk = |pts: Vec<Vec<f64>>| {
            ConvexHull::new(PointMultiset::new(
                pts.into_iter().map(Point::new).collect(),
            ))
        };
        let h1 = mk(vec![vec![-1.0, -1.0], vec![2.0, 0.0], vec![0.0, 2.0]]);
        let h2 = mk(vec![vec![1.0, 1.0], vec![-2.0, 0.0], vec![0.0, -2.0]]);
        let h3 = mk(vec![vec![0.0, 1.5], vec![1.5, -1.0], vec![-1.5, -1.0]]);
        let p = ConvexHull::common_point(&[h1.clone(), h2.clone(), h3.clone()])
            .expect("all contain a neighbourhood of the origin");
        assert!(h1.contains(&p) && h2.contains(&p) && h3.contains(&p));
    }

    #[test]
    fn common_point_single_hull_returns_member() {
        let hull = triangle();
        let p = ConvexHull::common_point(std::slice::from_ref(&hull)).unwrap();
        assert!(hull.contains(&p));
    }
}
