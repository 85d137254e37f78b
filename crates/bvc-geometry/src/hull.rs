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
//! This module also provides the common-point query used by the Tverberg
//! search and the safe-area operator: a single LP that decides whether
//! several hulls share a point and, if so, produces one.  Next to the full
//! joint LP ([`ConvexHull::common_point`]) there is an active-set variant
//! ([`ConvexHull::common_point_lazy`]) that solves a small joint LP over a
//! growing working set of hulls and verifies candidates against the rest
//! with cheap membership tests — the workhorse of the Γ engine, where the
//! intersection of dozens of hulls is typically pinned down by a handful of
//! them.

use crate::multiset::PointMultiset;
use crate::point::Point;
use bvc_lp::{LinearProgram, Objective, Relation, SolveStatus};
use std::collections::HashMap;

/// Tolerance used when verifying convex-combination witnesses.
pub const HULL_TOLERANCE: f64 = 1e-6;

/// Tolerance under which a query point is considered *equal* to a generator
/// (the generator-equality accept).  Chosen far below the LP feasibility
/// threshold so the short-circuit can never contradict the solver.
const GENERATOR_EQ_TOLERANCE: f64 = 1e-12;

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

    /// Builds the joint common-point LP of Section 2.2 over the given hulls:
    /// a free point variable `z ∈ R^d` plus one block of convex-combination
    /// variables per hull.
    fn joint_lp(hulls: &[&ConvexHull]) -> LinearProgram {
        let d = hulls[0].dim();
        let total_alpha: usize = hulls.iter().map(|h| h.generators.len()).sum();
        let num_vars = d + total_alpha;
        let mut lp = LinearProgram::new(num_vars, Objective::Minimize);
        for zi in 0..d {
            lp.mark_free(zi);
        }
        let mut offset = d;
        for hull in hulls {
            let k = hull.generators.len();
            // Σ α = 1 for this hull.
            let mut row = vec![0.0; num_vars];
            for a in 0..k {
                row[offset + a] = 1.0;
            }
            lp.add_constraint(row, Relation::Equal, 1.0);
            // z - Σ α_i g_i = 0 per coordinate.
            for l in 0..d {
                let mut row = vec![0.0; num_vars];
                row[l] = 1.0;
                for (a, g) in hull.generators.iter().enumerate() {
                    row[offset + a] = -g.coord(l);
                }
                lp.add_constraint(row, Relation::Equal, 0.0);
            }
            offset += k;
        }
        lp
    }

    /// Solves the joint LP over `hulls` and returns the solver status plus
    /// the candidate point (unverified).
    pub(crate) fn joint_candidate(hulls: &[&ConvexHull]) -> (SolveStatus, Option<Point>) {
        let d = hulls[0].dim();
        let solution = Self::joint_lp(hulls).solve();
        if solution.status != SolveStatus::Optimal {
            return (solution.status, None);
        }
        (
            SolveStatus::Optimal,
            Some(Point::new(solution.values[..d].to_vec())),
        )
    }

    /// Returns a point common to all the given hulls, if one exists.
    ///
    /// This solves a single LP with a free point variable `z ∈ R^d` and one
    /// block of convex-combination variables per hull, mirroring the linear
    /// program of Section 2.2 of the paper (there the hulls are the
    /// `H(T)` for all `(n−f)`-subsets `T`).  For large hull families prefer
    /// [`ConvexHull::common_point_lazy`], which reaches the same answer
    /// through much smaller programs.
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
        let d = hulls[0].dim();
        assert!(
            hulls.iter().all(|h| h.dim() == d),
            "all hulls must share a dimension"
        );
        let refs: Vec<&ConvexHull> = hulls.iter().collect();
        let (status, z) = Self::joint_candidate(&refs);
        if status != SolveStatus::Optimal {
            return None;
        }
        let z = z.expect("optimal joint LP yields a candidate");
        // Verify the candidate against every hull with an independent
        // membership query; the combined LP can in rare cases report a point
        // whose per-hull witnesses are slightly off numerically.
        if hulls.iter().all(|h| h.contains(&z)) {
            Some(z)
        } else {
            None
        }
    }

    /// Active-set variant of [`ConvexHull::common_point`]: starts from the
    /// first hull alone, solves the (small) joint LP over the working set,
    /// and verifies the candidate against the remaining hulls with membership
    /// queries, adding the first violated hull to the working set and
    /// re-solving.  On numerical disagreement between the joint LP and the
    /// membership tests it falls back to the full joint LP, so the result is
    /// exactly as trustworthy as [`ConvexHull::common_point`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `hulls` is empty or the hulls disagree on dimension.
    pub fn common_point_lazy(hulls: &[ConvexHull]) -> Option<Point> {
        assert!(!hulls.is_empty(), "need at least one hull");
        assert!(
            hulls.iter().all(|h| h.dim() == hulls[0].dim()),
            "all hulls must share a dimension"
        );
        if hulls.len() <= 2 {
            return Self::common_point(hulls);
        }
        Self::active_set_common_point(
            hulls.len(),
            |i| hulls[i].clone(),
            || Self::common_point(hulls),
        )
    }

    /// The active-set working-set loop shared by
    /// [`common_point_lazy`](ConvexHull::common_point_lazy) (slice-backed)
    /// and the safe-area engine (combination-stream-backed):
    /// `hull_at(ordinal)` materialises the hull with the given ordinal
    /// (called at most once per ordinal — results are memoised here), and
    /// `fallback` is the naive all-hulls solve used on numerical
    /// disagreement.
    ///
    /// Invariant: the working set's joint LP *under*-constrains the full
    /// intersection (it covers a subset of the hulls), so its infeasibility
    /// certifies the intersection empty.  A candidate that passes every hull
    /// is a point of the intersection; otherwise the first refuting hull
    /// joins the working set and the loop re-solves.  The working set only
    /// grows, so the loop terminates after at most `count` iterations — in
    /// practice a handful, because an intersection in `R^d` is generically
    /// pinned by few hulls.
    pub(crate) fn active_set_common_point(
        count: usize,
        mut hull_at: impl FnMut(usize) -> ConvexHull,
        fallback: impl Fn() -> Option<Point>,
    ) -> Option<Point> {
        debug_assert!(count > 0, "need at least one hull");
        let mut built: HashMap<usize, ConvexHull> = HashMap::new();
        built.insert(0, hull_at(0));
        let mut active: Vec<usize> = vec![0];
        loop {
            let working: Vec<&ConvexHull> = active.iter().map(|o| &built[o]).collect();
            let (status, candidate) = Self::joint_candidate(&working);
            let z = match (status, candidate) {
                (SolveStatus::Infeasible, _) => return None,
                (SolveStatus::Optimal, Some(z)) => z,
                // Unbounded cannot arise (the candidate is pinned inside the
                // first hull) and a stalled solve certifies nothing; treat
                // both as numerical trouble.
                _ => return fallback(),
            };
            // Verify the candidate against the hulls in ordinal order,
            // materialising each at most once.
            let mut violated: Option<usize> = None;
            for ordinal in 0..count {
                if active.contains(&ordinal) {
                    continue;
                }
                let hull = built.entry(ordinal).or_insert_with(|| hull_at(ordinal));
                if !hull.contains(&z) {
                    violated = Some(ordinal);
                    break;
                }
            }
            match violated {
                Some(ordinal) => active.push(ordinal),
                None => {
                    // The candidate passed every hull outside the working
                    // set; re-verify the working set itself to guard against
                    // joint-LP round-off before accepting.
                    if active.iter().all(|o| built[o].contains(&z)) {
                        return Some(z);
                    }
                    return fallback();
                }
            }
        }
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

    #[test]
    fn lazy_common_point_agrees_with_full_joint_lp() {
        let mk = |pts: Vec<Vec<f64>>| {
            ConvexHull::new(PointMultiset::new(
                pts.into_iter().map(Point::new).collect(),
            ))
        };
        let hulls = vec![
            mk(vec![vec![-1.0, -1.0], vec![2.0, 0.0], vec![0.0, 2.0]]),
            mk(vec![vec![1.0, 1.0], vec![-2.0, 0.0], vec![0.0, -2.0]]),
            mk(vec![vec![0.0, 1.5], vec![1.5, -1.0], vec![-1.5, -1.0]]),
        ];
        let lazy = ConvexHull::common_point_lazy(&hulls).expect("non-empty intersection");
        assert!(hulls.iter().all(|h| h.contains(&lazy)));
        assert!(ConvexHull::common_point(&hulls).is_some());
    }

    #[test]
    fn lazy_common_point_detects_empty_intersection() {
        let mk = |a: f64, b: f64| {
            ConvexHull::new(PointMultiset::new(vec![
                Point::new(vec![a]),
                Point::new(vec![b]),
            ]))
        };
        // Three segments with pairwise but no triple overlap... actually in
        // 1-D pairwise overlap implies common overlap (Helly), so use truly
        // disjoint ones.
        let hulls = vec![mk(0.0, 1.0), mk(2.0, 3.0), mk(4.0, 5.0)];
        assert!(ConvexHull::common_point_lazy(&hulls).is_none());
        assert!(ConvexHull::common_point(&hulls).is_none());
    }
}
