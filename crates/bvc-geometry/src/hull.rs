//! Convex hulls of point multisets, represented implicitly.
//!
//! The consensus algorithms never need an explicit facet representation of a
//! convex hull; they only need to answer two questions about `H(T)`, the hull
//! of a multiset `T`:
//!
//! 1. *membership*: is a given point `p` inside `H(T)`?
//! 2. *witness*: exhibit convex-combination weights showing `p ∈ H(T)`.
//!
//! Section 2.2 of the paper reduces both to a small linear-programming
//! feasibility problem (find `α ≥ 0`, `Σα = 1`, `Σ α_i t_i = p`).  The
//! witness, and membership from `d = 4` on, still solve it, written
//! relative to a generator `o` (`local_combination_lp`):
//! `Σ α_i (t_i − o) = p − o`, so its answer does not depend on where the
//! origin is.  That LP accepts a point within its residual,
//! `FEASIBILITY_TOLERANCE`, of the hull.
//!
//! Up to `d = 3` membership runs no LP.  A point equal to a generator is in;
//! otherwise `H(T)` is `Γ(T)` with `f = 0`, the depth region of `T`
//! (`depth.rs`): its bounding box and its supporting sides (member-pair
//! lines in the plane, member-triple planes in space, found by exact or
//! certain signs; in space also its three coordinate shadows' planar
//! regions), each widened by that same `FEASIBILITY_TOLERANCE`, and built
//! once per hull.  It is a closed form that replaces the LP at the LP's own
//! threshold (the rule `tolerance.rs` states), measured as a Euclidean
//! distance where the LP measured an L1 residual, so the two differ only
//! within a few times that threshold of the hull.  `Γ(T)` at `f = 0` is the
//! same region widened by the narrower `DEPTH_SLACK`, so it holds less than
//! the hull only within that band.  At `d = 1` the hull is its box under
//! the same band.  From `d = 4` on a point beyond a face of the bounding
//! box by more than [`reject_margin`] (`tolerance.rs`) is rejected before
//! the LP runs.
//!
//! The common-point query over several hulls — one LP that decides whether
//! they share a point and, if so, produces one — is
//! [`ConvexHull::common_point`]; the LP itself, and the active-set search
//! that reaches the same answer through much smaller programs when the hulls
//! are a subset family of one multiset, live in the crate's `family` module.

use crate::depth;
use crate::family::joint_common_point;
use crate::multiset::PointMultiset;
use crate::point::Point;
use bvc_lp::{LinearProgram, Objective, Relation, SolveStatus, FEASIBILITY_TOLERANCE};
use std::fmt;
use std::sync::OnceLock;

pub use crate::tolerance::HULL_TOLERANCE;
use crate::tolerance::{reject_margin, GENERATOR_EQ_TOLERANCE};

/// `true` when some coordinate of `point` lies beyond a face of the box
/// `[lo, hi]` by more than [`reject_margin`]: each face has a unit normal,
/// so each is moved out by the same margin.
pub(crate) fn box_rejects(lo: &[f64], hi: &[f64], point: &Point) -> bool {
    let margin = reject_margin(1.0);
    let faces = lo.iter().zip(hi);
    let outside = |(&c, (&lo, &hi)): (&f64, (&f64, &f64))| c < lo - margin || c > hi + margin;
    point.coords().iter().zip(faces).any(outside)
}

/// A convex hull `H(T)` of a multiset of points, represented implicitly by its
/// generating points and their bounding box.  Two hulls are equal when their
/// generators are.
pub struct ConvexHull {
    generators: PointMultiset,
    /// The generators' bounding box, its low and high corners.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// At `d = 2` and `d = 3`, the depth region at `f = 0`, built on the
    /// first membership query.
    region: OnceLock<Region>,
}

/// The depth region a `d = 2` or `d = 3` hull answers membership by.
enum Region {
    Plane(depth::Region<2>),
    Space(depth::Space),
}

impl Clone for ConvexHull {
    fn clone(&self) -> Self {
        Self::new(self.generators.clone())
    }
}

impl PartialEq for ConvexHull {
    fn eq(&self, other: &Self) -> bool {
        self.generators == other.generators
    }
}

impl fmt::Debug for ConvexHull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConvexHull")
            .field("generators", &self.generators)
            .finish_non_exhaustive()
    }
}

impl ConvexHull {
    /// Creates the hull of the given generating multiset.
    pub fn new(generators: PointMultiset) -> Self {
        Self {
            lo: generators.coordinate_min().into_coords(),
            hi: generators.coordinate_max().into_coords(),
            generators,
            region: OnceLock::new(),
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

    /// `true` when `point` coincides with one of the generators (within
    /// [`GENERATOR_EQ_TOLERANCE`]) — a certificate of membership.
    #[inline]
    fn equals_a_generator(&self, point: &Point) -> bool {
        self.generators
            .iter()
            .any(|g| g.approx_eq(point, GENERATOR_EQ_TOLERANCE))
    }

    /// Returns `true` if `point` lies in this hull, within the membership
    /// LP's band (`FEASIBILITY_TOLERANCE`).
    ///
    /// A point equal to a generator is in.  Otherwise, up to `d = 3`, the
    /// hull's depth region at `f = 0` answers with no LP (module docs): at
    /// `d = 1` its box, at `d = 2` and `d = 3` its box and supporting sides
    /// (in space with its three coordinate shadows), all widened by the
    /// band and found once per hull.  From `d = 4` on, a bounding-box
    /// reject, then the membership LP in feasibility-only mode (phase 1 of
    /// the two-phase simplex, no witness).
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
        if self.equals_a_generator(point) {
            return true;
        }
        let at = |l: usize| point.coord(l);
        match self.dim() {
            1 => {
                self.lo[0] - FEASIBILITY_TOLERANCE <= at(0)
                    && at(0) <= self.hi[0] + FEASIBILITY_TOLERANCE
            }
            2 | 3 => match self.region.get_or_init(|| self.depth_region()) {
                Region::Plane(plane) => plane.contains([at(0), at(1)]),
                Region::Space(space) => space.contains([at(0), at(1), at(2)]),
            },
            _ => {
                !box_rejects(&self.lo, &self.hi, point)
                    && self.membership_lp(point).solve_feasibility() == SolveStatus::Optimal
            }
        }
    }

    /// The hull's depth region at `f = 0`, widened by the membership LP's
    /// band, for `d = 2` or `d = 3`.
    fn depth_region(&self) -> Region {
        let (y, bounds) = (&self.generators, (&self.lo[..], &self.hi[..]));
        let band = FEASIBILITY_TOLERANCE;
        match self.dim() {
            2 => Region::Plane(depth::Region::new(y, 0, bounds, [0, 1], band)),
            _ => Region::Space(depth::Space::new(y, 0, bounds, band)),
        }
    }

    /// The feasibility program `Σ α = 1`, `Σ α_i (g_i − o) = point − o`,
    /// `α ≥ 0`, for `o` the first generator.
    fn membership_lp(&self, point: &Point) -> LinearProgram {
        local_combination_lp(&[self], Some(point))
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
        // The program reaches `o + Σ α_i (g_i − o)` for `o = g_0`, so the
        // reference's weight is what the others leave of 1; should clamping
        // leave them above 1, they shrink towards `o`.
        let mut weights: Vec<f64> = solution.values.iter().map(|&w| w.max(0.0)).collect();
        let others = weights[1..].iter().sum::<f64>().max(1.0);
        weights[1..].iter_mut().for_each(|w| *w /= others);
        weights[0] = (1.0 - weights[1..].iter().sum::<f64>()).max(0.0);
        // Double-check the witness numerically before handing it out: it
        // must not land beyond the reject margin of `point`'s own box.
        let reconstructed = Point::convex_combination(self.generators.points(), &weights);
        (!box_rejects(point.coords(), point.coords(), &reconstructed)).then_some(weights)
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

/// The LP "each hull's block of weights is a convex combination of its
/// generators reaching `target`", written relative to the first hull's first
/// generator `o`: per hull `Σ α = 1` and, per coordinate `l`,
/// `Σ α_i (g_i − o)_l = (p − o)_l` for a fixed point `p`, or
/// `z_l − Σ α_i (g_i − o)_l = 0` for the free point `z` (columns `0..d`,
/// ahead of the weights, itself relative to `o`).  Phase 1 lets the weights
/// fall short of `Σ α = 1`, which pulls the combination towards `o`, a point
/// of the first hull, so the membership LP reaches past a face by no more
/// than its residual wherever the hull lies.  Every LP row of this crate is
/// built here.
pub(crate) fn local_combination_lp(hulls: &[&ConvexHull], target: Option<&Point>) -> LinearProgram {
    let reference = hulls[0].generators.point(0).coords();
    let mut first = if target.is_some() { 0 } else { reference.len() };
    let width = first + hulls.iter().map(|h| h.generators.len()).sum::<usize>();
    let mut lp = LinearProgram::new(width, Objective::Minimize);
    for z in 0..first {
        lp.mark_free(z);
    }
    for hull in hulls {
        let weights = first..first + hull.generators.len();
        let mut sum = vec![0.0; width];
        sum[weights.clone()].fill(1.0);
        lp.add_constraint(sum, Relation::Equal, 1.0);
        for (l, &o) in reference.iter().enumerate() {
            let mut row = vec![0.0; width];
            let (sign, rhs) = match target {
                Some(p) => (1.0, p.coord(l) - o),
                None => {
                    row[l] = 1.0;
                    (-1.0, 0.0)
                }
            };
            for (c, g) in row[weights.clone()].iter_mut().zip(hull.generators.iter()) {
                *c = sign * (g.coord(l) - o);
            }
            lp.add_constraint(row, Relation::Equal, rhs);
        }
        first = weights.end;
    }
    lp
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::depth::tests::{distance_to_hull, distance_to_spatial_hull};
    use crate::gamma::gamma_point;
    use crate::gamma::tests::converged_quadrilateral;
    use bvc_trace::{TraceEvent, TraceHandle, Tracer};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
    fn box_reject_widens_each_face_by_one_margin() {
        // Every face moves out by HULL_TOLERANCE, near the origin and 1000
        // from it alike: a point on the widened face is kept, one a step
        // beyond it rejected.
        for (lo, hi) in [(0.0, 2.0), (1000.0, 1002.0)] {
            let (below, above) = (lo - HULL_TOLERANCE, hi + HULL_TOLERANCE);
            let rejects = |c: f64| box_rejects(&[lo, lo], &[hi, hi], &Point::new(vec![c, lo]));
            assert!(!rejects(below) && !rejects(above), "[{lo}, {hi}]");
            assert!(
                rejects(below.next_down()) && rejects(above.next_up()),
                "[{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn bounding_box_reject_agrees_with_lp_reject() {
        // A point inside the bounding box but outside the hull must still be
        // rejected (by the hull's sides), and a point far outside the box
        // by the box.
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

    /// Counts the `simplex` events of a run.
    struct Solves(Arc<AtomicUsize>);

    impl Tracer for Solves {
        fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
            if matches!(event, TraceEvent::Simplex { .. }) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `run`'s answer and the number of LPs it solved.
    fn solves<T>(run: impl FnOnce() -> T) -> (T, usize) {
        let count = Arc::new(AtomicUsize::new(0));
        let value = {
            let handle = TraceHandle::new(Box::new(Solves(Arc::clone(&count))), false);
            let _scope = bvc_trace::install(handle, 0);
            run()
        };
        (value, count.load(Ordering::Relaxed))
    }

    fn hull_of<const D: usize>(points: &[[f64; D]]) -> ConvexHull {
        ConvexHull::new(PointMultiset::new(
            points.iter().map(|p| Point::new(p.to_vec())).collect(),
        ))
    }

    #[test]
    fn a_spatial_hull_answers_without_an_lp() {
        let corner = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let tetrahedron = hull_of(&corner);
        let at = |c: [f64; 3]| Point::new(c.to_vec());
        for (query, inside) in [
            ([0.1, 0.2, 0.3], true),
            // On a face, and within the band below it.
            ([0.25, 0.25, 0.0], true),
            ([0.25, 0.25, -5e-8], true),
            ([0.25, 0.25, -5e-7], false),
            ([0.5, 0.5, 0.1], false),
        ] {
            assert_eq!(solves(|| tetrahedron.contains(&at(query))), (inside, 0));
        }
        // A flat hull is the slab of its plane and its planar hull, and a
        // collinear one a segment.
        let flat = hull_of(&[
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
        ]);
        assert_eq!(solves(|| flat.contains(&at([0.5, 0.5, 0.0]))), (true, 0));
        assert_eq!(solves(|| flat.contains(&at([0.5, 0.5, 1e-6]))), (false, 0));
        assert_eq!(
            solves(|| flat.contains(&at([0.5, 1.0 + 1e-6, 0.0]))),
            (false, 0)
        );
        let line = hull_of(&[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]);
        assert_eq!(solves(|| line.contains(&at([0.5, 0.5, 0.5]))), (true, 0));
        assert_eq!(solves(|| line.contains(&at([0.5, 0.5, 0.6]))), (false, 0));
        assert_eq!(solves(|| line.contains(&at([2.1, 2.1, 2.1]))), (false, 0));
    }

    #[test]
    fn a_scalar_hull_is_its_box_under_the_lp_band() {
        let hull = hull_of(&[[0.0], [0.0], [1.0]]);
        for (query, inside) in [
            (0.5, true),
            (1.0 + 5e-8, true),
            (-5e-8, true),
            (1.0 + 2e-7, false),
        ] {
            let query = Point::new(vec![query]);
            assert_eq!(solves(|| hull.contains(&query)), (inside, 0), "{query}");
        }
    }

    /// `points` each moved by `t`.
    pub(crate) fn moved<const D: usize>(points: &[[f64; D]], t: [f64; D]) -> Vec<[f64; D]> {
        let step = |p: &[f64; D]| std::array::from_fn(|l| p[l] + t[l]);
        points.iter().map(step).collect()
    }

    /// `contains` at each query, [checked](off_the_band) there and asserted
    /// equal to the answer of the same fixture moved by minus its first
    /// generator, to the origin.
    fn the_same_at_the_origin<const D: usize>(
        generators: &[[f64; D]],
        queries: &[[f64; D]],
    ) -> Vec<bool> {
        let home = generators[0].map(|c| -c);
        let (hull, at_origin) = (hull_of(generators), hull_of(&moved(generators, home)));
        let moved_queries = moved(queries, home);
        let answers = queries.iter().zip(&moved_queries).map(|(query, moved)| {
            let answer = off_the_band(&hull, query);
            assert_eq!(
                off_the_band(&at_origin, moved),
                answer,
                "{query:?} of {generators:?} moved to the origin"
            );
            answer
        });
        answers.collect()
    }

    #[test]
    fn a_planar_hull_answers_without_an_lp() {
        // Inside, on the hypotenuse, within the band below the bottom edge
        // and past it, and far out.
        let hull = triangle();
        for (query, inside) in [
            ([0.5, 0.5], true),
            ([1.0, 1.0], true),
            ([1.0, -1e-9], true),
            ([1.0, -5e-8], true),
            ([1.0, -2e-7], false),
            ([1.5, 1.5], false),
        ] {
            let query = Point::new(query.to_vec());
            assert_eq!(solves(|| hull.contains(&query)), (inside, 0), "{query}");
        }
    }

    #[test]
    fn a_sharp_corner_far_from_the_origin_answers_as_at_the_origin() {
        // A sharp corner about 400 from the origin: `near` is 2.4e-5 beyond
        // the edge line `a′ → b` and `far` 2.4e-3.  Both are beyond the
        // band, so the hull's sides reject them with no LP, the LP agrees,
        // and the fixture moved to the origin answers the same.
        let a = [-337.103_036_637_493_2, -315.224_631_264_828_8];
        let a_prime = [-337.103_036_637_393_2, -315.224_631_264_828_8];
        let b = [-560.289_956_588_613_4, 587.674_046_938_747_8];
        let c = [-843.857_247_890_129_9, -313.829_042_569_148_56];
        let near = [-337.103_036_637_443_2, -315.224_531_264_828_84];
        let far = [-337.103_036_637_443_2, -315.214_631_264_828_8];
        let generators = [a, a_prime, b, c];
        assert_eq!(
            the_same_at_the_origin(&generators, &[near, far]),
            [false, false]
        );
        let hull = hull_of(&generators);
        for query in [near, far] {
            let query = Point::new(query.to_vec());
            assert_eq!(solves(|| hull.contains(&query)), (false, 0));
        }
    }

    #[test]
    fn a_triangle_and_its_translate_reject_the_same_query() {
        // The same triangle and query 2e-6 below its bottom face, at
        // (1000, 1000) and moved by −2000 to (−1000, −1000): the query is
        // beyond the face by more than the LP's reach at both places.
        let triangle = [[1000.0, 1000.0], [1002.0, 1000.0], [1000.0, 1002.0]];
        let query = [1001.0, 1000.0 - 2e-6];
        for t in [0.0, -2000.0] {
            let hull = hull_of(&moved(&triangle, [t; 2]));
            let query = Point::new(moved(&[query], [t; 2])[0].to_vec());
            let lp = hull.membership_lp(&query).solve_feasibility();
            assert_eq!(lp, SolveStatus::Infeasible, "t = {t}");
            assert!(!hull.contains(&query), "t = {t}");
        }
    }

    #[test]
    fn degenerate_planar_hulls_answer_without_an_lp() {
        for (generators, inside, outside) in [
            // Collinear.
            (
                vec![[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                [0.5, 0.5],
                [1.0, 0.5],
            ),
            // Two points, each twice: a converged pair.
            (
                vec![[0.0, 0.0], [2.0, 1.0], [0.0, 0.0], [2.0, 1.0]],
                [1.0, 0.5],
                [1.0, 0.9],
            ),
            // A collinear triple on the boundary of a triangle.
            (
                vec![[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]],
                [1.0, 0.5],
                [1.8, 0.8],
            ),
        ] {
            let hull = hull_of(&generators);
            let (answer, lps) = solves(|| hull.contains(&Point::new(inside.to_vec())));
            assert!(
                answer && lps == 0,
                "{generators:?}: {inside:?} gave {answer} after {lps} LPs"
            );
            let (answer, lps) = solves(|| hull.contains(&Point::new(outside.to_vec())));
            assert!(
                !answer && lps == 0,
                "{generators:?}: {outside:?} gave {answer} after {lps} LPs"
            );
        }
    }

    /// One row of [`the_lp_band_defects_answer_by_one_rule`]: groups of
    /// `(hull, query)` whose answers must be equal, and the answer, when it
    /// is known.
    type Fixture = (&'static str, Vec<Group>, Option<bool>);

    /// Hulls, each with a query, whose answers must be equal.
    type Group = Vec<(ConvexHull, Point)>;

    /// A triangle near `(−1000, −1000)` whose membership LP answered points
    /// 7e-10 to 4.5e-7 from `a` by the order its generators were listed
    /// in: each of 32 directions × 24 distances from 1e-10 to 1e-6 around
    /// `a`, at the triangle's place and moved by +1000, is one group of the
    /// orders (a, b, c), (c, a, b) and (b, c, a).
    fn order_fixture() -> Vec<Group> {
        let a = [-1_000.707_126_124_662_9, -999.212_550_344_681_1];
        let b = [-1_000.711_986_472_332, -1000.0];
        let c = [-999.678_089_880_198_2, -1_001.358_187_428_638_8];
        let mut groups = Vec::new();
        for t in [0.0, 1000.0] {
            for k in 0..32 {
                let (sin, cos) = (f64::from(k) * std::f64::consts::PI / 16.0).sin_cos();
                for j in 0..24 {
                    let r = 1e-10 * 10f64.powf(4.0 * f64::from(j) / 23.0);
                    let probe = Point::new(vec![a[0] + r * cos + t, a[1] + r * sin + t]);
                    let group = [[a, b, c], [c, a, b], [b, c, a]]
                        .map(|order| (hull_of(&moved(&order, [t, t])), probe.clone()));
                    groups.push(group.into());
                }
            }
        }
        groups
    }

    /// `converged_quadrilateral(1.0)` moved by `2^40` and by `1e12`, where
    /// a coordinate steps by 2.4e-4 and 1.2e-4: `gamma_point(y, 1)` in each
    /// of its four subset hulls.
    fn far_fixture() -> Vec<Group> {
        let home: Vec<[f64; 2]> = converged_quadrilateral(1.0)
            .iter()
            .map(|p| [p.coord(0), p.coord(1)])
            .collect();
        let mut groups = Vec::new();
        for t in [2f64.powi(40), 1e12] {
            let members = moved(&home, [t, t]);
            let y = PointMultiset::new(members.iter().map(|m| Point::new(m.to_vec())).collect());
            let p = gamma_point(&y, 1).expect("the Radon point");
            for drop in 0..4 {
                let subset: Vec<[f64; 2]> =
                    (0..4).filter(|&i| i != drop).map(|i| members[i]).collect();
                groups.push(vec![(hull_of(&subset), p.clone())]);
            }
        }
        groups
    }

    /// A spatial hull with near-duplicate generators and a point 5.8e-11
    /// from its edge `(1e-9, −1, 0)`–`(0, 0, −2)`, at the origin and moved
    /// by ±1e6.
    fn near_duplicate_fixture() -> Vec<Group> {
        let twice = [0.055_420_033_9, -0.732_113_123_9, -1.248_132_565_5];
        let generators = [
            [-0.001_932_953_8, 1.492_581_250_7, 1.979_080_638_5],
            [0.0, 0.0, -2.0],
            [0.0, 0.0, -2.0],
            [0.0, 0.0, -2.0],
            [1e-9, -1.0, 0.0],
            twice,
            twice,
        ];
        let query = [4.66e-10, -0.5, -1.0];
        [0.0, 1e6, -1e6]
            .iter()
            .map(|&t| {
                let query = moved(&[query], [t; 3])[0];
                vec![(
                    hull_of(&moved(&generators, [t; 3])),
                    Point::new(query.to_vec()),
                )]
            })
            .collect()
    }

    #[test]
    fn the_lp_band_defects_answer_by_one_rule() {
        // Three cases where the membership LP's answer near a hull was
        // wrong or depended on how the hull was written: the generators'
        // order, a place far from the origin, near-duplicate generators.
        // The hull's region answers each with no LP, the same in every
        // group, and accepts where the answer is known.
        let fixtures: [Fixture; 3] = [
            ("generator order", order_fixture(), None),
            ("far from the origin", far_fixture(), Some(true)),
            (
                "near-duplicate generators",
                near_duplicate_fixture(),
                Some(true),
            ),
        ];
        for (name, groups, expected) in fixtures {
            for group in groups {
                let answers: Vec<(bool, usize)> = group
                    .iter()
                    .map(|(hull, query)| solves(|| hull.contains(query)))
                    .collect();
                let first = answers[0].0;
                assert!(
                    answers
                        .iter()
                        .all(|&(answer, lps)| answer == first && lps == 0)
                        && expected.is_none_or(|e| e == first),
                    "{name}: {answers:?} at {:?}",
                    group[0]
                );
            }
        }
    }

    /// Generators of a differential case: `count` points of `raw` times
    /// `scale`, each after the first few turned by its `kind` into a
    /// duplicate, a collinear point, a sliver's apex or a near-duplicate of
    /// the points before it, or into a point level with the lowest of them
    /// in one coordinate (an edge on a face of the bounding box).
    fn awkward_generators(raw: &[f64], kinds: &[usize], count: usize, scale: f64) -> Vec<[f64; 2]> {
        let mut out: Vec<[f64; 2]> = Vec::with_capacity(count);
        for i in 0..count {
            let own = [raw[2 * i] * scale, raw[2 * i + 1] * scale];
            let point = match (kinds[i], i) {
                (1, 1..) => out[i - 1],
                (2, 2..) => {
                    let (a, b) = (out[i - 2], out[i - 1]);
                    let t = raw[2 * i].abs() * 2.0;
                    [a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]
                }
                (3, 2..) => {
                    let (a, b) = (out[i - 2], out[i - 1]);
                    let lift = 1e-9 * scale * raw[2 * i + 1].signum();
                    [
                        (a[0] + b[0]) / 2.0 - lift * (b[1] - a[1]),
                        (a[1] + b[1]) / 2.0 + lift * (b[0] - a[0]),
                    ]
                }
                (4, 1..) => [out[i - 1][0] + 1e-13 * scale, out[i - 1][1]],
                (5, 1..) => {
                    let low = |l: usize| out.iter().map(|p| p[l]).fold(f64::INFINITY, f64::min);
                    match i % 2 {
                        0 => [own[0], low(1)],
                        _ => [low(0), own[1]],
                    }
                }
                _ => own,
            };
            out.push(point);
        }
        out
    }

    /// Query points for a differential case: every generator; every pair's
    /// midpoint and points off it along the pair line's normal, from 1e-12
    /// to 1e-3 of the scale away on each side; and where two segments
    /// between the first five generators cross, the crossing (a Radon
    /// point of those four).
    fn awkward_queries(generators: &[[f64; 2]], scale: f64) -> Vec<[f64; 2]> {
        let mut out = generators.to_vec();
        for (i, &a) in generators.iter().enumerate() {
            for &b in &generators[i + 1..] {
                let mid = [(a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0];
                out.push(mid);
                let length = (b[0] - a[0]).hypot(b[1] - a[1]);
                if length == 0.0 {
                    continue;
                }
                let normal = [-(b[1] - a[1]) / length, (b[0] - a[0]) / length];
                for offset in [1e-12, 1e-7, 5e-7, 2e-6, 1e-4, 1e-3 * scale] {
                    for sign in [-1.0, 1.0] {
                        let step = sign * offset;
                        out.push([mid[0] + step * normal[0], mid[1] + step * normal[1]]);
                    }
                }
            }
        }
        let first = &generators[..generators.len().min(5)];
        for (i, j, k, l) in disjoint_pairs(first.len()) {
            let (p, r) = (
                first[i],
                [first[j][0] - first[i][0], first[j][1] - first[i][1]],
            );
            let (q, s) = (
                first[k],
                [first[l][0] - first[k][0], first[l][1] - first[k][1]],
            );
            let denom = r[0] * s[1] - r[1] * s[0];
            if denom == 0.0 {
                continue;
            }
            let t = ((q[0] - p[0]) * s[1] - (q[1] - p[1]) * s[0]) / denom;
            let u = ((q[0] - p[0]) * r[1] - (q[1] - p[1]) * r[0]) / denom;
            if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
                out.push([p[0] + t * r[0], p[1] + t * r[1]]);
            }
        }
        out
    }

    /// Every `(i, j, k, l)` with `i < j`, `k < l`, `i < k` and the four
    /// distinct, below `n`.
    fn disjoint_pairs(n: usize) -> Vec<(usize, usize, usize, usize)> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                for k in i + 1..n {
                    for l in k + 1..n {
                        if j != k && j != l {
                            out.push((i, j, k, l));
                        }
                    }
                }
            }
        }
        out
    }

    /// How far past a hull `contains` and the membership LP may differ.
    /// The hull's region holds every point within `FEASIBILITY_TOLERANCE` of
    /// each supporting side and box face, a Euclidean distance, where the
    /// LP accepts an L1 residual up to that value; past a sharp corner the
    /// widened sides reach farther, and the box cuts that short.
    const BAND: f64 = 4.0 * FEASIBILITY_TOLERANCE;

    /// The distance from `query` to the hull of `generators`, measured
    /// with no LP (exact signs inside, segment and triangle distances out).
    fn distance(generators: &PointMultiset, query: &[f64]) -> f64 {
        match *query {
            [c] => {
                let (lo, hi) = (generators.coordinate_min(), generators.coordinate_max());
                (lo.coord(0) - c).max(c - hi.coord(0)).max(0.0)
            }
            [x, y] => {
                let members: Vec<[f64; 2]> = generators
                    .iter()
                    .map(|g| [g.coord(0), g.coord(1)])
                    .collect();
                distance_to_hull(&members, [x, y])
            }
            [x, y, z] => {
                let xyz = |g: &Point| [g.coord(0), g.coord(1), g.coord(2)];
                let members: Vec<[f64; 3]> = generators.iter().map(xyz).collect();
                distance_to_spatial_hull(&members, [x, y, z])
            }
            _ => unreachable!("fixtures are at most three-dimensional"),
        }
    }

    /// `contains` at `query`, asserted to run no LP and checked against an
    /// LP-free distance to the hull: within half the LP's band it accepts,
    /// and off the [`BAND`] (inside the hull, or farther from it) it gives
    /// the distance's answer and the membership LP's.
    fn off_the_band(hull: &ConvexHull, query: &[f64]) -> bool {
        let point = Point::new(query.to_vec());
        let (answer, lps) = solves(|| hull.contains(&point));
        assert_eq!(lps, 0, "{query:?} of {:?} ran the LP", hull.generators);
        let distance = distance(&hull.generators, query);
        if distance == 0.0 || distance > BAND {
            let lp = hull.membership_lp(&point).solve_feasibility() == SolveStatus::Optimal;
            assert!(
                answer == (distance == 0.0) && answer == lp,
                "{query:?}, {distance:e} from the hull of {:?}: contains says {answer}, the LP {lp}",
                hull.generators
            );
        } else if distance <= FEASIBILITY_TOLERANCE / 2.0 {
            assert!(
                answer,
                "{query:?}, {distance:e} from the hull of {:?}, rejected",
                hull.generators
            );
        }
        answer
    }

    #[test]
    fn far_from_the_origin_the_box_reject_answers_as_at_the_origin() {
        // The triangle sits 1000 from the origin, and (1001, 1000 − 2e-6)
        // is 2e-6 below its bottom face: the box rejects it, the LP agrees,
        // and so does the triangle moved to the origin.  5e-8 below, in the
        // LP's band, both accept.
        let triangle = [[1000.0, 1000.0], [1002.0, 1000.0], [1000.0, 1002.0]];
        let queries = [[1001.0, 1000.0 - 2e-6], [1001.0, 1000.0 - 5e-8]];
        assert_eq!(the_same_at_the_origin(&triangle, &queries), [false, true]);
    }

    #[test]
    fn a_tetrahedron_far_from_the_origin_answers_as_at_the_origin() {
        // Below the face z = 1000: in the LP's band (5e-8 accepts, 5e-7
        // does not), then past the box's margin, where the box rejects.
        let tetrahedron = [
            [1000.0, 1000.0, 1000.0],
            [1002.0, 1000.0, 1000.0],
            [1000.0, 1002.0, 1000.0],
            [1000.0, 1000.0, 1002.0],
        ];
        let offsets = [5e-8, 5e-7, 2e-6, 1e-5, 5e-5, 1e-4, 1e-2];
        let below: Vec<[f64; 3]> = offsets
            .iter()
            .map(|o| [1000.5, 1000.5, 1000.0 - o])
            .collect();
        let answers = the_same_at_the_origin(&tetrahedron, &below);
        assert_eq!(answers, [true, false, false, false, false, false, false]);
    }

    /// The translations of a property about the origin: `2^10` or `2^20`,
    /// either sign, chosen per axis by `choice`.
    pub(crate) fn dyadic_shift<const D: usize>(choice: &[usize]) -> [f64; D] {
        std::array::from_fn(|l| [1024.0, -1024.0, 1048576.0, -1048576.0][choice[l] % 4])
    }

    /// `count` points of the grid `2^-20 · Z` in `(−1, 1)^D`, from `grid`.
    pub(crate) fn dyadic_points<const D: usize>(grid: &[i32], count: usize) -> Vec<[f64; D]> {
        let unit = 2f64.powi(-20);
        (0..count)
            .map(|i| std::array::from_fn(|l| f64::from(grid[i * D + l]) * unit))
            .collect()
    }

    /// The midpoints of `pairs` of `points`, each also moved `2^-step` either
    /// way along each axis: on a segment between two points (a face, when
    /// the segment is an edge of their hull) and just off it, on the grid
    /// `2^-30 · Z`.
    pub(crate) fn near_segments<const D: usize>(
        points: &[[f64; D]],
        pairs: impl Iterator<Item = (usize, usize)>,
        step: i32,
    ) -> Vec<[f64; D]> {
        let nudge = 2f64.powi(-step);
        let mut out = Vec::new();
        for (i, j) in pairs {
            let mid: [f64; D] = std::array::from_fn(|l| (points[i][l] + points[j][l]) / 2.0);
            out.push(mid);
            for l in 0..D {
                for sign in [-1.0, 1.0] {
                    let mut off = mid;
                    off[l] += sign * nudge;
                    out.push(off);
                }
            }
        }
        out
    }

    /// Every pair `i < j` below `n`.
    fn all_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
    }

    /// `contains` ([checked](off_the_band)) at each generator and query of
    /// `generators`' hull, and of the hull moved by `t` at the moved query.
    fn same_answer_moved<const D: usize>(generators: &[[f64; D]], t: [f64; D], step: i32) {
        let queries = [
            generators.to_vec(),
            near_segments(generators, all_pairs(generators.len()), step),
        ]
        .concat();
        let (hull, moved_hull) = (hull_of(generators), hull_of(&moved(generators, t)));
        for (query, moved_query) in queries.iter().zip(moved(&queries, t)) {
            assert_eq!(
                off_the_band(&moved_hull, &moved_query),
                off_the_band(&hull, query),
                "{query:?} of {generators:?} moved by {t:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Hull membership does not depend on where the origin is.  On a
        /// dyadic grid, where moving a point by `t` ∈ {±2^10, ±2^20} per
        /// axis is exact, `contains(p)` equals `contains(p + t)` on the hull
        /// moved by `t`, in the plane and in space, at every generator, on
        /// every segment between two and 2^-30 to 2^-17 off it: across the
        /// band.  Each answer runs no LP and agrees with it off the band.
        #[test]
        fn hull_membership_does_not_depend_on_the_origin(
            grid in prop::collection::vec(-(1i32 << 20)..1 << 20, 15),
            count in 3usize..6,
            step in 17i32..31,
            choice in prop::collection::vec(0usize..4, 3),
        ) {
            same_answer_moved::<2>(&dyadic_points(&grid, count), dyadic_shift(&choice), step);
            same_answer_moved::<3>(&dyadic_points(&grid, count), dyadic_shift(&choice), step);
        }

        /// The planar region against the membership LP and an LP-free
        /// distance ([`off_the_band`]) at every query, over 3–8 generators
        /// with duplicates, collinear points, slivers, near-duplicates and
        /// edges on the bounding box, coordinates from 1e-3 to 1e3, shifted
        /// off the origin by up to twice the scale.
        #[test]
        fn the_planar_region_agrees_with_the_membership_lp_off_the_band(
            raw in prop::collection::vec(-1.0f64..1.0, 16),
            kinds in prop::collection::vec(0usize..6, 8),
            count in 3usize..9,
            exponent in 0i32..7,
            shift in 0usize..3,
        ) {
            let scale = 10f64.powi(exponent - 3);
            let shift = shift as f64 * scale;
            let generators: Vec<[f64; 2]> = awkward_generators(&raw, &kinds, count, scale)
                .into_iter()
                .map(|[x, y]| [x + shift, y + shift])
                .collect();
            let hull = hull_of(&generators);
            for query in awkward_queries(&generators, scale) {
                off_the_band(&hull, &query);
            }
        }

        /// The spatial region at the faces of the bounding box: generators
        /// on and inside the box `[s, 2s]³` for scales `s` from 1e-3 to 1e3,
        /// queries beyond each face by 1e-7 to 1e-3 of the scale, at the
        /// face's centre and beyond each generator lying on it, each
        /// [checked](off_the_band) against the LP and an LP-free distance.
        #[test]
        fn the_spatial_region_agrees_with_the_membership_lp_off_the_band(
            corners in prop::collection::vec(0usize..2, 8),
            inner in prop::collection::vec(0.0f64..1.0, 6),
            exponent in 0i32..7,
        ) {
            let scale = 10f64.powi(exponent - 3);
            let corner = |i: usize| [(i & 1) as f64, (i >> 1 & 1) as f64, (i >> 2 & 1) as f64];
            let mut unit: Vec<[f64; 3]> = (0..8).filter(|&i| corners[i] == 1).map(corner).collect();
            unit.extend([corner(0), corner(7), [inner[0], inner[1], inner[2]], [inner[3], inner[4], inner[5]]]);
            let generators: Vec<[f64; 3]> = unit
                .iter()
                .map(|u| [scale * (1.0 + u[0]), scale * (1.0 + u[1]), scale * (1.0 + u[2])])
                .collect();
            let hull = ConvexHull::new(PointMultiset::new(
                generators.iter().map(|g| Point::new(g.to_vec())).collect(),
            ));
            for axis in 0..3 {
                for (face, outward) in [(scale, -1.0), (2.0 * scale, 1.0)] {
                    let mut feet = vec![[1.5 * scale; 3]];
                    feet.extend(generators.iter().filter(|g| g[axis] == face));
                    for foot in feet {
                        for fraction in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3] {
                            let mut query = foot;
                            query[axis] = face + outward * fraction * scale;
                            off_the_band(&hull, &query);
                        }
                    }
                }
            }
        }
    }
}
