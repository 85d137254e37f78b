//! The plane's one predicate, and the hull membership test built on it.
//!
//! [`orient`] is the sign of an orientation determinant under Shewchuk's
//! static filter: it answers only when the `f64` value cannot have the wrong
//! sign.  The depth region (`depth.rs`) keeps member halfplanes by it, and a
//! `d = 2` [`ConvexHull`](crate::ConvexHull) builds its [`Polygon`] with it
//! and asks [`Polygon::side`] before any linear program: inside every edge
//! for certain, or within [`GENERATOR_EQ_TOLERANCE`] of the polygon, is an
//! accept; beyond an edge line by more than its [`reject_margin`] is a
//! reject; the band between the two goes to the membership LP as before.
//!
//! [`orient_exact`] is the same predicate with a second, exact stage behind
//! the filter: when the filter is unsure, the determinant is summed exactly
//! from its sixteen error-free product terms (`two_sum`, `two_product`,
//! Shewchuk's expansion sum), so it always names a side or says "on the
//! line".  Γ membership by Tukey depth (`depth.rs`) counts members by
//! it; hull polygons and the depth region's sides keep reading the filtered
//! answer.
//!
//! The reject is the hull's one reject rule (`tolerance.rs`), the same the
//! bounding-box faces use, and one distance wherever the edge lies: the
//! membership LP is written relative to a generator `o` (`Σ α = 1`,
//! `Σ α_i (g_i − o) = x − o`, `α ≥ 0`) and accepts when its L1 residual is
//! at most `FEASIBILITY_TOLERANCE`.  Weights falling short of `Σ α = 1`
//! reach `o + Σ α_i (g_i − o)`, a point of the hull, so `x` lies within the
//! residual of the hull, and `δ > HULL_TOLERANCE` beyond an edge line leaves
//! the LP a residual above `HULL_TOLERANCE`, ten times its threshold.  For an
//! edge `e = b − a` the cross product `e × (x − a)` is `|e|` times a signed
//! distance, so in the cross product's units the margin is
//! `reject_margin(|e|)`.

use crate::point::canonical_cmp;
use crate::tolerance::{reject_margin, GENERATOR_EQ_TOLERANCE};
use std::cmp::Ordering;

/// Shewchuk's `ccwerrboundA`, `(3 + 16ε)ε`: an orientation determinant
/// `l − r` computed in `f64` has the sign of the exact one whenever its
/// magnitude exceeds this times `|l| + |r|`.
const ORIENT_ERROR_BOUND: f64 = 3.330_669_073_875_472e-16;

/// A point of the plane.
pub(crate) type Xy = [f64; 2];

/// `(q − p) × (x − p)` as computed in `f64`, and the bound on its error.
fn cross(p: Xy, q: Xy, x: Xy) -> (f64, f64) {
    let l = (q[0] - p[0]) * (x[1] - p[1]);
    let r = (q[1] - p[1]) * (x[0] - p[0]);
    (l - r, ORIENT_ERROR_BOUND * (l.abs() + r.abs()))
}

/// The sign of `(q − p) × (x − p)`: `Some(true)` left of the directed line
/// `p → q`, `Some(false)` right of it, `None` when the `f64` value is inside
/// its error bound and the side is not known.
pub(crate) fn orient(p: Xy, q: Xy, x: Xy) -> Option<bool> {
    let (det, error) = cross(p, q, x);
    (det.abs() > error).then_some(det > 0.0)
}

/// The exact sign of `(q − p) × (x − p)`: [`Ordering::Greater`] left of the
/// directed line `p → q`, [`Ordering::Less`] right of it,
/// [`Ordering::Equal`] on it.  The static filter answers first; only when it
/// is unsure is the determinant summed exactly.  Exact means: every non-zero
/// coordinate at least about `1e-138` in magnitude (every term is then a
/// multiple of `2^-1022`, so none is lost to underflow) and below `1e150`
/// (no product overflows), the range admission enforces from above.
pub(crate) fn orient_exact(p: Xy, q: Xy, x: Xy) -> Ordering {
    let (det, error) = cross(p, q, x);
    if det.abs() > error {
        return sign(det);
    }
    // Each difference is exact as two terms, so the determinant is exactly
    // the sixteen products of `u × v`, each exact as two terms.
    let u = [two_sum(q[0], -p[0]), two_sum(q[1], -p[1])];
    let v = [two_sum(x[0], -p[0]), two_sum(x[1], -p[1])];
    let mut sum = [0.0; 16];
    let mut len = 0;
    for ((a, b), weight) in [((u[0], v[1]), 1.0), ((u[1], v[0]), -1.0)] {
        for (a, b) in [(a.0, b.0), (a.0, b.1), (a.1, b.0), (a.1, b.1)] {
            let (product, error) = two_product(a, weight * b);
            for term in [product, error] {
                grow(&mut sum, &mut len, term);
            }
        }
    }
    // The expansion is non-overlapping and in increasing magnitude, so its
    // largest non-zero component carries the sign of the whole.
    sum[..len]
        .iter()
        .rev()
        .find(|&&c| c != 0.0)
        .map_or(Ordering::Equal, |&c| sign(c))
}

/// The sign of a finite `x`, as its order against zero.
fn sign(x: f64) -> Ordering {
    x.partial_cmp(&0.0).expect("coordinates are finite")
}

/// `a + b` as the rounded sum and its exact error (Knuth's two-sum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let sum = a + b;
    let b_virtual = sum - a;
    let a_virtual = sum - b_virtual;
    (sum, (a - a_virtual) + (b - b_virtual))
}

/// `a · b` as the rounded product and its exact error, by a fused
/// multiply-add.
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let product = a * b;
    (product, a.mul_add(b, -product))
}

/// Adds `term` to the expansion `sum[..len]` exactly (Shewchuk's
/// Grow-Expansion, zeros kept), lengthening it by one.
fn grow(sum: &mut [f64; 16], len: &mut usize, term: f64) {
    let mut carry = term;
    for component in &mut sum[..*len] {
        let (s, error) = two_sum(carry, *component);
        *component = error;
        carry = s;
    }
    sum[*len] = carry;
    *len += 1;
}

/// Where a query point lies relative to a [`Polygon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Left of every edge, each sign certain, or within
    /// [`GENERATOR_EQ_TOLERANCE`] of an edge: in the hull, or nearer to it
    /// than the generator-equality accept allows.
    Inside,
    /// Beyond some edge line by more than its [`reject_margin`]: outside
    /// the hull by more than the membership LP forgives (module docs).
    Outside,
    /// Neither: the membership LP decides.
    Band,
}

/// A strictly convex polygon, vertices counter-clockwise: the hull of a
/// planar point set whose every orientation the construction asked was
/// certain.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Polygon {
    vertices: Vec<Xy>,
}

impl Polygon {
    /// The hull of `points` by Andrew's monotone chain (sort, drop exact
    /// duplicates, a lower chain left to right and an upper chain back, each
    /// of certain left turns).  `None` when fewer than three vertices remain
    /// or some orientation the chain asks is not certain — collinear and
    /// converged point sets.
    pub(crate) fn of(points: impl Iterator<Item = Xy>) -> Option<Self> {
        let mut sorted: Vec<Xy> = points.collect();
        sorted.sort_unstable_by(|a, b| canonical_cmp(a, b));
        sorted.dedup();
        if sorted.len() < 3 {
            return None;
        }
        let mut vertices = Vec::with_capacity(2 * sorted.len());
        for &p in &sorted {
            extend(&mut vertices, 0, p)?;
        }
        // The upper chain starts at the lower chain's last vertex and ends
        // back at its first, which is then dropped.
        let floor = vertices.len() - 1;
        for &p in sorted.iter().rev().skip(1) {
            extend(&mut vertices, floor, p)?;
        }
        vertices.pop();
        (vertices.len() >= 3).then_some(Self { vertices })
    }

    /// The three-way membership test: [`Side::Outside`] when some edge line
    /// has `x` beyond it by more than its [`reject_margin`] (the computed
    /// cross product's error bound taken off first), [`Side::Inside`] when
    /// `x` is left of every edge for certain or [touches](Self::touches) the
    /// polygon, else [`Side::Band`].
    pub(crate) fn side(&self, x: Xy) -> Side {
        let mut inside = true;
        let next = self.vertices.iter().cycle().skip(1);
        for (&a, &b) in self.vertices.iter().zip(next) {
            let (det, error) = cross(a, b, x);
            // The margin is worked out only past an edge `x` is certainly
            // beyond.
            let beyond = -det - error;
            let margin = || reject_margin((b[0] - a[0]).hypot(b[1] - a[1]));
            if beyond > 0.0 && beyond > margin() {
                return Side::Outside;
            }
            inside &= det > error;
        }
        if inside || self.touches(x) {
            Side::Inside
        } else {
            Side::Band
        }
    }

    /// `true` when `x` lies within [`GENERATOR_EQ_TOLERANCE`] of an edge
    /// segment, rounding included, and so within it of the polygon: the
    /// distance to the segment, not to its line, which near a sharp vertex
    /// can be far shorter.
    fn touches(&self, x: Xy) -> bool {
        let next = self.vertices.iter().cycle().skip(1);
        self.vertices.iter().zip(next).any(|(&a, &b)| {
            let e = [b[0] - a[0], b[1] - a[1]];
            let v = [x[0] - a[0], x[1] - a[1]];
            let t = ((v[0] * e[0] + v[1] * e[1]) / (e[0] * e[0] + e[1] * e[1])).clamp(0.0, 1.0);
            let gap = (v[0] - t * e[0]).hypot(v[1] - t * e[1]);
            // Each difference above is off by at most 2ε·M, M the largest
            // magnitude among the coordinates.
            let magnitude = [a, b, x]
                .iter()
                .flatten()
                .fold(0.0f64, |m, c| m.max(c.abs()));
            gap + 8.0 * f64::EPSILON * magnitude <= GENERATOR_EQ_TOLERANCE
        })
    }
}

/// Pushes `p` onto the chain `hull[floor..]` after popping each vertex that
/// `p` does not turn left from; `None` at a turn whose sign is not certain.
fn extend(hull: &mut Vec<Xy>, floor: usize, p: Xy) -> Option<()> {
    while hull.len() >= floor + 2 {
        let (a, b) = (hull[hull.len() - 2], hull[hull.len() - 1]);
        if orient(a, b, p)? {
            break;
        }
        hull.pop();
    }
    hull.push(p);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn polygon(points: &[Xy]) -> Option<Polygon> {
        Polygon::of(points.iter().copied())
    }

    #[test]
    fn orient_knows_sides_and_admits_collinear_doubt() {
        assert_eq!(orient([0.0, 0.0], [1.0, 0.0], [0.5, 1.0]), Some(true));
        assert_eq!(orient([0.0, 0.0], [1.0, 0.0], [0.5, -1.0]), Some(false));
        assert_eq!(orient([0.0, 0.0], [1.0, 1.0], [3.0, 3.0]), None);
        // 0.1 + 0.2 is not 0.3 in f64, and the filter does not pretend to
        // know which side the rounded point fell on.
        assert_eq!(orient([0.0, 0.0], [0.1, 0.2], [0.3, 0.6]), None);
    }

    #[test]
    fn the_exact_stage_names_the_side_the_filter_does_not_know() {
        // The doubles nearest 0.2 and 0.6 are exactly twice those nearest
        // 0.1 and 0.3, so the three points are exactly collinear.
        let (o, p, q) = ([0.0, 0.0], [0.1, 0.2], [0.3, 0.6]);
        assert_eq!(orient_exact(o, p, q), Ordering::Equal);
        // One ulp off the line, either way.
        assert_eq!(
            orient_exact(o, p, [0.3, 0.6f64.next_up()]),
            Ordering::Greater
        );
        assert_eq!(
            orient_exact(o, p, [0.3, 0.6f64.next_down()]),
            Ordering::Less
        );
        // The filter's certain answers are passed through.
        assert_eq!(orient_exact(o, [1.0, 0.0], [0.5, 1.0]), Ordering::Greater);
        assert_eq!(orient_exact(o, [1.0, 0.0], [0.5, -1.0]), Ordering::Less);
        // Far from the origin, a one-ulp step off a long line.
        let (a, b) = ([1e6, 1e6], [1e6 + 3.0, 1e6 + 1.0]);
        let c = [1e6 + 3e6, 1e6 + 1e6];
        assert_eq!(orient(a, b, c), None);
        assert_eq!(orient_exact(a, b, c), Ordering::Equal);
        assert_eq!(
            orient_exact(a, b, [c[0], c[1].next_up()]),
            Ordering::Greater
        );
    }

    /// `(q − p) × (x − p)` in `i128`, exact for coordinates below `2^60`.
    fn i128_orientation(p: [i64; 2], q: [i64; 2], x: [i64; 2]) -> Ordering {
        let d = |a: i64, b: i64| i128::from(a) - i128::from(b);
        (d(q[0], p[0]) * d(x[1], p[1]) - d(q[1], p[1]) * d(x[0], p[0])).cmp(&0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Integer coordinates up to `2^40` are exact in `f64`, their
        /// products are not: the exact stage against an `i128` determinant,
        /// on random triples and on triples built collinear and then
        /// nudged by at most one unit, where the filter is unsure.
        #[test]
        fn the_exact_stage_agrees_with_an_integer_determinant(
            corners in prop::collection::vec(0u64..1 << 41, 6),
            step in prop::collection::vec(0u64..1 << 21, 2),
            scale in 0u64..1 << 19,
            nudge in prop::collection::vec(0u64..3, 2),
        ) {
            let signed = |v: u64, half: u64| v as i64 - half as i64;
            let at = |i: usize| [signed(corners[i], 1 << 40), signed(corners[i + 1], 1 << 40)];
            let float = |v: [i64; 2]| [v[0] as f64, v[1] as f64];
            let (p, q, x) = (at(0), at(2), at(4));
            prop_assert_eq!(orient_exact(float(p), float(q), float(x)), i128_orientation(p, q, x));
            // p, p + s, p + k·s off by a unit: every coordinate below 2^41.
            let p = [p[0] / 2, p[1] / 2];
            let s = [signed(step[0], 1 << 20), signed(step[1], 1 << 20)];
            let k = scale as i64;
            let q = [p[0] + s[0], p[1] + s[1]];
            let x = [
                p[0] + k * s[0] + signed(nudge[0], 1),
                p[1] + k * s[1] + signed(nudge[1], 1),
            ];
            prop_assert_eq!(orient_exact(float(p), float(q), float(x)), i128_orientation(p, q, x));
        }
    }

    #[test]
    fn monotone_chain_keeps_the_hull_vertices_counter_clockwise() {
        let square = polygon(&[
            [1.0, 1.0],
            [0.0, 0.0],
            [2.0, 0.0],
            [2.0, 2.0],
            [0.0, 2.0],
            [0.0, 0.0],
            [1.5, 0.5],
        ])
        .expect("a square with interior points and a duplicate");
        assert_eq!(
            square.vertices,
            vec![[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
        );
    }

    #[test]
    fn degenerate_point_sets_have_no_polygon() {
        assert!(polygon(&[[0.0, 0.0], [1.0, 1.0]]).is_none());
        assert!(polygon(&[[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]).is_none());
        assert!(polygon(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]).is_none());
        // A collinear triple on the boundary of an otherwise fine hull.
        assert!(polygon(&[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]).is_none());
    }

    #[test]
    fn side_accepts_inside_rejects_far_outside_and_leaves_the_band() {
        let triangle = polygon(&[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]).unwrap();
        assert_eq!(triangle.side([0.5, 0.5]), Side::Inside);
        assert_eq!(triangle.side([1.0, 1.0]), Side::Inside, "on the hypotenuse");
        assert_eq!(triangle.side([0.0, 0.0]), Side::Inside, "a vertex");
        assert_eq!(triangle.side([1.0, -1e-13]), Side::Inside, "1e-13 outside");
        assert_eq!(triangle.side([1.0, -1e-11]), Side::Band, "1e-11 outside");
        assert_eq!(triangle.side([1.0, -5e-7]), Side::Band, "within τ");
        assert_eq!(triangle.side([1.0, -2e-6]), Side::Outside);
        assert_eq!(triangle.side([1.5, 1.5]), Side::Outside);
    }

    #[test]
    fn near_a_sharp_vertex_the_accept_measures_to_the_polygon_not_its_lines() {
        // A vertex 1e-13 wide at the origin: (−1, 5e-14) is within 2e-13 of
        // both its edge lines but 1 from the polygon.
        let sliver = polygon(&[[0.0, 0.0], [1.0, 0.0], [1.0, 1e-13]]).unwrap();
        assert_eq!(sliver.side([-1.0, 5e-14]), Side::Band);
        assert_eq!(sliver.side([1e-13, 0.0]), Side::Inside);
    }

    #[test]
    fn far_from_the_origin_rounding_leaves_no_room_for_the_near_accept() {
        // At magnitude 1e6 the segment distance is only known to about 2e-9,
        // so even a point on an edge is left to the LP.
        let far = polygon(&[[1e6, 1e6], [1e6 + 2.0, 1e6], [1e6, 1e6 + 2.0]]).unwrap();
        assert_eq!(far.side([1e6 + 1.0, 1e6]), Side::Band);
        assert_eq!(far.side([1e6 + 0.5, 1e6 + 0.5]), Side::Inside);
    }
}
