//! The plane's one predicate, and space's.
//!
//! [`orient`] is the sign of an orientation determinant under Shewchuk's
//! static filter: it answers only when the `f64` value cannot have the wrong
//! sign.  The depth region (`depth.rs`) keeps member halfplanes by it: those
//! of `Γ(Y)`, and at `f = 0` the supporting lines of a `d = 2` hull, which
//! is how [`ConvexHull`](crate::ConvexHull) answers membership in the plane.
//!
//! [`orient_exact`] is the same predicate with a second, exact stage behind
//! the filter: when the filter is unsure, the determinant is summed exactly
//! from its sixteen error-free product terms (`two_sum`, `two_product`,
//! Shewchuk's expansion sum), so it always names a side or says "on the
//! line".  Γ and hull membership by Tukey depth (`depth.rs`) count members
//! by it; the depth region's sides keep reading the filtered answer.
//!
//! [`orient3d`] is space's predicate, written the same way: Shewchuk's
//! static filter for a triple product (`o3derrboundA`), then an exact
//! expansion sum of its error-free terms from the same `two_sum` and
//! `two_product`.  The spatial depth region keeps member-triple sides by
//! it, for `Γ(Y)` and, at `f = 0`, for a `d = 3` hull; [`plane_normal`]
//! gives such a plane a normal whose every component has an exact sign.

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
    sign(exact_cross(p, q, x))
}

/// `(q − p) × (x − p)` with its sign exact (as [`orient_exact`]'s) and a
/// relative error below `2^-40`: the filtered `f64` value where its error
/// bound allows that, else the exact sum rounded.
fn cross_value(p: Xy, q: Xy, x: Xy) -> f64 {
    let (det, error) = cross(p, q, x);
    if det.abs() > error * 2f64.powi(40) {
        return det;
    }
    exact_cross(p, q, x)
}

/// `(q − p) × (r − p)` in space, each component [`cross_value`] on a
/// coordinate plane: its sign exact and its relative error below `2^-40`,
/// so it is zero exactly when `p`, `q`, `r` are collinear, and a nearly
/// collinear triple still gets a normal that points where its plane does.
pub(crate) fn plane_normal(p: Xyz, q: Xyz, r: Xyz) -> Xyz {
    let on = |a: usize, b: usize| cross_value([p[a], p[b]], [q[a], q[b]], [r[a], r[b]]);
    [on(1, 2), on(2, 0), on(0, 1)]
}

/// A closed side of the plane through three points: the points, the sign
/// [`orient3d`] gives a point strictly on the side, and the plane's normal
/// ([`plane_normal`]) turned into it.
pub(crate) struct PlaneSide {
    pub(crate) plane: [Xyz; 3],
    pub(crate) sign: Ordering,
    pub(crate) normal: Xyz,
}

/// Every closed side of a plane through three distinct, non-collinear
/// `points` (in their order) that has at most `f` of them strictly outside
/// it, by exact sign.  A point on the plane counts on both sides, so a
/// plane holding every point is kept on both.  With `f = 0` these are the
/// supporting planes of the points' hull, its facets among them.
pub(crate) fn plane_sides(points: &[Xyz], f: usize) -> Vec<PlaneSide> {
    let mut distinct: Vec<Xyz> = Vec::with_capacity(points.len());
    for &x in points {
        if !distinct.contains(&x) {
            distinct.push(x);
        }
    }
    let mut sides = Vec::new();
    for (i, &p) in distinct.iter().enumerate() {
        for (j, &q) in distinct.iter().enumerate().skip(i + 1) {
            for &r in &distinct[j + 1..] {
                let normal = plane_normal(p, q, r);
                if normal == [0.0; 3] {
                    continue;
                }
                // Points strictly on either side; the plane's own (and their
                // copies) are on both.
                let (mut above, mut below) = (0, 0);
                for &x in points.iter().filter(|&&x| x != p && x != q && x != r) {
                    match orient3d(p, q, r, x) {
                        Ordering::Greater => above += 1,
                        Ordering::Less => below += 1,
                        Ordering::Equal => {}
                    }
                    if above > f && below > f {
                        break;
                    }
                }
                let plane = [p, q, r];
                if below <= f {
                    let sign = Ordering::Greater;
                    sides.push(PlaneSide {
                        plane,
                        sign,
                        normal,
                    });
                }
                if above <= f {
                    let (sign, normal) = (Ordering::Less, normal.map(|c| -c));
                    sides.push(PlaneSide {
                        plane,
                        sign,
                        normal,
                    });
                }
            }
        }
    }
    sides
}

/// `(q − p) × (x − p)` summed exactly and then rounded: its sign is exact.
fn exact_cross(p: Xy, q: Xy, x: Xy) -> f64 {
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
    estimate(&sum[..len])
}

/// Shewchuk's `o3derrboundA`, `(7 + 56ε)ε`: a triple product computed in
/// `f64` from rounded differences has the sign of the exact one whenever its
/// magnitude exceeds this times its permanent (the same sum of products
/// with every term's absolute value).
const ORIENT3D_ERROR_BOUND: f64 = 7.771_561_172_376_103e-16;

/// A point of space.
pub(crate) type Xyz = [f64; 3];

/// The exact sign of the triple product `((q − p) × (r − p)) · (x − p)`:
/// [`Ordering::Greater`] when `x` lies on the side of the plane `p q r` its
/// normal `(q − p) × (r − p)` points to, [`Ordering::Less`] on the other,
/// [`Ordering::Equal`] on the plane (and for any `x` when `p`, `q`, `r` are
/// collinear).  The static filter answers first; only when it is unsure is
/// the determinant summed exactly from its error-free terms.
///
/// Exact means: every non-zero coordinate at least about `1e-90` in
/// magnitude (each of a term's three factors is then a multiple of
/// `2^-340`, so no product of three underflows) and below `1e100` (none
/// overflows).  Past `1e100` every coordinate is first scaled by `2^-600`,
/// which is exact and keeps the sign, for coordinates above about `1e-127`.
pub(crate) fn orient3d(p: Xyz, q: Xyz, r: Xyz, x: Xyz) -> Ordering {
    let u = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
    let v = [r[0] - p[0], r[1] - p[1], r[2] - p[2]];
    let w = [x[0] - p[0], x[1] - p[1], x[2] - p[2]];
    // Shewchuk's arrangement: three 2 × 2 minors, each times the third
    // coordinate of the remaining row.
    let (uv, vu) = (u[0] * v[1], v[0] * u[1]);
    let (vw, wv) = (v[0] * w[1], w[0] * v[1]);
    let (wu, uw) = (w[0] * u[1], u[0] * w[1]);
    let det = w[2] * (uv - vu) + u[2] * (vw - wv) + v[2] * (wu - uw);
    let permanent = (uv.abs() + vu.abs()) * w[2].abs()
        + (vw.abs() + wv.abs()) * u[2].abs()
        + (wu.abs() + uw.abs()) * v[2].abs();
    if det.abs() > ORIENT3D_ERROR_BOUND * permanent {
        return sign(det);
    }
    if [p, q, r, x].iter().flatten().any(|c| c.abs() > 1e100) {
        let scaled = |a: Xyz| a.map(|c| c * 2f64.powi(-600));
        return orient3d(scaled(p), scaled(q), scaled(r), scaled(x));
    }
    // Each difference is exact as two terms, so the determinant is exactly
    // the signed products of one coordinate from each row, eight products of
    // three doubles per permutation, each exact as four terms.
    let row = |a: Xyz| [0, 1, 2].map(|l| two_sum(a[l], -p[l]));
    let (u, v, w) = (row(q), row(r), row(x));
    let mut sum = [0.0; 192];
    let mut len = 0;
    for (i, j, k, weight) in [
        (0, 1, 2, 1.0),
        (1, 2, 0, 1.0),
        (2, 0, 1, 1.0),
        (0, 2, 1, -1.0),
        (1, 0, 2, -1.0),
        (2, 1, 0, -1.0),
    ] {
        for a in [u[i].0, u[i].1] {
            for b in [v[j].0, v[j].1] {
                for c in [w[k].0, w[k].1] {
                    if a == 0.0 || b == 0.0 || c == 0.0 {
                        continue;
                    }
                    let (ab, ab_error) = two_product(a, b);
                    for part in [ab, ab_error] {
                        let (product, error) = two_product(part, weight * c);
                        for term in [product, error] {
                            grow(&mut sum, &mut len, term);
                        }
                    }
                }
            }
        }
    }
    sign(estimate(&sum[..len]))
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
/// Grow-Expansion with zero elimination): the components stay
/// non-overlapping, non-zero and in increasing magnitude.
fn grow<const N: usize>(sum: &mut [f64; N], len: &mut usize, term: f64) {
    let mut carry = term;
    let mut kept = 0;
    for k in 0..*len {
        let (s, error) = two_sum(carry, sum[k]);
        if error != 0.0 {
            sum[kept] = error;
            kept += 1;
        }
        carry = s;
    }
    if carry != 0.0 {
        sum[kept] = carry;
        kept += 1;
    }
    *len = kept;
}

/// The value of a non-overlapping expansion: its components below the
/// largest summed, then the largest added, which outweighs them, so the
/// relative error is a few `ε`.  Should that rounding reach zero or cross
/// it, the largest component alone is the value: the sign is always the
/// expansion's.
fn estimate(expansion: &[f64]) -> f64 {
    let Some((&top, rest)) = expansion.split_last() else {
        return 0.0;
    };
    let value = top + rest.iter().sum::<f64>();
    if sign(value) == sign(top) {
        value
    } else {
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// `((q − p) × (r − p)) · (x − p)` in `i128`, exact for coordinates
    /// below `2^40` (each product of three differences is below `2^123`).
    fn i128_orientation3(p: [i64; 3], q: [i64; 3], r: [i64; 3], x: [i64; 3]) -> Ordering {
        let d = |a: [i64; 3], l: usize| i128::from(a[l]) - i128::from(p[l]);
        let (u, v, w) = (
            [0, 1, 2].map(|l| d(q, l)),
            [0, 1, 2].map(|l| d(r, l)),
            [0, 1, 2].map(|l| d(x, l)),
        );
        let det = u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]);
        det.cmp(&0)
    }

    #[test]
    fn orient3d_names_the_side_one_ulp_off_a_plane() {
        let o = [0.0; 3];
        let (x, y, z) = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]);
        assert_eq!(orient3d(o, x, y, z), Ordering::Greater);
        assert_eq!(orient3d(o, y, x, z), Ordering::Less);
        assert_eq!(orient3d(o, x, y, [0.3, 0.7, 0.0]), Ordering::Equal);
        // The doubles nearest 0.2, 0.6 and 1.4 are exactly twice those
        // nearest 0.1, 0.3 and 0.7, so o, p, 2p and q are exactly coplanar,
        // while no f64 evaluation of the determinant knows it.
        let (p, q) = ([0.1, 0.3, 0.7], [0.3, 0.1, 0.9]);
        let twice = [0.2, 0.6, 1.4];
        assert_eq!(orient3d(o, p, q, twice), Ordering::Equal);
        // (p × q) = (0.2, 0.12, −0.08) up to rounding: one ulp up along a
        // coordinate moves `2p` to the side of the sign of that component.
        for (l, component) in [(0, 1.0), (1, 1.0), (2, -1.0)] {
            let mut up = twice;
            up[l] = up[l].next_up();
            let mut down = twice;
            down[l] = down[l].next_down();
            let expected = if component > 0.0 {
                Ordering::Greater
            } else {
                Ordering::Less
            };
            assert_eq!(orient3d(o, p, q, up), expected, "up along {l}");
            assert_eq!(
                orient3d(o, p, q, down),
                expected.reverse(),
                "down along {l}"
            );
        }
        // Collinear p, q, r span no plane: every point is on it.
        assert_eq!(orient3d(o, p, twice, q), Ordering::Equal);
        // Past 1e100 the points are scaled by a power of two first.
        let big = |a: Xyz| a.map(|c| c * 1e140);
        assert_eq!(orient3d(o, big(x), big(y), big(z)), Ordering::Greater);
        assert_eq!(orient3d(o, big(p), big(q), big(twice)), Ordering::Equal);
    }

    #[test]
    fn cross_value_is_exact_in_sign_and_close_in_value() {
        let (o, p) = ([0.0, 0.0], [0.1, 0.2]);
        assert_eq!(cross_value(o, p, [0.3, 0.6]), 0.0);
        let off = cross_value(o, p, [0.3, 0.6f64.next_up()]);
        assert!(off > 0.0 && off < 1e-16, "{off:e}");
        assert_eq!(cross_value(o, [1.0, 0.0], [0.5, 2.0]), 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `orient3d` against an `i128` determinant: integer quadruples up
        /// to `2^30`, coplanar ones (`x = p + a·s + b·t`) nudged by at most
        /// one unit per coordinate, where the filter is unsure, and the same
        /// on the dyadic grid `2^-20 · Z` moved by `±2^20`, which is exact.
        #[test]
        fn orient3d_agrees_with_an_integer_determinant(
            corners in prop::collection::vec(0u64..1 << 31, 12),
            steps in prop::collection::vec(0u64..1 << 13, 6),
            weights in prop::collection::vec(0u64..1 << 9, 2),
            nudge in prop::collection::vec(0u64..3, 3),
            shift in 0usize..4,
        ) {
            let signed = |v: u64, half: u64| v as i64 - half as i64;
            let at = |i: usize| [0, 1, 2].map(|l| signed(corners[3 * i + l], 1 << 30));
            let float = |v: [i64; 3]| v.map(|c| c as f64);
            let (p, q, r, x) = (at(0), at(1), at(2), at(3));
            prop_assert_eq!(
                orient3d(float(p), float(q), float(r), float(x)),
                i128_orientation3(p, q, r, x)
            );
            let p = p.map(|c| c / 4);
            let s = [0, 1, 2].map(|l| signed(steps[l], 1 << 12));
            let t = [0, 1, 2].map(|l| signed(steps[3 + l], 1 << 12));
            let (a, b) = (weights[0] as i64, weights[1] as i64);
            let q = [0, 1, 2].map(|l| p[l] + s[l]);
            let r = [0, 1, 2].map(|l| p[l] + t[l]);
            let x = [0, 1, 2].map(|l| p[l] + a * s[l] + b * t[l] + signed(nudge[l], 1));
            let expected = i128_orientation3(p, q, r, x);
            prop_assert_eq!(orient3d(float(p), float(q), float(r), float(x)), expected);
            let offset = [1024.0, -1024.0, 1048576.0, -1048576.0][shift];
            let dyadic = |v: [i64; 3]| v.map(|c| c as f64 * 2f64.powi(-20) + offset);
            prop_assert_eq!(orient3d(dyadic(p), dyadic(q), dyadic(r), dyadic(x)), expected);
        }
    }
}
