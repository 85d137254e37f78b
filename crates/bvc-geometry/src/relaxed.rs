//! Relaxed validity predicates (Xiang & Vaidya, *Relaxed Byzantine Vector
//! Consensus*, arXiv:1601.08067).
//!
//! The source paper's validity condition is *strict*: every honest decision
//! must lie in the convex hull of the honest inputs.  The relaxed paper
//! weakens that condition in two ways, each of which lowers the
//! `(d+1)f + 1`-type resource requirement of the strict problem:
//!
//! * **(1+α)-relaxed**: the decision may lie anywhere in the honest hull
//!   *dilated* by a factor `1 + α` about its centroid `c`,
//!   `H_α = { c + (1+α)(x − c) : x ∈ H }`.  At `α = 0` this is exactly the
//!   strict condition.
//! * **k-relaxed**: the decision's projection onto *every* subset of `k`
//!   coordinates must lie in the corresponding projection of the honest
//!   hull.  At `k = d` (a single subset: all coordinates) this is exactly
//!   the strict condition; smaller `k` only constrains lower-dimensional
//!   shadows of the decision.
//!
//! [`ValidityPredicate`] packages the three conditions behind one membership
//! query so the run scoring, the scenario verdicts and the test assertions
//! all share a single implementation.  The implementation reuses the
//! machinery of this crate throughout: a dilated hull is just the
//! [`ConvexHull`] of the dilated generators (so its membership rule, the
//! depth region at `f = 0` up to `d = 3`, applies unchanged), coordinate
//! subsets are streamed with [`Combinations`] instead
//! of being materialised, and the point-valued queries canonicalise the
//! member order first ([`crate::gamma`]-style), so they are functions of the
//! *multiset* exactly like the strict Γ queries — which is what makes them
//! usable as deterministic decision rules.
//!
//! The module also provides the relaxed safe-area queries the Exact BVC
//! decision rule needs below the strict threshold, behind one entry point,
//! [`decision_point`]: under `AlphaScaled(α)` it picks a point of the
//! (1+α)-relaxed safe area `Γ_α(Y) = ∩_{T ⊆ Y, |T| = |Y| − f} dilate_α(H(T))`
//! (each hull dilated about its own centroid; non-empty for large enough `α`
//! whenever the subsets are full-dimensional, and `Γ_0 = Γ`), and under
//! `KRelaxed(k)` [`k_relaxed_point`] picks the trimmed-box centre and
//! verifies its `k`-dimensional shadows against the projected safe areas.
//! Membership in `Γ_α(Y)` is `HullFamily::dilated_gamma(y, f, α).all_contain`.

use crate::combinatorics::Combinations;
use crate::gamma::{
    canonical_order, d1_midpoint, engine_point, gamma_contains, gamma_point, gamma_point_of,
    trimmed_bounds, trimmed_centre, CanonicalEntries,
};
use crate::hull::ConvexHull;
use crate::multiset::PointMultiset;
use crate::point::Point;
use std::fmt;

/// Which validity condition a decision is judged against.
///
/// `Strict` is the source paper's condition; the other two are the
/// relaxations of arXiv:1601.08067.  `AlphaScaled(0.0)` and `KRelaxed(d)`
/// are *by construction* byte-identical to `Strict` (both short-circuit into
/// the strict code path), which the property tests pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidityPredicate {
    /// Membership in the honest hull (Vaidya & Garg, PODC 2013).
    Strict,
    /// Membership in the honest hull dilated by `1 + α` about its centroid.
    AlphaScaled(f64),
    /// Membership of every `k`-coordinate projection in the projected honest
    /// hull.  `k ≥ d` collapses to `Strict`.
    KRelaxed(usize),
}

impl ValidityPredicate {
    /// Stable display label (`strict`, `(1+0.5)-relaxed`, `2-relaxed`),
    /// used by the scenario verdicts and the campaign report.
    pub fn label(&self) -> String {
        match self {
            ValidityPredicate::Strict => "strict".to_string(),
            ValidityPredicate::AlphaScaled(alpha) => format!("(1+{alpha})-relaxed"),
            ValidityPredicate::KRelaxed(k) => format!("{k}-relaxed"),
        }
    }

    /// The effective dimension the validity condition binds in: `d` for the
    /// strict condition, `k` for `k`-relaxed, and `1` for `(1+α)`-relaxed
    /// with `α > 0` (dilation decouples the hull geometry from the ambient
    /// dimension, so only the scalar-consensus core of the bound survives —
    /// the modelling of 1601.08067's headline result used by the resource
    /// checks in `bvc-core`).
    pub fn effective_dim(&self, d: usize) -> usize {
        match self {
            ValidityPredicate::Strict => d,
            ValidityPredicate::AlphaScaled(alpha) => {
                if *alpha > 0.0 {
                    1
                } else {
                    d
                }
            }
            ValidityPredicate::KRelaxed(k) => (*k).clamp(1, d),
        }
    }

    /// Returns `true` if `point` satisfies this validity condition with
    /// respect to the honest inputs `honest`.
    ///
    /// # Panics
    ///
    /// Panics if `honest` is empty, the dimensions disagree, or the
    /// predicate's parameter is invalid (negative/non-finite `α`, `k = 0`).
    pub fn contains(&self, honest: &PointMultiset, point: &Point) -> bool {
        assert!(!honest.is_empty(), "need at least one honest input");
        assert_eq!(
            point.dim(),
            honest.dim(),
            "query point dimension must match the input dimension"
        );
        // α = 0 and k ≥ d take the strict path verbatim: `c + 1.0·(g − c)`
        // is not bit-exact in floating point, and the equivalence must be
        // byte-identical, not approximate.
        match ModeKey::normalise(self, honest.dim()) {
            ModeKey::Strict => ConvexHull::new(honest.clone()).contains(point),
            ModeKey::Alpha(bits) => {
                ConvexHull::new(dilate_about_centroid(honest, f64::from_bits(bits))).contains(point)
            }
            ModeKey::K(k) => {
                assert!(k >= 1, "k must be at least 1");
                // Stream the C(d, k) coordinate subsets; short-circuit on the
                // first projection whose hull rejects the projected point.
                let mut subsets = Combinations::new(honest.dim(), k);
                while let Some(coords) = subsets.next_ref() {
                    let hull = ConvexHull::new(project(honest, coords));
                    if !hull.contains(&project_point(point, coords)) {
                        return false;
                    }
                }
                true
            }
        }
    }
}

impl fmt::Display for ValidityPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A validity mode normalised for a dimension — what the one engine
/// dispatches on and the cache keys by.  Modes that are semantically strict
/// (`AlphaScaled(0)`, `KRelaxed(k ≥ d)`) normalise to [`ModeKey::Strict`],
/// so they take the strict path verbatim and share the strict entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ModeKey {
    Strict,
    /// `α > 0`, by bit pattern.
    Alpha(u64),
    /// `k < d`.
    K(usize),
}

impl ModeKey {
    pub(crate) fn normalise(mode: &ValidityPredicate, dim: usize) -> Self {
        match mode {
            ValidityPredicate::Strict => ModeKey::Strict,
            ValidityPredicate::AlphaScaled(alpha) if *alpha == 0.0 => ModeKey::Strict,
            ValidityPredicate::AlphaScaled(alpha) => ModeKey::Alpha(alpha.to_bits()),
            ValidityPredicate::KRelaxed(k) if *k >= dim => ModeKey::Strict,
            ValidityPredicate::KRelaxed(k) => ModeKey::K(*k),
        }
    }
}

/// The multiset dilated by `1 + α` about its centroid:
/// `g ↦ c + (1+α)(g − c)`.  `α = 0` returns the input unchanged (bit-exact),
/// so downstream consumers can rely on `dilate(y, 0) ≡ y`.
pub fn dilate_about_centroid(y: &PointMultiset, alpha: f64) -> PointMultiset {
    assert!(
        alpha.is_finite() && alpha >= 0.0,
        "alpha must be finite and non-negative, got {alpha}"
    );
    if alpha == 0.0 {
        return y.clone();
    }
    let centre = Point::centroid(y.points());
    let scale = 1.0 + alpha;
    PointMultiset::new(
        y.iter()
            .map(|g| {
                Point::new(
                    g.coords()
                        .iter()
                        .zip(centre.coords())
                        .map(|(&gc, &cc)| cc + scale * (gc - cc))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Projection of a multiset onto the given coordinate subset.
fn project(y: &PointMultiset, coords: &[usize]) -> PointMultiset {
    PointMultiset::new(y.iter().map(|p| project_point(p, coords)).collect())
}

/// Projection of one point onto the given coordinate subset.
fn project_point(p: &Point, coords: &[usize]) -> Point {
    Point::new(coords.iter().map(|&l| p.coord(l)).collect())
}

/// A deterministically chosen point satisfying the **k-relaxed safe-area
/// condition**: its projection onto every `k`-coordinate subset lies in the
/// strict safe area of the correspondingly projected multiset.
///
/// The candidate is the centre of the per-coordinate trimmed box
/// `[y^l_(f+1), y^l_(|Y|−f)]` — order-invariant by construction — verified
/// against the `C(d, k)` projected safe areas (streamed, short-circuiting).
/// For `k = 1` the verification always succeeds when every trimmed interval
/// is non-empty (`|Y| ≥ 2f + 1`), which is the decoupled per-coordinate
/// scalar-consensus rule of the relaxed paper; for `1 < k < d` the candidate
/// may fail verification, in which case `None` is returned (no decision —
/// recorded as a termination violation, which is data).
///
/// Any returned point is in the projected hull of the honest members for
/// every `k`-subset whenever at most `f` members of `Y` are Byzantine, i.e.
/// decisions built on this query satisfy k-relaxed validity by construction.
///
/// # Panics
///
/// Panics if `f >= y.len()`, `k == 0`, or `k > y.dim()`.
pub fn k_relaxed_point(y: &PointMultiset, f: usize, k: usize) -> Option<Point> {
    assert!(
        f < y.len(),
        "fault bound f = {f} must be smaller than |Y| = {}",
        y.len()
    );
    let d = y.dim();
    assert!(k >= 1 && k <= d, "k must be in 1..=d, got {k} (d = {d})");
    if k == d {
        return gamma_point(y, f);
    }
    let canon = canonical_order(y);
    let (lo, hi) = trimmed_bounds(&canon, f);
    // A trimmed interval is empty by the `d = 1` rule, so an interval
    // inverted within its tolerance is not: the projected `gamma_contains`
    // below accepts it.
    if lo
        .iter()
        .zip(&hi)
        .any(|(&l, &h)| d1_midpoint(l, h).is_none())
    {
        return None;
    }
    let centre = trimmed_centre(&lo, &hi);
    let mut subsets = Combinations::new(d, k);
    while let Some(coords) = subsets.next_ref() {
        let projected = project(&canon, coords);
        if !gamma_contains(&projected, f, &project_point(&centre, coords)) {
            return None;
        }
    }
    Some(centre)
}

/// The deterministic decision-rule value for a multiset under a validity
/// mode — the single function the Exact BVC Step 2 (and its shared cache)
/// evaluates:
///
/// * `Strict` — the strict Γ point;
/// * `AlphaScaled(α)` — the `(1+α)`-relaxed Γ point (`α = 0` is the strict
///   path, byte-identically);
/// * `KRelaxed(k)` — the strict Γ point when it exists (it satisfies every
///   projection), else the [`k_relaxed_point`] trimmed-centre fallback
///   (`k ≥ d` collapses to strict).
///
/// # Panics
///
/// Panics if `f >= y.len()` or the mode's parameter is invalid.
pub fn decision_point(y: &PointMultiset, f: usize, mode: &ValidityPredicate) -> Option<Point> {
    let mode = ModeKey::normalise(mode, y.dim());
    engine_point(
        CanonicalEntries::new(y.points()).all(),
        f,
        mode,
        gamma_point_of,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::HullFamily;
    use crate::gamma_point;
    use crate::workload::WorkloadGenerator;

    fn pts(coords: &[&[f64]]) -> PointMultiset {
        PointMultiset::new(coords.iter().map(|c| Point::new(c.to_vec())).collect())
    }

    #[test]
    fn alpha_zero_dilation_is_bit_exact_identity() {
        let y = pts(&[&[0.1, 0.7], &[0.3, 0.2], &[0.9, 0.4]]);
        assert_eq!(dilate_about_centroid(&y, 0.0), y);
    }

    #[test]
    fn dilation_contains_the_original_hull() {
        let y = pts(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let dilated = ConvexHull::new(dilate_about_centroid(&y, 0.5));
        for g in y.iter() {
            assert!(dilated.contains(g), "generator {g} must stay inside");
        }
    }

    #[test]
    fn alpha_scaled_accepts_points_outside_the_strict_hull() {
        let y = pts(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let outside = Point::new(vec![0.6, 0.6]); // beyond the hypotenuse
        assert!(!ValidityPredicate::Strict.contains(&y, &outside));
        assert!(!ValidityPredicate::AlphaScaled(0.1).contains(&y, &outside));
        assert!(ValidityPredicate::AlphaScaled(1.0).contains(&y, &outside));
    }

    #[test]
    fn k_relaxed_accepts_points_whose_shadows_are_covered() {
        // The square's corners: (0.9, 0.9) is outside the triangle hull but
        // both 1-D shadows land inside the per-coordinate ranges.
        let y = pts(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let p = Point::new(vec![0.9, 0.9]);
        assert!(!ValidityPredicate::Strict.contains(&y, &p));
        assert!(!ValidityPredicate::KRelaxed(2).contains(&y, &p));
        assert!(ValidityPredicate::KRelaxed(1).contains(&y, &p));
    }

    #[test]
    fn k_at_least_d_matches_strict() {
        let mut gen = WorkloadGenerator::new(5);
        let y = gen.box_points(5, 3, 0.0, 1.0);
        let queries = gen.box_points(20, 3, -0.2, 1.2);
        for q in queries.iter() {
            let strict = ValidityPredicate::Strict.contains(&y, q);
            assert_eq!(ValidityPredicate::KRelaxed(3).contains(&y, q), strict);
            assert_eq!(ValidityPredicate::KRelaxed(7).contains(&y, q), strict);
        }
    }

    #[test]
    fn alpha_scaled_decision_at_alpha_zero_is_gamma_point() {
        let mut gen = WorkloadGenerator::new(11);
        for _ in 0..8 {
            let y = gen.box_points(5, 2, 0.0, 1.0);
            let strict = gamma_point(&y, 1);
            let relaxed = decision_point(&y, 1, &ValidityPredicate::AlphaScaled(0.0));
            assert_eq!(strict.is_some(), relaxed.is_some());
            if let (Some(a), Some(b)) = (strict, relaxed) {
                assert_eq!(a.coords(), b.coords(), "α = 0 must be byte-identical");
            }
        }
    }

    #[test]
    fn alpha_scaled_decision_recovers_empty_safe_areas() {
        // |Y| = 5, f = 2, d = 2 is below the Lemma-1 threshold 7, and this
        // box workload's Γ is indeed empty; the (|Y|−f)-subsets have 3 > d
        // members, so their dilated hulls are full-dimensional and meet once
        // α is large enough.
        let y = WorkloadGenerator::new(0).box_points(5, 2, 0.0, 1.0);
        assert!(gamma_point(&y, 2).is_none(), "below threshold: Γ = ∅");
        assert!(
            decision_point(&y, 2, &ValidityPredicate::AlphaScaled(0.25)).is_none(),
            "small dilation does not yet close the gap"
        );
        let p = decision_point(&y, 2, &ValidityPredicate::AlphaScaled(2.0))
            .expect("dilated hulls intersect");
        assert!(HullFamily::dilated_gamma(&y, 2, 2.0).all_contain(&p));
        // The relaxed point satisfies (1+α)-relaxed validity w.r.t. any
        // (|Y|−f)-subset playing the role of the honest inputs.
        let honest = y.select(&[0, 1, 2]);
        assert!(ValidityPredicate::AlphaScaled(2.0).contains(&honest, &p));
    }

    #[test]
    fn alpha_scaled_decision_is_order_invariant() {
        let a = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        let mut reordered = a.points().to_vec();
        reordered.reverse();
        let b = PointMultiset::new(reordered);
        let pa = decision_point(&a, 2, &ValidityPredicate::AlphaScaled(2.0)).unwrap();
        let pb = decision_point(&b, 2, &ValidityPredicate::AlphaScaled(2.0)).unwrap();
        assert_eq!(pa.coords(), pb.coords());
    }

    #[test]
    fn k_relaxed_point_decouples_coordinates() {
        // Below the Lemma-1 threshold for d = 2 (|Y| = 4 < 7 with f = 2) the
        // strict Γ is empty, but every per-coordinate trimmed interval is
        // non-empty (|Y| ≥ 2f + 1 fails here: 4 < 5 — so pick f = 1).
        let y = pts(&[&[0.0, 1.0], &[1.0, 0.0], &[0.2, 0.8], &[0.9, 0.1]]);
        let p = k_relaxed_point(&y, 1, 1).expect("trimmed intervals non-empty");
        assert_eq!(p.dim(), 2);
        // Each coordinate is the trimmed-interval midpoint.
        let honest = y.select(&[0, 1, 2]);
        assert!(ValidityPredicate::KRelaxed(1).contains(&honest, &p));
    }

    #[test]
    fn k_relaxed_point_at_k_equals_d_is_gamma_point() {
        let y = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        let strict = gamma_point(&y, 1).unwrap();
        let relaxed = k_relaxed_point(&y, 1, 2).unwrap();
        assert_eq!(strict.coords(), relaxed.coords());
    }

    #[test]
    fn k_relaxed_interval_inverted_within_tolerance_is_not_empty() {
        // Coordinate 0's trimmed interval is [5e-8, 0.0]: inverted by less
        // than `D1_TOLERANCE`, so — exactly as strict `d = 1` answers
        // `gamma_point({0, 5e-8}, 1)` — the midpoint is the answer.
        let y = pts(&[&[0.0, 1.0], &[5e-8, 1.0]]);
        let p = k_relaxed_point(&y, 1, 1).expect("within-tolerance interval");
        assert_eq!(p.coords(), &[2.5e-8, 1.0]);
        let scalar = gamma_point(&pts(&[&[0.0], &[5e-8]]), 1).unwrap();
        assert_eq!(p.coord(0), scalar.coord(0));
        // An inversion the closed form rejects is still rejected here.
        let far = pts(&[&[0.0, 1.0], &[1e-3, 1.0]]);
        assert!(k_relaxed_point(&far, 1, 1).is_none());
    }

    #[test]
    fn alpha_membership_is_monotone() {
        // A decision valid at α must be valid at every α′ > α: dilation
        // about a fixed centroid only ever grows the hull.
        let mut gen = WorkloadGenerator::new(21);
        let y = gen.box_points(6, 2, 0.0, 1.0);
        let queries = gen.box_points(40, 2, -0.5, 1.5);
        for q in queries.iter() {
            let mut valid_before = false;
            for alpha in [0.0, 0.25, 0.5, 1.0, 2.0] {
                let valid_now = ValidityPredicate::AlphaScaled(alpha).contains(&y, q);
                assert!(
                    !valid_before || valid_now,
                    "point {q} valid at a smaller α must stay valid at α = {alpha}"
                );
                valid_before = valid_now;
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ValidityPredicate::Strict.label(), "strict");
        assert_eq!(
            ValidityPredicate::AlphaScaled(0.5).label(),
            "(1+0.5)-relaxed"
        );
        assert_eq!(ValidityPredicate::KRelaxed(2).label(), "2-relaxed");
    }

    #[test]
    fn effective_dim_models_the_lowered_bound() {
        assert_eq!(ValidityPredicate::Strict.effective_dim(4), 4);
        assert_eq!(ValidityPredicate::AlphaScaled(0.0).effective_dim(4), 4);
        assert_eq!(ValidityPredicate::AlphaScaled(0.5).effective_dim(4), 1);
        assert_eq!(ValidityPredicate::KRelaxed(2).effective_dim(4), 2);
        assert_eq!(ValidityPredicate::KRelaxed(9).effective_dim(4), 4);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite")]
    fn negative_alpha_panics() {
        let y = pts(&[&[0.0], &[1.0]]);
        let _ = ValidityPredicate::AlphaScaled(-0.5).contains(&y, &Point::new(vec![0.5]));
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let y = pts(&[&[0.0], &[1.0]]);
        let _ = ValidityPredicate::KRelaxed(0).contains(&y, &Point::new(vec![0.5]));
    }
}
