//! The safe-area operator `Γ(Y)` (equation (1) of the paper).
//!
//! For a multiset `Y` of points in `R^d` and a fault bound `f`,
//!
//! ```text
//! Γ(Y) = ∩_{T ⊆ Y, |T| = |Y| − f}  H(T)
//! ```
//!
//! is the intersection of the convex hulls of all sub-multisets obtained by
//! removing `f` members.  Lemma 1 of the paper shows that `Γ(Y) ≠ ∅` whenever
//! `|Y| ≥ (d+1)f + 1` (a corollary of Tverberg's theorem), and both the exact
//! and approximate BVC algorithms pick their decision/update points inside
//! `Γ` of suitable multisets.
//!
//! This module provides membership tests, emptiness checks, and the
//! deterministic point-selection rule shared by all non-faulty processes.
//! The subset hulls are a `HullFamily`: built lazily from the streamed
//! subsets, membership short-circuiting on the first refuting hull, the
//! point found by growing an active set of binding hulls instead of solving
//! the monolithic `C(|Y|, |Y|−f)`-block joint LP of Section 2.2.  Two exact
//! closed forms bypass the solver entirely:
//!
//! * `d = 1`: `Γ(Y)` is the interval `[y_(f+1), y_(|Y|−f)]` of the sorted
//!   multiset (drop the `f` smallest / largest members);
//! * any `d`: a query point equal to at least `f + 1` members of `Y` lies in
//!   every `(|Y|−f)`-subset hull, and a query point outside the
//!   per-coordinate trimmed range `[y^l_(f+1), y^l_(|Y|−f)]` lies outside
//!   some subset hull.
//!
//! A strict point query builds at most one family: its trimmed-centre probe
//! streams the family's hulls and, on a miss, the active-set search reuses
//! the hulls the probe built.  Membership answers a `bool` and names no
//! path; which path answered a *point* query is a [`GammaAttribution`],
//! written into that query's one `gamma` trace event.
//!
//! All point-valued queries canonicalise the multiset order first, so the
//! chosen point is a function of the *multiset* (not of the arrival order of
//! its members) — the determinism the Exact BVC algorithm's Step 2 requires,
//! and what makes results shareable through
//! [`GammaCache`](crate::cache::GammaCache).  Every one of them — strict or
//! relaxed, cached or not — is answered by `engine_point`.
//!
//! Lemma 1 at the floor `n = max(3f+1, (d+1)f+1)` and three points above it
//! is asserted by `tests/lemma1_threshold.rs`
//! (`gamma_point_exists_from_the_floor_up`).

use crate::family::HullFamily;
use crate::hull::ConvexHull;
use crate::multiset::PointMultiset;
use crate::point::Point;
use crate::relaxed::{k_relaxed_point, ModeKey};
use crate::tolerance::{D1_TOLERANCE, HULL_TOLERANCE, MEMBER_EQ_TOLERANCE};
use bvc_trace::GammaPath;
use std::cmp::Ordering;

/// Which engine path resolved a point-selection query, plus whether the
/// trimmed-box probe was tried and missed on the way there.  This is the
/// raw material of the Γ hot-path breakdown: the query's `gamma` trace event
/// carries it, and nothing else counts it (the benchmark of record computes
/// `geometry.fast_path_pct` from those events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GammaAttribution {
    /// The path that produced the answer.
    pub path: GammaPath,
    /// `true` when the trimmed-box centre probe ran and failed membership
    /// before the answering path took over.
    pub probe_missed: bool,
}

/// Convenience wrapper: a deterministically chosen point of `Γ(y)` with fault
/// bound `f`, or `None` if the safe area is empty.
///
/// # Panics
///
/// Panics if `f >= y.len()`.
pub fn gamma_point(y: &PointMultiset, f: usize) -> Option<Point> {
    gamma_point_attributed(y, f).0
}

/// [`gamma_point`] with outcome attribution: which fast path served the
/// query and whether the trimmed-box probe missed on the way.
///
/// # Panics
///
/// Panics if `f >= y.len()`.
pub fn gamma_point_attributed(y: &PointMultiset, f: usize) -> (Option<Point>, GammaAttribution) {
    let mut canonical = CanonicalEntries::new(y.points());
    let (point, attribution) = engine_point(canonical.all(), f, ModeKey::Strict, gamma_point_of);
    (point, attribution.expect("the strict rule names its path"))
}

/// [`gamma_point`] of a sub-multiset named by a borrowed [`SubsetView`]: the
/// same point `gamma_point(&view.to_multiset(), f)` returns, without building
/// the multiset when the answer is a closed form.  (Also the k-relaxed
/// rule's strict leg when no cache is in front of the engine.)
///
/// # Panics
///
/// Panics if `f >= view.len()`.
pub fn gamma_point_of(view: SubsetView<'_>, f: usize) -> Option<Point> {
    engine_point(view, f, ModeKey::Strict, gamma_point_of).0
}

/// **The one place a `(Y, f, mode)` point query is answered by an engine** —
/// `gamma_point*`, [`decision_point`](crate::relaxed::decision_point) and
/// the miss arm of [`GammaCache`](crate::cache::GammaCache) all end here, so
/// this is where "the engine says empty" is produced:
///
/// * strict — the `d = 1` closed form, else the trimmed-box probe, else the
///   [`HullFamily::gamma`] active-set search (attributed by path);
/// * `Alpha(α)` — the [`HullFamily::dilated_gamma`] search;
/// * `K(k)` — the strict point when it exists (it satisfies every
///   projection), else the [`k_relaxed_point`] trimmed centre.  `strict_leg`
///   is how that strict point is looked up: the cache passes its own public
///   query, so the leg keeps its own entry, counter and trace event.
///
/// # Panics
///
/// Panics if `f >= view.len()` or the mode's parameter is invalid.
pub(crate) fn engine_point(
    view: SubsetView<'_>,
    f: usize,
    mode: ModeKey,
    strict_leg: impl FnOnce(SubsetView<'_>, usize) -> Option<Point>,
) -> (Option<Point>, Option<GammaAttribution>) {
    assert!(
        f < view.len(),
        "fault bound f = {f} must be smaller than |Y| = {}",
        view.len()
    );
    match mode {
        ModeKey::Strict => {
            let (point, attribution) = strict_point(view, f);
            (point, Some(attribution))
        }
        ModeKey::Alpha(bits) => {
            let canon = view.to_multiset();
            let mut family = HullFamily::dilated_gamma(&canon, f, f64::from_bits(bits));
            (family.common_point().0, None)
        }
        ModeKey::K(k) => (
            strict_leg(view, f).or_else(|| k_relaxed_point(&view.to_multiset(), f, k)),
            None,
        ),
    }
}

/// The strict rule: the `d = 1` closed form is read straight off the view;
/// every other shape materialises the canonical multiset, probes the trimmed
/// centre and only then searches the family.
fn strict_point(view: SubsetView<'_>, f: usize) -> (Option<Point>, GammaAttribution) {
    let attributed = |path| GammaAttribution {
        path,
        probe_missed: false,
    };
    if view.dim() == 1 {
        let (lo, hi) = d1_interval(view.len(), f, |j| view.point(j).coord(0));
        // Non-empty up to `D1_TOLERANCE` (the joint LP's own threshold); an
        // inverted-within-tolerance interval yields its midpoint, which lies
        // within the membership band of both ends.
        let point = (lo <= hi + D1_TOLERANCE).then(|| Point::new(vec![0.5 * (lo + hi)]));
        return (point, attributed(GammaPath::D1ClosedForm));
    }
    let canon = view.to_multiset();
    if f == 0 {
        let point = HullFamily::gamma(&canon, 0).common_point().0;
        return (point, attributed(GammaPath::HullF0));
    }
    // Cheap deterministic probe before any joint LP: the centre of the
    // trimmed bounding box.  When the honest states have converged into a
    // tight cluster (the steady state of every iterative protocol here) the
    // trimmed centre sits inside the cluster and passes the membership
    // stream for a few microseconds, where the joint LP over near-duplicate
    // generators is at its numerically worst.  The probe is order-invariant,
    // so determinism is unaffected.  A miss searches the same family: the
    // hulls the probe built are not built again.
    let (lo, hi) = trimmed_bounds(&canon, f);
    let centre = Point::new(lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect());
    let mut family = HullFamily::gamma(&canon, f);
    if family_contains(&mut family, &canon, f, (&lo, &hi), &centre) {
        return (Some(centre), attributed(GammaPath::ProbeHit));
    }
    let (value, fell_back) = family.common_point();
    let path = match fell_back {
        true => GammaPath::NaiveFallback,
        false => GammaPath::ActiveSetLp,
    };
    let probe_missed = true;
    (value, GammaAttribution { path, probe_missed })
}

/// Returns `true` if `point ∈ Γ(y)` with fault bound `f`.
///
/// # Panics
///
/// Panics if `f >= y.len()` or `point` is not of `y`'s dimension.
pub fn gamma_contains(y: &PointMultiset, f: usize, point: &Point) -> bool {
    assert!(
        f < y.len(),
        "fault bound f = {f} must be smaller than |Y| = {}",
        y.len()
    );
    assert_eq!(
        point.dim(),
        y.dim(),
        "query point dimension must match the multiset dimension"
    );
    if y.dim() == 1 {
        let mut vals: Vec<f64> = y.iter().map(|p| p.coord(0)).collect();
        vals.sort_by(f64::total_cmp);
        let (lo, hi) = d1_interval(vals.len(), f, |j| vals[j]);
        let c = point.coord(0);
        return c >= lo - D1_TOLERANCE && c <= hi + D1_TOLERANCE;
    }
    if f == 0 {
        return ConvexHull::new(y.clone()).contains(point);
    }
    let (lo, hi) = trimmed_bounds(y, f);
    family_contains(&mut HullFamily::gamma(y, f), y, f, (&lo, &hi), point)
}

/// Returns `true` if `Γ(y)` is empty for fault bound `f`.
///
/// # Panics
///
/// Panics if `f >= y.len()`.
pub fn gamma_is_empty(y: &PointMultiset, f: usize) -> bool {
    gamma_point(y, f).is_none()
}

/// Threads a Γ query runs on: always 1 (the calling thread) since the
/// subset-hull worker pool was removed.  Kept only because the benchmark of
/// record prints it in its run header; drop it together with that field.
pub fn gamma_workers() -> usize {
    1
}

// ---------------------------------------------------------------------------
// The Γ engine
// ---------------------------------------------------------------------------

/// Lexicographic member order under `f64::total_cmp`, the canonical order
/// all point-valued Γ queries normalise to.
fn lexicographic(a: &Point, b: &Point) -> Ordering {
    a.coords()
        .iter()
        .zip(b.coords())
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// The multiset with its members in canonical order.
pub(crate) fn canonical_order(y: &PointMultiset) -> PointMultiset {
    CanonicalEntries::new(y.points()).all().to_multiset()
}

/// A list of points put in canonical order **once**, lending borrowed
/// [`SubsetView`]s of its sub-multisets: Step 2 asks `Γ` about every
/// `(n−f)`-subset of one received vector, and each of those subsets is
/// canonically ordered by the one sort done here.
#[derive(Debug)]
pub struct CanonicalEntries<'a> {
    /// The entries in canonical order, each with its position as given.
    sorted: Vec<(usize, &'a Point)>,
    /// Scratch of [`subset`](Self::subset), indexed by given position; all
    /// `false` between calls.
    picked: Vec<bool>,
    /// Ranks (indices into `sorted`) of the view lent last, ascending.
    members: Vec<usize>,
}

impl<'a> CanonicalEntries<'a> {
    /// Sorts `entries` into canonical order (borrowed: no point is cloned).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or the points do not share a dimension.
    pub fn new(entries: impl IntoIterator<Item = &'a Point>) -> Self {
        let mut sorted: Vec<(usize, &Point)> = entries.into_iter().enumerate().collect();
        assert!(!sorted.is_empty(), "a point multiset must be non-empty");
        let dim = sorted[0].1.dim();
        assert!(
            sorted.iter().all(|(_, p)| p.dim() == dim),
            "all points in a multiset must share a dimension"
        );
        sorted.sort_by(|a, b| lexicographic(a.1, b.1));
        Self {
            members: Vec::with_capacity(sorted.len()),
            picked: Vec::new(),
            sorted,
        }
    }

    /// The view of every entry.
    pub fn all(&mut self) -> SubsetView<'_> {
        self.members.clear();
        self.members.extend(0..self.sorted.len());
        SubsetView {
            sorted: &self.sorted,
            members: &self.members,
        }
    }

    /// The view of the sub-multiset at `positions` (indices into the entries
    /// as given to [`new`](Self::new), in any order): its members are
    /// gathered in canonical order by one pass over the sorted entries — no
    /// point is cloned and nothing is sorted.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty, repeats a position or names one out
    /// of range.
    pub fn subset(&mut self, positions: &[usize]) -> SubsetView<'_> {
        assert!(!positions.is_empty(), "cannot select an empty sub-multiset");
        self.picked.resize(self.sorted.len(), false);
        for &i in positions {
            assert!(!self.picked[i], "position {i} listed twice");
            self.picked[i] = true;
        }
        self.members.clear();
        for (rank, &(given, _)) in self.sorted.iter().enumerate() {
            if std::mem::take(&mut self.picked[given]) {
                self.members.push(rank);
            }
        }
        SubsetView {
            sorted: &self.sorted,
            members: &self.members,
        }
    }
}

/// A sub-multiset named without building it: canonically sorted entries plus
/// the ascending ranks of its members, both borrowed from a
/// [`CanonicalEntries`] (the only constructor, which is what keeps every view
/// in canonical order).  This is what a Γ point query takes end to end; the
/// owned [`PointMultiset`] is built only when an engine has to run.
#[derive(Debug, Clone, Copy)]
pub struct SubsetView<'a> {
    sorted: &'a [(usize, &'a Point)],
    members: &'a [usize],
}

impl<'a> SubsetView<'a> {
    /// The number of members, counting multiplicity.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always `false`: [`CanonicalEntries`] lends no empty view.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The common dimension of the members.
    pub fn dim(&self) -> usize {
        self.sorted[0].1.dim()
    }

    /// The `j`-th member in canonical order.
    fn point(&self, j: usize) -> &'a Point {
        self.sorted[self.members[j]].1
    }

    /// The members in canonical order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a Point> + '_ {
        self.members.iter().map(|&rank| self.sorted[rank].1)
    }

    /// The members as an owned multiset, in canonical order.
    pub fn to_multiset(&self) -> PointMultiset {
        PointMultiset::new(self.iter().cloned().collect())
    }
}

/// The closed-form `d = 1` safe area `[y_(f+1), y_(|Y|−f)]`, read off `len`
/// scalars that `ascending` yields in sorted order.  Empty exactly when the
/// lower end exceeds the upper end (`|Y| < 2f + 1`, ties notwithstanding);
/// callers compare against it under [`D1_TOLERANCE`].
fn d1_interval(len: usize, f: usize, ascending: impl Fn(usize) -> f64) -> (f64, f64) {
    (ascending(f), ascending(len - 1 - f))
}

/// Per-coordinate trimmed range `[y^l_(f+1), y^l_(|Y|−f)]`.  `Γ(Y)` is
/// contained in this box: projecting onto coordinate `l`, the subset that
/// drops the `f` largest (resp. smallest) members in that coordinate bounds
/// every safe point from above (resp. below).
pub(crate) fn trimmed_bounds(y: &PointMultiset, f: usize) -> (Vec<f64>, Vec<f64>) {
    let m = y.len();
    let d = y.dim();
    let mut lo = Vec::with_capacity(d);
    let mut hi = Vec::with_capacity(d);
    let mut column: Vec<f64> = Vec::with_capacity(m);
    for l in 0..d {
        column.clear();
        column.extend(y.iter().map(|p| p.coord(l)));
        column.sort_by(f64::total_cmp);
        lo.push(column[f]);
        hi.push(column[m - 1 - f]);
    }
    (lo, hi)
}

/// Membership of `point` in the intersection of `family`, the `f > 0` Γ
/// family of `y` whose trimmed range is `bounds`, behind two exact
/// short-circuits: a point equal to more than `f` members survives every
/// removal of `f` members, and `Γ(y)` lies inside the trimmed range.  Only
/// then is the family streamed (short-circuiting on the first refuting
/// hull); the hulls it builds stay built for the caller.
fn family_contains(
    family: &mut HullFamily<'_>,
    y: &PointMultiset,
    f: usize,
    (lo, hi): (&[f64], &[f64]),
    point: &Point,
) -> bool {
    let copies = y
        .iter()
        .filter(|g| g.approx_eq(point, MEMBER_EQ_TOLERANCE))
        .count();
    if copies > f {
        return true;
    }
    let outside = point
        .coords()
        .iter()
        .zip(lo.iter().zip(hi))
        .any(|(&c, (&l, &h))| c < l - HULL_TOLERANCE || c > h + HULL_TOLERANCE);
    !outside && family.all_contain(point)
}

/// The intersection `∩_i H(Y − {i})` of the *leave-one-out* hulls of `y`
/// (used by the necessity argument of Theorem 1, equation (16) in Appendix C):
/// returns a point of the intersection, or `None` when it is empty.
///
/// # Panics
///
/// Panics if `y` has fewer than two members.
pub fn leave_one_out_intersection(y: &PointMultiset) -> Option<Point> {
    HullFamily::leave_one_out(y).common_point().0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[&[f64]]) -> PointMultiset {
        PointMultiset::new(coords.iter().map(|c| Point::new(c.to_vec())).collect())
    }

    #[test]
    fn gamma_with_f_zero_is_the_full_hull() {
        let y = pts(&[&[0.0, 0.0], &[2.0, 0.0], &[0.0, 2.0]]);
        assert!(gamma_contains(&y, 0, &Point::new(vec![0.5, 0.5])));
        assert!(!gamma_contains(&y, 0, &Point::new(vec![2.0, 2.0])));
    }

    #[test]
    fn gamma_scalar_case_is_trimmed_interval() {
        // d = 1, f = 1, Y = {0, 1, 2, 3, 10}. Γ is the intersection of hulls of
        // all 4-subsets = [1, 3]: dropping the largest still leaves [0,3];
        // dropping the smallest leaves [1,10]; intersection [1,3].
        let y = pts(&[&[0.0], &[1.0], &[2.0], &[3.0], &[10.0]]);
        assert!(gamma_contains(&y, 1, &Point::new(vec![1.0])));
        assert!(gamma_contains(&y, 1, &Point::new(vec![2.5])));
        assert!(gamma_contains(&y, 1, &Point::new(vec![3.0])));
        assert!(!gamma_contains(&y, 1, &Point::new(vec![0.5])));
        assert!(!gamma_contains(&y, 1, &Point::new(vec![3.5])));
        let p = gamma_point(&y, 1).expect("non-empty by Lemma 1");
        assert!(p.coord(0) >= 1.0 - 1e-6 && p.coord(0) <= 3.0 + 1e-6);
    }

    #[test]
    fn scalar_closed_form_picks_the_interval_midpoint() {
        let y = pts(&[&[0.0], &[1.0], &[2.0], &[3.0], &[10.0]]);
        let p = gamma_point(&y, 1).unwrap();
        assert!((p.coord(0) - 2.0).abs() < 1e-12, "midpoint of [1, 3]");
    }

    #[test]
    fn lemma1_guarantees_nonempty_gamma_in_2d() {
        // d = 2, f = 1, need |Y| ≥ 4. Use 4 generic points.
        let y = pts(&[&[0.0, 0.0], &[4.0, 0.0], &[0.0, 4.0], &[4.0, 4.0]]);
        let p = gamma_point(&y, 1).expect("Lemma 1");
        assert!(gamma_contains(&y, 1, &p));
    }

    #[test]
    fn lemma1_guarantees_nonempty_gamma_for_f_two() {
        // d = 2, f = 2, need |Y| ≥ 7: regular heptagon (the Figure 1 setup).
        let y = heptagon();
        let p = gamma_point(&y, 2).expect("Lemma 1 for the heptagon");
        assert!(gamma_contains(&y, 2, &p));
    }

    fn heptagon() -> PointMultiset {
        let pts: Vec<Point> = (0..7)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / 7.0;
                Point::new(vec![theta.cos(), theta.sin()])
            })
            .collect();
        PointMultiset::new(pts)
    }

    #[test]
    fn gamma_can_be_empty_below_lemma1_threshold() {
        // Theorem 1's construction: d = 2, the standard basis plus the origin
        // gives |Y| = d + 1 = 3 points. With f = 1, the leave-one-out hulls
        // have empty intersection, and so does Γ (|T| = 2 here).
        let y = pts(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        assert!(gamma_is_empty(&y, 1));
        assert!(leave_one_out_intersection(&y).is_none());
    }

    #[test]
    fn leave_one_out_intersection_nonempty_with_enough_points() {
        // d = 2, n = 4 = d + 2: Theorem 1 says n ≥ d+2 is needed for f = 1;
        // with the basis vectors plus two interior points the intersection is
        // non-empty for this particular input set.
        let y = pts(&[&[1.0, 0.0], &[0.0, 1.0], &[0.3, 0.3], &[0.4, 0.2]]);
        let p = leave_one_out_intersection(&y);
        assert!(p.is_some());
    }

    #[test]
    fn gamma_point_is_deterministic() {
        let y = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        let p1 = gamma_point(&y, 1).unwrap();
        let p2 = gamma_point(&y, 1).unwrap();
        assert!(p1.approx_eq(&p2, 1e-12));
    }

    #[test]
    fn gamma_point_is_invariant_under_member_reordering() {
        let a = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        let b = pts(&[
            &[4.0, 4.0],
            &[0.0, 4.0],
            &[2.0, 2.0],
            &[0.0, 0.0],
            &[4.0, 0.0],
        ]);
        let pa = gamma_point(&a, 1).unwrap();
        let pb = gamma_point(&b, 1).unwrap();
        assert!(
            pa.approx_eq(&pb, 1e-12),
            "the chosen point must be a function of the multiset: {pa} vs {pb}"
        );
    }

    #[test]
    fn gamma_point_lies_in_hull_of_every_subset() {
        let y = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        let p = gamma_point(&y, 1).unwrap();
        for subset in y.subsets_of_size(4) {
            assert!(ConvexHull::new(subset).contains(&p));
        }
    }

    #[test]
    fn gamma_contains_helper_agrees_with_safe_area() {
        let y = pts(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        assert!(gamma_contains(&y, 1, &Point::new(vec![1.5])));
        assert!(!gamma_contains(&y, 1, &Point::new(vec![0.1])));
    }

    #[test]
    fn per_coordinate_scalar_decision_leaves_the_honest_hull() {
        // Section 1's motivating example.  Scalar Byzantine consensus run on
        // each coordinate may decide the (f+1)-th smallest value, so its
        // decision is the lower corner of the trimmed box.  With the faulty
        // process reporting the origin, that corner is (1/6, 1/6, 1/6): every
        // coordinate lies within the honest range of that coordinate, yet
        // the vector is not a probability vector and so is outside the hull.
        let honest = [
            [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        ];
        let reported = pts(&[&honest[0], &honest[1], &honest[2], &[0.0, 0.0, 0.0]]);
        let (lo, _) = trimmed_bounds(&reported, 1);
        let scalar = Point::new(lo);
        assert!(scalar.approx_eq(&Point::uniform(3, 1.0 / 6.0), 1e-12));
        let hull = ConvexHull::new(pts(&[&honest[0], &honest[1], &honest[2]]));
        assert!(
            !hull.contains(&scalar),
            "{scalar} must violate vector validity"
        );
    }

    #[test]
    #[should_panic(expected = "smaller than")]
    fn fault_bound_too_large_panics() {
        let y = pts(&[&[0.0], &[1.0]]);
        let _ = gamma_point(&y, 2);
    }

    #[test]
    fn duplicate_points_respect_multiplicity() {
        // Y = {0, 0, 5}, f = 1: subsets of size 2 are {0,0}, {0,5}, {0,5};
        // Γ = {0} ∩ [0,5] ∩ [0,5] = {0}.
        let y = pts(&[&[0.0], &[0.0], &[5.0]]);
        assert!(gamma_contains(&y, 1, &Point::new(vec![0.0])));
        assert!(!gamma_contains(&y, 1, &Point::new(vec![1.0])));
        let p = gamma_point(&y, 1).unwrap();
        assert!(p.coord(0).abs() < 1e-6);
    }

    #[test]
    fn multiplicity_accept_in_two_dimensions() {
        // The point (1, 1) appears twice with f = 1: it survives any single
        // removal, so it is in Γ regardless of the other members.
        let y = pts(&[&[1.0, 1.0], &[1.0, 1.0], &[9.0, 0.0], &[0.0, 9.0]]);
        assert!(gamma_contains(&y, 1, &Point::new(vec![1.0, 1.0])));
    }

    #[test]
    fn trimmed_box_reject_in_two_dimensions() {
        // Γ of 5 box corners + centre with f = 1 lies within the trimmed
        // coordinate ranges; a point beyond them is rejected without LPs.
        let y = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        assert!(!gamma_contains(&y, 1, &Point::new(vec![4.0, 4.0])));
        assert!(!gamma_contains(&y, 1, &Point::new(vec![-1.0, 2.0])));
    }

    #[test]
    fn empty_gamma_detected_in_scalar_case_without_lps() {
        // |Y| = 2, f = 1: dropping either member leaves disjoint singletons.
        let y = pts(&[&[0.0], &[1.0]]);
        assert!(gamma_is_empty(&y, 1));
        assert!(gamma_point(&y, 1).is_none());
    }

    #[test]
    fn attribution_reports_the_answering_path() {
        // d = 1 resolves in closed form.
        let scalar = pts(&[&[0.0], &[1.0], &[2.0]]);
        let (p, attr) = gamma_point_attributed(&scalar, 1);
        assert!(p.is_some());
        assert_eq!(attr.path, GammaPath::D1ClosedForm);
        assert!(!attr.probe_missed);

        // f = 0 is a single full-hull LP.
        let square = pts(&[&[0.0, 0.0], &[2.0, 0.0], &[0.0, 2.0]]);
        let (_, attr) = gamma_point_attributed(&square, 0);
        assert_eq!(attr.path, GammaPath::HullF0);

        // Square + centre: the trimmed-box centre is a member of Γ, so the
        // probe serves the query.
        let clustered = pts(&[
            &[0.0, 0.0],
            &[4.0, 0.0],
            &[0.0, 4.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
        ]);
        let (p, attr) = gamma_point_attributed(&clustered, 1);
        assert!(p.is_some());
        assert_eq!(attr.path, GammaPath::ProbeHit);

        // An empty Γ can never be served by the probe: the LP path reports
        // the miss.
        let empty = pts(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let (p, attr) = gamma_point_attributed(&empty, 1);
        assert!(p.is_none());
        assert!(attr.probe_missed);
        assert!(matches!(
            attr.path,
            GammaPath::ActiveSetLp | GammaPath::NaiveFallback
        ));
    }

    #[test]
    fn scalar_interval_inverted_within_tolerance_is_not_empty() {
        // The trimmed interval is [5e-8, 0.0] — inverted by less than the
        // closed form's tolerance, and the joint LP (phase-1 optimum = gap)
        // would also call the intersection feasible.  Emptiness, point
        // selection and membership must agree with each other.
        let y = pts(&[&[0.0], &[5e-8]]);
        assert!(!gamma_is_empty(&y, 1));
        let p = gamma_point(&y, 1).expect("within-tolerance interval");
        assert!(gamma_contains(&y, 1, &p));
        assert!(gamma_contains(&y, 1, &Point::new(vec![2.5e-8])));
    }
}
