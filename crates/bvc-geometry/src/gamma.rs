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
//! From `d = 4` on the subset hulls are a `HullFamily`:
//! built lazily from the streamed subsets, membership short-circuiting on
//! the first refuting hull, the point found by growing an active set of
//! binding hulls instead of solving the monolithic `C(|Y|, |Y|−f)`-block
//! joint LP of Section 2.2.  Two exact closed forms bypass the solver
//! entirely:
//!
//! * `d = 1`: `Γ(Y)` is the interval `[y_(f+1), y_(|Y|−f)]` of the sorted
//!   multiset (drop the `f` smallest / largest members);
//! * any `d`: a query point equal to at least `f + 1` members of `Y` lies in
//!   every `(|Y|−f)`-subset hull, and a query point outside the
//!   per-coordinate trimmed range `[y^l_(f+1), y^l_(|Y|−f)]` lies outside
//!   some subset hull.
//!
//! A strict point query, `f = 0` included (`Γ` is then the hull of `Y`),
//! builds one membership test: its trimmed-centre probe asks the test and,
//! on a miss, the test's own engine answers.  At
//! `d = 2` and `d = 3` that engine is the depth region (`depth.rs`), with no
//! subset hull: past the multiplicity accept, membership is the region's
//! box and its member-pair (plane) or member-triple (space) sides, widened
//! by `DEPTH_SLACK`, in space also its three coordinate shadows' planar
//! regions, with the exact Tukey-depth count asked first in the plane
//! (`Inside` is a proof).  At `f = 0` that is the rule a
//! [`ConvexHull`](crate::ConvexHull) answers by, under the narrower
//! `DEPTH_SLACK` instead of the membership LP's band
//! (`FEASIBILITY_TOLERANCE`): every point of `Γ(Y)` is in the hull of `Y`,
//! and a point of the hull is in `Γ(Y)` unless it lies outside the hull,
//! within that band of it.  The point is the region's: a member it
//! holds, else the mean of its clipped vertices in the plane and the
//! Chebyshev centre of one four-unknown LP in space; an empty region is an
//! empty `Γ`.  So a strict query runs no simplex in the plane and at most
//! one in space.  From `d = 4` on the engine is the subset hulls, streamed
//! for membership and searched by the active set for the point, reusing
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

use crate::combinatorics::Combinations;
use crate::depth;
use crate::family::HullFamily;
use crate::hull::box_rejects;
use crate::multiset::PointMultiset;
use crate::point::{canonical_cmp, Point};
use crate::relaxed::{k_relaxed_point, ModeKey};
use crate::tolerance::{D1_TOLERANCE, DEPTH_SLACK, GENERATOR_EQ_TOLERANCE};
use bvc_trace::GammaPath;

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
///   depth region's point at `d = 2, 3` and the [`HullFamily::gamma`]
///   active-set search from `d = 4` on (attributed by path);
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
/// every other shape materialises the canonical multiset and probes the
/// trimmed centre; on a miss the depth region answers at `d = 2, 3`, the
/// active-set search over the subset hulls from `d = 4` on.
fn strict_point(view: SubsetView<'_>, f: usize) -> (Option<Point>, GammaAttribution) {
    let attributed = |path, probe_missed| GammaAttribution { path, probe_missed };
    if view.dim() == 1 {
        let (lo, hi) = d1_interval(view.len(), f, |j| view.point(j).coord(0));
        let point = d1_midpoint(lo, hi).map(|mid| Point::new(vec![mid]));
        return (point, attributed(GammaPath::D1ClosedForm, false));
    }
    let canon = view.to_multiset();
    let (lo, hi) = trimmed_bounds(&canon, f);
    let mut membership = Membership::new(&canon, f, (&lo, &hi));
    // Cheap deterministic probe first: the centre of the trimmed bounding
    // box.  When the honest states have converged into a tight cluster (the
    // steady state of every iterative protocol here) the trimmed centre
    // sits inside the cluster and passes the membership test for a few
    // microseconds.  The probe is order-invariant, so determinism is
    // unaffected.  A miss asks the same test's engine, so nothing the probe
    // built is built again.
    let centre = trimmed_centre(&lo, &hi);
    if membership.contains(&centre) {
        return (Some(centre), attributed(GammaPath::ProbeHit, false));
    }
    let (point, path) = membership.search();
    (point, attributed(path, true))
}

/// Returns `true` if `point ∈ Γ(y)` with fault bound `f`.
///
/// At `f = 0` this is membership in the hull of `y`, but at `d = 2` and
/// `d = 3` under `DEPTH_SLACK` (module docs): a point outside the hull by
/// less than the membership LP's band may be in the hull by
/// `ConvexHull::contains` and not here, never the other way.
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
    // At d = 1 the trimmed range is `Γ(y)` itself.
    let (lo, hi) = trimmed_bounds(y, f);
    if y.dim() == 1 {
        let c = point.coord(0);
        return c >= lo[0] - D1_TOLERANCE && c <= hi[0] + D1_TOLERANCE;
    }
    Membership::new(y, f, (&lo, &hi)).contains(point)
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

/// The multiset with its members in [canonical order](canonical_cmp), the
/// order all point-valued Γ queries normalise to.
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
        sorted.sort_by(|a, b| canonical_cmp(a.1.coords(), b.1.coords()));
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

/// The strict `d = 1` point of the interval `[lo, hi]`: its midpoint, or
/// `None` when it is empty.  Non-empty up to [`D1_TOLERANCE`] (the joint
/// LP's own threshold); an inverted-within-tolerance interval yields its
/// midpoint, which lies within the membership band of both ends.
pub(crate) fn d1_midpoint(lo: f64, hi: f64) -> Option<f64> {
    (lo <= hi + D1_TOLERANCE).then_some(0.5 * (lo + hi))
}

/// The most entries [`d1_subset_midpoints`] takes: a subset is a set of
/// ranks held in one `u64`.
pub(crate) const D1_FOLD_ENTRIES: usize = u64::BITS as usize;

/// Step 2's strict `d = 1` rule over every `quorum`-subset of `entries`, off
/// **one** sort: `each` is called once per subset, in [`Combinations`] order
/// over the positions of `entries`, with the subset's [`d1_midpoint`] — the
/// value `gamma_point_of` gives that subset's view, bit for bit.  A subset
/// is a set of ranks into the sorted scalars, and its interval ends are read
/// by rank through [`d1_interval`]: no view, no point, no per-subset sort.
///
/// # Panics
///
/// Panics if `quorum == 0`, `entries.len() < quorum`, `f >= quorum`, more
/// than [`D1_FOLD_ENTRIES`] entries are given or one is not
/// one-dimensional.
pub(crate) fn d1_subset_midpoints(
    entries: &[&Point],
    quorum: usize,
    f: usize,
    mut each: impl FnMut(Option<f64>),
) {
    assert!(0 < quorum && quorum <= entries.len() && entries.len() <= D1_FOLD_ENTRIES);
    assert!(
        f < quorum,
        "fault bound f = {f} must be smaller than |Y| = {quorum}"
    );
    assert!(
        entries.iter().all(|p| p.dim() == 1),
        "all points in a multiset must share a dimension"
    );
    // Members that tie in the canonical order are bit-identical, so how
    // ties rank is immaterial.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| canonical_cmp(entries[a].coords(), entries[b].coords()));
    let ascending: Vec<f64> = order.iter().map(|&i| entries[i].coord(0)).collect();
    let mut rank = vec![0; entries.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let mut subsets = Combinations::new(entries.len(), quorum);
    while let Some(subset) = subsets.next_ref() {
        let members = subset.iter().fold(0u64, |set, &i| set | 1 << rank[i]);
        let (lo, hi) = d1_interval(quorum, f, |j| ascending[nth_member(members, quorum, j)]);
        each(d1_midpoint(lo, hi));
    }
}

/// The rank of the `j`-th (0-based, ascending) of the `len` members of the
/// rank set `members`, counted off from the nearer end: Step 2's interval
/// ends sit `f` members in from either side.
fn nth_member(mut members: u64, len: usize, j: usize) -> usize {
    let from_top = len - 1 - j;
    if j <= from_top {
        for _ in 0..j {
            members &= members - 1;
        }
        members.trailing_zeros() as usize
    } else {
        for _ in 0..from_top {
            members ^= 1 << (63 - members.leading_zeros());
        }
        63 - members.leading_zeros() as usize
    }
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

/// The centre of the trimmed box `[lo, hi]`: the strict rule's probe and the
/// k-relaxed rule's candidate.
pub(crate) fn trimmed_centre(lo: &[f64], hi: &[f64]) -> Point {
    Point::new(lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)).collect())
}

/// Membership in `Γ(y)`, `d ≥ 2`, with what the questions read built at
/// most once, and only when a question needs it: the [`Engine`].
struct Membership<'a> {
    y: &'a PointMultiset,
    f: usize,
    /// The trimmed range `[lo, hi]`, which holds `Γ(y)`.
    bounds: (&'a [f64], &'a [f64]),
    engine: Engine<'a>,
}

/// What answers a membership question past the multiplicity accept, and the
/// point query after a probe miss.
enum Engine<'a> {
    /// `d = 2`: the depth region, no hull.
    Plane(depth::Region<2>),
    /// `d = 3`: the depth region in space, no hull.
    Space(depth::Space),
    /// `d ≥ 4`: the `(|y|−f)`-subset hulls, built as questions need them and
    /// kept for the active-set search.
    Hulls(HullFamily<'a>),
}

impl<'a> Membership<'a> {
    /// The test for `Γ(y)` whose trimmed range is `bounds`.
    fn new(y: &'a PointMultiset, f: usize, bounds: (&'a [f64], &'a [f64])) -> Self {
        let engine = match y.dim() {
            2 => Engine::Plane(depth::Region::new(y, f, bounds, [0, 1], DEPTH_SLACK)),
            3 => Engine::Space(depth::Space::new(y, f, bounds, DEPTH_SLACK)),
            _ => Engine::Hulls(HullFamily::gamma(y, f)),
        };
        Self {
            y,
            f,
            bounds,
            engine,
        }
    }

    /// Whether `point ∈ Γ(y)`, behind the multiplicity accept: a point equal
    /// to more than `f` members survives every removal of `f` members.  At
    /// `d ≤ 3` the depth region answers the rest (`depth.rs`): its box is the
    /// trimmed range, which holds `Γ(y)`, and past it, in the plane, the
    /// exact depth count accepts `Inside` before the region's sides are
    /// asked.  From `d = 4` on a point beyond a face of the range by more
    /// than the reject margin is out ([`box_rejects`]), and past that the
    /// subset hulls are streamed, short-circuiting on the first that
    /// refutes `point`.
    fn contains(&mut self, point: &Point) -> bool {
        let copies = self
            .y
            .iter()
            .filter(|g| g.approx_eq(point, GENERATOR_EQ_TOLERANCE))
            .count();
        if copies > self.f {
            return true;
        }
        match &mut self.engine {
            Engine::Plane(region) => region.contains([point.coord(0), point.coord(1)]),
            Engine::Space(space) => {
                space.contains([point.coord(0), point.coord(1), point.coord(2)])
            }
            Engine::Hulls(family) => {
                let (lo, hi) = self.bounds;
                !box_rejects(lo, hi, point) && family.all_contain(point)
            }
        }
    }

    /// A point of `Γ(y)` after a probe miss, or `None` when it is empty, and
    /// the path that answered: the depth region's point at `d ≤ 3`, the
    /// active-set search over the subset hulls from `d = 4` on.
    fn search(&mut self) -> (Option<Point>, GammaPath) {
        match &mut self.engine {
            Engine::Plane(region) => (
                region.point().map(|x| Point::new(x.to_vec())),
                GammaPath::DepthRegion,
            ),
            Engine::Space(space) => (
                space.point().map(|x| Point::new(x.to_vec())),
                GammaPath::DepthRegion,
            ),
            Engine::Hulls(family) => match family.common_point() {
                (point, false) => (point, GammaPath::ActiveSetLp),
                (point, true) => (point, GammaPath::NaiveFallback),
            },
        }
    }
}

/// The intersection `∩_i H(Y − {i})` of the *leave-one-out* hulls of `y`
/// (used by the necessity argument of Theorem 1, equation (16) in Appendix C):
/// returns a point of the intersection, or `None` when it is empty.  Those
/// hulls are exactly the `(|Y|−1)`-subset hulls, so this is
/// [`gamma_point`] at `f = 1`.
///
/// # Panics
///
/// Panics if `y` has fewer than two members.
pub fn leave_one_out_intersection(y: &PointMultiset) -> Option<Point> {
    gamma_point(y, 1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::family::tests::biased;
    use crate::hull::tests::{dyadic_points, dyadic_shift, moved, near_segments};
    use crate::hull::ConvexHull;
    use bvc_trace::{TraceEvent, TraceHandle, Tracer};
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

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
    fn far_from_the_origin_the_trimmed_box_reject_answers_as_at_the_origin() {
        // Every 5-subset keeps three of the four members on y = 1000, so
        // (1002, 1000 − δ) is δ below a face of each subset hull and of the
        // trimmed box.  Moved by −1000 to the origin (exactly), each subset
        // hull gives the same answer, which is the LP's: inside its band
        // (5e-8) an accept, past it a reject.  Γ gives the same answer at
        // both positions too, by its own band: the depth region's
        // `DEPTH_SLACK` (1e-9), so 5e-8 below the face is already outside.
        let rows: [[f64; 2]; 6] = [
            [1000.0, 1000.0],
            [1001.0, 1000.0],
            [1003.0, 1000.0],
            [1004.0, 1000.0],
            [1000.0, 1004.0],
            [1004.0, 1004.0],
        ];
        let multiset = |t: f64| {
            PointMultiset::new(
                rows.iter()
                    .map(|r| Point::new(vec![r[0] + t, r[1] + t]))
                    .collect(),
            )
        };
        let (y, home) = (multiset(0.0), multiset(-1000.0));
        let hulls = |y: &PointMultiset| -> Vec<ConvexHull> {
            y.subsets_of_size(5)
                .into_iter()
                .map(ConvexHull::new)
                .collect()
        };
        let (far_hulls, home_hulls) = (hulls(&y), hulls(&home));
        for (delta, inside) in [
            (5e-10, true),
            (5e-8, true),
            (5e-7, false),
            (2e-6, false),
            (1e-5, false),
            (5e-5, false),
        ] {
            let p = Point::new(vec![1002.0, 1000.0 - delta]);
            let q = Point::new(vec![2.0, (1000.0 - delta) - 1000.0]);
            let in_gamma = delta < DEPTH_SLACK;
            assert_eq!(gamma_contains(&y, 1, &p), in_gamma, "δ = {delta}");
            assert_eq!(gamma_contains(&home, 1, &q), in_gamma, "δ = {delta}");
            for (far, home) in far_hulls.iter().zip(&home_hulls) {
                for (hull, point) in [(far, &p), (home, &q)] {
                    assert_eq!(hull.contains(point), inside, "δ = {delta}: {point}");
                    let witness = hull.convex_combination(point);
                    assert_eq!(witness.is_some(), inside, "δ = {delta}: the LP at {point}");
                }
            }
        }
    }

    /// [`gamma_does_not_depend_on_the_origin`]'s check of one `Y`.
    fn same_gamma_moved<const D: usize>(members: &[[f64; D]], f: usize, t: [f64; D], step: i32) {
        let multiset = |points: &[[f64; D]]| {
            PointMultiset::new(points.iter().map(|p| Point::new(p.to_vec())).collect())
        };
        let (y, moved_y) = (multiset(members), multiset(&moved(members, t)));
        let nudge = 2f64.powi(-step);
        let (lo, hi) = trimmed_bounds(&y, f);
        let centre: [f64; D] = std::array::from_fn(|l| (lo[l] + hi[l]) / 2.0);
        let mut queries = members.to_vec();
        let chain = (1..members.len()).map(|i| (i - 1, i));
        queries.extend(near_segments(
            members,
            chain.chain([(0, members.len() - 1)]),
            step,
        ));
        for l in 0..D {
            for face in [lo[l], lo[l] - nudge, hi[l], hi[l] + nudge] {
                let mut query = centre;
                query[l] = face;
                queries.push(query);
            }
        }
        for (query, moved_query) in queries.iter().zip(moved(&queries, t)) {
            let (p, moved_p) = (Point::new(query.to_vec()), Point::new(moved_query.to_vec()));
            assert_eq!(
                gamma_contains(&moved_y, f, &moved_p),
                gamma_contains(&y, f, &p),
                "{p} in Γ of {y:?}, f = {f}, moved by {t:?}"
            );
        }
        let (here, there) = (gamma_point(&y, f), gamma_point(&moved_y, f));
        let back =
            there.map(|p| Point::new(p.coords().iter().zip(t).map(|(c, t)| c - t).collect()));
        match (&here, &back) {
            (Some(a), Some(b)) => assert!(
                a.approx_eq(b, 1e-8),
                "{a} and {b}: Γ of {y:?}, f = {f}, t = {t:?}"
            ),
            _ => panic!("Γ of {y:?}, f = {f}: {here:?} here, {back:?} moved by {t:?} and back"),
        }
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

        // f = 0 takes the same engine, with no simplex: the probe (the
        // bounding box's centre, on the hypotenuse here), and in space a
        // miss the region answers with the first member.
        let square = pts(&[&[0.0, 0.0], &[2.0, 0.0], &[0.0, 2.0]]);
        let (solves, (p, attr)) = simplex_solves(|| gamma_point_attributed(&square, 0));
        assert_eq!(
            (p, attr.path, solves),
            (Some(Point::new(vec![1.0, 1.0])), GammaPath::ProbeHit, 0)
        );
        let corner = pts(&[
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
        ]);
        let (solves, (p, attr)) = simplex_solves(|| gamma_point_attributed(&corner, 0));
        assert_eq!(
            (p, attr.path, solves),
            (Some(Point::origin(3)), GammaPath::DepthRegion, 0)
        );

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

        // An empty Γ can never be served by the probe.  The depth region
        // reports the miss: in the plane with no simplex, in space with its
        // one centre LP, found infeasible.
        let empty = pts(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let (solves, (p, attr)) = simplex_solves(|| gamma_point_attributed(&empty, 1));
        assert!(p.is_none());
        assert!(attr.probe_missed);
        assert_eq!(attr.path, GammaPath::DepthRegion);
        assert_eq!(solves, 0);
        let empty = pts(&[
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0],
        ]);
        let (solves, (p, attr)) = simplex_solves(|| gamma_point_attributed(&empty, 1));
        assert!(p.is_none());
        assert!(attr.probe_missed);
        assert_eq!(attr.path, GammaPath::DepthRegion);
        assert_eq!(solves, 1);
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

    /// Depth-region fixtures: each misses the probe, and the depth region
    /// (not the active-set search) answers it.
    fn assert_depth_region(y: &PointMultiset, f: usize) -> Point {
        let (p, attr) = gamma_point_attributed(y, f);
        assert_eq!(attr.path, GammaPath::DepthRegion, "{y:?}");
        assert!(attr.probe_missed);
        let p = p.expect("the depth region answers");
        for subset in y.subsets_of_size(y.len() - f) {
            assert!(ConvexHull::new(subset).contains(&p), "{p} leaves a hull");
        }
        p
    }

    /// The heptagon turned by 1/4 radian and sheared by x += y/4: Γ with
    /// f = 2 is the (sheared) inner heptagon cut by the chords v_i v_{i+3},
    /// centred on the origin, and the trimmed-box centre falls outside it.
    fn sheared_heptagon() -> PointMultiset {
        PointMultiset::new(
            (0..7)
                .map(|k| {
                    let theta = 0.25 + 2.0 * std::f64::consts::PI * k as f64 / 7.0;
                    Point::new(vec![theta.cos() + 0.25 * theta.sin(), theta.sin()])
                })
                .collect(),
        )
    }

    #[test]
    fn depth_region_answers_the_sheared_heptagon() {
        let p = assert_depth_region(&sheared_heptagon(), 2);
        assert!(p.approx_eq(&Point::origin(2), 1e-9), "{p}");
    }

    /// How many simplex solves `run` makes, and what it returns.
    fn simplex_solves<T>(run: impl FnOnce() -> T) -> (usize, T) {
        struct Count(Arc<Mutex<usize>>);
        impl Tracer for Count {
            fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
                if matches!(event, TraceEvent::Simplex { .. }) {
                    *self.0.lock().unwrap() += 1;
                }
            }
        }
        let count = Arc::new(Mutex::new(0));
        let value = {
            let handle = TraceHandle::new(Box::new(Count(Arc::clone(&count))), false);
            let _scope = bvc_trace::install(handle, 0);
            run()
        };
        let solves = *count.lock().unwrap();
        (solves, value)
    }

    /// A converged `|Y| = 4` shape of the `svc-unique` workload (`n = 5,
    /// f = 1`, at the Lemma-1 threshold): a quadrilateral in convex
    /// position 1e-7 wide, whose Γ is its Radon point, on an edge of every
    /// triangle, and whose trimmed-box centre is off it.
    pub(crate) fn converged_quadrilateral(spread: f64) -> PointMultiset {
        let corner = |x: f64, y: f64| Point::new(vec![0.3 + spread * x, 0.6 + spread * y]);
        PointMultiset::new(vec![
            corner(0.0, 0.0),
            corner(3.0, 0.2),
            corner(4.1, 3.0),
            corner(0.4, 1.3),
        ])
    }

    #[test]
    fn a_planar_query_builds_no_hull_and_runs_no_simplex() {
        for (y, f) in [
            (converged_quadrilateral(1e-7), 1),
            (converged_quadrilateral(1.0), 1),
            (sheared_heptagon(), 2),
        ] {
            let canon = canonical_order(&y);
            let (lo, hi) = trimmed_bounds(&canon, f);
            let mut membership = Membership::new(&canon, f, (&lo, &hi));
            assert!(!membership.contains(&trimmed_centre(&lo, &hi)), "{y:?}");
            assert!(matches!(membership.engine, Engine::Plane(_)), "{y:?}");
            let (solves, (p, attr)) = simplex_solves(|| gamma_point_attributed(&y, f));
            assert_eq!(attr.path, GammaPath::DepthRegion);
            let p = p.expect("Γ is non-empty at the Lemma-1 threshold");
            let (lo, hi) = (Point::new(lo), Point::new(hi));
            let mut queries = vec![p.clone(), Point::centroid(y.points()), lo, hi];
            queries.extend(y.iter().cloned());
            let (asked, accepted) = simplex_solves(|| {
                let accepted: Vec<bool> =
                    queries.iter().map(|z| gamma_contains(&y, f, z)).collect();
                accepted
            });
            assert_eq!(solves + asked, 0, "{y:?}: Γ ran the simplex");
            assert!(accepted[0], "{p} fails its own membership test");
        }
    }

    #[test]
    fn a_strict_query_in_r3_runs_at_most_one_simplex() {
        // The `exact-n10-d3` shape: eight members uniform in the unit cube
        // and the two Byzantine sources resolved to the origin.  The depth
        // region in space answers with no subset hull: a probe hit by signs
        // alone, a miss with at most its one centre LP, and the answer's
        // membership again by signs alone.
        let (mut hits, mut misses) = (0, 0);
        for seed in 0..40 {
            let mut points = crate::WorkloadGenerator::new(seed)
                .box_points(8, 3, 0.0, 1.0)
                .into_points();
            points.extend([Point::origin(3), Point::origin(3)]);
            let y = PointMultiset::new(points);
            let canon = canonical_order(&y);
            let (lo, hi) = trimmed_bounds(&canon, 2);
            let membership = Membership::new(&canon, 2, (&lo, &hi));
            assert!(matches!(membership.engine, Engine::Space(_)), "{y:?}");
            let (solves, (p, attr)) = simplex_solves(|| gamma_point_attributed(&y, 2));
            let p = p.expect("Γ is non-empty above the Lemma-1 bound");
            match attr.path {
                GammaPath::ProbeHit => {
                    hits += 1;
                    assert_eq!(solves, 0, "{y:?}: a probe hit ran the simplex");
                }
                path => {
                    misses += 1;
                    assert_eq!(path, GammaPath::DepthRegion);
                    assert!(solves <= 1, "{y:?}: a miss ran {solves} solves");
                }
            }
            let (asked, accepted) = simplex_solves(|| gamma_contains(&y, 2, &p));
            assert!(
                accepted && asked == 0,
                "{p} in Γ of {y:?}: {accepted}, {asked} solves"
            );
        }
        assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
    }

    #[test]
    fn a_one_point_gamma_far_from_the_origin_is_found() {
        // Γ of the converged quadrilateral is its Radon point, so the depth
        // region is two strips 2·DEPTH_SLACK wide crossing there.  Moved to
        // 2^26 and beyond, where a coordinate steps by 1.5e-8 or more, the
        // region still has that point, it is the point at home moved, up to
        // the rounding of the move, and Γ's membership test accepts it.
        let home = converged_quadrilateral(1.0);
        let here = gamma_point(&home, 1).expect("the Radon point");
        for t in [
            2f64.powi(26),
            1.5 * 2f64.powi(26),
            2f64.powi(27),
            -1e8,
            2f64.powi(40),
            1e12,
        ] {
            let y = PointMultiset::new(
                home.iter()
                    .map(|p| Point::new(p.coords().iter().map(|c| c + t).collect()))
                    .collect(),
            );
            let there = gamma_point(&y, 1).unwrap_or_else(|| panic!("no point at {t:e}"));
            for (a, b) in there.coords().iter().zip(here.coords()) {
                let off = (a - t - b).abs();
                assert!(off <= 8.0 * t.abs() * f64::EPSILON, "{off:e} off at {t:e}");
            }
            // The point is in Γ by Γ's own membership test: the band is
            // wider than the rounding of its coordinates.
            assert!(gamma_contains(&y, 1, &there), "{there} rejected at {t:e}");
        }
    }

    #[test]
    fn depth_region_finds_the_radon_point_of_four_points_in_convex_position() {
        // Γ of a convex quadrilateral with f = 1 is the crossing of its
        // diagonals (0,0)–(4,3) and (3,0)–(0,1): (12/13, 9/13).
        let y = pts(&[&[0.0, 0.0], &[3.0, 0.0], &[4.0, 3.0], &[0.0, 1.0]]);
        let p = assert_depth_region(&y, 1);
        assert!(
            p.approx_eq(&Point::new(vec![12.0 / 13.0, 9.0 / 13.0]), 1e-8),
            "{p}"
        );
    }

    #[test]
    fn depth_region_answers_with_the_member_inside_the_triangle() {
        // Three corners and one member inside their triangle: Γ is that
        // member, returned exactly.
        let y = pts(&[&[0.0, 0.0], &[4.0, 0.0], &[0.0, 4.0], &[1.0, 1.0]]);
        assert_eq!(assert_depth_region(&y, 1), Point::new(vec![1.0, 1.0]));
    }

    /// `raw` as a cluster whose members lie within about 1e-7 of the first,
    /// plus the last one scaled a hundredfold: the shape that emptied a
    /// clip whose orientation signs ignored round-off.
    fn clustered_plus_outlier(raw: &[Vec<f64>]) -> PointMultiset {
        let (last, cluster) = raw.split_last().expect("non-empty");
        let centre = &cluster[0];
        let mut out: Vec<Point> = cluster
            .iter()
            .map(|r| Point::new(vec![centre[0] + 1e-7 * r[1], centre[1] + 1e-7 * r[2]]))
            .collect();
        out.push(Point::new(vec![100.0 * last[0], 100.0 * last[1]]));
        PointMultiset::new(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Γ does not depend on where the origin is.  `Y` at the Lemma-1
        /// threshold `|Y| = (d+1)f + 1` on a dyadic grid, for `d = 2, 3` and
        /// `f = 1, 2`, and `Y` moved by `t` ∈ {±2^10, ±2^20} per axis, which
        /// is exact: `gamma_contains` gives the same answer at every member,
        /// on segments between members and 2^-30 to 2^-17 off them, and at
        /// the trimmed box's faces and 2^-30 to 2^-17 beyond them; and
        /// `gamma_point` finds a point at both positions, the two within
        /// 1e-8 of each other once `t` is subtracted (a rounding at `2^20`
        /// is `2^-33`, about 1.2e-10; 2000 cases gave at most 1.05e-9).
        #[test]
        fn gamma_does_not_depend_on_the_origin(
            grid in prop::collection::vec(-(1i32 << 20)..1 << 20, 27),
            step in 17i32..31,
            choice in prop::collection::vec(0usize..4, 3),
        ) {
            for f in 1..=2usize {
                same_gamma_moved::<2>(&dyadic_points(&grid, 3 * f + 1), f, dyadic_shift(&choice), step);
                same_gamma_moved::<3>(&dyadic_points(&grid, 4 * f + 1), f, dyadic_shift(&choice), step);
            }
        }

        /// The strict path against the all-hulls joint LP (the oracle) on
        /// `d = 2` inputs: it answers whenever the oracle does, and every
        /// answer lies in every materialised subset hull.
        #[test]
        fn strict_path_answers_whenever_the_all_hulls_lp_does(
            raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 7),
            kinds in prop::collection::vec(0usize..6, 7),
        ) {
            for y in [biased(&raw, &kinds, 2), clustered_plus_outlier(&raw)] {
                for f in 1..=2usize {
                    let hulls: Vec<ConvexHull> = y
                        .subsets_of_size(y.len() - f)
                        .into_iter()
                        .map(ConvexHull::new)
                        .collect();
                    let oracle = HullFamily::gamma(&canonical_order(&y), f).joint_common_point();
                    let found = gamma_point(&y, f);
                    prop_assert!(
                        found.is_some() || oracle.is_none(),
                        "f = {}: the oracle found {:?}, the strict path nothing for {:?}",
                        f, oracle, y
                    );
                    if let Some(p) = &found {
                        prop_assert!(hulls.iter().all(|h| h.contains(p)), "{} leaves a hull of {:?}", p, y);
                    }
                }
            }
        }
    }
}
