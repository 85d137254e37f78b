//! A *hull family*: the hulls of a stream of index subsets of one multiset,
//! each optionally dilated, asked about their intersection.
//!
//! Equation (1) defines `Γ(Y)` as the intersection of the hulls of all
//! `(|Y|−f)`-subsets of `Y`; the relaxed region `Γ_α` of arXiv:1601.08067 is
//! the same intersection with each hull dilated about its own centroid.  A
//! constructor fixes which of the two it is — the multiset, `f` and the
//! dilation — and nothing else differs: every hull is built lazily, at most
//! once per family, in the lexicographic order of its subset, and the queries
//! ([`all_contain`](HullFamily::all_contain),
//! [`common_point`](HullFamily::common_point)) plus the all-hulls joint LP of
//! Section 2.2 ([`joint_common_point`](HullFamily::joint_common_point) — the
//! loop's numerical fallback and the tests' oracle) are written once, here.
//!
//! The strict `d = 2` and `d = 3` Γ engines build no family, `f = 0`
//! included: the depth region (`depth.rs`) answers them.  A family serves
//! strict `Γ` from `d = 4` on and `Γ_α`.  The Theorem-1 intersection of the
//! `n` leave-one-out hulls is no family of its own: those hulls are the
//! `(n−1)`-subset hulls, so it is `Γ` at `f = 1`.
//!
//! The family keeps the member order it is given: a point-valued answer is a
//! function of the *multiset* only when the caller hands the members over in
//! canonical order, which the Γ engine does.

use crate::combinatorics::{binomial, Combinations};
use crate::hull::{local_combination_lp, ConvexHull};
use crate::multiset::PointMultiset;
use crate::point::Point;
use crate::relaxed::dilate_about_centroid;
use bvc_lp::SolveStatus;

/// The hulls `H(T)`, each dilated by `1 + alpha`, for `T` ranging over the
/// `(|Y|−f)`-subsets of `members`; see the module docs.
pub(crate) struct HullFamily<'a> {
    members: &'a PointMultiset,
    /// The subsets, lexicographically, in the order the hulls are numbered.
    subsets: Combinations,
    /// Each hull is dilated by `1 + alpha` about its centroid; `0` is the
    /// identity.
    alpha: f64,
    count: usize,
    /// The hulls built so far, in stream order.
    built: Vec<ConvexHull>,
}

impl<'a> HullFamily<'a> {
    /// The family whose intersection is `Γ(y)`: all `(|y|−f)`-subset hulls.
    pub(crate) fn gamma(y: &'a PointMultiset, f: usize) -> Self {
        Self::dilated_gamma(y, f, 0.0)
    }

    /// The family whose intersection is `Γ_α(y)`: the same subsets, each
    /// hull dilated by `1 + alpha` about its own centroid.
    ///
    /// # Panics
    ///
    /// Panics if `f >= y.len()` or `alpha` is negative or non-finite.
    pub(crate) fn dilated_gamma(y: &'a PointMultiset, f: usize, alpha: f64) -> Self {
        assert!(
            f < y.len(),
            "fault bound f = {f} must be smaller than |Y| = {}",
            y.len()
        );
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be finite and non-negative, got {alpha}"
        );
        let k = y.len() - f;
        Self {
            members: y,
            subsets: Combinations::new(y.len(), k),
            alpha,
            count: usize::try_from(binomial(y.len(), k)).unwrap_or(usize::MAX),
            built: Vec::new(),
        }
    }

    /// The hull with the given ordinal, streaming the subsets up to it first
    /// and building each the stream passes.
    fn hull(&mut self, ordinal: usize) -> &ConvexHull {
        while self.built.len() <= ordinal {
            let subset = self
                .subsets
                .next_ref()
                .expect("ordinal is below the combination count");
            self.built.push(build(self.members, subset, self.alpha));
        }
        &self.built[ordinal]
    }

    /// Returns `true` if every hull of the family contains `point`,
    /// short-circuiting on the first one that does not.
    pub(crate) fn all_contain(&mut self, point: &Point) -> bool {
        (0..self.count).all(|ordinal| self.hull(ordinal).contains(point))
    }

    /// The all-hulls formulation of Section 2.2: every hull materialised, one
    /// monolithic joint LP, its candidate re-verified against each hull.
    /// `None` means no point was certified (see
    /// [`ConvexHull::common_point`]).
    pub(crate) fn joint_common_point(&mut self) -> Option<Point> {
        self.hull(self.count - 1);
        joint_common_point(&self.built.iter().collect::<Vec<_>>())
    }

    /// A deterministically chosen point common to every hull, or `None`; the
    /// flag reports whether the all-hulls fallback had to run.
    ///
    /// Active-set search: start from the first hull alone, solve the (small)
    /// joint LP over the working set, verify the candidate against the other
    /// hulls in ordinal order and add the first that refutes it, re-solve.
    /// The working set's LP *under*-constrains the intersection, so its
    /// infeasibility certifies the intersection empty, and a candidate that
    /// passes every hull is a point of it.  The working set only grows, so
    /// the loop ends within `count` iterations — in practice a handful: an
    /// intersection in `R^d` is generically pinned by few hulls.  When the
    /// joint LP and the membership tests disagree numerically the answer is
    /// [`joint_common_point`](Self::joint_common_point)'s.
    pub(crate) fn common_point(&mut self) -> (Option<Point>, bool) {
        if self.count == 1 {
            // One hull: the working set already is the family.
            return (self.joint_common_point(), false);
        }
        self.hull(0);
        let mut active: Vec<usize> = vec![0];
        loop {
            let working: Vec<&ConvexHull> = active.iter().map(|&o| &self.built[o]).collect();
            let z = match joint_candidate(&working) {
                (SolveStatus::Infeasible, _) => return (None, false),
                (SolveStatus::Optimal, Some(z)) => z,
                // Unbounded cannot arise (the candidate is pinned inside the
                // first hull) and a stalled solve certifies nothing; treat
                // both as numerical trouble.
                _ => return (self.joint_common_point(), true),
            };
            let violated = (0..self.count)
                .filter(|ordinal| !active.contains(ordinal))
                .find(|&ordinal| !self.hull(ordinal).contains(&z));
            match violated {
                Some(ordinal) => active.push(ordinal),
                // The candidate passed every hull outside the working set;
                // re-verify the working set itself to guard against joint-LP
                // round-off before accepting.
                None if active.iter().all(|&o| self.built[o].contains(&z)) => {
                    return (Some(z), false)
                }
                None => return (self.joint_common_point(), true),
            }
        }
    }
}

/// The hull of `members` at the index `subset`, dilated by `1 + alpha`
/// about its centroid when `alpha > 0`: the one place a family's subset
/// becomes a hull.
fn build(members: &PointMultiset, subset: &[usize], alpha: f64) -> ConvexHull {
    let subset = members.select(subset);
    ConvexHull::new(if alpha > 0.0 {
        dilate_about_centroid(&subset, alpha)
    } else {
        subset
    })
}

/// Solves the joint common-point LP of Section 2.2 over the given hulls — a
/// free point variable `z ∈ R^d` plus one block of convex-combination
/// variables per hull, relative to the first hull's first generator — and
/// returns the solver status plus the candidate point (unverified), that
/// generator added back.
pub(crate) fn joint_candidate(hulls: &[&ConvexHull]) -> (SolveStatus, Option<Point>) {
    let solution = local_combination_lp(hulls, None).solve();
    let reference = hulls[0].generators().point(0).coords();
    let candidate = (solution.status == SolveStatus::Optimal).then(|| {
        let local = solution.values[..reference.len()].iter();
        Point::new(local.zip(reference).map(|(z, o)| z + o).collect())
    });
    (solution.status, candidate)
}

/// The joint LP over all of `hulls`, its candidate verified against every
/// hull with an independent membership query (the combined LP can in rare
/// cases report a point whose per-hull witnesses are slightly off
/// numerically).
pub(crate) fn joint_common_point(hulls: &[&ConvexHull]) -> Option<Point> {
    let (_, candidate) = joint_candidate(hulls);
    candidate.filter(|z| hulls.iter().all(|h| h.contains(z)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gamma::{
        canonical_order, gamma_contains, gamma_is_empty, gamma_point, leave_one_out_intersection,
    };
    use proptest::prelude::*;

    /// `raw[i]` cut to `d` coordinates and bent by `kinds[i]`, biased toward
    /// what an LP formulation gets wrong: a copy of an earlier point, an
    /// earlier one nudged by 1e-9, a point on the hyperplane `x_d = 0`
    /// (collinear in `d = 2`, coplanar in `d = 3`), or a grid-snapped one.
    /// The nudge is along `x_1`, so it stays inside that hyperplane; a nudge
    /// *off* it makes a sliver thinner than the solver's tolerance, which
    /// `known_false_empties` pins with fixed coordinates.
    pub(crate) fn biased(raw: &[Vec<f64>], kinds: &[usize], d: usize) -> PointMultiset {
        let mut out: Vec<Point> = Vec::new();
        for (i, (coords, kind)) in raw.iter().zip(kinds).enumerate() {
            let mut coords = coords[..d].to_vec();
            match kind {
                1 if i > 0 => coords = out[i / 2].coords().to_vec(),
                2 if i > 0 => {
                    coords = out[i - 1].coords().to_vec();
                    coords[0] += 1e-9;
                }
                3 => coords[d - 1] = 0.0,
                4 => coords.iter_mut().for_each(|c| *c = c.round()),
                _ => {}
            }
            out.push(Point::new(coords));
        }
        PointMultiset::new(out)
    }

    /// The three properties of one family, against its hulls materialised
    /// independently of it.
    fn check<'a>(make: impl Fn() -> HullFamily<'a>, hulls: &[ConvexHull], probes: &[Point]) {
        let oracle = make().joint_common_point();
        let found = make().common_point().0;
        assert!(
            found.is_some() || oracle.is_none(),
            "the all-hulls LP found {oracle:?}, the active-set search nothing"
        );
        let mut family = make();
        if let Some(p) = &found {
            assert!(family.all_contain(p), "{p} fails its own family");
        }
        for p in probes.iter().chain(&found).chain(&oracle) {
            let each = hulls.iter().all(|h| h.contains(p));
            assert_eq!(family.all_contain(p), each, "membership of {p}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn every_constructor_agrees_with_its_materialised_hulls(
            raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 6),
            kinds in prop::collection::vec(0usize..6, 6),
            probe in prop::collection::vec(-1.0f64..1.0, 3),
            wide in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 10),
            wide_kinds in prop::collection::vec(0usize..6, 10),
            wide_draw in 0usize..4,
        ) {
            for d in 2..=3usize {
                let y = &canonical_order(&biased(&raw, &kinds, d));
                let mut probes: Vec<Point> = y.points().to_vec();
                probes.push(Point::new(probe[..d].to_vec()));
                probes.push(Point::centroid(y.points()));
                for f in 1..=2usize {
                    let subsets = y.subsets_of_size(y.len() - f);
                    let strict: Vec<ConvexHull> =
                        subsets.iter().cloned().map(ConvexHull::new).collect();
                    check(|| HullFamily::gamma(y, f), &strict, &probes);
                    let dilated: Vec<ConvexHull> = subsets
                        .iter()
                        .map(|t| ConvexHull::new(dilate_about_centroid(t, 0.5)))
                        .collect();
                    check(|| HullFamily::dilated_gamma(y, f, 0.5), &dilated, &probes);
                }
            }
            // The shape of the paper's `exact-n10-d3` Γ(S) query, 45 hulls,
            // in about a quarter of the cases: its all-hulls oracle is a
            // 180-row LP, and one that stalls runs the solver's whole
            // iteration cap (tens of seconds in a debug build).
            if wide_draw == 0 {
                let y = &canonical_order(&biased(&wide, &wide_kinds, 3));
                let mut probes: Vec<Point> = y.points().to_vec();
                probes.push(Point::centroid(y.points()));
                let strict: Vec<ConvexHull> =
                    y.subsets_of_size(y.len() - 2).into_iter().map(ConvexHull::new).collect();
                check(|| HullFamily::gamma(y, 2), &strict, &probes);
            }
        }
    }

    /// Inputs on which a phase 1 that stopped `Unbounded` used to be read as
    /// "the working set is infeasible", hence "the intersection is empty",
    /// which is false: two slivers the generator above produced with the
    /// nudge along `x_d`, and one Γ(S) of the paper's algorithm.
    #[test]
    fn known_false_empties() {
        let pts = |rows: &[[f64; 3]]| {
            PointMultiset::new(rows.iter().map(|r| Point::new(r.to_vec())).collect())
        };
        // Γ_0.5, f = 1: the all-hulls LP finds a point, the search none.
        let sliver = pts(&[
            [-1.0, 0.0, -0.0],
            [-1.0, 0.0, -0.0],
            [-0.08141958251791515, 1.1549167664342872, 0.0],
            [-0.08141958251791515, 1.1549167664342872, 1e-9],
            [0.32229408102131707, 1.7091026358299692, 0.0],
            [0.9214000862143576, 0.6420321910878148, -1.2108612187047485],
        ]);
        assert!(HullFamily::dilated_gamma(&sliver, 1, 0.5)
            .joint_common_point()
            .is_some());
        assert!(HullFamily::dilated_gamma(&sliver, 1, 0.5)
            .common_point()
            .0
            .is_some());
        // |Y| = 5 = (d+1)f + 1: Γ is non-empty by Lemma 1, and the same five
        // hulls searched in process order do yield a point.
        let radon = pts(&[
            [1.6906819513853932, -1.990804455907833, 0.8461057339180043],
            [1.6906819513853932, -1.990804455907833, 0.8461057349180042],
            [-1.0, -1.0, -1.0],
            [1.7287052242438223, -1.2532398264563906, -1.5817335142538052],
            [-1.0, -1.0, 1.0],
        ]);
        assert!(leave_one_out_intersection(&radon).is_some());
        assert!(!gamma_is_empty(&radon, 1));
        // n = 10, f = 2, d = 3, above the Lemma-1 bound: the Γ(S) of
        // `bvc-benchmark instance --workload exact-n10-d3 --seed 1 --index 23`.
        let exact = pts(&[
            [0.18409555864261629, 0.5564821051921288, 0.944962382779557],
            [0.9437003801971682, 0.8318845321339408, 0.43237773668746327],
            [0.9442451465314556, 0.958889964868586, 0.08345774216875468],
            [0.1819286454438327, 0.9808937485744164, 0.4455601378178221],
            [0.9798036277553392, 0.7445154052209547, 0.6452014409129365],
            [0.6958808053356172, 0.6394916694038625, 0.8809612744642666],
            [0.13147483965723128, 0.9474975652439268, 0.5693078700492274],
            [0.39372870503823654, 0.587410909097146, 0.9259462837008557],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]);
        let point = gamma_point(&exact, 2).expect("Γ(S) is non-empty above the bound");
        assert!(gamma_contains(&exact, 2, &point));
    }
}
