//! `Γ(Y)` in the plane by Tukey depth, with no linear program.
//!
//! A point `x` lies outside a subset hull `H(T)` exactly when some closed
//! halfplane through `x` misses `T`, so `Γ(Y)` is the set of points every
//! closed halfplane around which holds more than `f` members: the Tukey
//! depth-`(f+1)` region, which Lemma 1 keeps non-empty at
//! `|Y| ≥ 3f + 1`.  Two questions are asked of it:
//!
//! * [`verdict`]: is `z` in it?  Exactly, by counting members on either side
//!   of every line through `z` and a member with [`orient_exact`]: `Inside`
//!   is a proof that every subset hull holds `z`, `Outside` names a subset
//!   whose hull misses it.  The Γ engine trusts `Inside` and asks the hull
//!   test about the named subset first, so a reject is the hull test's own.
//! * [`candidate`]: a point of it, found without a simplex.  In the plane the
//!   region's edges lie on lines through two members, so `Γ(Y)` is the
//!   intersection of the closed sides of those lines that hold at least
//!   `|Y| − f` members.  Any such side contains `Γ(Y)`: the `|Y| − f`
//!   members on it span a hull inside it.  The Γ engine keeps the candidate
//!   only when the membership test accepts it, so an error here costs a
//!   fallback, never a wrong answer.

use crate::planar::{orient, orient_exact, Xy};
use crate::point::Point;
use crate::tolerance::DEPTH_SLACK;
use std::cmp::Ordering;

/// What the depth count says about a point of the plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every closed halfplane through the point holds more than `f`
    /// members: the point is in `Γ(Y)`.
    Inside,
    /// The ascending indices of `|Y| − f` members lying strictly on one side
    /// of a line through the point: their hull misses it.
    Outside(Vec<usize>),
}

/// Whether `z ∈ Γ(members)` with fault bound `f`, by an exact depth count in
/// `O(|Y|²)` orientation signs.
///
/// Members bit-equal to `z` lie in every closed halfplane through it.  The
/// others cut the circle of directions at the lines `z–o`, `o` a member,
/// and every closed halfplane through `z` holds at least as many members as
/// a halfplane just turned off such a line, which holds the members
/// strictly on one side of it plus those on one of its two rays from `z`.
/// So the depth of `z` is the least of those four counts per line, plus the
/// copies of `z`; `Outside` names the first `|Y| − f` members, in index
/// order, across the first line where that falls to `f`.
pub(crate) fn verdict(members: &[Xy], f: usize, z: Xy) -> Verdict {
    let copies = members.iter().filter(|&&x| x == z).count();
    for (i, &o) in members.iter().enumerate() {
        if o == z || members[..i].contains(&o) {
            continue;
        }
        let (mut sides, mut rays) = ([0; 2], [0; 2]);
        for &x in members.iter().filter(|&&x| x != z) {
            match place(z, o, x) {
                Place::Side(s) => sides[s] += 1,
                Place::Ray(r) => rays[r] += 1,
            }
        }
        if copies + sides[0].min(sides[1]) + rays[0].min(rays[1]) > f {
            continue;
        }
        // The larger side and the larger ray lie strictly across a line
        // through `z` turned off `z–o`: at least `|Y| − f` members.
        let across = [
            Place::Side(usize::from(sides[1] > sides[0])),
            Place::Ray(usize::from(rays[1] > rays[0])),
        ];
        let keep = (0..members.len())
            .filter(|&j| members[j] != z && across.contains(&place(z, o, members[j])))
            .take(members.len() - f);
        return Verdict::Outside(keep.collect());
    }
    Verdict::Inside
}

/// Where a member `x ≠ z` lies relative to the line `z–o`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Strictly on one side: `0` right of `z → o`, `1` left of it.
    Side(usize),
    /// On the line: `0` on the ray from `z` away from `o`, `1` on the ray
    /// through `o`.
    Ray(usize),
}

/// The [`Place`] of `x` (not `z`) about the line `z–o` (`o ≠ z`); a copy of
/// `o` is on its ray without a sign asked.
fn place(z: Xy, o: Xy, x: Xy) -> Place {
    if x == o {
        return Place::Ray(1);
    }
    match orient_exact(z, o, x) {
        Ordering::Greater => Place::Side(1),
        Ordering::Less => Place::Side(0),
        // On the line and not `z`: the coordinate in which `o` differs from
        // `z` tells the rays apart, by comparison alone.
        Ordering::Equal => {
            let k = usize::from(o[0] == z[0]);
            Place::Ray(usize::from((x[k] > z[k]) == (o[k] > z[k])))
        }
    }
}

/// The closed halfplane `{ x : normal · (x − through) ≥ 0 }`, `normal` a
/// unit vector so that [`DEPTH_SLACK`] is a distance.
struct Halfplane {
    normal: Xy,
    through: Xy,
}

impl Halfplane {
    /// Signed distance of `x` past the slackened boundary: `≥ 0` inside.
    fn excess(&self, x: Xy) -> f64 {
        self.normal[0] * (x[0] - self.through[0])
            + self.normal[1] * (x[1] - self.through[1])
            + DEPTH_SLACK
    }
}

/// Writes into `out` the sides of lines through two distinct members
/// (canonical pair order) that hold at least `|Y| − f` members.  A member
/// whose side is not known counts on both, which only adds halfplanes:
/// round-off can shrink the region, never grow it.
fn halfplanes(members: &[Xy], f: usize, out: &mut Vec<Halfplane>) {
    let need = members.len() - f;
    for (i, &p) in members.iter().enumerate() {
        for &q in members[i + 1..].iter().filter(|&&q| q != p) {
            let (mut left, mut right) = (0, 0);
            for &x in members {
                let side = orient(p, q, x);
                left += usize::from(side != Some(false));
                right += usize::from(side != Some(true));
            }
            let (ux, uy) = (q[0] - p[0], q[1] - p[1]);
            let norm = ux.hypot(uy);
            let normal = [-uy / norm, ux / norm];
            if left >= need {
                out.push(Halfplane { normal, through: p });
            }
            if right >= need {
                let normal = [-normal[0], -normal[1]];
                out.push(Halfplane { normal, through: p });
            }
        }
    }
}

/// Writes into `out` the part of the convex `polygon` inside `plane` (one
/// Sutherland–Hodgman pass).
fn clip(polygon: &[Xy], plane: &Halfplane, out: &mut Vec<Xy>) {
    out.clear();
    for (k, &a) in polygon.iter().enumerate() {
        let b = polygon[(k + 1) % polygon.len()];
        let (sa, sb) = (plane.excess(a), plane.excess(b));
        if sa >= 0.0 {
            out.push(a);
        }
        if (sa >= 0.0) != (sb >= 0.0) {
            let t = sa / (sa - sb);
            out.push([a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]);
        }
    }
}

/// A candidate point of `Γ(members)` for `d = 2`, `f > 0`, where `(lo, hi)`
/// is the trimmed box (`Γ` lies inside it): the first member, in the order
/// given, that the box and every kept halfplane hold within
/// [`DEPTH_SLACK`]; else the mean of the vertices of the box clipped by
/// every kept halfplane; `None` when the clip is empty.
///
/// Members come first because an answer equal to a member lets the next
/// round's queries short-circuit on generator and multiplicity equality.
/// The box closes what the members' lines leave open (all members
/// collinear, say).
pub(crate) fn candidate(members: &[Xy], f: usize, (lo, hi): (&[f64], &[f64])) -> Option<Point> {
    let pairs = members.len() * members.len().saturating_sub(1);
    let mut planes = Vec::with_capacity(pairs);
    halfplanes(members, f, &mut planes);
    let in_box =
        |x: &Xy| (0..2).all(|l| x[l] >= lo[l] - DEPTH_SLACK && x[l] <= hi[l] + DEPTH_SLACK);
    let held = |x: &&Xy| in_box(x) && planes.iter().all(|plane| plane.excess(**x) >= 0.0);
    if let Some(member) = members.iter().find(held) {
        return Some(Point::new(member.to_vec()));
    }
    // Each pass adds at most one vertex; the two buffers take turns.
    let mut polygon = Vec::with_capacity(4 + planes.len());
    polygon.extend([
        [lo[0], lo[1]],
        [hi[0], lo[1]],
        [hi[0], hi[1]],
        [lo[0], hi[1]],
    ]);
    let mut spare = Vec::with_capacity(polygon.capacity());
    for plane in &planes {
        clip(&polygon, plane, &mut spare);
        std::mem::swap(&mut polygon, &mut spare);
        if polygon.is_empty() {
            return None;
        }
    }
    let n = polygon.len() as f64;
    let (sx, sy) = polygon
        .iter()
        .fold((0.0, 0.0), |(sx, sy), v| (sx + v[0], sy + v[1]));
    Some(Point::new(vec![sx / n, sy / n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::tests::biased;
    use crate::family::HullFamily;
    use crate::gamma::{gamma_contains, trimmed_bounds, trimmed_centre};
    use crate::multiset::PointMultiset;
    use proptest::prelude::*;

    fn plane(y: &PointMultiset) -> Vec<Xy> {
        y.iter().map(|p| [p.coord(0), p.coord(1)]).collect()
    }

    #[test]
    fn a_convex_quadrilateral_has_only_its_radon_point_at_depth_two() {
        // Γ with f = 1 is the crossing of the diagonals (0,0)–(2,2) and
        // (2,0)–(0,2), and the members on a diagonal are collinear with it.
        let square = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]];
        assert_eq!(verdict(&square, 1, [1.0, 1.0]), Verdict::Inside);
        // Just off the crossing, the side away from it holds three members.
        assert_eq!(
            verdict(&square, 1, [1.0, 1.0 + 1e-15]),
            Verdict::Outside(vec![0, 1, 2])
        );
        // A corner: its one copy and one neighbour are all a halfplane holds.
        assert_eq!(
            verdict(&square, 1, [0.0, 0.0]),
            Verdict::Outside(vec![1, 2, 3])
        );
        // Two copies of a point survive any one removal.
        let doubled = [[0.0, 0.0], [0.0, 0.0], [5.0, 1.0], [1.0, 5.0]];
        assert_eq!(verdict(&doubled, 1, [0.0, 0.0]), Verdict::Inside);
    }

    #[test]
    fn members_on_the_line_count_on_the_ray_they_lie_on() {
        // Five collinear members and f = 2: only the median is deep enough,
        // and the count sees it only by telling the two rays apart.
        let line: Vec<Xy> = (0..5).map(|i| [i as f64 * 0.1, i as f64 * 0.2]).collect();
        assert_eq!(verdict(&line, 2, line[2]), Verdict::Inside);
        assert_eq!(verdict(&line, 2, line[1]), Verdict::Outside(vec![2, 3, 4]));
        assert_eq!(
            verdict(&line, 2, [0.25, 0.5]),
            Verdict::Outside(vec![0, 1, 2])
        );
        // Off the line by the least step, nothing is deep.
        let off = [0.2, 0.4f64.next_up()];
        assert!(matches!(verdict(&line, 1, off), Verdict::Outside(_)));
    }

    /// The shapes the differential test draws, each from the same raw
    /// coordinates: uniform, [`biased`], a cluster 1e-10 wide, an integer
    /// grid with exact collinearity, and the biased shape with its first
    /// member repeated.
    fn shape(raw: &[Vec<f64>], kinds: &[usize], which: usize) -> PointMultiset {
        let point = |x: f64, y: f64| Point::new(vec![x, y]);
        let points = match which {
            0 => raw.iter().map(|r| point(r[0], r[1])).collect(),
            1 => return biased(raw, kinds, 2),
            2 => raw
                .iter()
                .map(|r| point(0.3 + 1e-10 * r[0], -0.7 + 1e-10 * r[1]))
                .collect(),
            3 => raw
                .iter()
                .map(|r| point(r[0].round(), r[1].round()))
                .collect(),
            _ => {
                let mut points = biased(raw, kinds, 2).points().to_vec();
                let first = points[0].clone();
                points
                    .iter_mut()
                    .step_by(3)
                    .for_each(|p| *p = first.clone());
                points
            }
        };
        PointMultiset::new(points)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The exact depth count against the subset hulls' own membership
        /// test: `Inside` is always accepted; `Outside` names a subset of
        /// the family whose hull, asked first, leaves the family's answer
        /// as it was; and the Γ membership test built on both answers
        /// exactly as the hull stream does.
        #[test]
        fn verdict_agrees_with_the_subset_hulls(
            raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 7),
            kinds in prop::collection::vec(0usize..6, 7),
            which in 0usize..5,
            shift in 0usize..5,
            probe in prop::collection::vec(-2.0f64..2.0, 2),
        ) {
            let offset = [0.0, 1e3, -1e3, 1e6, -1e6][shift];
            let moved = |p: &Point| Point::new(p.coords().iter().map(|c| c + offset).collect());
            let base = shape(&raw, &kinds, which);
            for (y, f) in [
                (PointMultiset::new(base.iter().map(moved).collect()), 2),
                (PointMultiset::new(base.iter().take(4).map(moved).collect()), 1),
                (PointMultiset::new(base.iter().take(5).map(moved).collect()), 1),
            ] {
                let members = plane(&y);
                let (lo, hi) = trimmed_bounds(&y, f);
                let mut queries: Vec<Point> = y.points().to_vec();
                queries.extend(y.points().windows(2).map(Point::centroid));
                queries.push(Point::centroid(y.points()));
                queries.push(trimmed_centre(&lo, &hi));
                queries.push(moved(&Point::new(probe.clone())));
                queries.extend(candidate(&members, f, (&lo, &hi)));
                for z in &queries {
                    let every = HullFamily::gamma(&y, f).all_contain(z);
                    match verdict(&members, f, [z.coord(0), z.coord(1)]) {
                        Verdict::Inside => prop_assert!(every, "{} inside Γ of {:?}, f = {}", z, y, f),
                        Verdict::Outside(keep) => {
                            prop_assert_eq!(keep.len(), y.len() - f);
                            prop_assert!(keep.windows(2).all(|w| w[0] < w[1]), "{:?}", keep);
                            let first = HullFamily::gamma(&y, f).all_contain_from(&keep, z);
                            prop_assert_eq!(first, every, "{} of {:?}, f = {}", z, y, f);
                        }
                    }
                    prop_assert_eq!(gamma_contains(&y, f, z), every, "{} of {:?}, f = {}", z, y, f);
                }
            }
        }
    }
}
