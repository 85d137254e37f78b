//! `Γ(Y)` in the plane by Tukey depth, with no hull and no linear program.
//!
//! A point `x` lies outside a subset hull `H(T)` exactly when some closed
//! halfplane through `x` misses `T`, so `Γ(Y)` is the set of points every
//! closed halfplane around which holds more than `f` members: the Tukey
//! depth-`(f+1)` region, which Lemma 1 keeps non-empty at `|Y| ≥ 3f + 1`.
//! In the plane its edges lie on lines through two members, so `Γ(Y)` is
//! the intersection of the closed sides of those lines that hold at least
//! `|Y| − f` members, cut by the trimmed box.  Any such side contains
//! `Γ(Y)`: the `|Y| − f` members on it span a hull inside it.  The strict
//! `d = 2` Γ engine asks two things of it:
//!
//! * [`verdict`]: is `z` in it?  Exactly, by counting members on either side
//!   of every line through `z` and a member with [`orient_exact`]: `Inside`
//!   is a proof that every subset hull holds `z`.
//! * [`Region`]: the kept sides and the box, each widened by
//!   [`DEPTH_SLACK`] (more far from the origin, where a coordinate's
//!   rounding is more), in a frame at the box's low corner.  Built once per
//!   query, it rejects what its box misses ([`Region::boxes`]), answers
//!   membership where the count says `Outside` ([`Region::sides_hold`]),
//!   and gives a point of `Γ(Y)`, or none when `Γ(Y)` is empty
//!   ([`Region::point`]).

use crate::multiset::PointMultiset;
use crate::planar::{orient, orient_exact, Xy};
use crate::point::Point;
use crate::tolerance::DEPTH_SLACK;
use std::cell::OnceCell;
use std::cmp::Ordering;

/// What the depth count says about a point of the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every closed halfplane through the point holds more than `f`
    /// members: the point is in `Γ(Y)`.
    Inside,
    /// Some closed halfplane through the point holds at most `f` members:
    /// the hull of the others misses it.
    Outside,
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
/// copies of `z`.
pub(crate) fn verdict(members: &[Xy], f: usize, z: Xy) -> Verdict {
    let copies = members.iter().filter(|&&x| x == z).count();
    let shallow = members.iter().enumerate().any(|(i, &o)| {
        if o == z || members[..i].contains(&o) {
            return false;
        }
        let (mut sides, mut rays) = ([0; 2], [0; 2]);
        for &x in members.iter().filter(|&&x| x != z) {
            match place(z, o, x) {
                Place::Side(s) => sides[s] += 1,
                Place::Ray(r) => rays[r] += 1,
            }
        }
        copies + sides[0].min(sides[1]) + rays[0].min(rays[1]) <= f
    });
    match shallow {
        true => Verdict::Outside,
        false => Verdict::Inside,
    }
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
/// unit vector so that its [`Region`]'s slack is a distance, written in
/// that region's frame.
struct Halfplane {
    normal: Xy,
    through: Xy,
}

impl Halfplane {
    /// Signed distance of `x` past the boundary widened by `slack`: `≥ 0`
    /// inside.
    fn excess(&self, x: Xy, slack: f64) -> f64 {
        self.normal[0] * (x[0] - self.through[0])
            + self.normal[1] * (x[1] - self.through[1])
            + slack
    }
}

/// The depth region of `Y`: the trimmed box `[lo, hi]` and the sides of
/// lines through two distinct members (canonical pair order) that hold at
/// least `|Y| − f` members, each widened by its slack.  It reads `Y` as
/// plane points, and finds the sides, only when first asked.
///
/// Its frame has `lo` at the origin, as the hull LPs are written relative
/// to a generator: the difference of two nearby coordinates is exact, so
/// the `2τ`-wide strip of a one-point `Γ` keeps its width wherever `Y`
/// lies (at `2^26` an absolute coordinate steps by `1.5e-8`), and a shift
/// of `Y` that is exact leaves every answer of the region unchanged.
///
/// The slack is [`DEPTH_SLACK`], or `4ε` times the box's largest coordinate
/// magnitude where that is more (past about `1.1e6`; `ε` is
/// [`f64::EPSILON`]): a point the region returns is written back in
/// absolute coordinates, which moves it by up to a rounding of that
/// magnitude, and a narrower band would reject it.
pub(crate) struct Region<'a> {
    y: &'a PointMultiset,
    f: usize,
    lo: Xy,
    hi: Xy,
    /// How far past a side or a face of the box a point may lie.
    slack: f64,
    /// The members of `y` as plane points, in its order.
    members: OnceCell<Vec<Xy>>,
    /// The kept sides.
    planes: OnceCell<Vec<Halfplane>>,
}

impl<'a> Region<'a> {
    /// The region of the planar `y` with fault bound `f` in its trimmed box
    /// `(lo, hi)`; nothing is computed yet.
    pub(crate) fn new(y: &'a PointMultiset, f: usize, (lo, hi): (&[f64], &[f64])) -> Self {
        let magnitude = [lo[0], lo[1], hi[0], hi[1]]
            .iter()
            .fold(0.0f64, |m, c| m.max(c.abs()));
        Self {
            y,
            f,
            lo: [lo[0], lo[1]],
            hi: [hi[0], hi[1]],
            slack: DEPTH_SLACK.max(4.0 * f64::EPSILON * magnitude),
            members: OnceCell::new(),
            planes: OnceCell::new(),
        }
    }

    /// The members of `Y` as plane points, in its order.
    pub(crate) fn members(&self) -> &[Xy] {
        self.members
            .get_or_init(|| self.y.iter().map(|p| [p.coord(0), p.coord(1)]).collect())
    }

    /// `x` in the region's frame.
    fn local(&self, x: Xy) -> Xy {
        [x[0] - self.lo[0], x[1] - self.lo[1]]
    }

    /// The kept sides.  A member whose side of a line is not known counts
    /// on both, which only adds halfplanes: round-off can shrink the
    /// region, never grow it.
    fn planes(&self) -> &[Halfplane] {
        self.planes.get_or_init(|| {
            let members = self.members();
            let need = members.len() - self.f;
            let mut planes = Vec::with_capacity(members.len() * (members.len() - 1));
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
                    let through = self.local(p);
                    if left >= need {
                        planes.push(Halfplane { normal, through });
                    }
                    if right >= need {
                        let normal = [-normal[0], -normal[1]];
                        planes.push(Halfplane { normal, through });
                    }
                }
            }
            planes
        })
    }

    /// Whether `x` lies within the slack of the box and of every kept side.
    fn holds(&self, x: Xy) -> bool {
        self.boxes(x) && self.sides_hold(x)
    }

    /// Whether `x` lies within the slack of the box.
    pub(crate) fn boxes(&self, x: Xy) -> bool {
        (0..2).all(|l| x[l] - self.lo[l] >= -self.slack && x[l] - self.hi[l] <= self.slack)
    }

    /// Whether `x` lies within the slack of every kept side.
    pub(crate) fn sides_hold(&self, x: Xy) -> bool {
        let x = self.local(x);
        self.planes()
            .iter()
            .all(|plane| plane.excess(x, self.slack) >= 0.0)
    }

    /// A point of the region: the first member, in `Y`'s order, that it
    /// [holds](Self::holds); else the mean of the vertices of the box
    /// clipped by every kept side; `None` when the clip is empty.
    ///
    /// Members come first because an answer equal to a member lets the next
    /// round's queries short-circuit on generator and multiplicity equality.
    /// The box closes what the members' lines leave open (all members
    /// collinear, say).
    pub(crate) fn point(&self) -> Option<Point> {
        if let Some(member) = self.members().iter().find(|&&x| self.holds(x)) {
            return Some(Point::new(member.to_vec()));
        }
        // Each pass adds at most one vertex; the two buffers take turns.
        let planes = self.planes();
        let mut polygon = Vec::with_capacity(4 + planes.len());
        let top = self.local(self.hi);
        polygon.extend([[0.0, 0.0], [top[0], 0.0], top, [0.0, top[1]]]);
        let mut spare = Vec::with_capacity(polygon.capacity());
        for plane in planes {
            clip(&polygon, plane, self.slack, &mut spare);
            std::mem::swap(&mut polygon, &mut spare);
            if polygon.is_empty() {
                return None;
            }
        }
        let n = polygon.len() as f64;
        let (sx, sy) = polygon
            .iter()
            .fold((0.0, 0.0), |(sx, sy), v| (sx + v[0], sy + v[1]));
        Some(Point::new(vec![self.lo[0] + sx / n, self.lo[1] + sy / n]))
    }
}

/// Writes into `out` the part of the convex `polygon` inside `plane`
/// widened by `slack` (one Sutherland–Hodgman pass).
fn clip(polygon: &[Xy], plane: &Halfplane, slack: f64, out: &mut Vec<Xy>) {
    out.clear();
    for (k, &a) in polygon.iter().enumerate() {
        let b = polygon[(k + 1) % polygon.len()];
        let (sa, sb) = (plane.excess(a, slack), plane.excess(b, slack));
        if sa >= 0.0 {
            out.push(a);
        }
        if (sa >= 0.0) != (sb >= 0.0) {
            let t = sa / (sa - sb);
            out.push([a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::Combinations;
    use crate::family::tests::biased;
    use crate::gamma::{gamma_contains, trimmed_bounds, trimmed_centre};
    use bvc_lp::FEASIBILITY_TOLERANCE;
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
        assert_eq!(verdict(&square, 1, [1.0, 1.0 + 1e-15]), Verdict::Outside);
        // A corner: its one copy and one neighbour are all a halfplane holds.
        assert_eq!(verdict(&square, 1, [0.0, 0.0]), Verdict::Outside);
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
        assert_eq!(verdict(&line, 2, line[1]), Verdict::Outside);
        assert_eq!(verdict(&line, 2, [0.25, 0.5]), Verdict::Outside);
        // Off the line by the least step, nothing is deep.
        let off = [0.2, 0.4f64.next_up()];
        assert_eq!(verdict(&line, 1, off), Verdict::Outside);
    }

    #[test]
    fn past_a_sharp_vertex_of_a_subset_hull_the_trimmed_box_rejects() {
        // The hull of {v, a, b} has a vertex at v with an angle θ = 1e-3
        // about the direction u, and c lies behind v, so v ∈ Γ with f = 1.
        // Behind v along u, the sides through v (widened by τ) reach
        // τ / sin(θ/2) = 2e-6 past it, twenty times FEASIBILITY_TOLERANCE.
        // The trimmed box cuts them short: three members lie ahead of v in
        // x, so its lower x face is v's own, and an accepted point stays
        // within a few τ of v, hence of every subset hull.
        let (phi, theta) = (0.7f64, 1e-3);
        let v = [0.3, 0.6];
        let at = |angle: f64, r: f64| [v[0] + r * angle.cos(), v[1] + r * angle.sin()];
        let members = [
            v,
            at(phi + theta / 2.0, 1.0),
            at(phi - theta / 2.0, 1.0),
            at(phi + std::f64::consts::PI + 2e-4, 1.0),
        ];
        let y = PointMultiset::new(members.iter().map(|m| Point::new(m.to_vec())).collect());
        let (lo, hi) = trimmed_bounds(&y, 1);
        assert_eq!(lo[0], v[0]);
        let region = Region::new(&y, 1, (&lo, &hi));
        let reach = DEPTH_SLACK / (theta / 2.0).sin();
        for k in 0..=40 {
            let s = reach * 0.99 * 0.7f64.powi(k);
            let z = at(phi + std::f64::consts::PI, s);
            assert!(region.sides_hold(z), "{s:e} behind v: outside a side");
            let accepted = gamma_contains(&y, 1, &Point::new(z.to_vec()));
            assert_eq!(accepted, region.boxes(z), "{s:e} behind v");
            if accepted {
                assert!(s <= 3.0 * DEPTH_SLACK, "{s:e} behind v accepted");
            }
        }
        assert!(gamma_contains(&y, 1, &Point::new(v.to_vec())));
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

    /// The distance from `z` to the hull of `members`, measured without a
    /// linear program: 0 when the exact depth count with `f = 0` puts `z`
    /// inside it, else the distance to the nearest segment between two
    /// members (the nearest point of the hull lies on an edge).
    fn distance_to_hull(members: &[Xy], z: Xy) -> f64 {
        if verdict(members, 0, z) == Verdict::Inside {
            return 0.0;
        }
        let to_segment = |a: Xy, b: Xy| {
            let (ux, uy) = (b[0] - a[0], b[1] - a[1]);
            let length = ux * ux + uy * uy;
            let along = ux * (z[0] - a[0]) + uy * (z[1] - a[1]);
            let t = if length > 0.0 {
                (along / length).clamp(0.0, 1.0)
            } else {
                0.0
            };
            (z[0] - a[0] - t * ux).hypot(z[1] - a[1] - t * uy)
        };
        let mut nearest = f64::INFINITY;
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i..] {
                nearest = nearest.min(to_segment(a, b));
            }
        }
        nearest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Γ membership against the subset hulls, both measured exactly: a
        /// point the exact depth count calls `Inside` is accepted, and a
        /// point `gamma_contains` accepts lies within
        /// `FEASIBILITY_TOLERANCE` (the membership LP's own band) of every
        /// subset hull.  Queries: the members, midpoints of consecutive
        /// members, the centroid, the trimmed centre, a probe, the depth
        /// region's point, and 1e-10 to 1e-6 off that point in sixteen
        /// directions.
        #[test]
        fn gamma_accepts_every_inside_point_and_only_points_near_every_subset_hull(
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
                if let Some(p) = Region::new(&y, f, (&lo, &hi)).point() {
                    for k in 0..16 {
                        let (sin, cos) = (f64::from(k) * std::f64::consts::PI / 8.0).sin_cos();
                        for step in [1e-10, 1e-9, 1e-8, 1e-7, 1e-6] {
                            let off = [p.coord(0) + step * cos, p.coord(1) + step * sin];
                            queries.push(Point::new(off.to_vec()));
                        }
                    }
                    queries.push(p);
                }
                let mut subsets = Combinations::new(y.len(), y.len() - f);
                let mut hulls: Vec<Vec<Xy>> = Vec::new();
                while let Some(subset) = subsets.next_ref() {
                    hulls.push(subset.iter().map(|&i| members[i]).collect());
                }
                for z in &queries {
                    let xy = [z.coord(0), z.coord(1)];
                    let accepted = gamma_contains(&y, f, z);
                    if verdict(&members, f, xy) == Verdict::Inside {
                        prop_assert!(accepted, "{} inside Γ of {:?}, f = {}, rejected", z, y, f);
                    }
                    if accepted {
                        for hull in &hulls {
                            let distance = distance_to_hull(hull, xy);
                            prop_assert!(
                                distance <= FEASIBILITY_TOLERANCE,
                                "{} accepted {:e} from the hull of {:?}: Γ of {:?}, f = {}",
                                z, distance, hull, y, f
                            );
                        }
                    }
                }
            }
        }
    }
}
