//! `Γ(Y)` in the plane and in space by Tukey depth, with no subset hull.
//!
//! A point `x` lies outside a subset hull `H(T)` exactly when some closed
//! halfspace through `x` misses `T`, so `Γ(Y)` is the set of points every
//! closed halfspace around which holds more than `f` members: the Tukey
//! depth-`(f+1)` region, which Lemma 1 keeps non-empty at
//! `|Y| ≥ (d+1)f + 1`.  Its facets lie on hyperplanes through `d` members,
//! so `Γ(Y)` is the intersection of the closed sides of those hyperplanes
//! that hold at least `|Y| − f` members, cut by the trimmed box.  Any such
//! side contains `Γ(Y)`: the `|Y| − f` members on it span a hull inside it.
//! The strict `d = 2` and `d = 3` Γ engines ask three things of it:
//!
//! * membership.  In the plane, [`Region::contains`] first counts members on
//!   either side of every line through `z` and a member with
//!   [`orient_exact`] ([`verdict`]): `Inside` is a proof that every subset
//!   hull holds `z`.  Past that count, and in space ([`Space::contains`]),
//!   `z` is in `Γ(Y)` when it lies in the box and within the slack of every
//!   kept side, and in space also in the planar regions of its three
//!   coordinate shadows;
//! * the point: a member the region holds (in space only a member it holds
//!   by exact signs), else in the plane the mean of the box clipped by every
//!   side and in space the Chebyshev centre of the widened region, one LP
//!   with four unknowns ([`Space::point`]);
//! * emptiness: an empty clip, or a centre with a negative radius.
//!
//! At `f = 0` no member may be dropped, so the region is the hull of `Y`
//! itself: its kept sides are the hull's supporting sides, and its box the
//! bounding box.  That is how a `d = 2` or `d = 3`
//! [`ConvexHull`](crate::ConvexHull) answers membership (`hull.rs`).
//!
//! [`Region`] holds the kept sides and the box, each widened by the slack
//! its constructor is given (more far from the origin, where a coordinate's
//! rounding is more): [`DEPTH_SLACK`](crate::tolerance::DEPTH_SLACK) for
//! `Γ`, the membership LP's band for a hull.  It works in a frame at the
//! box's low corner.  In the plane the sides are those of member-pair
//! lines, kept by the static filter ([`orient`]; a member whose side is
//! unknown counts on both).  In space they are those of member-triple
//! planes, kept by [`orient3d`]'s exact sign; a `Y` that lies in a plane
//! (or on a line) drops to the planar region of its projection on a
//! coordinate plane ([`Space`]).  Past an edge of dihedral angle `φ` the
//! widened planes of a `Y` that spans `R³` reach `slack / sin(φ/2)`, which
//! the box does not cut short in space (it does at a planar vertex), so a
//! point must also lie in the planar region of each of its three coordinate
//! shadows: the shadow of `Γ(Y)` lies in the planar `Γ` of the shadow of
//! `Y`, with the same `f` and the same box.  Built once per query (once per
//! hull, for a hull), the region answers with no hull; in space its one LP
//! is the centre's.

use crate::multiset::PointMultiset;
use crate::planar::{
    orient, orient3d, orient_exact, plane_normal, plane_sides, PlaneSide, Xy, Xyz,
};
use crate::point::Point;
use bvc_lp::{LinearProgram, Objective, Relation, SolveStatus};
use std::cmp::Ordering;
use std::sync::OnceLock;

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

/// The closed halfspace `{ x : normal · (x − through) ≥ 0 }`, `normal` a
/// unit vector so that its [`Region`]'s slack is a distance, written in
/// that region's frame.
struct Halfspace<const D: usize> {
    normal: [f64; D],
    through: [f64; D],
}

impl<const D: usize> Halfspace<D> {
    /// Signed distance of `x` past the boundary widened by `slack`: `≥ 0`
    /// inside.
    fn excess(&self, x: [f64; D], slack: f64) -> f64 {
        (0..D)
            .map(|l| self.normal[l] * (x[l] - self.through[l]))
            .sum::<f64>()
            + slack
    }
}

/// The depth region of `Y` read on `D` of its coordinates: the trimmed box
/// `[lo, hi]` and the kept sides, each widened by its slack.  In the plane
/// (`D = 2`) the sides are those of lines through two distinct members
/// (canonical pair order) that hold at least `|Y| − f` members; in space
/// [`Space`] finds them.  It finds the sides only when first asked.
///
/// Its frame has `lo` at the origin, as the hull LPs are written relative
/// to a generator: the difference of two nearby coordinates is exact, so
/// the `2τ`-wide strip of a one-point `Γ` keeps its width wherever `Y`
/// lies (at `2^26` an absolute coordinate steps by `1.5e-8`), and a shift
/// of `Y` that is exact leaves every answer of the region unchanged.
///
/// The slack is the one it is built with
/// ([`DEPTH_SLACK`](crate::tolerance::DEPTH_SLACK) for `Γ`), or `4ε` times
/// the box's largest coordinate magnitude where that is more (for
/// `DEPTH_SLACK` past about `1.1e6`; `ε` is [`f64::EPSILON`]): a point the
/// region returns is written back in absolute coordinates, which moves it
/// by up to a rounding of that magnitude, and a narrower band would reject
/// it.
pub(crate) struct Region<const D: usize> {
    f: usize,
    /// The coordinates of `Y` it reads: all of them, or two (the plane a
    /// flat `Y` in space is projected onto, or a coordinate shadow).
    axes: [usize; D],
    lo: [f64; D],
    hi: [f64; D],
    /// How far past a side or a face of the box a point may lie.
    slack: f64,
    /// The members of `Y` on `axes`, in its order.
    members: Vec<[f64; D]>,
    /// The kept sides.
    sides: OnceLock<Vec<Halfspace<D>>>,
}

impl<const D: usize> Region<D> {
    /// The region of `y` read on `axes`, with fault bound `f`, in its
    /// trimmed box `(lo, hi)` (indexed by coordinate, as `axes` is), its
    /// sides and box widened by `slack` (more far from the origin); no side
    /// is found yet.
    pub(crate) fn new(
        y: &PointMultiset,
        f: usize,
        bounds: (&[f64], &[f64]),
        axes: [usize; D],
        slack: f64,
    ) -> Self {
        Self::of(y.iter().map(Point::coords), f, bounds, axes, slack)
    }

    /// [`new`](Self::new) for the members `points`, each indexed by
    /// coordinate.
    fn of<'p>(
        points: impl Iterator<Item = &'p [f64]>,
        f: usize,
        (lo, hi): (&[f64], &[f64]),
        axes: [usize; D],
        slack: f64,
    ) -> Self {
        let (lo, hi) = (axes.map(|l| lo[l]), axes.map(|l| hi[l]));
        let magnitude = lo.iter().chain(&hi).fold(0.0f64, |m, c| m.max(c.abs()));
        Self {
            f,
            axes,
            lo,
            hi,
            slack: slack.max(4.0 * f64::EPSILON * magnitude),
            members: points.map(|p| axes.map(|l| p[l])).collect(),
            sides: OnceLock::new(),
        }
    }

    /// `x` in the region's frame.
    fn local(&self, x: [f64; D]) -> [f64; D] {
        std::array::from_fn(|l| x[l] - self.lo[l])
    }

    /// Whether `x` lies within the slack of the box.
    fn boxes(&self, x: [f64; D]) -> bool {
        (0..D).all(|l| x[l] - self.lo[l] >= -self.slack && x[l] - self.hi[l] <= self.slack)
    }

    /// Whether `x` lies within the slack of every one of `sides`.
    fn within(&self, sides: &[Halfspace<D>], x: [f64; D]) -> bool {
        let x = self.local(x);
        sides.iter().all(|side| side.excess(x, self.slack) >= 0.0)
    }
}

impl Region<2> {
    /// The point of `R³` read on the region's two coordinates.
    fn project(&self, x: Xyz) -> Xy {
        self.axes.map(|l| x[l])
    }

    /// The kept sides.  A member whose side of a line is not known counts
    /// on both, which only adds halfplanes: round-off can shrink the
    /// region, never grow it.
    fn sides(&self) -> &[Halfspace<2>] {
        self.sides.get_or_init(|| {
            let members = &self.members;
            let need = members.len() - self.f;
            let mut sides = Vec::with_capacity(members.len() * (members.len() - 1));
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
                        sides.push(Halfspace { normal, through });
                    }
                    if right >= need {
                        let normal = [-normal[0], -normal[1]];
                        sides.push(Halfspace { normal, through });
                    }
                }
            }
            sides
        })
    }

    /// Whether `z ∈ Γ(Y)` past the multiplicity accept: in the box, and
    /// then `Inside` by the exact depth count (a proof) or within the slack
    /// of every kept side.
    pub(crate) fn contains(&self, z: Xy) -> bool {
        self.boxes(z)
            && (verdict(&self.members, self.f, z) == Verdict::Inside || self.sides_hold(z))
    }

    /// Whether `x` lies within the slack of the box and of every kept side.
    fn holds(&self, x: Xy) -> bool {
        self.boxes(x) && self.sides_hold(x)
    }

    /// Whether `x` lies within the slack of every kept side.
    fn sides_hold(&self, x: Xy) -> bool {
        self.within(self.sides(), x)
    }

    /// A point of the region: the first member, in `Y`'s order, that it
    /// [holds](Self::holds); else the mean of the vertices of the box
    /// clipped by every kept side; `None` when the clip is empty.
    ///
    /// Members come first because an answer equal to a member lets the next
    /// round's queries short-circuit on generator and multiplicity equality.
    /// The box closes what the members' lines leave open (all members
    /// collinear, say).
    pub(crate) fn point(&self) -> Option<Xy> {
        match self.members.iter().find(|&&x| self.holds(x)) {
            Some(&member) => Some(member),
            None => self.clipped(),
        }
    }

    /// The mean of the vertices of the box clipped by every kept side, or
    /// `None` when the clip is empty.
    fn clipped(&self) -> Option<Xy> {
        // Each pass adds at most one vertex; the two buffers take turns.
        let sides = self.sides();
        let mut polygon = Vec::with_capacity(4 + sides.len());
        let top = self.local(self.hi);
        polygon.extend([[0.0, 0.0], [top[0], 0.0], top, [0.0, top[1]]]);
        let mut spare = Vec::with_capacity(polygon.capacity());
        for side in sides {
            clip(&polygon, side, self.slack, &mut spare);
            std::mem::swap(&mut polygon, &mut spare);
            if polygon.is_empty() {
                return None;
            }
        }
        let n = polygon.len() as f64;
        let (sx, sy) = polygon
            .iter()
            .fold((0.0, 0.0), |(sx, sy), v| (sx + v[0], sy + v[1]));
        Some([self.lo[0] + sx / n, self.lo[1] + sy / n])
    }
}

/// Writes into `out` the part of the convex `polygon` inside `side`
/// widened by `slack` (one Sutherland–Hodgman pass).
fn clip(polygon: &[Xy], side: &Halfspace<2>, slack: f64, out: &mut Vec<Xy>) {
    out.clear();
    for (k, &a) in polygon.iter().enumerate() {
        let b = polygon[(k + 1) % polygon.len()];
        let (sa, sb) = (side.excess(a, slack), side.excess(b, slack));
        if sa >= 0.0 {
            out.push(a);
        }
        if (sa >= 0.0) != (sb >= 0.0) {
            let t = sa / (sa - sb);
            out.push([a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]);
        }
    }
}

/// The depth region of a `Y` in `R³`.  When `Y` spans `R³` its sides are
/// those of planes through three distinct, non-collinear members (canonical
/// triple order) that hold at least `|Y| − f` members by [`orient3d`]'s
/// exact sign, a member on the plane counting on both; with the trimmed box
/// they bound `Γ(Y)` as the member lines do in the plane.  When `Y` lies in
/// a plane, every such plane is that one and bounds nothing inside it, so
/// the region is the slab of `Y`'s plane and the planar region of `Y`
/// projected on the coordinate plane that leaves out the largest component
/// of its normal ([`Flat`]); a collinear `Y` is put in a plane through its
/// line first.  When `Y` spans `R³` its three coordinate shadows' planar
/// regions (module docs) hold the region too.
pub(crate) struct Space {
    /// The box, the slack, the members and the sides (the slab when flat).
    region: Region<3>,
    /// `Y`'s plane and its projection, when `Y` does not span `R³` (boxed:
    /// rare, and a planar region of its own).
    flat: OnceLock<Option<Box<Flat>>>,
    /// The member-triple sides, exactly, when `Y` spans `R³`.
    member_sides: OnceLock<Vec<PlaneSide>>,
    /// The planar regions of `Y` read on coordinates `(1, 2)`, `(0, 2)` and
    /// `(0, 1)` (boxed: three regions of their own).
    shadows: OnceLock<Box<[Region<2>; 3]>>,
}

/// A plane holding every member of `Y`, and the planar region of `Y`
/// projected along the coordinate axis its normal has most of.  That
/// projection maps the plane onto the coordinate plane one to one, so it
/// maps `Γ(Y)` onto the planar `Γ` of the projection; it only drops a
/// coordinate, so every orientation sign the planar region asks is exact.
struct Flat {
    /// A member on the plane.
    through: Xyz,
    /// The plane's unit normal.
    normal: Xyz,
    /// The coordinate the projection drops.
    drop: usize,
    planar: Region<2>,
}

impl Flat {
    /// The point of the plane whose projection is `x`.
    fn lift(&self, x: Xy) -> Xyz {
        let [a, b] = self.planar.axes;
        let (n, t) = (self.normal, self.through);
        let mut lifted = [0.0; 3];
        (lifted[a], lifted[b]) = (x[0], x[1]);
        lifted[self.drop] =
            t[self.drop] - (n[a] * (x[0] - t[a]) + n[b] * (x[1] - t[b])) / n[self.drop];
        lifted
    }
}

impl Space {
    /// The region of `y` (three-dimensional) with fault bound `f` in its
    /// trimmed box `(lo, hi)`, widened by `slack` as [`Region::new`]
    /// widens; no side is found yet.
    pub(crate) fn new(y: &PointMultiset, f: usize, bounds: (&[f64], &[f64]), slack: f64) -> Self {
        Self {
            region: Region::new(y, f, bounds, [0, 1, 2], slack),
            flat: OnceLock::new(),
            member_sides: OnceLock::new(),
            shadows: OnceLock::new(),
        }
    }

    /// The planar region of `Y` read on `axes`, with this one's `f`, box
    /// and slack.
    fn planar(&self, axes: [usize; 2]) -> Region<2> {
        let region = &self.region;
        let members = region.members.iter().map(|m| &m[..]);
        let bounds = (&region.lo[..], &region.hi[..]);
        Region::of(members, region.f, bounds, axes, region.slack)
    }

    /// The planar regions of `Y`'s three coordinate shadows.
    fn shadows(&self) -> &[Region<2>; 3] {
        self.shadows
            .get_or_init(|| Box::new([[1, 2], [0, 2], [0, 1]].map(|axes| self.planar(axes))))
    }

    /// `Y`'s plane and projection, or `None` when `Y` spans `R³` (or is one
    /// point, whose box is the region).
    fn flat(&self) -> Option<&Flat> {
        self.flat
            .get_or_init(|| {
                let region = &self.region;
                let (through, normal) = plane_of(&region.members)?;
                let drop = (0..3).fold(0, |m, l| {
                    if normal[l].abs() > normal[m].abs() {
                        l
                    } else {
                        m
                    }
                });
                let axes = match drop {
                    0 => [1, 2],
                    1 => [0, 2],
                    _ => [0, 1],
                };
                Some(Box::new(Flat {
                    through,
                    normal,
                    drop,
                    planar: self.planar(axes),
                }))
            })
            .as_deref()
    }

    /// The kept sides: the member-triple sides, or the slab of a flat `Y`'s
    /// plane.
    fn sides(&self) -> &[Halfspace<3>] {
        self.region.sides.get_or_init(|| match self.flat() {
            Some(flat) => {
                let through = self.region.local(flat.through);
                let normal = flat.normal;
                vec![
                    Halfspace { normal, through },
                    Halfspace {
                        normal: normal.map(|c| -c),
                        through,
                    },
                ]
            }
            None => self
                .member_sides()
                .iter()
                .map(|side| Halfspace {
                    normal: unit(side.normal),
                    through: self.region.local(side.plane[0]),
                })
                .collect(),
        })
    }

    /// The closed sides of planes through three distinct, non-collinear
    /// members that hold at least `|Y| − f` members by exact sign, in
    /// canonical triple order.
    fn member_sides(&self) -> &[PlaneSide] {
        self.member_sides
            .get_or_init(|| plane_sides(&self.region.members, self.region.f))
    }

    /// Whether `z ∈ Γ(Y)` past the multiplicity accept: in the box, within
    /// the slack of every kept side and in each shadow's planar region; for
    /// a flat `Y`, within the slack of its plane and in the planar region of
    /// the projection (whose box is this one's on its two coordinates).
    pub(crate) fn contains(&self, z: Xyz) -> bool {
        match self.flat() {
            None => {
                self.region.boxes(z)
                    && self.region.within(self.sides(), z)
                    && (self.shadows().iter()).all(|shadow| shadow.contains(shadow.project(z)))
            }
            Some(flat) => {
                self.region.within(self.sides(), z) && flat.planar.contains(flat.planar.project(z))
            }
        }
    }

    /// Whether the member `m` is in `Γ(Y)`, proved by exact signs alone: in
    /// the box and on the kept side of every member plane (or on it); for a
    /// flat `Y`, `Inside` by the planar depth count of the projection.
    fn proves(&self, m: Xyz) -> bool {
        let region = &self.region;
        match self.flat() {
            Some(flat) => {
                verdict(&flat.planar.members, region.f, flat.planar.project(m)) == Verdict::Inside
            }
            None => {
                (0..3).all(|l| region.lo[l] <= m[l] && m[l] <= region.hi[l])
                    && self.member_sides().iter().all(|side| {
                        let [p, q, r] = side.plane;
                        side.plane.contains(&m)
                            || matches!(orient3d(p, q, r, m), o if o == side.sign || o.is_eq())
                    })
            }
        }
    }

    /// A point of `Γ(Y)`: the first member, in `Y`'s order, that it holds by
    /// exact signs ([`proves`](Self::proves)); else, for a flat `Y`, the
    /// planar region's clipped mean lifted onto `Y`'s plane; else the
    /// Chebyshev centre of the widened region ([`centre`]).  `None` when the
    /// centre's radius is negative: `Γ(Y)` is empty.
    ///
    /// A non-empty `Γ(Y)` leaves every point of it at least the slack from
    /// each widened side, so the centre's radius is at least the slack and
    /// the centre lies inside every side unwidened: in `Γ(Y)` up to the
    /// rounding of the sides, even when `Γ(Y)` is flat or one point.  A
    /// member is returned only on proof, since one just outside `Γ(Y)` by
    /// rounding is still within the slack.
    pub(crate) fn point(&self) -> Option<Xyz> {
        if let Some(&member) = self.region.members.iter().find(|&&m| self.proves(m)) {
            return Some(member);
        }
        if let Some(flat) = self.flat() {
            return flat.planar.clipped().map(|x| flat.lift(x));
        }
        let region = &self.region;
        let x = centre(self.sides(), region.local(region.hi), region.slack)?;
        let x = std::array::from_fn(|l| region.lo[l] + x[l]);
        self.contains(x).then_some(x)
    }
}

/// The plane of a `Y` that does not span `R³`, as a member on it and its
/// unit normal: that of the first non-collinear triple through the first
/// two distinct members when every member is on it by exact sign, and for
/// a collinear `Y` the plane through its line and the coordinate axis its
/// direction has least of.  `None` when `Y` spans `R³` or is one point.
fn plane_of(members: &[Xyz]) -> Option<(Xyz, Xyz)> {
    let p = members[0];
    let q = *members.iter().find(|&&q| q != p)?;
    let spanning = members.iter().find_map(|&r| {
        let normal = plane_normal(p, q, r);
        (normal != [0.0; 3]).then_some((r, normal))
    });
    match spanning {
        Some((r, normal)) => members
            .iter()
            .all(|&x| orient3d(p, q, r, x) == Ordering::Equal)
            .then(|| (p, unit(normal))),
        None => {
            let u = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
            let least = (0..3).fold(0, |m, l| if u[l].abs() < u[m].abs() { l } else { m });
            // `u × e_least`: each component is a coordinate of `u` or zero.
            let mut normal = [0.0; 3];
            normal[(least + 1) % 3] = u[(least + 2) % 3];
            normal[(least + 2) % 3] = -u[(least + 1) % 3];
            Some((p, unit(normal)))
        }
    }
}

/// `n` scaled to unit length, by its largest component first so that no
/// square overflows or underflows.
fn unit(n: Xyz) -> Xyz {
    let largest = n.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    let scaled = n.map(|c| c / largest);
    let length = scaled.iter().map(|c| c * c).sum::<f64>().sqrt();
    scaled.map(|c| c / length)
}

/// The Chebyshev centre of the box `[0, top]` cut by `sides`, each widened
/// by `slack`: one LP in the region's frame over `x` (free) and a radius
/// `r`, maximising `r` subject to `n · x + r ≤ b + slack` for every side and
/// box face `n · x ≤ b` (unit `n`).  `None` when the greatest `r` is
/// negative, which means the widened region, hence `Γ(Y)`, is empty.  Its
/// rows are read off the sides alone, which are written relative to the
/// box's low corner, so no row carries an absolute coordinate.
///
/// The unknowns are written from the box's centre `c`, where every row
/// holds once `r` is low enough: `x − c` and `r − r₀ ≥ 0`, `r₀` the least
/// room any row leaves at `c`.  Every right-hand side is then non-negative,
/// so the simplex starts at `x = c` from the slack basis with no phase 1
/// and no artificial variable, and only climbs.
fn centre(sides: &[Halfspace<3>], top: Xyz, slack: f64) -> Option<Xyz> {
    let c = top.map(|t| t / 2.0);
    // Each row as `−n · (x − c) + r ≤ room`, `room` what it leaves at `c`;
    // both faces of the box along `l` leave `c_l`.
    let mut rows: Vec<(Xyz, f64)> = sides
        .iter()
        .map(|side| {
            let n = side.normal;
            let room = (0..3).map(|l| n[l] * (c[l] - side.through[l])).sum::<f64>();
            (n, slack + room)
        })
        .collect();
    for l in 0..3 {
        for sign in [1.0, -1.0] {
            let mut n = [0.0; 3];
            n[l] = sign;
            rows.push((n, slack + c[l]));
        }
    }
    let floor = rows.iter().fold(0.0f64, |m, &(_, room)| m.min(room));
    let mut lp = LinearProgram::new(4, Objective::Maximize);
    lp.set_objective_coefficient(3, 1.0);
    for l in 0..3 {
        lp.mark_free(l);
    }
    for (n, room) in rows {
        lp.add_constraint(
            vec![-n[0], -n[1], -n[2], 1.0],
            Relation::LessEq,
            room - floor,
        );
    }
    let solution = lp.solve();
    let radius = floor + solution.values[3];
    (solution.status == SolveStatus::Optimal && radius >= 0.0)
        .then(|| [0, 1, 2].map(|l| c[l] + solution.values[l]))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::combinatorics::Combinations;
    use crate::family::joint_candidate;
    use crate::family::tests::biased;
    use crate::gamma::{
        canonical_order, gamma_contains, gamma_point, trimmed_bounds, trimmed_centre,
    };
    use crate::hull::ConvexHull;
    use crate::point::Point;
    use crate::tolerance::DEPTH_SLACK;
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
        let region = Region::new(&y, 1, (&lo, &hi), [0, 1], DEPTH_SLACK);
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
    pub(crate) fn distance_to_hull(members: &[Xy], z: Xy) -> f64 {
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
                if let Some(p) = Region::new(&y, f, (&lo, &hi), [0, 1], DEPTH_SLACK).point() {
                    let p = Point::new(p.to_vec());
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

    /// The spatial shapes the `d = 3` differential test draws, from the same
    /// ten raw points: uniform, [`biased`], a half-unit grid, the benchmark
    /// workload's eight uniform points plus a doubled origin, a cluster
    /// 1e-10 wide, eight members on a plane plus two off it, all on that
    /// plane, and all on a line.  The plane and the line are exact: their
    /// members lie on the grid `2^-10 · Z`, where the plane's equation and
    /// an integer shift are exact.
    fn spatial_shape(raw: &[Vec<f64>], kinds: &[usize], which: usize) -> Vec<Xyz> {
        let grid = |c: f64| (c * 1024.0).round() / 1024.0;
        let on_plane = |r: &Vec<f64>| {
            let (x, y) = (grid(r[0]), grid(r[1]));
            [x, y, (x + 2.0 * y) / 4.0 + 0.5]
        };
        raw.iter()
            .enumerate()
            .map(|(i, r)| match which {
                0 => [r[0], r[1], r[2]],
                1 => {
                    let p = biased(raw, kinds, 3).point(i).coords().to_vec();
                    [p[0], p[1], p[2]]
                }
                2 => [0, 1, 2].map(|l| (2.0 * r[l]).round() / 2.0),
                3 if i >= 8 => [0.0; 3],
                3 => [0, 1, 2].map(|l| r[l].abs() / 2.0),
                4 => [0, 1, 2].map(|l| 0.3 + 1e-10 * r[l]),
                5 if i >= 8 => [r[0], r[1], r[2]],
                5 | 6 => on_plane(r),
                _ => {
                    let t = grid(r[0]);
                    [t, 0.5 - 2.0 * t, 0.25 * t]
                }
            })
            .collect()
    }

    fn multiset(points: &[Xyz]) -> PointMultiset {
        PointMultiset::new(points.iter().map(|p| Point::new(p.to_vec())).collect())
    }

    /// The distance from `z` to the hull of `members` in `R³`, measured
    /// with no LP: 0 when the tetrahedron of some four members holds `z` by
    /// exact signs, else the least distance to a triangle of three members
    /// (the hull's boundary is a union of them), each worked out relative
    /// to its first corner.
    pub(crate) fn distance_to_spatial_hull(members: &[Xyz], z: Xyz) -> f64 {
        let n = members.len();
        let sub = |a: Xyz, b: Xyz| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        let dot = |a: Xyz, b: Xyz| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let to_segment = |a: Xyz, b: Xyz| {
            let (u, v) = (sub(b, a), sub(z, a));
            let length = dot(u, u);
            let t = if length > 0.0 {
                (dot(v, u) / length).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let w = [v[0] - t * u[0], v[1] - t * u[1], v[2] - t * u[2]];
            dot(w, w).sqrt()
        };
        let mut nearest = f64::INFINITY;
        for i in 0..n {
            for j in i..n {
                for k in j..n {
                    let [a, b, c] = [members[i], members[j], members[k]];
                    let mut best = to_segment(a, b).min(to_segment(b, c)).min(to_segment(a, c));
                    // Inside the triangle's projection: the distance to its plane.
                    let (u, v, w) = (sub(b, a), sub(c, a), sub(z, a));
                    let normal = [
                        u[1] * v[2] - u[2] * v[1],
                        u[2] * v[0] - u[0] * v[2],
                        u[0] * v[1] - u[1] * v[0],
                    ];
                    let area = dot(normal, normal);
                    if area > 0.0 {
                        let (uu, uv, vv, wu, wv) =
                            (dot(u, u), dot(u, v), dot(v, v), dot(w, u), dot(w, v));
                        let det = uu * vv - uv * uv;
                        let (s, t) = ((vv * wu - uv * wv) / det, (uu * wv - uv * wu) / det);
                        if s >= 0.0 && t >= 0.0 && s + t <= 1.0 {
                            best = best.min(dot(w, normal).abs() / area.sqrt());
                        }
                    }
                    nearest = nearest.min(best);
                    for &d in &members[k..] {
                        let faces = [(a, b, c, d), (a, b, d, c), (a, c, d, b), (b, c, d, a)];
                        let inside = faces.iter().all(|&(p, q, r, o)| {
                            let inner = orient3d(p, q, r, o);
                            inner.is_ne() && orient3d(p, q, r, z) != inner.reverse()
                        });
                        if inside {
                            return 0.0;
                        }
                    }
                }
            }
        }
        nearest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The spatial depth region against the subset hulls, `|Y| = 9` and
        /// `10`, `f = 2`, on every [`spatial_shape`] at offsets 0, ±1e3 and
        /// ±1e6: at `(d+1)f + 1` and above a point is always found, Γ's own
        /// membership accepts it, and so does every subset hull's
        /// `ConvexHull::contains` outright: each side of a subset hull's
        /// region at `f = 0` is a side of Γ's, its box holds Γ's trimmed
        /// box, and its band is the wider one.  A point it rejects is a bug.
        /// For
        /// one shape a case, at the origin and `|Y| = 9`, the all-hulls joint
        /// LP of Section 2.2 is the oracle: when it ends `Optimal` or
        /// `Infeasible`, emptiness agrees.
        #[test]
        fn the_spatial_region_answers_inside_every_subset_hull(
            raw in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 10),
            kinds in prop::collection::vec(0usize..6, 10),
            oracle_shape in 0usize..8,
        ) {
            for which in 0..8 {
                let base = spatial_shape(&raw, &kinds, which);
                for offset in [0.0, 1e3, -1e3, 1e6, -1e6] {
                    for len in [9, 10] {
                        let moved: Vec<Xyz> = base[..len].iter().map(|p| p.map(|c| c + offset)).collect();
                        let y = canonical_order(&multiset(&moved));
                        let found = gamma_point(&y, 2);
                        let hulls: Vec<ConvexHull> =
                            y.subsets_of_size(len - 2).into_iter().map(ConvexHull::new).collect();
                        if which == oracle_shape && offset == 0.0 && len == 9 {
                            let refs: Vec<&ConvexHull> = hulls.iter().collect();
                            let (status, _) = joint_candidate(&refs);
                            if matches!(status, SolveStatus::Optimal | SolveStatus::Infeasible) {
                                prop_assert_eq!(
                                    found.is_some(), status == SolveStatus::Optimal,
                                    "shape {}: the joint LP says {:?} for {:?}", which, status, y
                                );
                            }
                        }
                        let p = found.unwrap_or_else(|| panic!("shape {which}: no point above the bound for {y:?}"));
                        prop_assert!(gamma_contains(&y, 2, &p), "shape {}: {} fails its own test", which, p);
                        for hull in &hulls {
                            prop_assert!(
                                hull.contains(&p),
                                "shape {}, offset {}: {:?} leaves the hull of {:?} in Γ of {:?}", which, offset, p, hull.generators(), y
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_one_point_gamma_in_space_is_its_member() {
        // m lies inside the tetrahedron of the other four, so Γ with f = 1
        // is {m}: the four hulls with m have it as a vertex and their cones
        // there meet only at m.  One ulp towards the origin along every
        // coordinate is outside the hull of {0, a, b, m} by exact sign.
        let m = [0.8, 0.1, 0.3];
        let members = [
            [0.0; 3],
            [0.2, 0.9, 0.8],
            [0.4, 0.8, 0.0],
            m,
            [0.9, 0.0, 0.3],
        ];
        let y = multiset(&members);
        assert_eq!(gamma_point(&y, 1), Some(Point::new(m.to_vec())));
        let off = m.map(f64::next_down);
        let hull = [members[0], members[1], members[2], m];
        let outside = (0..4).any(|i| {
            let others: Vec<Xyz> = (0..4).filter(|&j| j != i).map(|j| hull[j]).collect();
            let inner = orient3d(others[0], others[1], others[2], hull[i]);
            orient3d(others[0], others[1], others[2], off) == inner.reverse()
        });
        assert!(outside, "{off:?} is in the hull of {hull:?}");
    }

    #[test]
    fn a_flat_y_in_space_drops_to_the_planar_region() {
        // Seven members on the plane z = (x + 2y)/4 + 1/2, f = 2: Γ is the
        // planar Γ of the projection lifted onto the plane, and the point
        // the region returns is on it and in every subset hull.
        let raw: Vec<Vec<f64>> = (0..7)
            .map(|k| {
                let t = 2.0 * std::f64::consts::PI * f64::from(k) / 7.0;
                vec![t.cos(), t.sin(), 0.0]
            })
            .collect();
        let flat = spatial_shape(&raw, &[0; 7], 6);
        let y = multiset(&flat);
        let p = gamma_point(&y, 2).expect("the heptagon's inner region");
        let on_plane = (p.coord(0) + 2.0 * p.coord(1)) / 4.0 + 0.5;
        assert!((p.coord(2) - on_plane).abs() <= 1e-12, "{p}");
        for subset in y.subsets_of_size(5) {
            assert!(ConvexHull::new(subset).contains(&p), "{p}");
        }
        // Off the plane by more than the slack, nothing is in Γ.
        let lifted = Point::new(vec![p.coord(0), p.coord(1), p.coord(2) + 1e-6]);
        assert!(!gamma_contains(&y, 2, &lifted));
        // A collinear Y: Γ is the middle of the line's members.
        let line: Vec<Xyz> = (0..5)
            .map(|i| [f64::from(i), 0.5 - 2.0 * f64::from(i), 0.25 * f64::from(i)])
            .collect();
        let y = multiset(&line);
        assert_eq!(gamma_point(&y, 2), Some(Point::new(line[2].to_vec())));
        assert!(!gamma_contains(
            &y,
            2,
            &Point::new(vec![2.0, -3.5, 0.5 + 1e-6])
        ));
    }
}
