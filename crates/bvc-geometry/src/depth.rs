//! `Γ(Y)` in the plane as a depth region, with no linear program.
//!
//! A point `x` lies outside a subset hull `H(T)` exactly when some closed
//! halfplane through `x` misses `T`, so `Γ(Y)` is the set of points every
//! closed halfplane around which holds more than `f` members: the Tukey
//! depth-`(f+1)` region, which Lemma 1 keeps non-empty at
//! `|Y| ≥ 3f + 1`.  In the plane its edges lie on lines through two
//! members, so `Γ(Y)` is the intersection of the closed sides of those lines
//! that hold at least `|Y| − f` members.  Any such side contains `Γ(Y)`: the
//! `|Y| − f` members on it span a hull inside it.
//!
//! [`candidate`] proposes a point of that region; the Γ engine accepts it
//! only after the subset hulls' own membership test, so an error here costs
//! a fallback, never a wrong answer.

use crate::multiset::PointMultiset;
use crate::planar::{orient, Xy};
use crate::point::Point;
use crate::tolerance::DEPTH_SLACK;

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

/// The sides of lines through two distinct members (canonical pair order)
/// that hold at least `|Y| − f` members.  A member whose side is not known
/// counts on both, which only adds halfplanes: round-off can shrink the
/// region, never grow it.
fn halfplanes(members: &[Xy], f: usize) -> Vec<Halfplane> {
    let need = members.len() - f;
    let mut out = Vec::new();
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
    out
}

/// The part of the convex `polygon` inside `plane` (one Sutherland–Hodgman
/// pass).
fn clip(polygon: &[Xy], plane: &Halfplane) -> Vec<Xy> {
    let mut out = Vec::with_capacity(polygon.len() + 1);
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
    out
}

/// A candidate point of `Γ(y)` for `d = 2`, `f > 0`, where `(lo, hi)` is
/// the trimmed box (`Γ(y)` lies inside it): the first member, in the order
/// given, that the box and every kept halfplane hold within
/// [`DEPTH_SLACK`]; else the mean of the vertices of the box clipped by
/// every kept halfplane; `None` when the clip is empty.
///
/// Members come first because an answer equal to a member lets the next
/// round's queries short-circuit on generator and multiplicity equality.
/// The box closes what the members' lines leave open (all members
/// collinear, say).
pub(crate) fn candidate(y: &PointMultiset, f: usize, (lo, hi): (&[f64], &[f64])) -> Option<Point> {
    let members: Vec<Xy> = y.iter().map(|p| [p.coord(0), p.coord(1)]).collect();
    let planes = halfplanes(&members, f);
    let in_box =
        |x: &Xy| (0..2).all(|l| x[l] >= lo[l] - DEPTH_SLACK && x[l] <= hi[l] + DEPTH_SLACK);
    let held = |x: &&Xy| in_box(x) && planes.iter().all(|plane| plane.excess(**x) >= 0.0);
    if let Some(member) = members.iter().find(held) {
        return Some(Point::new(member.to_vec()));
    }
    let mut polygon = vec![
        [lo[0], lo[1]],
        [hi[0], lo[1]],
        [hi[0], hi[1]],
        [lo[0], hi[1]],
    ];
    for plane in &planes {
        polygon = clip(&polygon, plane);
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
