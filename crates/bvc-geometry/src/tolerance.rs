//! Every tolerance the `f64` geometry path compares under, in one table.
//!
//! The solver underneath (`bvc-lp`) has three thresholds of its own, and each
//! constant here is placed relative to them:
//!
//! | solver threshold | value | decides |
//! |---|---|---|
//! | [`bvc_lp::EPSILON`] | 1e-9 | reduced cost `< −ε` enters, entries `≤ ε` are zero (ratio ties are exact: the lexicographic rule) |
//! | [`bvc_lp::PIVOT_TOLERANCE`] | 1e-7 | a pivot element must exceed it (else the tiny-pivot fallback) |
//! | [`bvc_lp::FEASIBILITY_TOLERANCE`] | 1e-7 | phase-1 optimum (the L1 residual of the constraints) above it ⇒ infeasible (a phase 1 that did not end optimal ⇒ stalled); a full solve whose values miss a row `a · x ≷ b` by more than it times `max(1, \|b\|, Σ \|aᵢxᵢ\|)` ⇒ stalled |
//!
//! A hull-membership or joint LP therefore *accepts* a point whose residual
//! is at most `1e-7`.  The fast paths around the solver must never contradict
//! that answer: an **accept** short-circuit compares far *below*
//! `FEASIBILITY_TOLERANCE` (and below `EPSILON`), a **reject** short-circuit
//! strictly *above* it, and a closed form that replaces the LP *at* it.
//!
//! | constant | value | inequality it guards | relative to the solver |
//! |---|---|---|---|
//! | [`GENERATOR_EQ_TOLERANCE`] | 1e-12 | `‖p − g‖∞ ≤ τ` ⇒ `p ∈ H(T)` for a generator `g`, and `p ∈ Γ(Y)` when it holds for more than `f` members `g` of `Y` | accept: below `EPSILON` |
//! | [`D1_TOLERANCE`] | 1e-7 | `d = 1`: `Γ ≠ ∅` ⇔ `lo ≤ hi + τ`; `c ∈ Γ` ⇔ `lo − τ ≤ c ≤ hi + τ` | replaces the LP: equals `FEASIBILITY_TOLERANCE` (two intervals a gap `g` apart give a phase-1 optimum of `g`) |
//! | [`HULL_TOLERANCE`], through [`reject_margin`] | 1e-6 | a supporting line with normal `e` has `p` beyond it by more than `reject_margin(\|e\|)`, i.e. a distance `τ` ⇒ `p ∉ H(T)` without an LP, wherever the line lies.  The lines: each face of a `d ≥ 4` hull's bounding box and of the `d ≥ 4` trimmed box (`e` a unit axis), and each coordinate of the witness check `Σ αᵢgᵢ` against `p` (a box around `p`) | reject: the membership LP's residual is then at least `τ`, ten times `FEASIBILITY_TOLERANCE`.  Both LPs are written relative to a generator `o` (`Σ αᵢ(gᵢ − o) = p − o`), and phase 1 lets the weights fall short of 1 but not exceed it, which pulls the combination towards `o`, a point of the hull: what the LP reaches lies in the hull, and `p` is within its L1 residual of that |
//! | `d ≤ 3` hull: `FEASIBILITY_TOLERANCE` itself | 1e-7; at `d = 2, 3` `4ε·max(\|lo\|, \|hi\|)` where more | `p ∈ H(T)` ⇔ `p` within `τ` (a Euclidean distance) of every supporting side and box face: at `d = 1` the box `[lo − τ, hi + τ]`; at `d = 2` the depth region of `T` at `f = 0` (member-pair supporting lines and the bounding box); at `d = 3` that region in space (member-triple supporting planes and the planar regions of its three coordinate shadows, which cut short what the widened planes reach past a sharp edge; a flat `T` as its plane's slab and planar region).  Built once per hull | replaces the LP at its own threshold.  The LP's L1 residual and this distance differ only within a few `τ` of the hull; no LP runs.  `Γ(T)` at `f = 0` is the same region under `DEPTH_SLACK`, so it holds less only within this band outside the hull |
//! | Shewchuk's `ccwerrboundA` (`planar.rs`) | 3.33e-16 | an orientation determinant `l − r` whose magnitude exceeds it times `\|l\| + \|r\|` has its computed sign; the planar depth region keeps a member-pair line's side by it (a member whose sign is unknown counts on both) | keep: certain |
//! | the exact stage of `orient_exact` (`planar.rs`) | none: exact | runs only after the static bound above leaves a sign unsure, and sums the determinant exactly from its sixteen error-free product terms.  `d = 2` Γ membership counts members on each side of every line through `p` and a member by it: every closed halfplane through `p` holding more than `f` members ⇒ `p ∈ Γ(Y)` without a hull | accept: exact (`p` is in every subset hull, so no hull test rejects it); an `Outside` count goes to the depth region below |
//! | Shewchuk's `o3derrboundA` (`planar.rs`) | 7.77e-16 | a triple product `((q − p) × (r − p)) · (x − p)` computed in `f64` from rounded differences has its computed sign when its magnitude exceeds this times its permanent (the same sum with every product's absolute value); else `orient3d`'s exact stage sums its at most 192 error-free terms (three-factor products of two-term differences).  The spatial depth region keeps a member-triple plane's side by it, for `Γ(Y)` and for a `d = 3` hull | keep: exact.  A kept side is a closed side holding at least `\|Y\| − f` members, so it contains `Γ(Y)` |
//! | [`WEIGHT_SUM_TOLERANCE`] | 1e-6 | `\|Σ w − 1\| < τ` for convex-combination weights | input check; solver weights sum to 1 within `FEASIBILITY_TOLERANCE` |
//! | [`NEGATIVE_WEIGHT_TOLERANCE`] | 1e-9 | `w ≥ −τ` for each weight | input check at `EPSILON`; weights read off the solver are clamped to `≥ 0` before they get here |
//! | [`DEPTH_SLACK`] | 1e-9, or `4ε·max(\|lo\|, \|hi\|)` where more | `d = 2` and `d = 3` depth regions (the kept member halfplanes, or member-triple halfspaces, and the trimmed box `[lo, hi]`): a point within `τ` (a distance: unit normals) of every one is in it.  The second term (`ε` the `f64` epsilon) passes `τ` only past about `1.1e6`, where the rounding of the region's own point back to absolute coordinates is more than `1e-9`; below that `τ` is exactly `1e-9`.  It is the accept rule of `d = 2` Γ membership past the exact depth count and of all `d = 3` Γ membership (with the planar regions of the three coordinate shadows, by the same `τ`), its point is the strict `d = 2` answer, and an empty region is an empty `Γ`.  In space the strict answer is a member the region holds by exact signs (no slack), else the Chebyshev centre of the region widened by `τ`: a non-empty `Γ` gives it a radius of at least `τ`, so it lies inside every side unwidened, and a negative radius is an empty `Γ` | replaces the LP for `d ≤ 3` Γ: a hundredth of `FEASIBILITY_TOLERANCE`, so an accepted point lies within that band of every subset hull.  Past a subset hull's vertex of angle `θ` the widened sides reach `τ / sin(θ/2)` (in space `θ` is the narrowest angle of the vertex's cone), but the trimmed box cuts that short: the hull's `\|Y\| − f` members lie ahead of the vertex in the coordinate nearest its bisector, so that face of the box is at the vertex and the reach is a few `τ` (`depth.rs` tests measure both in the plane, with no LP).  A flat `Y` in space is the slab of its plane, `τ` either side, and the planar region of its projection on a coordinate plane, whose distances are at least `1/√3` of the plane's |
//! | [`DEFAULT_TOLERANCE`] | 1e-7 | default `τ` of [`Point::approx_eq`](crate::Point::approx_eq) for callers | none: not read by any engine |
//!
//! Nothing here is settable; the orderings above are checked at compile time
//! below.

use bvc_lp::{EPSILON, FEASIBILITY_TOLERANCE};

/// The reject rule's scale; read it only through [`reject_margin`].
pub const HULL_TOLERANCE: f64 = 1e-6;

/// How far a point may lie beyond a supporting line of a hull, measured in
/// units of the line's normal (`scale` its length), before it is certainly
/// outside: every reject short-circuit compares against this, and nothing
/// else; see the [table](self).
pub fn reject_margin(scale: f64) -> f64 {
    HULL_TOLERANCE * scale
}

/// Slack of the `d = 2` and `d = 3` depth regions, Γ's accept rule in the
/// plane and in space, near the origin (far from it the region widens it to
/// its coordinates' rounding); see the [table](self).
pub const DEPTH_SLACK: f64 = 1e-9;

/// Default tolerance used by approximate comparisons of points.
pub const DEFAULT_TOLERANCE: f64 = 1e-7;

/// The `d = 1` closed-form interval tests; see the [table](self).
pub const D1_TOLERANCE: f64 = 1e-7;

/// A query point this close to a hull generator, or to a member of `Y`, is a
/// copy of it.
pub const GENERATOR_EQ_TOLERANCE: f64 = 1e-12;

/// Convex-combination weights must sum to 1 within this.
pub const WEIGHT_SUM_TOLERANCE: f64 = 1e-6;

/// A convex-combination weight may undershoot zero by at most this.
pub const NEGATIVE_WEIGHT_TOLERANCE: f64 = 1e-9;

const _: () = assert!(
    GENERATOR_EQ_TOLERANCE < EPSILON
        && D1_TOLERANCE == FEASIBILITY_TOLERANCE
        && FEASIBILITY_TOLERANCE < HULL_TOLERANCE
        && NEGATIVE_WEIGHT_TOLERANCE == EPSILON
        && DEPTH_SLACK < FEASIBILITY_TOLERANCE
);
