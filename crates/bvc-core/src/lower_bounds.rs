//! Executable versions of the paper's impossibility constructions.
//!
//! The necessity halves of Theorems 1 and 4 are proved with explicit
//! adversarial input configurations.  This module materialises those
//! configurations so the facade's `tests/lower_bound_constructions.rs` can
//! *assert* the impossibility numerically rather than merely cite it:
//!
//! * **Theorem 1** (`n ≥ (d+1)f + 1` needed for Exact BVC, synchronous): with
//!   `n = d + 1` processes and `f = 1`, inputs `e_1, …, e_d, 0` (standard
//!   basis plus the origin) make the intersection of the leave-one-out hulls
//!   `∩_i H(X_i)` empty — no decision vector can satisfy agreement and
//!   validity simultaneously.
//! * **Theorem 4** (`n ≥ (d+2)f + 1` needed for Approximate BVC,
//!   asynchronous): with `n = d + 2` and `f = 1`, inputs `4ε·e_i` for
//!   `i ≤ d` and `0` for the last two processes force each process `p_i`
//!   (`i ≤ d+1`) to decide exactly its own input, so two decisions differ by
//!   `4ε` in some coordinate and ε-agreement fails.

use bvc_geometry::{leave_one_out_intersection, ConvexHull, Point, PointMultiset};

/// The Theorem 1 input configuration for dimension `d`: the `d` standard
/// basis vectors followed by the origin (`n = d + 1` points).
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn theorem1_inputs(d: usize) -> PointMultiset {
    assert!(d > 0, "dimension must be positive");
    let mut points: Vec<Point> = (0..d).map(|i| Point::standard_basis(d, i)).collect();
    points.push(Point::origin(d));
    PointMultiset::new(points)
}

/// Result of evaluating the Theorem 1 construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem1Evidence {
    /// Number of processes in the construction (`d + 1`).
    pub n: usize,
    /// Whether the intersection of the leave-one-out hulls is empty (the
    /// theorem says it must be for this input configuration).
    pub intersection_empty: bool,
    /// A point of the intersection when it is non-empty (counter-evidence;
    /// never produced for the paper's construction).
    pub witness: Option<Point>,
}

/// Evaluates the Theorem 1 construction for dimension `d`: checks whether any
/// vector could simultaneously satisfy validity with respect to every
/// candidate non-faulty set of `n − 1` processes.
pub fn theorem1_evidence(d: usize) -> Theorem1Evidence {
    let inputs = theorem1_inputs(d);
    let witness = leave_one_out_intersection(&inputs);
    Theorem1Evidence {
        n: d + 1,
        intersection_empty: witness.is_none(),
        witness,
    }
}

/// A control configuration with `n = d + 2` processes (the basis vectors, the
/// origin, and the barycentre of the basis), for which the leave-one-out
/// intersection is non-empty — showing that the emptiness in
/// [`theorem1_evidence`] is a property of the construction, not of the
/// machinery.
pub fn theorem1_control_inputs(d: usize) -> PointMultiset {
    assert!(d > 0, "dimension must be positive");
    let mut points: Vec<Point> = (0..d).map(|i| Point::standard_basis(d, i)).collect();
    points.push(Point::origin(d));
    points.push(Point::uniform(d, 1.0 / (d as f64 + 1.0)));
    PointMultiset::new(points)
}

/// The Theorem 4 input configuration for dimension `d` and agreement
/// parameter `ε`: `x_i = 4ε·e_i` for `1 ≤ i ≤ d`, and `x_{d+1} = x_{d+2} = 0`
/// (`n = d + 2` points).
///
/// # Panics
///
/// Panics if `d == 0` or `epsilon <= 0`.
pub fn theorem4_inputs(d: usize, epsilon: f64) -> PointMultiset {
    assert!(d > 0, "dimension must be positive");
    assert!(epsilon > 0.0, "epsilon must be positive");
    let mut points: Vec<Point> = (0..d)
        .map(|i| Point::standard_basis(d, i).scale(4.0 * epsilon))
        .collect();
    points.push(Point::origin(d));
    points.push(Point::origin(d));
    PointMultiset::new(points)
}

/// Result of evaluating the Theorem 4 construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorem4Evidence {
    /// Number of processes in the construction (`d + 2`).
    pub n: usize,
    /// For each process `p_i`, `1 ≤ i ≤ d + 1`: whether the admissible
    /// decision region (equation (6)) collapses to the process's own input.
    pub forced_to_own_input: Vec<bool>,
    /// The maximum L∞ distance between two forced decisions — the paper shows
    /// this is `4ε`, violating ε-agreement.
    pub max_pairwise_distance: f64,
    /// The ε used.
    pub epsilon: f64,
}

impl Theorem4Evidence {
    /// `true` when the construction indeed forces an ε-agreement violation:
    /// every admissible region collapses and two decisions are further apart
    /// than ε.
    pub fn violates_epsilon_agreement(&self) -> bool {
        self.forced_to_own_input.iter().all(|&b| b) && self.max_pairwise_distance > self.epsilon
    }
}

/// Evaluates the Theorem 4 construction: for each process `p_i`
/// (`1 ≤ i ≤ d+1`), intersects the convex hulls `H(X_i^j)` over all
/// `j ≠ i, j ≤ d+1` (equation (6)), where `X_i^j` drops both `x_j` and
/// `x_{d+2}`, and checks that the only admissible decision is `x_i` itself.
pub fn theorem4_evidence(d: usize, epsilon: f64) -> Theorem4Evidence {
    let inputs = theorem4_inputs(d, epsilon);
    let mut forced = Vec::with_capacity(d + 1);
    let mut forced_points: Vec<Point> = Vec::with_capacity(d + 1);
    for i in 0..=d {
        // Admissible region of p_{i+1}: ∩_{j ≠ i, j ≤ d} H({x_k : k ≤ d, k ≠ j}).
        let hulls: Vec<ConvexHull> = (0..=d)
            .filter(|&j| j != i)
            .map(|j| {
                let indices: Vec<usize> = (0..=d).filter(|&k| k != j).collect();
                ConvexHull::new(inputs.select(&indices))
            })
            .collect();
        let own_input = inputs.point(i).clone();
        // The intersection must contain the process's own input...
        let contains_own = hulls.iter().all(|h| h.contains(&own_input));
        // ...and nothing that differs from it: check that the intersection's
        // every point coincides with the input by asking the LP for a common
        // point and comparing, and additionally verifying that no other input
        // point is admissible.
        let common = ConvexHull::common_point(&hulls);
        let collapses = match &common {
            Some(p) => p.approx_eq(&own_input, 1e-6),
            None => false,
        };
        let no_other_input_admissible = (0..=d)
            .filter(|&k| k != i)
            .all(|k| !hulls.iter().all(|h| h.contains(inputs.point(k))));
        forced.push(contains_own && collapses && no_other_input_admissible);
        forced_points.push(own_input);
    }
    let mut max_distance: f64 = 0.0;
    for i in 0..forced_points.len() {
        for j in (i + 1)..forced_points.len() {
            max_distance = max_distance.max(forced_points[i].linf_distance(&forced_points[j]));
        }
    }
    Theorem4Evidence {
        n: d + 2,
        forced_to_own_input: forced,
        max_pairwise_distance: max_distance,
        epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The constructions' claims (Theorem 1's empty intersection and feasible
    // control, Theorem 4's forced 4ε-apart decisions) are asserted by the
    // facade's tests/lower_bound_constructions.rs; these pin input shapes.

    #[test]
    fn theorem1_inputs_are_the_standard_basis_plus_origin() {
        let inputs = theorem1_inputs(3);
        assert_eq!(inputs.len(), 4);
        assert_eq!(inputs.point(0).coords(), &[1.0, 0.0, 0.0]);
        assert_eq!(inputs.point(3).coords(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn theorem4_inputs_shape() {
        let inputs = theorem4_inputs(2, 0.5);
        assert_eq!(inputs.len(), 4);
        assert_eq!(inputs.point(0).coords(), &[2.0, 0.0]);
        assert_eq!(inputs.point(1).coords(), &[0.0, 2.0]);
        assert_eq!(inputs.point(2).coords(), &[0.0, 0.0]);
        assert_eq!(inputs.point(3).coords(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn theorem4_rejects_nonpositive_epsilon() {
        let _ = theorem4_inputs(2, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn theorem1_rejects_zero_dimension() {
        let _ = theorem1_inputs(0);
    }
}
