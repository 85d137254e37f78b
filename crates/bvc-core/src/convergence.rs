//! Convergence-rate formulas of the approximate algorithms.
//!
//! The proof of Theorem 5 shows that in every asynchronous round the range of
//! the non-faulty states contracts by at least the factor `1 − γ` per
//! coordinate (equation (12)), where
//!
//! ```text
//! γ = 1 / ( n · C(n, n − f) )          (equation (11))
//! ```
//!
//! and Appendix F's witness optimisation improves this to `γ = 1 / n²`.  The
//! termination rule of the algorithm (Step 3) runs for
//! `1 + ⌈ log_{1/(1−γ)} ((U − ν)/ε) ⌉` rounds.  This module computes those
//! quantities; the facade's `range_stays_under_the_equation_13_envelope`
//! (`tests/convergence_and_budgets.rs`) asserts that the measured per-round
//! range stays under the `(1 − γ)^t` envelope they imply.

use bvc_geometry::combinatorics::binomial;

/// The contraction parameter `γ = 1 / (n · C(n, n−f))` of equation (11).
///
/// # Panics
///
/// Panics if `f >= n` or `n < 2`.
pub fn gamma(n: usize, f: usize) -> f64 {
    assert!(n >= 2, "consensus is trivial for n < 2");
    assert!(f < n, "f must be smaller than n");
    let subsets = binomial(n, n - f) as f64;
    1.0 / (n as f64 * subsets)
}

/// The improved contraction parameter `γ = 1 / n²` obtained with the witness
/// optimisation of Appendix F.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn gamma_witness_optimized(n: usize) -> f64 {
    assert!(n >= 2, "consensus is trivial for n < 2");
    1.0 / (n as f64 * n as f64)
}

/// Conservative per-round contraction parameter assumed by the iterative
/// incomplete-graph protocol's round budget: `γ = 1 / (2n²)`.
///
/// The incomplete-graphs paper proves convergence without a closed-form rate
/// for general graphs (the rate depends on how information mixes across the
/// topology); `1/(2n²)` sits below the complete-graph rates above and is
/// validated empirically by the topology scenarios — sparse-but-sufficient
/// graphs such as seeded random-regular families reach ε-agreement well
/// inside the resulting budget.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn gamma_iterative(n: usize) -> f64 {
    assert!(n >= 2, "consensus is trivial for n < 2");
    1.0 / (2.0 * n as f64 * n as f64)
}

/// The round threshold `1 + ⌈ log_{1/(1−γ)} ((U − ν)/ε) ⌉` of Step 3 of the
/// asynchronous algorithm.
///
/// Returns 1 when the initial range `U − ν` is already within `ε`.
///
/// # Panics
///
/// Panics if `γ ∉ (0, 1)`, `ε ≤ 0`, or `upper < lower`.
pub fn round_threshold(gamma: f64, lower: f64, upper: f64, epsilon: f64) -> usize {
    assert!(gamma > 0.0 && gamma < 1.0, "gamma must lie in (0, 1)");
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(upper >= lower, "upper bound must not be below lower bound");
    let range = upper - lower;
    if range <= epsilon {
        return 1;
    }
    // log_{1/(1-γ)}(range/ε) = ln(range/ε) / ln(1/(1-γ)) = ln(range/ε) / (−ln(1−γ)).
    let rounds = (range / epsilon).ln() / (-(1.0 - gamma).ln());
    1 + rounds.ceil() as usize
}

/// The guaranteed range after `t` rounds starting from `initial_range`:
/// `(1 − γ)^t · initial_range` (equation (13)).
pub fn guaranteed_range(gamma: f64, initial_range: f64, t: usize) -> f64 {
    assert!(gamma > 0.0 && gamma < 1.0, "gamma must lie in (0, 1)");
    (1.0 - gamma).powi(t as i32) * initial_range
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_hand_computation() {
        // n = 4, f = 1: C(4,3) = 4, γ = 1/16.
        assert!((gamma(4, 1) - 1.0 / 16.0).abs() < 1e-12);
        // n = 6, f = 1: C(6,5) = 6, γ = 1/36.
        assert!((gamma(6, 1) - 1.0 / 36.0).abs() < 1e-12);
        // n = 9, f = 2: C(9,7) = 36, γ = 1/324.
        assert!((gamma(9, 2) - 1.0 / 324.0).abs() < 1e-12);
    }

    #[test]
    fn witness_gamma_is_one_over_n_squared() {
        assert!((gamma_witness_optimized(6) - 1.0 / 36.0).abs() < 1e-12);
        assert!((gamma_witness_optimized(9) - 1.0 / 81.0).abs() < 1e-12);
    }

    #[test]
    fn witness_gamma_never_below_full_gamma() {
        // The witness optimisation can only improve (increase) γ, because
        // C(n, n−f) ≥ n for 1 ≤ f ≤ n−1... (equality at f = 1); check a sweep.
        for n in 4..10 {
            for f in 1..(n / 3).max(2) {
                if 3 * f + 1 > n {
                    continue;
                }
                assert!(
                    gamma_witness_optimized(n) >= gamma(n, f) - 1e-15,
                    "n={n}, f={f}"
                );
            }
        }
    }

    #[test]
    fn round_threshold_is_monotone_in_epsilon() {
        let g = gamma(6, 1);
        let coarse = round_threshold(g, 0.0, 1.0, 0.1);
        let fine = round_threshold(g, 0.0, 1.0, 0.001);
        assert!(fine > coarse);
        assert!(coarse >= 1);
    }

    #[test]
    fn round_threshold_when_already_within_epsilon() {
        assert_eq!(round_threshold(0.1, 0.0, 0.5, 1.0), 1);
    }

    #[test]
    fn guaranteed_range_contracts_geometrically() {
        let g = 0.25;
        let after_two = guaranteed_range(g, 8.0, 2);
        assert!((after_two - 8.0 * 0.5625).abs() < 1e-12);
        assert!(guaranteed_range(g, 8.0, 10) < guaranteed_range(g, 8.0, 5));
    }

    #[test]
    fn threshold_guarantees_epsilon() {
        // After `round_threshold` rounds the guaranteed range must be ≤ ε.
        for &(n, f) in &[(4usize, 1usize), (6, 1), (9, 2)] {
            let g = gamma(n, f);
            for &eps in &[0.1, 0.01] {
                let t = round_threshold(g, 0.0, 1.0, eps);
                assert!(
                    guaranteed_range(g, 1.0, t) <= eps * (1.0 + 1e-9),
                    "n={n} f={f} eps={eps}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma must lie in (0, 1)")]
    fn bad_gamma_panics() {
        let _ = round_threshold(1.5, 0.0, 1.0, 0.1);
    }
}
