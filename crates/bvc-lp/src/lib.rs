//! Dense two-phase simplex linear-programming solver.
//!
//! This crate is a self-contained substrate for the Byzantine vector consensus
//! (BVC) reproduction of Vaidya & Garg (PODC 2013).  Section 2.2 of the paper
//! shows how a decision vector inside the safe area `Γ(S)` can be found "using
//! linear programming"; the paper assumes an LP solver exists.  The allowed
//! dependency set for this reproduction contains no LP crate, so this crate
//! implements the classical **two-phase primal simplex method** on a dense
//! tableau, with the lexicographic leaving rule, which in exact arithmetic
//! cannot revisit a basis.
//!
//! The solver is deliberately small and predictable rather than fast: the LPs
//! produced by the consensus geometry are tiny (tens of variables, tens of
//! constraints for the parameter ranges the paper considers), and determinism
//! matters more than speed because all non-faulty processes must select the
//! *same* point of `Γ(S)`.
//!
//! A solve keeps no state: it lays out the program, allocates its own
//! tableau, runs the phases and drops it, so its answer and its `simplex`
//! trace event depend on the program alone.  A full solve calls its values
//! optimal only when they meet every row of the program within
//! [`FEASIBILITY_TOLERANCE`], scaled to the row's magnitude; otherwise it
//! reports [`SolveStatus::Stalled`].
//!
//! # Example
//!
//! Maximise `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2`, `x, y ≥ 0`:
//!
//! ```
//! use bvc_lp::{LinearProgram, Objective, Relation, SolveStatus};
//!
//! let mut lp = LinearProgram::new(2, Objective::Maximize);
//! lp.set_objective_coefficient(0, 3.0);
//! lp.set_objective_coefficient(1, 2.0);
//! lp.add_constraint(vec![1.0, 1.0], Relation::LessEq, 4.0);
//! lp.add_constraint(vec![1.0, 0.0], Relation::LessEq, 2.0);
//! let solution = lp.solve();
//! assert_eq!(solution.status, SolveStatus::Optimal);
//! assert!((solution.objective_value - 10.0).abs() < 1e-9);
//! assert!((solution.values[0] - 2.0).abs() < 1e-9);
//! assert!((solution.values[1] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod simplex;
mod tableau;

pub use problem::{Constraint, LinearProgram, Objective, Relation, SimplexWorkspace};
pub use simplex::{Solution, SolveStatus};

/// Numerical tolerance used throughout the solver for feasibility and
/// optimality tests.
pub const EPSILON: f64 = 1e-9;

/// Phase 1 ends feasible when its optimum — the summed artificials, i.e. the
/// L1 residual of the constraints — is at most this; anything above is an
/// infeasibility certificate if phase 1 ended optimal, and no verdict at all
/// otherwise.
pub const FEASIBILITY_TOLERANCE: f64 = 1e-7;

/// Pivot elements at or below this are avoided (they amplify rounding
/// error): the ratio tests admit smaller ones, down to [`EPSILON`], only
/// when no row offers a larger one.
pub const PIVOT_TOLERANCE: f64 = 1e-7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_style_example_runs() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(0, 3.0);
        lp.set_objective_coefficient(1, 2.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::LessEq, 4.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::LessEq, 2.0);
        let solution = lp.solve();
        assert_eq!(solution.status, SolveStatus::Optimal);
        assert!((solution.objective_value - 10.0).abs() < 1e-9);
    }
}
