//! Problem description types for the simplex solver.
//!
//! A [`LinearProgram`] is built incrementally: create it with the number of
//! decision variables and an optimisation [`Objective`], set objective
//! coefficients, and add [`Constraint`]s.  All decision variables are
//! non-negative by default; free (unbounded-below) variables can be declared
//! with [`LinearProgram::mark_free`], in which case the solver internally
//! splits them into a difference of two non-negative variables.

use crate::simplex::{solve_two_phase, Solution, SolveMode, SolveStatus};
use crate::workspace::{with_thread_workspace, SimplexWorkspace};

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimise the objective function.
    Minimize,
    /// Maximise the objective function.
    Maximize,
}

/// Relation between the left-hand side of a constraint and its right-hand
/// side constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `lhs ≤ rhs`
    LessEq,
    /// `lhs = rhs`
    Equal,
    /// `lhs ≥ rhs`
    GreaterEq,
}

/// A single linear constraint `coefficients · x  <relation>  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Coefficient of every decision variable (length = number of variables).
    pub coefficients: Vec<f64>,
    /// The relation between the weighted sum and the right-hand side.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// A linear program over real decision variables.
///
/// Variables are indexed `0..num_variables`.  Every variable is constrained to
/// be non-negative unless it has been marked free via
/// [`LinearProgram::mark_free`].
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_variables: usize,
    objective: Objective,
    objective_coefficients: Vec<f64>,
    constraints: Vec<Constraint>,
    free: Vec<bool>,
}

impl LinearProgram {
    /// Creates an empty linear program with `num_variables` non-negative
    /// decision variables and a zero objective.
    ///
    /// # Panics
    ///
    /// Panics if `num_variables == 0`.
    pub fn new(num_variables: usize, objective: Objective) -> Self {
        assert!(
            num_variables > 0,
            "a linear program needs at least one variable"
        );
        Self {
            num_variables,
            objective,
            objective_coefficients: vec![0.0; num_variables],
            constraints: Vec::new(),
            free: vec![false; num_variables],
        }
    }

    /// Returns the number of decision variables.
    pub fn num_variables(&self) -> usize {
        self.num_variables
    }

    /// Returns the number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Returns the optimisation direction.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Returns the objective coefficient vector.
    pub fn objective_coefficients(&self) -> &[f64] {
        &self.objective_coefficients
    }

    /// Returns the constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Returns `true` if variable `var` has been marked as free.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn is_free(&self, var: usize) -> bool {
        self.free[var]
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coefficient(&mut self, var: usize, coefficient: f64) -> &mut Self {
        assert!(
            var < self.num_variables,
            "variable index {var} out of range"
        );
        self.objective_coefficients[var] = coefficient;
        self
    }

    /// Marks variable `var` as *free*: allowed to take any real value rather
    /// than being restricted to non-negative values.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn mark_free(&mut self, var: usize) -> &mut Self {
        assert!(
            var < self.num_variables,
            "variable index {var} out of range"
        );
        self.free[var] = true;
        self
    }

    /// Adds the constraint `coefficients · x <relation> rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len()` differs from the number of variables, or
    /// if any coefficient or the right-hand side is not finite.
    pub fn add_constraint(
        &mut self,
        coefficients: Vec<f64>,
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        assert_eq!(
            coefficients.len(),
            self.num_variables,
            "constraint has {} coefficients but the program has {} variables",
            coefficients.len(),
            self.num_variables
        );
        assert!(
            coefficients.iter().all(|c| c.is_finite()) && rhs.is_finite(),
            "constraint coefficients and right-hand side must be finite"
        );
        self.constraints.push(Constraint {
            coefficients,
            relation,
            rhs,
        });
        self
    }

    /// Solves the linear program with the two-phase simplex method, using the
    /// calling thread's shared [`SimplexWorkspace`] for tableau buffers.
    ///
    /// The returned [`Solution`] carries a [`SolveStatus`](crate::SolveStatus)
    /// of `Optimal`, `Infeasible` or `Unbounded`; when optimal, `values` holds
    /// one optimal assignment of the decision variables (in their original
    /// indexing, with free variables already recombined).
    pub fn solve(&self) -> Solution {
        with_thread_workspace(|ws| solve_two_phase(self, ws, SolveMode::Full))
    }

    /// Like [`LinearProgram::solve`], but leasing tableau buffers from an
    /// explicitly supplied workspace (useful for benchmarks and long-lived
    /// engines that want to control buffer reuse).
    pub fn solve_with(&self, workspace: &mut SimplexWorkspace) -> Solution {
        solve_two_phase(self, workspace, SolveMode::Full)
    }

    /// Decides feasibility only: runs phase 1 of the two-phase method and
    /// stops, skipping the user objective and witness extraction.  Returns
    /// [`SolveStatus::Optimal`] when a feasible point exists and
    /// [`SolveStatus::Infeasible`] otherwise.
    pub fn solve_feasibility(&self) -> SolveStatus {
        with_thread_workspace(|ws| solve_two_phase(self, ws, SolveMode::FeasibilityOnly).status)
    }

    /// Like [`LinearProgram::solve_feasibility`], with an explicit workspace.
    pub fn solve_feasibility_with(&self, workspace: &mut SimplexWorkspace) -> SolveStatus {
        solve_two_phase(self, workspace, SolveMode::FeasibilityOnly).status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveStatus;

    #[test]
    fn new_program_has_zero_objective() {
        let lp = LinearProgram::new(3, Objective::Minimize);
        assert_eq!(lp.num_variables(), 3);
        assert_eq!(lp.num_constraints(), 0);
        assert_eq!(lp.objective_coefficients(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn zero_variables_panics() {
        let _ = LinearProgram::new(0, Objective::Minimize);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn objective_coefficient_out_of_range_panics() {
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(5, 1.0);
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn wrong_constraint_arity_panics() {
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.add_constraint(vec![1.0], Relation::Equal, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_constraint_panics() {
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.add_constraint(vec![f64::NAN], Relation::Equal, 1.0);
    }

    #[test]
    fn free_variable_flag_round_trips() {
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        assert!(!lp.is_free(1));
        lp.mark_free(1);
        assert!(lp.is_free(1));
        assert!(!lp.is_free(0));
    }

    #[test]
    fn trivial_feasibility_program() {
        // No constraints, minimise x0: optimum is x0 = 0.
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.values[0].abs() < 1e-9);
    }
}
