//! Dense simplex tableau with the lexicographic anti-cycling pivot rule.
//!
//! The tableau stores the constraint matrix in *canonical form*: every row has
//! an associated basic variable whose column is a unit vector, and the last
//! column holds the (non-negative) right-hand side.  One extra row at the
//! bottom holds the reduced costs of the objective currently being minimised.
//!
//! The data lives in one contiguous row-major buffer that each tableau
//! allocates for itself, and the pivot elimination walks whole row slices
//! instead of per-element `get`/`set` calls, which is what lets the
//! compiler vectorise the inner loop.

use crate::{EPSILON, PIVOT_TOLERANCE};

/// Result of running the simplex iterations on a tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotOutcome {
    /// An optimal basic feasible solution has been reached.
    Optimal,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The iteration cap was reached before optimality: the current basic
    /// solution is feasible but nothing about the optimum is certified.
    Stalled,
}

/// A dense simplex tableau: `rows` constraint rows plus one objective row.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// Number of constraint rows.
    rows: usize,
    /// Number of structural columns (excluding the RHS column).
    cols: usize,
    /// Row-major data: `(rows + 1) x (cols + 1)`; the last row is the
    /// objective row and the last column is the RHS.
    data: Vec<f64>,
    /// `basis[r]` is the column index of the basic variable of row `r`.
    basis: Vec<usize>,
    /// Pivots performed on this tableau (all phases), for solve profiling.
    pivots: u64,
}

impl Tableau {
    /// Creates a tableau of `rows` constraint rows and `cols` structural
    /// columns, all zeros, with an (invalid) all-zero basis that the caller
    /// must fill in.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; (rows + 1) * (cols + 1)],
            basis: vec![0; rows],
            pivots: 0,
        }
    }

    /// Pivots performed so far (all phases).
    pub(crate) fn pivots(&self) -> u64 {
        self.pivots
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Row stride: structural columns plus the RHS column.
    #[inline]
    fn stride(&self) -> usize {
        self.cols + 1
    }

    /// Constraint row `row` (including its RHS entry) as a mutable slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [f64] {
        let stride = self.stride();
        &mut self.data[row * stride..(row + 1) * stride]
    }

    #[inline]
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.stride() + col]
    }

    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize, value: f64) {
        let i = row * self.stride() + col;
        self.data[i] = value;
    }

    /// Right-hand side of constraint row `row`.
    #[inline]
    pub(crate) fn rhs(&self, row: usize) -> f64 {
        self.get(row, self.cols)
    }

    /// Sets the right-hand side of constraint row `row`.
    #[inline]
    pub(crate) fn set_rhs(&mut self, row: usize, value: f64) {
        let c = self.cols;
        self.set(row, c, value);
    }

    /// Reduced cost of column `col` in the objective row.
    #[inline]
    pub(crate) fn objective_coefficient(&self, col: usize) -> f64 {
        self.get(self.rows, col)
    }

    /// Sets the reduced cost of column `col` in the objective row.
    #[inline]
    pub(crate) fn set_objective_coefficient(&mut self, col: usize, value: f64) {
        let r = self.rows;
        self.set(r, col, value);
    }

    /// Current value of the objective (negated RHS of the objective row, by
    /// the usual tableau convention the objective row stores `-z`).
    #[inline]
    pub(crate) fn objective_value(&self) -> f64 {
        -self.get(self.rows, self.cols)
    }

    /// The column currently basic in constraint row `row`.
    #[inline]
    pub(crate) fn basic_column(&self, row: usize) -> usize {
        self.basis[row]
    }

    /// Declares column `col` basic in row `row` (without pivoting; the caller
    /// is responsible for the column actually being a unit vector).
    #[inline]
    pub(crate) fn set_basic(&mut self, row: usize, col: usize) {
        self.basis[row] = col;
    }

    /// Value of structural variable `col` in the current basic solution.
    pub(crate) fn variable_value(&self, col: usize) -> f64 {
        for row in 0..self.rows {
            if self.basis[row] == col {
                return self.rhs(row);
            }
        }
        0.0
    }

    /// Eliminates the objective-row entries of all basic columns so that the
    /// objective row expresses reduced costs with respect to the current
    /// basis.  Used once after loading a new objective into the bottom row.
    pub(crate) fn price_out_basis(&mut self) {
        let stride = self.stride();
        for row in 0..self.rows {
            let col = self.basis[row];
            let coeff = self.objective_coefficient(col);
            if coeff.abs() > EPSILON {
                let (constraint_rows, objective_row) = self.data.split_at_mut(self.rows * stride);
                let source = &constraint_rows[row * stride..(row + 1) * stride];
                for (obj, &v) in objective_row.iter_mut().zip(source) {
                    if v != 0.0 {
                        *obj -= coeff * v;
                    }
                }
            }
        }
    }

    /// Performs a single pivot on `(pivot_row, pivot_col)`: scales the pivot
    /// row so the pivot element becomes `1` and eliminates the pivot column
    /// from every other row (including the objective row), walking contiguous
    /// row slices.
    pub(crate) fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        self.pivots += 1;
        let stride = self.stride();
        let pivot_element = self.get(pivot_row, pivot_col);
        debug_assert!(
            pivot_element.abs() > EPSILON,
            "pivot element must be non-zero"
        );
        // Scale the pivot row in place.
        {
            let prow = self.row_mut(pivot_row);
            if pivot_element != 1.0 {
                let inv = 1.0 / pivot_element;
                for v in prow.iter_mut() {
                    *v *= inv;
                }
            }
            prow[pivot_col] = 1.0;
        }
        // Eliminate the pivot column from every other row (objective row
        // included) with slice arithmetic: split the buffer around the pivot
        // row so its slice can be borrowed alongside the targets.
        let (before, rest) = self.data.split_at_mut(pivot_row * stride);
        let (prow, after) = rest.split_at_mut(stride);
        for target in before
            .chunks_exact_mut(stride)
            .chain(after.chunks_exact_mut(stride))
        {
            let factor = target[pivot_col];
            if factor.abs() <= EPSILON {
                // Clamp tiny residuals to exactly zero for numerical hygiene.
                target[pivot_col] = 0.0;
                continue;
            }
            for (t, &p) in target.iter_mut().zip(prow.iter()) {
                *t -= factor * p;
            }
            target[pivot_col] = 0.0;
        }
        self.basis[pivot_row] = pivot_col;
    }

    /// Runs simplex iterations (minimisation) until optimality or
    /// unboundedness.  The entering column is the lowest-index one below
    /// `eligible` with a negative reduced cost (the artificial columns come
    /// last, so phase 2 keeps them out by stopping short of them); the
    /// leaving row is chosen by the lexicographic ratio test
    /// ([`Tableau::leaving_lexicographic`]) against the basis at entry.  That
    /// basis is an identity over a non-negative RHS, so every row starts
    /// lex-positive, the objective row rises strictly in lexicographic order
    /// with each pivot, and in exact arithmetic no basis is ever revisited.
    ///
    /// The iteration cap is the backstop for rounding error; reaching it
    /// returns [`PivotOutcome::Stalled`], whose basic solution proves
    /// nothing about the optimum.
    pub(crate) fn run_simplex(&mut self, eligible: usize) -> PivotOutcome {
        debug_assert!(eligible <= self.cols);
        let stride = self.stride();
        let ref_cols = self.basis.clone();
        let max_iterations = 1000 + 50 * (self.rows + self.cols);
        for _ in 0..max_iterations {
            let objective_row = &self.data[self.rows * stride..self.rows * stride + eligible];
            let entering = objective_row.iter().position(|&cost| cost < -EPSILON);
            let entering = match entering {
                Some(col) => col,
                None => return PivotOutcome::Optimal,
            };
            match self.leaving_lexicographic(entering, &ref_cols) {
                Some(row) => self.pivot(row, entering),
                None => return PivotOutcome::Unbounded,
            }
        }
        PivotOutcome::Stalled
    }

    /// Lexicographic minimum-ratio test.  Rows with a pivot entry above
    /// `PIVOT_TOLERANCE` compete (falling back to anything above `EPSILON`
    /// when none exist, rather than declaring unboundedness on numerical
    /// noise); among them the winner minimises `(rhs, ref₀, ref₁, …) / aᵣ`
    /// lexicographically with exact comparisons at every level, which makes
    /// the selection a strict total order.  The incumbent's first-level
    /// ratio is kept, so only a tie divides again.
    fn leaving_lexicographic(&self, entering: usize, ref_cols: &[usize]) -> Option<usize> {
        let stride = self.stride();
        for threshold in [PIVOT_TOLERANCE, EPSILON] {
            let mut best: Option<(usize, f64)> = None;
            for row in 0..self.rows {
                let a = self.data[row * stride + entering];
                if a <= threshold {
                    continue;
                }
                let ratio = self.data[row * stride + self.cols] / a;
                let better = match best {
                    None => true,
                    Some((b, best_ratio)) => {
                        ratio < best_ratio
                            || (ratio == best_ratio
                                && self.ref_ratio_less(row, b, entering, ref_cols))
                    }
                };
                if better {
                    best = Some((row, ratio));
                }
            }
            if best.is_some() {
                return best.map(|(row, _)| row);
            }
        }
        None
    }

    /// Breaks a first-level tie: `true` when row `r`'s `(ref₀, ref₁, …)/aᵣ`
    /// is lexicographically smaller than row `b`'s.  Comparisons are exact;
    /// equal prefixes fall through to the next reference column, and fully
    /// identical vectors keep the incumbent (stable choice).
    fn ref_ratio_less(&self, r: usize, b: usize, entering: usize, ref_cols: &[usize]) -> bool {
        let ar = self.get(r, entering);
        let ab = self.get(b, entering);
        for &c in ref_cols {
            let x = self.get(r, c) / ar;
            let y = self.get(b, c) / ab;
            if x != y {
                return x < y;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tableau {
        fn rows(&self) -> usize {
            self.rows
        }

        /// Constraint row `row` (including its RHS entry) as a slice.
        fn row(&self, row: usize) -> &[f64] {
            let stride = self.stride();
            &self.data[row * stride..(row + 1) * stride]
        }
    }

    /// Builds the standard-form tableau for:
    /// minimise -3x0 - 2x1  s.t.  x0 + x1 + s0 = 4,  x0 + s1 = 2.
    fn example_tableau() -> Tableau {
        let mut t = Tableau::new(2, 4);
        // Row 0: x0 + x1 + s0 = 4
        t.set(0, 0, 1.0);
        t.set(0, 1, 1.0);
        t.set(0, 2, 1.0);
        t.set_rhs(0, 4.0);
        // Row 1: x0 + s1 = 2
        t.set(1, 0, 1.0);
        t.set(1, 3, 1.0);
        t.set_rhs(1, 2.0);
        // Objective: minimise -3x0 - 2x1
        t.set_objective_coefficient(0, -3.0);
        t.set_objective_coefficient(1, -2.0);
        t.set_basic(0, 2);
        t.set_basic(1, 3);
        t
    }

    #[test]
    fn simplex_reaches_known_optimum() {
        let mut t = example_tableau();
        let outcome = t.run_simplex(4);
        assert_eq!(outcome, PivotOutcome::Optimal);
        // Optimum of max 3x0+2x1 is 10 at (2, 2); we minimise the negation.
        assert!((t.objective_value() + 10.0).abs() < 1e-9);
        assert!((t.variable_value(0) - 2.0).abs() < 1e-9);
        assert!((t.variable_value(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unbounded_program_detected() {
        // minimise -x0 subject to x0 - x1 = 0 (x0 can grow without bound along
        // with x1).
        let mut t = Tableau::new(1, 2);
        t.set(0, 0, 1.0);
        t.set(0, 1, -1.0);
        t.set_rhs(0, 0.0);
        t.set_objective_coefficient(0, -1.0);
        t.set_basic(0, 0);
        // Price out the basis: column 0 is basic with cost -1.
        t.price_out_basis();
        let outcome = t.run_simplex(2);
        assert_eq!(outcome, PivotOutcome::Unbounded);
    }

    #[test]
    fn pivot_produces_unit_column() {
        let mut t = example_tableau();
        t.pivot(1, 0);
        assert!((t.get(1, 0) - 1.0).abs() < 1e-12);
        assert!(t.get(0, 0).abs() < 1e-12);
        assert_eq!(t.basic_column(1), 0);
    }

    #[test]
    fn variable_value_of_nonbasic_is_zero() {
        let t = example_tableau();
        assert_eq!(t.variable_value(0), 0.0);
        assert_eq!(t.variable_value(1), 0.0);
        assert!((t.variable_value(2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn price_out_basis_clears_basic_costs() {
        let mut t = example_tableau();
        // Make a basic column carry an objective coefficient, then price out.
        t.set_objective_coefficient(2, 5.0);
        t.price_out_basis();
        assert!(t.objective_coefficient(2).abs() < 1e-12);
    }

    #[test]
    fn new_tableau_is_all_zeros() {
        let t = Tableau::new(3, 5);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 5);
        assert!((0..3).all(|r| t.row(r).iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn row_slices_cover_rhs_column() {
        let mut t = Tableau::new(2, 3);
        t.set_rhs(1, 7.0);
        assert_eq!(t.row(1)[3], 7.0);
        t.row_mut(0)[2] = 4.0;
        assert_eq!(t.get(0, 2), 4.0);
    }
}
