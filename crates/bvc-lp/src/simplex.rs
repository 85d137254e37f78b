//! Two-phase simplex driver: converts a [`LinearProgram`] to standard form,
//! finds an initial basic feasible solution with artificial variables
//! (phase 1), and then optimises the user objective (phase 2).
//!
//! The driver assembles the tableau directly from the problem description
//! (no intermediate row vectors) into a tableau of its own, and supports a
//! feasibility-only mode that stops after phase 1 without recovering
//! variable values — the mode the geometry layer's membership tests run in.
//! A full solve checks the values it recovers against the original rows
//! before it calls them optimal ([`misses_a_row`]).

use crate::problem::{LinearProgram, Objective, Relation};
use crate::tableau::{PivotOutcome, Tableau};
use crate::{EPSILON, FEASIBILITY_TOLERANCE, PIVOT_TOLERANCE};

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// An optimal (finite) solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The feasible region is unbounded in the optimisation direction.
    Unbounded,
    /// Phase 1 ended without a verdict — it hit its iteration cap, or
    /// reported its bounded objective unbounded (numerical noise) — with a
    /// residual above the feasibility tolerance, or phase 2 ended at values
    /// that miss an original row by more than
    /// [`FEASIBILITY_TOLERANCE`](crate::FEASIBILITY_TOLERANCE) times
    /// `max(1, |b|, Σ |aᵢ xᵢ|)`: neither feasibility nor infeasibility is
    /// certified.  Callers that rely on `Infeasible` as a proof of emptiness
    /// must treat this outcome separately.
    Stalled,
}

impl SolveStatus {
    /// Stable lower-case wire name used in trace streams.
    pub fn wire_name(self) -> &'static str {
        match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Infeasible => "infeasible",
            SolveStatus::Unbounded => "unbounded",
            SolveStatus::Stalled => "stalled",
        }
    }
}

/// How much of the two-phase method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SolveMode {
    /// Phase 1 + phase 2 + witness extraction.
    Full,
    /// Phase 1 only: decide feasibility, skip the user objective and the
    /// recovery of variable values.
    FeasibilityOnly,
}

/// Result of solving a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Solve outcome. `values` and `objective_value` are only meaningful when
    /// this is [`SolveStatus::Optimal`].
    pub status: SolveStatus,
    /// One optimal assignment of the decision variables (original indexing).
    pub values: Vec<f64>,
    /// Objective value attained by `values`, in the direction the program was
    /// stated (i.e. already un-negated for maximisation problems).
    pub objective_value: f64,
}

impl Solution {
    /// A solve that found no point: all-zero placeholder values, NaN
    /// objective.
    fn without_point(status: SolveStatus, num_variables: usize) -> Self {
        Self {
            status,
            values: vec![0.0; num_variables],
            objective_value: f64::NAN,
        }
    }
}

/// Standard-form layout: how original variables and constraint rows map onto
/// tableau columns.  Computed in one counting pass; the tableau is then
/// filled directly from the [`LinearProgram`].
struct Layout {
    /// For each original variable, the column of its non-negative part.
    positive_column: Vec<usize>,
    /// For each original variable, the column of its negative part (only for
    /// free variables).
    negative_column: Vec<Option<usize>>,
    /// Total number of structural columns before artificials.
    num_structural: usize,
    /// Per row: `true` when the row is negated so its RHS becomes
    /// non-negative.
    row_flip: Vec<bool>,
    /// Per row: slack/surplus column and its sign (+1 slack, −1 surplus).
    row_slack: Vec<Option<(usize, f64)>>,
    /// Per row: the slack column usable as the initial basis (only `≤` rows
    /// after flipping).
    row_basis_slack: Vec<Option<usize>>,
    /// Per row: artificial column, for rows with no natural slack basis.
    row_artificial: Vec<Option<usize>>,
    /// Total columns including artificials.
    total_cols: usize,
    /// All artificial columns (contiguous at the end).
    artificial_start: usize,
}

fn layout(lp: &LinearProgram) -> Layout {
    let n = lp.num_variables();
    let mut positive_column = Vec::with_capacity(n);
    let mut negative_column = Vec::with_capacity(n);
    let mut next_col = 0usize;
    for var in 0..n {
        positive_column.push(next_col);
        next_col += 1;
        if lp.is_free(var) {
            negative_column.push(Some(next_col));
            next_col += 1;
        } else {
            negative_column.push(None);
        }
    }

    let m = lp.num_constraints();
    let mut row_flip = Vec::with_capacity(m);
    let mut relations = Vec::with_capacity(m);
    for c in lp.constraints() {
        let flip = c.rhs < 0.0;
        let relation = if flip {
            match c.relation {
                Relation::LessEq => Relation::GreaterEq,
                Relation::GreaterEq => Relation::LessEq,
                Relation::Equal => Relation::Equal,
            }
        } else {
            c.relation
        };
        row_flip.push(flip);
        relations.push(relation);
    }

    let mut row_slack = Vec::with_capacity(m);
    let mut row_basis_slack = Vec::with_capacity(m);
    let mut slack_col = next_col;
    for relation in &relations {
        match relation {
            Relation::LessEq => {
                row_slack.push(Some((slack_col, 1.0)));
                row_basis_slack.push(Some(slack_col));
                slack_col += 1;
            }
            Relation::GreaterEq => {
                row_slack.push(Some((slack_col, -1.0)));
                row_basis_slack.push(None);
                slack_col += 1;
            }
            Relation::Equal => {
                row_slack.push(None);
                row_basis_slack.push(None);
            }
        }
    }
    let num_structural = slack_col;

    let mut row_artificial = Vec::with_capacity(m);
    let mut art_col = num_structural;
    for basis in &row_basis_slack {
        if basis.is_none() {
            row_artificial.push(Some(art_col));
            art_col += 1;
        } else {
            row_artificial.push(None);
        }
    }

    Layout {
        positive_column,
        negative_column,
        num_structural,
        row_flip,
        row_slack,
        row_basis_slack,
        row_artificial,
        total_cols: art_col,
        artificial_start: num_structural,
    }
}

/// Fills the zeroed tableau from the problem and layout, and sets the
/// initial basis (slacks where available, artificials elsewhere).
fn fill_tableau(lp: &LinearProgram, lay: &Layout, tableau: &mut Tableau) {
    for (row, constraint) in lp.constraints().iter().enumerate() {
        let sign = if lay.row_flip[row] { -1.0 } else { 1.0 };
        let target = tableau.row_mut(row);
        for (var, &a) in constraint.coefficients.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let v = sign * a;
            target[lay.positive_column[var]] += v;
            if let Some(neg) = lay.negative_column[var] {
                target[neg] -= v;
            }
        }
        if let Some((col, slack_sign)) = lay.row_slack[row] {
            target[col] = slack_sign;
        }
        if let Some(art) = lay.row_artificial[row] {
            target[art] = 1.0;
        }
        tableau.set_rhs(row, sign * constraint.rhs);
        match lay.row_basis_slack[row] {
            Some(slack) => tableau.set_basic(row, slack),
            None => tableau.set_basic(
                row,
                lay.row_artificial[row].expect("rows without a slack basis carry an artificial"),
            ),
        }
    }
}

/// Solves `lp` with the two-phase simplex method on a tableau of its own.
/// In [`SolveMode::FeasibilityOnly`] the returned solution's `values` are
/// all-zero placeholders and only `status` is meaningful.
pub(crate) fn solve_two_phase(lp: &LinearProgram, mode: SolveMode) -> Solution {
    let lay = layout(lp);
    let m = lp.num_constraints();
    let mut tableau = Tableau::new(m, lay.total_cols);
    fill_tableau(lp, &lay, &mut tableau);
    let solution = run_phases(lp, &lay, &mut tableau, mode);
    bvc_trace::emit(|| bvc_trace::TraceEvent::Simplex {
        rows: m,
        cols: lay.total_cols,
        pivots: tableau.pivots(),
        class: ((m + 1) * (lay.total_cols + 1)).next_power_of_two().ilog2() as usize,
        reused: false,
        status: solution.status.wire_name().to_string(),
    });
    solution
}

fn run_phases(
    lp: &LinearProgram,
    lay: &Layout,
    tableau: &mut Tableau,
    mode: SolveMode,
) -> Solution {
    let m = lp.num_constraints();
    let n_structural = lay.num_structural;
    let total_cols = lay.total_cols;
    let has_artificials = total_cols > lay.artificial_start;

    if has_artificials {
        // Phase-1 objective: minimise the sum of artificial variables.
        for col in lay.artificial_start..total_cols {
            tableau.set_objective_coefficient(col, 1.0);
        }
        tableau.price_out_basis();
        let outcome = tableau.run_simplex(total_cols);
        if tableau.objective_value() > FEASIBILITY_TOLERANCE {
            // Only a phase 1 that ended optimal and could not zero the
            // artificials certifies infeasibility.  Its objective is bounded
            // below by zero, so an `Unbounded` outcome is numerical noise,
            // and a capped one proves nothing: both are `Stalled`, never an
            // emptiness proof for the Γ engine downstream.
            let status = match outcome {
                PivotOutcome::Optimal => SolveStatus::Infeasible,
                PivotOutcome::Unbounded | PivotOutcome::Stalled => SolveStatus::Stalled,
            };
            return Solution::without_point(status, lp.num_variables());
        }
        if mode == SolveMode::FeasibilityOnly {
            return Solution {
                status: SolveStatus::Optimal,
                values: vec![0.0; lp.num_variables()],
                objective_value: 0.0,
            };
        }
        // Drive any artificial variable that is still basic (at value zero)
        // out of the basis if a structural pivot exists; otherwise the row is
        // redundant and the artificial stays basic at zero harmlessly.
        for row in 0..m {
            let basic = tableau.basic_column(row);
            if basic >= lay.artificial_start {
                if let Some(col) =
                    (0..n_structural).find(|&c| tableau.get(row, c).abs() > PIVOT_TOLERANCE)
                {
                    tableau.pivot(row, col);
                }
            }
        }
        // Clear the phase-1 objective row.
        let cols = tableau.cols();
        for col in 0..=cols {
            tableau.set(m, col, 0.0);
        }
    } else if mode == SolveMode::FeasibilityOnly {
        // Every row has a natural slack basis: the all-zero structural point
        // is feasible by construction.
        return Solution {
            status: SolveStatus::Optimal,
            values: vec![0.0; lp.num_variables()],
            objective_value: 0.0,
        };
    }

    // Phase 2: load the user objective and optimise, keeping artificial
    // columns out of the basis.
    let sign = match lp.objective() {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };
    for var in 0..lp.num_variables() {
        let c = sign * lp.objective_coefficients()[var];
        if c == 0.0 {
            continue;
        }
        let pos = lay.positive_column[var];
        tableau.set_objective_coefficient(pos, tableau.objective_coefficient(pos) + c);
        if let Some(neg) = lay.negative_column[var] {
            tableau.set_objective_coefficient(neg, tableau.objective_coefficient(neg) - c);
        }
    }
    tableau.price_out_basis();
    let outcome = tableau.run_simplex(n_structural);
    if outcome == PivotOutcome::Unbounded {
        return Solution::without_point(SolveStatus::Unbounded, lp.num_variables());
    }
    // A phase-2 stall still has a feasible basic solution (phase 1
    // succeeded), which is all the feasibility-style programs served here
    // need; report it as the solution rather than failing the solve.

    // Recover original variable values.
    let mut values = vec![0.0; lp.num_variables()];
    for (var, value) in values.iter_mut().enumerate() {
        let pos = tableau.variable_value(lay.positive_column[var]);
        let neg = lay.negative_column[var]
            .map(|c| tableau.variable_value(c))
            .unwrap_or(0.0);
        *value = pos - neg;
    }
    let raw_objective = tableau.objective_value();
    let objective_value = match lp.objective() {
        Objective::Minimize => raw_objective,
        Objective::Maximize => -raw_objective,
    };
    // Clamp values that are tiny negative due to floating point back to zero
    // for non-free variables.
    for (var, v) in values.iter_mut().enumerate() {
        if !lp.is_free(var) && *v < 0.0 && *v > -EPSILON * 10.0 {
            *v = 0.0;
        }
    }
    if misses_a_row(lp, &values) {
        return Solution::without_point(SolveStatus::Stalled, lp.num_variables());
    }

    Solution {
        status: SolveStatus::Optimal,
        values,
        objective_value,
    }
}

/// Whether `values` miss a row of `lp`: `a · x` passes `b` (on the wrong
/// side for `≤` and `≥`, either side for `=`) by more than
/// [`FEASIBILITY_TOLERANCE`] times the row's magnitude `max(1, |b|,
/// Σ |aᵢ xᵢ|)`.  The scale is what rounding the row's products and sum can
/// move it by; an absolute band would fail rows far from the origin.  A
/// phase 2 started from a basis phase 1 left slightly off can end optimal
/// on the tableau at values that miss a row by far more, so a full solve
/// reports those as [`SolveStatus::Stalled`].
fn misses_a_row(lp: &LinearProgram, values: &[f64]) -> bool {
    lp.constraints().iter().any(|row| {
        let terms = row.coefficients.iter().zip(values).map(|(a, x)| a * x);
        let (lhs, size) = terms.fold((0.0, 0.0), |(sum, size), t| (sum + t, size + t.abs()));
        let miss = match row.relation {
            Relation::LessEq => lhs - row.rhs,
            Relation::GreaterEq => row.rhs - lhs,
            Relation::Equal => (lhs - row.rhs).abs(),
        };
        miss > FEASIBILITY_TOLERANCE * 1f64.max(row.rhs.abs()).max(size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearProgram, Objective, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} !~ {b}");
    }

    #[test]
    fn maximization_with_slack_constraints() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(0, 3.0);
        lp.set_objective_coefficient(1, 5.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::LessEq, 4.0);
        lp.add_constraint(vec![0.0, 2.0], Relation::LessEq, 12.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::LessEq, 18.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.objective_value, 36.0);
        assert_close(s.values[0], 2.0);
        assert_close(s.values[1], 6.0);
    }

    #[test]
    fn minimization_with_geq_constraints_needs_phase1() {
        // Classic diet-style LP: minimise 0.12x + 0.15y with coverage
        // constraints.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 0.12);
        lp.set_objective_coefficient(1, 0.15);
        lp.add_constraint(vec![60.0, 60.0], Relation::GreaterEq, 300.0);
        lp.add_constraint(vec![12.0, 6.0], Relation::GreaterEq, 36.0);
        lp.add_constraint(vec![10.0, 30.0], Relation::GreaterEq, 90.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.objective_value, 0.66);
        assert_close(s.values[0], 3.0);
        assert_close(s.values[1], 2.0);
    }

    #[test]
    fn equality_constraints_solve() {
        // minimise x + y subject to x + 2y = 4, 3x + 2y = 8
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0);
        lp.set_objective_coefficient(1, 1.0);
        lp.add_constraint(vec![1.0, 2.0], Relation::Equal, 4.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::Equal, 8.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.values[0], 2.0);
        assert_close(s.values[1], 1.0);
        assert_close(s.objective_value, 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2 simultaneously.
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0);
        lp.add_constraint(vec![1.0], Relation::LessEq, 1.0);
        lp.add_constraint(vec![1.0], Relation::GreaterEq, 2.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // maximise x with only a lower bound.
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.set_objective_coefficient(0, 1.0);
        lp.add_constraint(vec![1.0], Relation::GreaterEq, 1.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Unbounded);
    }

    #[test]
    fn free_variable_can_go_negative() {
        // minimise x with x free and x ≥ -5: optimum is -5.
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.mark_free(0);
        lp.set_objective_coefficient(0, 1.0);
        lp.add_constraint(vec![1.0], Relation::GreaterEq, -5.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.values[0], -5.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // -x - y ≤ -2  (i.e. x + y ≥ 2), minimise x + y.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0);
        lp.set_objective_coefficient(1, 1.0);
        lp.add_constraint(vec![-1.0, -1.0], Relation::LessEq, -2.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.objective_value, 2.0);
    }

    #[test]
    fn pure_feasibility_problem_convex_combination() {
        // Find alphas with a0 + a1 + a2 = 1, alphas ≥ 0 and
        // 0*a0 + 1*a1 + 2*a2 = 0.5 (a point in the hull of {0,1,2}).
        let mut lp = LinearProgram::new(3, Objective::Minimize);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Equal, 1.0);
        lp.add_constraint(vec![0.0, 1.0, 2.0], Relation::Equal, 0.5);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        let recombined = s.values[1] + 2.0 * s.values[2];
        assert_close(recombined, 0.5);
        let total: f64 = s.values.iter().sum();
        assert_close(total, 1.0);
        assert!(s.values.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn infeasible_convex_combination_detected() {
        // Ask for the point 5 in the hull of {0, 1, 2}: infeasible.
        let mut lp = LinearProgram::new(3, Objective::Minimize);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Equal, 1.0);
        lp.add_constraint(vec![0.0, 1.0, 2.0], Relation::Equal, 5.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn degenerate_program_terminates() {
        // A degenerate LP where multiple bases describe the same vertex: the
        // lexicographic rule must still terminate.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(0, 1.0);
        lp.set_objective_coefficient(1, 1.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::LessEq, 1.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::LessEq, 1.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::LessEq, 1.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.objective_value, 1.0);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // Two identical equality rows: one artificial stays basic at zero.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Equal, 1.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Equal, 1.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.values[0] + s.values[1], 1.0);
        assert_close(s.objective_value, 0.0);
    }

    #[test]
    fn maximize_with_equality_and_free_variable() {
        // maximise z = x (free) subject to x + y = 3, y ≤ 2 → x can be 3 when
        // y = 0, and as large as... wait y ≥ 0 so x ≤ 3. Optimum x = 3.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.mark_free(0);
        lp.set_objective_coefficient(0, 1.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Equal, 3.0);
        lp.add_constraint(vec![0.0, 1.0], Relation::LessEq, 2.0);
        let s = lp.solve();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_close(s.values[0], 3.0);
    }

    #[test]
    fn feasibility_mode_agrees_with_full_solve() {
        // Feasible equality system.
        let mut lp = LinearProgram::new(3, Objective::Minimize);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Equal, 1.0);
        lp.add_constraint(vec![0.0, 1.0, 2.0], Relation::Equal, 0.5);
        assert_eq!(lp.solve_feasibility(), SolveStatus::Optimal);
        // Infeasible variant.
        let mut bad = LinearProgram::new(3, Objective::Minimize);
        bad.add_constraint(vec![1.0, 1.0, 1.0], Relation::Equal, 1.0);
        bad.add_constraint(vec![0.0, 1.0, 2.0], Relation::Equal, 5.0);
        assert_eq!(bad.solve_feasibility(), SolveStatus::Infeasible);
    }

    #[test]
    fn feasibility_mode_without_artificials_is_instant() {
        // Pure ≤ system with non-negative RHS: trivially feasible at x = 0.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.add_constraint(vec![1.0, 1.0], Relation::LessEq, 4.0);
        assert_eq!(lp.solve_feasibility(), SolveStatus::Optimal);
    }

    #[test]
    fn repeated_solves_agree() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(0, 3.0);
        lp.set_objective_coefficient(1, 5.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::LessEq, 4.0);
        lp.add_constraint(vec![0.0, 2.0], Relation::LessEq, 12.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::LessEq, 18.0);
        let a = lp.solve();
        assert_eq!(a, lp.solve());
        assert_eq!(a, lp.solve_with(&mut crate::SimplexWorkspace::new()));
    }

    /// A Chebyshev-centre program of a spatial depth region (`Γ(Y)`, `|Y| =
    /// 10`, `f = 2`, members from `bvc-geometry`'s `biased` generator),
    /// written from the box's low corner: maximise `r ≥ 0` over `x` (free)
    /// subject to `−n · x + r ≤ b` per side and box face, 24 of its 73 rows
    /// with `b < 0`, so phase 1 runs.  Each row is `[−n, b]`.  Its phase 2
    /// ends at the tableau's optimum with values 0.18 past a row, which is
    /// no optimal solution.
    #[rustfmt::skip]
    const CENTRE_ROWS: [[f64; 4]; 73] = [
        [-0.0, 0.1352004483524483, 0.9908182672747294, 1.4839176159789431],
        [-0.0, -0.841474348893253, 0.5402970665797437, 0.22916005280869048],
        [0.0, 0.9281171170308083, 0.3722883520531107, 1.1135818482339517],
        [0.0, 0.8335131427644124, 0.552499629718421, 1.3079368330320746],
        [0.0, 0.9860105802662775, -0.16668273936721417, 0.3896830159628682],
        [0.0, 0.9860105802662775, -0.16668273936721417, 0.3896830159628682],
        [-0.0, -0.7708898663727973, 0.6369684559879953, 0.41031595528878945],
        [-0.6945370255019019, -0.6732084188049217, -0.2537887804004495, -0.3800915396577051],
        [-0.41162242660607357, -0.4838423042013744, -0.7723105609662684, -1.1566654375615444],
        [0.30329631579308364, 0.39705970210284014, 0.8662303029751072, 1.2973261077833085],
        [0.4030691063316488, 0.47715487596481937, 0.7809343889623531, 1.1695810777715034],
        [-0.6502496295931748, -0.6512430510954519, -0.3912261591635018, -0.5859272151181345],
        [-0.6076399269485266, 0.24288378268965774, -0.7561621435144399, -0.559079083236928],
        [-0.514452335255525, 0.3944324857286701, -0.7614209144435417, -0.5247542558569372],
        [-0.27314647375493106, 0.6639413178435575, -0.696112728180865, -0.4023961001462412],
        [-0.37670527177711305, -0.9027799060939169, 0.20756102564881976, -0.05973814404859182],
        [-0.40061219413417376, 0.8931327444035894, -0.20450860809539465, 0.5108799213514309],
        [0.39716439332688275, 0.510468666582708, 0.7626809195925656, 1.1683759816331267],
        [-0.577711872204315, -0.011500882518155576, -0.8161597407465581, -0.8224076515347843],
        [0.427463283885058, 0.07672298892532105, 0.9007711828764103, 1.0706970831323275],
        [-0.48990708771986785, 0.18393101109090315, -0.8521504729570452, -0.8005029788724706],
        [-0.0, 0.9860105802662775, -0.16668273936721417, 0.3896830159628682],
        [0.36410071753212764, -0.3924461852744138, 0.8446399582994818, 0.7310618359677171],
        [-0.6945370259676211, -0.6732084181869901, -0.25378878076507394, -0.3800915402037918],
        [0.30329631601403756, 0.3970597018337096, 0.8662303030211069, 1.297326107852201],
        [0.4030691066206062, 0.4771548756042223, 0.7809343890335381, 1.1695810778781148],
        [0.4030691065193678, 0.47715487552488545, 0.7809343891342663, 1.1695810780289724],
        [-0.6502496298701892, -0.6512430504157158, -0.3912261598345838, -0.5859272161231931],
        [-0.6076399270983533, 0.242883782858033, -0.7561621433399582, -0.5590790834043251],
        [-0.5144523353983257, 0.39443248583815593, -0.7614209142903429, -0.5247542560025974],
        [0.27314647366757244, -0.6639413180403951, 0.6961127280274031, 0.40239610212897875],
        [-0.37670527154227573, -0.9027799060793525, 0.20756102613837601, -0.05973814386205176],
        [-0.4006121942439515, 0.8931327443632507, -0.20450860805651871, 0.5108799210440828],
        [0.39716439361212547, 0.510468666263425, 0.7626809196577248, 1.168375981753678],
        [0.397164393441935, 0.5104686665695664, 0.7626809195414481, 1.1683759818827841],
        [-0.5777118723390673, -0.01150088255934317, -0.8161597406505944, -0.8224076519246556],
        [0.427463284119859, 0.0767229885572024, 0.9007711827963394, 1.0706970830766727],
        [0.4274632840083381, 0.07672298892437542, 0.900771182817988, 1.07069708340491],
        [-0.0, 0.9860105802662775, -0.16668273936721417, 0.3896830159628682],
        [0.3641007178160161, -0.3924461849895761, 0.8446399583094499, 0.7310618363609825],
        [0.36410071765029, -0.39244618522839614, 0.8446399582699264, 0.7310618362504202],
        [-0.755027563600751, 0.4373797313301755, -0.48850010115112313, -0.7316113640296195],
        [0.38108799685503836, -0.8510719486650452, 0.36117651757623587, 0.5409228061702046],
        [0.38108799665527265, -0.851071948790717, 0.36117651749088253, 0.5409228060423736],
        [-0.5028985664839575, -0.8564353483428756, -0.11666844447920767, -0.17473068937279407],
        [-0.6227972409594552, 0.7741237205050839, -0.11338457569112831, -0.16981254151373834],
        [-0.3879278004044222, -0.5114951099481825, -0.7667364437487522, -1.1483172560632553],
        [0.5198816204955238, 0.07557276209107465, 0.8508888636601574, 1.2743497126253938],
        [0.5198816202516168, 0.07557276254074177, 0.8508888637692437, 1.2743497127887689],
        [0.0, -0.9605217178845767, -0.27820501338412595, -0.41665897024774],
        [0.544876673561869, -0.3103627096940442, 0.778963669909915, 1.166629593313984],
        [0.5448766733764693, -0.31036271006045696, 0.77896366989361, 1.1666295932895647],
        [0.26717940300783194, -0.46107597995704536, -0.8461820769284993, 0.3423088097859304],
        [0.26717940276459884, -0.46107597981516285, -0.8461820770826097, 0.34230880954997395],
        [-0.40419504583201143, 0.03805935494527392, -0.9138806543668642, -0.3382588587451821],
        [0.09079059751496209, -0.0696094829481739, -0.9934342390347557, 0.09260868262819669],
        [-0.3055662065646587, 0.23427872739680447, -0.9228991121975457, -0.31168517692185255],
        [-0.16545379506942104, 0.4579006605193286, -0.8734712512688032, -0.25892146784498715],
        [0.9734373453110547, 0.009394244247022504, -0.2287607547827937, 2.1788145736638316],
        [0.9734373452427962, 0.009394245065923438, -0.22876075503962323, 2.178814574797092],
        [0.927110547157743, 0.23396301119212914, -0.2927923201567655, 2.4282143715799576],
        [-0.0, -0.5093314804450167, -0.8605704172394537, -0.28090195442267846],
        [0.9775228508179605, 0.1941032439754644, 0.08229827948948176, 2.2898063491414296],
        [0.9775228508924702, 0.19410324417265976, 0.0822982781393778, 2.289806350254107],
        [0.9451270593939066, 0.048650512414492975, 0.32306031827390125, 2.177477630008282],
        [0.9451270600219414, 0.04865051310542215, 0.3230603163325093, 2.177477632488678],
        [0.0, 0.4958248159358645, -0.8684225652884463, 0.1299763301567831],
        [-1.0, -0.0, -0.0, 1e-9],
        [1.0, -0.0, -0.0, 2.2540797556491494],
        [-0.0, -1.0, -0.0, 1e-9],
        [-0.0, 1.0, -0.0, 0.6337699038190995],
        [-0.0, -0.0, -1.0, 1e-9],
        [-0.0, -0.0, 1.0, 1.411188799336737],
    ];

    #[test]
    fn an_optimal_solve_meets_every_row() {
        let mut lp = LinearProgram::new(4, Objective::Maximize);
        lp.set_objective_coefficient(3, 1.0);
        for l in 0..3 {
            lp.mark_free(l);
        }
        for [a, b, c, rhs] in CENTRE_ROWS {
            lp.add_constraint(vec![a, b, c, 1.0], Relation::LessEq, rhs);
        }
        let s = lp.solve();
        if s.status == SolveStatus::Optimal {
            for row in lp.constraints() {
                let lhs: f64 = row
                    .coefficients
                    .iter()
                    .zip(&s.values)
                    .map(|(a, x)| a * x)
                    .sum();
                assert!(
                    lhs <= row.rhs + 1e-6,
                    "{lhs} > {} at {:?}",
                    row.rhs,
                    s.values
                );
            }
        }
        assert_eq!(s.status, SolveStatus::Stalled);
    }
}
