//! Two-phase simplex driver: converts a [`LinearProgram`] to standard form,
//! finds an initial basic feasible solution with artificial variables
//! (phase 1), and then optimises the user objective (phase 2).
//!
//! The driver assembles the tableau directly from the problem description
//! (no intermediate row vectors) into buffers leased from a
//! [`SimplexWorkspace`], and supports a feasibility-only mode that stops
//! after phase 1 without recovering variable values — the mode the geometry
//! layer's membership tests run in.

use crate::problem::{LinearProgram, Objective, Relation};
use crate::tableau::{PivotOutcome, Tableau};
use crate::workspace::SimplexWorkspace;
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
    /// residual above the feasibility tolerance: neither feasibility nor
    /// infeasibility is certified.  Callers that rely on `Infeasible` as a
    /// proof of emptiness must treat this outcome separately.
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

/// Solves `lp` with the two-phase simplex method, leasing all buffers from
/// `workspace`.  In [`SolveMode::FeasibilityOnly`] the returned solution's
/// `values` are all-zero placeholders and only `status` is meaningful.
pub(crate) fn solve_two_phase(
    lp: &LinearProgram,
    workspace: &mut SimplexWorkspace,
    mode: SolveMode,
) -> Solution {
    let lay = layout(lp);
    let m = lp.num_constraints();
    // Pin the workspace to the current trace scope *before* leasing
    // buffers: crossing scopes drops the pools, so a physical reuse is
    // always a same-scope one and traces stay byte-identical across
    // worker counts.
    workspace.stamp_scope(bvc_trace::scope_token());
    let reuses_before = workspace.reuses();
    let mut tableau = Tableau::from_workspace(m, lay.total_cols, workspace);
    let reused = workspace.reuses() > reuses_before;
    fill_tableau(lp, &lay, &mut tableau);
    let solution = run_phases(lp, &lay, &mut tableau, workspace, mode);
    let pivots = tableau.pivots();
    tableau.recycle(workspace);
    bvc_trace::emit(|| bvc_trace::TraceEvent::Simplex {
        rows: m,
        cols: lay.total_cols,
        pivots,
        class: crate::workspace::class_of((m + 1) * (lay.total_cols + 1)),
        reused,
        status: solution.status.wire_name().to_string(),
    });
    solution
}

fn run_phases(
    lp: &LinearProgram,
    lay: &Layout,
    tableau: &mut Tableau,
    workspace: &mut SimplexWorkspace,
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
        let eligible = workspace.take_bool(total_cols, true);
        let outcome = tableau.run_simplex(&eligible);
        workspace.put_bool(eligible);
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
    let mut eligible = workspace.take_bool(total_cols, false);
    for e in eligible.iter_mut().take(n_structural) {
        *e = true;
    }
    let outcome = tableau.run_simplex(&eligible);
    workspace.put_bool(eligible);
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

    Solution {
        status: SolveStatus::Optimal,
        values,
        objective_value,
    }
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
    fn explicit_workspace_solves_match_thread_local_solves() {
        let mut ws = SimplexWorkspace::new();
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(0, 3.0);
        lp.set_objective_coefficient(1, 5.0);
        lp.add_constraint(vec![1.0, 0.0], Relation::LessEq, 4.0);
        lp.add_constraint(vec![0.0, 2.0], Relation::LessEq, 12.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::LessEq, 18.0);
        let a = lp.solve();
        let b = lp.solve_with(&mut ws);
        let c = lp.solve_with(&mut ws);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(ws.reuses() > 0);
    }
}
