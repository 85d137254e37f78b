//! `compare`: two suite files, one row per workload and end-to-end metric,
//! and the metrics that must repeat exactly checked run against run.

use crate::stats::{iqr_share, median, quartiles};
use crate::suite::{parse_entries, Entry};
use crate::workloads::WORKLOADS;

/// How far an end-to-end metric's median may worsen, as a share of the first
/// file's median, before it counts as a regression.
pub struct Bound {
    pub name: &'static str,
    pub bound: f64,
    pub higher_is_better: bool,
}

/// The bounds `BENCHMARK.json` states (a unit test holds the two together).
pub const BOUNDS: [Bound; 7] = [
    Bound {
        name: "decisions_per_s",
        bound: 0.25,
        higher_is_better: true,
    },
    Bound {
        name: "decision_latency_p50_ms",
        bound: 0.25,
        higher_is_better: false,
    },
    Bound {
        name: "decision_latency_tail_ms",
        bound: 0.25,
        higher_is_better: false,
    },
    Bound {
        name: "cpu_ms_per_decision",
        bound: 0.25,
        higher_is_better: false,
    },
    Bound {
        name: "peak_rss_mb",
        bound: 0.25,
        higher_is_better: false,
    },
    Bound {
        name: "decided_share",
        bound: 0.1,
        higher_is_better: true,
    },
    Bound {
        name: "setup_s",
        bound: 0.25,
        higher_is_better: false,
    },
];

/// Metrics that come from counting and nothing else: at one seed and one
/// `--seconds` they are the same number in every run of one commit, and a
/// refactor that is not meant to change behaviour must leave them so.
pub const EXACT: [&str; 18] = [
    "decided_share",
    "lp.solves_per_decision",
    "lp.pivots_per_solve",
    "lp.buffer_reuse_pct",
    "geometry.queries_per_decision",
    "geometry.local_hit_pct",
    "geometry.shared_hit_pct",
    "geometry.engine_misses_per_decision",
    "geometry.fast_path_pct",
    "geometry.cache_entries_at_end",
    "broadcast.msgs_per_decision",
    "net.msgs_sent_per_decision",
    "net.msgs_delivered_per_decision",
    "net.msgs_dropped_per_decision",
    "net.steps_per_decision",
    "net.fault_window_steps",
    "core.rounds_per_decision",
    "trace.events_per_decision",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one file differ among themselves by more than the bound,
    /// and the two files' runs overlap: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the second sample of a metric against the first.
pub fn judge(first: &[f64], second: &[f64], bound: &Bound) -> Verdict {
    // How much worse a value is than another, as a share of the other.
    let worse_by = |value: f64, than: f64| {
        let change = if than == 0.0 {
            value - than
        } else {
            (value - than) / than.abs()
        };
        if bound.higher_is_better {
            -change
        } else {
            change
        }
    };
    let regressed = worse_by(median(second), median(first)) > bound.bound;
    if iqr_share(first).max(iqr_share(second)) <= bound.bound {
        return if regressed {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let every_pair = |holds: &dyn Fn(f64) -> bool| {
        second
            .iter()
            .all(|&s| first.iter().all(|&f| holds(worse_by(s, f))))
    };
    if every_pair(&|worse| worse <= 0.0) {
        Verdict::Ok
    } else if regressed && every_pair(&|worse| worse > 0.0) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn values_of(entries: &[Entry], workload: &str, metric: &str) -> Vec<f64> {
    entries
        .iter()
        .filter(|e| e.workload == workload && !e.traced)
        .filter_map(|e| {
            e.values
                .iter()
                .find(|(name, _)| name == metric)
                .map(|&(_, v)| v)
        })
        .collect()
}

/// Every exact metric of every run the two files share, compared; returns
/// one line per difference.
pub fn exact_differences(first: &[Entry], second: &[Entry]) -> Vec<String> {
    let mut differences = Vec::new();
    for a in first {
        let Some(b) = second
            .iter()
            .find(|b| (&b.workload, b.seed, b.traced) == (&a.workload, a.seed, a.traced))
        else {
            continue;
        };
        let mut check = |what: &str, x: f64, y: f64| {
            if x != y {
                differences.push(format!("{} seed {}: {what} {x} != {y}", a.workload, a.seed));
            }
        };
        // Not `attempted`: which slow instances a repeat latency pass leaves
        // out follows from times, so it may differ by a few.
        check("failed", a.failed as f64, b.failed as f64);
        for (name, value) in a
            .values
            .iter()
            .filter(|(name, _)| EXACT.contains(&name.as_str()))
        {
            match b.values.iter().find(|(n, _)| n == name) {
                Some(&(_, other)) => check(name, *value, other),
                None => check(name, *value, f64::NAN),
            }
        }
    }
    differences
}

/// Prints the comparison of two suite files; fails on a regression or on an
/// exact metric that differs.
pub fn run(paths: &[String]) -> Result<(), String> {
    let [first_path, second_path] = paths else {
        return Err("compare takes two suite files".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_entries(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (first, second) = (read(first_path)?, read(second_path)?);

    println!(
        "{:<13} {:<25} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "quartiles", "second", "quartiles", "change", "bound"
    );
    let mut regressions = 0;
    for workload in &WORKLOADS {
        for bound in &BOUNDS {
            let (a, b) = (
                values_of(&first, workload.name, bound.name),
                values_of(&second, workload.name, bound.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = judge(&a, &b, bound);
            regressions += usize::from(verdict == Verdict::Regressed);
            let quartiles_of = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{q1:.4}..{q3:.4}")
            };
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{:<13} {:<25} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                workload.name,
                bound.name,
                ma,
                quartiles_of(&a),
                mb,
                quartiles_of(&b),
                if ma == 0.0 {
                    0.0
                } else {
                    100.0 * (mb - ma) / ma
                },
                100.0 * bound.bound,
                verdict.label()
            );
        }
    }
    let differences = exact_differences(&first, &second);
    for difference in &differences {
        println!("count differs: {difference}");
    }
    if regressions == 0 && differences.is_empty() {
        println!("no regression; every count the two files share is equal");
        Ok(())
    } else {
        Err(format!(
            "{regressions} regressed, {} counts differ",
            differences.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        name: "t",
        bound: 0.1,
        higher_is_better: false,
    };
    const HIGHER: Bound = Bound {
        name: "r",
        bound: 0.1,
        higher_is_better: true,
    };

    #[test]
    fn a_steady_metric_is_judged_by_its_medians() {
        let first = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&first, &[104.0, 105.0, 106.0, 105.0], &LOWER),
            Verdict::Ok
        );
        assert_eq!(
            judge(&first, &[111.0, 112.0, 113.0, 112.0], &LOWER),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&first, &[80.0, 81.0, 82.0, 81.0], &LOWER),
            Verdict::Ok
        );
        assert_eq!(
            judge(&first, &[88.0, 89.0, 87.0, 88.0], &HIGHER),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&first, &[120.0, 121.0, 122.0, 121.0], &HIGHER),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 110.0, 130.0, 150.0], &LOWER),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 70.0, 79.0], &LOWER),
            Verdict::Ok
        );
        assert_eq!(
            judge(&noisy, &[150.0, 170.0, 190.0, 210.0], &LOWER),
            Verdict::Regressed
        );
    }

    fn entry(seed: u64, solves: f64) -> Entry {
        Entry {
            workload: "w".to_string(),
            seed,
            traced: true,
            attempted: 10,
            failed: 0,
            values: vec![
                ("lp.solves_per_decision".to_string(), solves),
                ("lp.solve_us".to_string(), seed as f64),
            ],
        }
    }

    #[test]
    fn counts_are_compared_run_against_run_and_timings_are_not() {
        let first = [entry(1, 5.0), entry(2, 6.0)];
        assert!(
            exact_differences(&first, &[entry(1, 5.0), entry(2, 6.0), entry(3, 9.0)]).is_empty()
        );
        let differences = exact_differences(&first, &[entry(1, 5.0), entry(2, 6.5)]);
        assert_eq!(differences, ["w seed 2: lp.solves_per_decision 6 != 6.5"]);
    }

    #[test]
    fn every_exact_metric_is_a_metric() {
        for name in EXACT {
            let known = crate::metrics::END_TO_END
                .iter()
                .chain(crate::metrics::PER_LAYER.iter());
            assert!(known.into_iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
