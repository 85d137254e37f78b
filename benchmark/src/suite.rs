//! `suite`: every workload, untraced then traced, each run a fresh child
//! process of this binary and never two at once — so that peak memory,
//! thread-local simplex workspaces and caches belong to one workload — with
//! every result line collected into one file for `compare`.

use crate::workloads::WORKLOADS;
use bvc_scenario::json::Json;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// `--seconds` when none is given; `BENCHMARK.json` names the same figure.
pub const DEFAULT_SECONDS: u64 = 10;

/// One line of a suite file.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in printed order.
    pub values: Vec<(String, f64)>,
}

/// Reads a suite file back.
pub fn parse_entries(text: &str) -> Result<Vec<Entry>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(number, line)| {
            let bad = |what: &str| format!("line {}: {what}", number + 1);
            let json = Json::parse(line).map_err(|e| bad(&e))?;
            let number_of = |json: &Json, key: &str| {
                json.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("no number `{key}`")))
            };
            let result = json.get("result").ok_or_else(|| bad("no `result`"))?;
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(bad("a result that is not `correct`"));
            }
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                return Err(bad("no `metrics`"));
            };
            Ok(Entry {
                workload: json
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("no `workload`"))?
                    .to_string(),
                seed: number_of(&json, "seed")? as u64,
                traced: number_of(&json, "trace")? != 0.0,
                attempted: number_of(result, "attempted")? as u64,
                failed: number_of(result, "failed")? as u64,
                values: metrics
                    .iter()
                    .map(|(name, metric)| {
                        number_of(metric, "value").map(|value| (name.clone(), value))
                    })
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

/// Runs this binary in a process of its own, waits for it, and returns the
/// last line it printed.
fn last_line_of_child(args: &[&str]) -> Result<String, String> {
    let what = args.join(" ");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `{what}`: {e}"))?;
    if !output.status.success() {
        return Err(format!("`{what}` failed: {}", output.status));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| format!("`{what}`: {e}"))?;
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("`{what}` printed nothing"))
}

/// Runs this binary on one workload and returns its result.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if traced { "1" } else { "0" };
    let line = last_line_of_child(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    Json::parse(&line).map_err(|e| format!("{workload}: result line: {e}"))
}

/// Peak resident set, in MiB, of a fresh process that sets the workload up
/// and serves round 0 at one worker per processor, and does nothing else.
///
/// The measuring process's own peak is no measure of the program: it holds
/// the latency passes' caches next to the rounds', and with glibc every
/// thread that allocates is given an arena that keeps its high-water mark,
/// so the peak of a process that starts and joins worker, pool and monitor
/// threads by the hundred depends on which thread landed in which arena —
/// 78 to 134 MB from run to run on `exact-n10-d3`, whose service takes 41 MB
/// every time when it is all the process does.
pub fn fresh_process_rss_mb(workload: &str, seed: u64) -> Result<f64, String> {
    let line = last_line_of_child(&["rss", "--workload", workload, "--seed", &seed.to_string()])?;
    line.parse()
        .map_err(|_| format!("{workload}: `{line}` is not a resident-set size"))
}

/// `runs` runs of every workload, run `r` seeded `seed + r`, written to `out`.
pub fn run(
    out: &Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    runs: Option<u64>,
) -> Result<(), String> {
    let out = out.as_deref().ok_or("suite needs --out <file>")?;
    let (seed, seconds, runs) = (
        seed.unwrap_or(1),
        seconds.unwrap_or(DEFAULT_SECONDS),
        runs.unwrap_or(1),
    );
    let mut text = String::new();
    for workload in &WORKLOADS {
        for seed in seed..seed + runs {
            for traced in [false, true] {
                eprintln!(
                    "suite: {} seed {seed} trace {}",
                    workload.name,
                    u8::from(traced)
                );
                let result = run_child(workload.name, seed, seconds, traced)?;
                let line = Json::object()
                    .field("workload", workload.name)
                    .field("seed", seed)
                    .field("trace", u64::from(traced))
                    .field("result", result);
                let _ = writeln!(text, "{line}");
            }
        }
    }
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("suite: wrote {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_suite_line_reads_back() {
        let text = "{\"workload\": \"svc-warm\", \"seed\": 3, \"trace\": 1, \"result\": {\"correct\": true, \
                    \"attempted\": 40, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 2.5, \"unit\": \"ms\"}}}}\n\n";
        let entries = parse_entries(text).unwrap();
        assert_eq!(
            entries,
            vec![Entry {
                workload: "svc-warm".to_string(),
                seed: 3,
                traced: true,
                attempted: 40,
                failed: 0,
                values: vec![("a.b".to_string(), 2.5)],
            }]
        );
    }

    #[test]
    fn a_broken_or_incorrect_line_is_refused_with_its_number() {
        let incorrect =
            "{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": {\"correct\": false, \
                         \"attempted\": 1, \"failed\": 0, \"metrics\": {}}}";
        assert!(parse_entries(incorrect).unwrap_err().starts_with("line 1"));
        assert!(parse_entries("{}\n").unwrap_err().starts_with("line 1"));
        assert!(parse_entries("not json").is_err());
    }
}
