//! `scenario-run` — run one declarative scenario and print its JSON verdict.
//!
//! ```text
//! cargo run -p bvc-scenario --bin scenario-run -- \
//!     --scenario scenarios/partition_heal.toml [--seed 42] [--strategy equivocate] \
//!     [--trace trace.jsonl]
//! ```
//!
//! The verdict goes to stdout as a single JSON line; identical scenario and
//! seed produce byte-identical output.  `--trace` additionally writes the
//! run's deterministic `bvc-trace/v1` event stream to the given path — the
//! verdict line is byte-identical with and without it.  Exit code 0 means
//! the instance ran (a violated verdict is data, not an error); 2 means it
//! could not run.  A malformed command line exits 2 with the usage before
//! anything runs: see [`bvc_trace::cli`].

use bvc_scenario::{parse_strategy, run_scenario, ScenarioSpec};
use bvc_trace::cli::Cli;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::new(
        "scenario-run",
        "usage: scenario-run --scenario <file.toml> [--seed <u64>] [--strategy <name>] \
         [--trace <file.jsonl>]",
    );
    let args = cli.read(&[
        ("--scenario", true),
        ("--seed", true),
        ("--strategy", true),
        ("--trace", true),
    ]);
    let path = args.required("--scenario");
    let seed_override: Option<u64> = args.parsed("--seed");
    let strategy_override = args
        .value("--strategy")
        .map(|name| parse_strategy(name).unwrap_or_else(|e| cli.fail(e)));
    let trace_path = args.value("--trace");

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("scenario-run: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match ScenarioSpec::from_toml(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("scenario-run: `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = seed_override.unwrap_or(spec.seed);
    let strategy = strategy_override.unwrap_or(spec.strategy);

    let result = bvc_trace::run_traced(trace_path.map(Path::new), || {
        run_scenario(&spec, seed, strategy, spec.policy.clone())
    });
    match result {
        Ok(Ok(outcome)) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("scenario-run: `{path}`: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!(
                "scenario-run: cannot write trace `{}`: {e}",
                trace_path.unwrap_or("")
            );
            ExitCode::from(2)
        }
    }
}
