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
//! could not run, or the command line was malformed (an unknown flag, a
//! missing value, a flag given twice).

use bvc_scenario::cli::Cli;
use bvc_scenario::{parse_strategy, run_scenario, ScenarioSpec};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: scenario-run --scenario <file.toml> [--seed <u64>] [--strategy <name>] \
         [--trace <file.jsonl>]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let cli = Cli::new("scenario-run", usage);
    let mut args = std::env::args().skip(1);
    let mut scenario_path: Option<String> = None;
    let mut seed_override: Option<u64> = None;
    let mut strategy_override: Option<String> = None;
    let mut trace_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => cli.set(
                &mut scenario_path,
                &arg,
                args.next().unwrap_or_else(|| usage()),
            ),
            "--trace" => cli.set(
                &mut trace_path,
                &arg,
                args.next().unwrap_or_else(|| usage()),
            ),
            "--seed" => {
                let value = args.next().unwrap_or_else(|| usage());
                match value.parse() {
                    Ok(seed) => cli.set(&mut seed_override, &arg, seed),
                    Err(_) => {
                        eprintln!("scenario-run: invalid --seed `{value}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--strategy" => cli.set(
                &mut strategy_override,
                &arg,
                args.next().unwrap_or_else(|| usage()),
            ),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("scenario-run: unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(path) = scenario_path else { usage() };

    let text = match std::fs::read_to_string(&path) {
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
    let strategy = match &strategy_override {
        Some(name) => match parse_strategy(name) {
            Ok(strategy) => strategy,
            Err(e) => {
                eprintln!("scenario-run: {e}");
                return ExitCode::from(2);
            }
        },
        None => spec.strategy,
    };

    let result = bvc_trace::run_traced(trace_path.as_deref().map(Path::new), || {
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
                trace_path.as_deref().unwrap_or("")
            );
            ExitCode::from(2)
        }
    }
}
