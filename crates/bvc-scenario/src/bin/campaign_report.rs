//! `campaign-report` — aggregate campaign JSONL verdicts into the
//! violation-rate table of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p bvc-scenario --bin campaign-run -- --dir scenarios --out verdicts.jsonl
//! cargo run -p bvc-scenario --bin campaign-report -- \
//!     --in verdicts.jsonl --out EXPERIMENTS.md [--title "Scenario catalogue"]
//! ```
//!
//! Without `--out` the Markdown goes to stdout.  The table buckets verdicts
//! per strategy × fault kinds × topology and separates expected-unsolvable
//! substrates from solvable ones (see `bvc_scenario::report`).  A malformed
//! command line exits 2 with the usage before anything runs: see
//! [`bvc_trace::cli`].

use bvc_scenario::ViolationTable;
use bvc_trace::cli::Cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::new(
        "campaign-report",
        "usage: campaign-report --in <verdicts.jsonl> [--out <report.md>] [--title <t>]",
    );
    let args = cli.read(&[("--in", true), ("--out", true), ("--title", true)]);
    let input = args.required("--in");
    let title = args.value("--title").unwrap_or("Campaign violation rates");

    let text = match std::fs::read_to_string(input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("campaign-report: cannot read `{input}`: {e}");
            return ExitCode::from(2);
        }
    };
    let table = ViolationTable::from_jsonl(&text);
    if table.total_runs() == 0 {
        eprintln!(
            "campaign-report: no verdicts found in `{input}` ({} line(s) skipped)",
            table.skipped
        );
        return ExitCode::from(2);
    }
    let markdown = table.to_markdown(title);
    match args.value("--out") {
        None => print!("{markdown}"),
        Some(path) => {
            // The embedded recipe must reproduce this exact file (CI diffs
            // the regenerated table against the committed one), so the title
            // is included verbatim.
            let document = format!(
                "# EXPERIMENTS\n\n\
                 Generated by `campaign-report` from `{input}`; regenerate with\n\n\
                 ```text\n\
                 cargo run --release -p bvc-scenario --bin campaign-run -- --dir scenarios --out {input}\n\
                 cargo run --release -p bvc-scenario --bin campaign-report -- \\\n    \
                 --in {input} --out {path} --title \"{title}\"\n\
                 ```\n\n{markdown}"
            );
            if let Err(e) = std::fs::write(path, document) {
                eprintln!("campaign-report: cannot write `{path}`: {e}");
                return ExitCode::from(2);
            }
            eprintln!(
                "campaign-report: {} verdict(s) aggregated into `{path}`",
                table.total_runs()
            );
        }
    }
    ExitCode::SUCCESS
}
