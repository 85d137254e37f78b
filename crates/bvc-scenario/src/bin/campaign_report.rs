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
//! command line (an unknown flag, a missing value, a flag given twice) exits
//! 2 with usage.

use bvc_scenario::cli::Cli;
use bvc_scenario::ViolationTable;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: campaign-report --in <verdicts.jsonl> [--out <report.md>] [--title <t>]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let cli = Cli::new("campaign-report", usage);
    let mut args = std::env::args().skip(1);
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut title: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--in" => cli.set(&mut input, &arg, PathBuf::from(value())),
            "--out" => cli.set(&mut output, &arg, PathBuf::from(value())),
            "--title" => cli.set(&mut title, &arg, value()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("campaign-report: unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(input) = input else { usage() };
    let title = title.unwrap_or_else(|| "Campaign violation rates".to_string());

    let text = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("campaign-report: cannot read `{}`: {e}", input.display());
            return ExitCode::from(2);
        }
    };
    let table = ViolationTable::from_jsonl(&text);
    if table.total_runs() == 0 {
        eprintln!(
            "campaign-report: no verdicts found in `{}` ({} line(s) skipped)",
            input.display(),
            table.skipped
        );
        return ExitCode::from(2);
    }
    let markdown = table.to_markdown(&title);
    match &output {
        None => print!("{markdown}"),
        Some(path) => {
            // The embedded recipe must reproduce this exact file (CI diffs
            // the regenerated table against the committed one), so the title
            // is included verbatim.
            let document = format!(
                "# EXPERIMENTS\n\n\
                 Generated by `campaign-report` from `{in_}`; regenerate with\n\n\
                 ```text\n\
                 cargo run --release -p bvc-scenario --bin campaign-run -- --dir scenarios --out {in_}\n\
                 cargo run --release -p bvc-scenario --bin campaign-report -- \\\n    \
                 --in {in_} --out {out} --title \"{title}\"\n\
                 ```\n\n{markdown}",
                in_ = input.display(),
                out = path.display(),
            );
            if let Err(e) = std::fs::write(path, document) {
                eprintln!("campaign-report: cannot write `{}`: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "campaign-report: {} verdict(s) aggregated into `{}`",
                table.total_runs(),
                path.display()
            );
        }
    }
    ExitCode::SUCCESS
}
