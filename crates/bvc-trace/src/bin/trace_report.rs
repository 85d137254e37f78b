//! `trace-report` — aggregate a `bvc-trace/v1` JSONL trace into tables.
//!
//! ```text
//! trace-report --in trace.jsonl            # full report to stdout
//! trace-report --in trace.jsonl --check    # schema validation only
//! ```
//!
//! The report is [`bvc_trace::report`]; `--check` prints only whether every
//! line decoded.  Exit code 0 on success, 1 on a schema violation, 2 on
//! an I/O error.  A malformed command line exits 2 with the usage before
//! anything runs: see [`bvc_trace::cli`].

use bvc_trace::cli::Cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::new(
        "trace-report",
        "usage: trace-report --in <trace.jsonl> [--check]",
    );
    let args = cli.read(&[("--in", true), ("--check", false)]);
    let path = args.required("--in");
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("trace-report: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };

    match bvc_trace::report(&text) {
        Err(e) => {
            eprintln!("trace-report: `{path}`: {e}");
            ExitCode::from(1)
        }
        Ok(_) if args.has("--check") => {
            // The report decoded every line after the header, and a valid
            // trace has no blank line, so each of them is one event.
            let events = text.lines().count() - 1;
            println!("trace-report: `{path}` is valid bvc-trace/v1 ({events} event(s))");
            ExitCode::SUCCESS
        }
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
    }
}
