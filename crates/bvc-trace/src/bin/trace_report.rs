//! `trace-report` — aggregate a `bvc-trace/v1` JSONL trace into tables.
//!
//! ```text
//! trace-report --in trace.jsonl            # full report to stdout
//! trace-report --in trace.jsonl --check    # schema validation only
//! ```
//!
//! The report is [`bvc_trace::report`]; `--check` prints only whether every
//! line decoded.  Exit code 0 on success, 1 on a schema violation, 2 on
//! usage or I/O errors.

use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: trace-report --in <trace.jsonl> [--check]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut input: Option<String> = None;
    let mut check_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--in" => input = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check_only = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("trace-report: unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(path) = input else { usage() };
    let text = match std::fs::read_to_string(&path) {
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
        Ok(_) if check_only => {
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
