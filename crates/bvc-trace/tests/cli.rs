//! `trace-report` reads its command line strictly: what it cannot run as
//! written is rejected with usage and exit 2 before any trace is read.

use std::path::Path;
use std::process::{Command, Output};

/// The golden trace, a valid `bvc-trace/v1` document.
fn golden() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("scenarios/trace/trace_smoke.golden.jsonl");
    path.to_str().expect("UTF-8 path").to_string()
}

fn trace_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-report"))
        .args(args)
        .output()
        .expect("trace-report starts")
}

fn assert_rejected(args: &[&str], reason: &str) {
    let out = trace_report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn a_second_in_is_rejected_not_read() {
    let trace = golden();
    assert_rejected(&["--in", &trace, "--in", &trace], "--in given twice");
    assert_rejected(
        &["--in", &trace, "--check", "--check"],
        "--check given twice",
    );
}

#[test]
fn a_flag_is_not_taken_as_the_trace() {
    assert_rejected(&["--in", "--check"], "--in needs a value");
    assert_rejected(&["--check", "--in"], "--in needs a value");
}

#[test]
fn an_unknown_flag_is_rejected() {
    let trace = golden();
    assert_rejected(
        &["--in", &trace, "--out", "x.md"],
        "unexpected argument `--out`",
    );
}

#[test]
fn a_command_line_without_in_is_rejected() {
    assert_rejected(&[], "--in is required");
    assert_rejected(&["--check"], "--in is required");
}

#[test]
fn each_flag_once_still_checks_the_trace() {
    let out = trace_report(&["--check", "--in", &golden()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("is valid bvc-trace/v1"), "{stdout}");
}
