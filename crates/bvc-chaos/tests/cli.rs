//! `chaos-run` reads its command line strictly: what it cannot run as
//! written is rejected with usage and exit 2 before any search, churn or
//! replay starts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn chaos_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos-run"))
        .args(args)
        .output()
        .expect("chaos-run starts")
}

fn assert_rejected(args: &[&str], reason: &str) {
    let out = chaos_run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
}

#[test]
fn a_misspelt_flag_is_rejected_not_defaulted() {
    assert_rejected(&["--search", "--sed", "5"], "unexpected argument `--sed`");
}

#[test]
fn two_modes_are_rejected() {
    assert_rejected(&["--search", "--churn"], "exactly one of");
    assert_rejected(
        &["--replay", "scenarios/repros", "--search"],
        "exactly one of",
    );
}

#[test]
fn a_flag_is_not_taken_as_a_value() {
    assert_rejected(&["--search", "--repros", "--pin"], "--repros needs a value");
    assert_rejected(&["--search", "--seed"], "--seed needs a value");
}

#[test]
fn a_flag_of_another_mode_or_given_twice_is_rejected() {
    assert_rejected(&["--churn", "--pin"], "unexpected argument `--pin`");
    assert_rejected(
        &["--search", "--seed", "1", "--seed", "2"],
        "--seed given twice",
    );
    assert_rejected(&[], "exactly one of");
}

#[test]
fn replaying_a_directory_without_reproducers_is_an_error() {
    let empty = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-run-empty-repros");
    std::fs::create_dir_all(&empty).expect("scratch directory");
    let out = chaos_run(&["--replay", empty.to_str().expect("UTF-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no reproducers under"), "{stderr}");
}
