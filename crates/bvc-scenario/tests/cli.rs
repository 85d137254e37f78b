//! `scenario-run`, `campaign-run`, `service-run` and `campaign-report` read
//! their command lines strictly: a flag given twice is rejected with usage
//! and exit 2 before anything runs, instead of the last value silently
//! winning.

use std::path::Path;
use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    // The scenario paths below are relative to the repository root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(binary)
        .args(args)
        .current_dir(root)
        .output()
        .expect("the binary starts")
}

fn assert_rejected(binary: &str, args: &[&str], reason: &str) {
    let out = run(binary, args);
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

const SCENARIO: &str = "scenarios/partition_heal.toml";

#[test]
fn scenario_run_rejects_a_flag_given_twice() {
    let bin = env!("CARGO_BIN_EXE_scenario-run");
    for (flag, first, second) in [
        ("--seed", "1", "2"),
        ("--strategy", "equivocate", "silent"),
        ("--trace", "a.jsonl", "b.jsonl"),
        ("--scenario", SCENARIO, SCENARIO),
    ] {
        let mut args = vec!["--scenario", SCENARIO];
        if flag == "--scenario" {
            args.clear();
        }
        args.extend([flag, first, flag, second]);
        assert_rejected(bin, &args, &format!("{flag} given twice"));
    }
    // Each flag once still runs: one verdict line, exit 0.
    let out = run(bin, &["--scenario", SCENARIO, "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 1);
}

#[test]
fn campaign_run_rejects_a_flag_given_twice() {
    let bin = env!("CARGO_BIN_EXE_campaign-run");
    assert_rejected(
        bin,
        &[SCENARIO, "--jobs", "1", "--jobs", "2"],
        "--jobs given twice",
    );
    assert_rejected(
        bin,
        &["--dir", "scenarios", "--dir", "scenarios/trace"],
        "--dir given twice",
    );
    assert_rejected(
        bin,
        &[SCENARIO, "--out", "a.jsonl", "--out", "b.jsonl"],
        "--out given twice",
    );
}

const SERVICE: &str = "scenarios/service/service_smoke.toml";

#[test]
fn service_run_rejects_a_flag_given_twice() {
    let bin = env!("CARGO_BIN_EXE_service-run");
    for (flag, first, second) in [
        ("--instances", "5", "7"),
        ("--workers", "1", "2"),
        ("--out", "a.jsonl", "b.jsonl"),
        ("--stats", "a.json", "b.json"),
        ("--trace", "a.jsonl", "b.jsonl"),
        ("--scenario", SERVICE, SERVICE),
    ] {
        let mut args = vec!["--scenario", SERVICE];
        if flag == "--scenario" {
            args.clear();
        }
        args.extend([flag, first, flag, second]);
        assert_rejected(bin, &args, &format!("{flag} given twice"));
    }
    assert_rejected(
        bin,
        &["--scenario", SERVICE, "--cold-cache", "--cold-cache"],
        "--cold-cache given twice",
    );
    // Each flag once still runs: one verdict line per instance, exit 0.
    let out = run(bin, &["--scenario", SERVICE, "--instances", "3"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 3);
}

#[test]
fn campaign_report_rejects_a_flag_given_twice() {
    let bin = env!("CARGO_BIN_EXE_campaign-report");
    for (flag, first, second) in [
        ("--in", "a.jsonl", "b.jsonl"),
        ("--out", "a.md", "b.md"),
        ("--title", "first", "second"),
    ] {
        let mut args = vec!["--in", "a.jsonl"];
        if flag == "--in" {
            args.clear();
        }
        args.extend([flag, first, flag, second]);
        assert_rejected(bin, &args, &format!("{flag} given twice"));
    }
}
