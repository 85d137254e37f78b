//! `scenario-run` and `campaign-run` read their command lines strictly: a
//! flag given twice is rejected with usage and exit 2 before anything runs,
//! instead of the last value silently winning.

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
