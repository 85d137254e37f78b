//! `scenario-run`, `campaign-run`, `service-run` and `campaign-report` never
//! take a flag as a value: a flag where a value belongs is rejected with
//! usage and exit 2 before anything runs, and no file is written (not even
//! one named after the flag).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A path of the repository, absolute, so the binary can run elsewhere.
fn repo(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join(path).to_str().expect("UTF-8 path").to_string()
}

/// Runs `binary` on `args` in an empty directory of its own and checks that
/// it exits 2 with `reason` and the usage, prints nothing on stdout and
/// leaves the directory empty.
fn assert_rejected(binary: &str, name: &str, args: &[&str], reason: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-values-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    let written: Vec<_> = fs::read_dir(&dir)
        .expect("scratch directory")
        .flatten()
        .map(|entry| entry.file_name())
        .collect();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}

#[test]
fn scenario_run_takes_no_flag_as_a_value() {
    let bin = env!("CARGO_BIN_EXE_scenario-run");
    let scenario = repo("scenarios/partition_heal.toml");
    assert_rejected(
        bin,
        "scenario-trace",
        &["--scenario", &scenario, "--trace", "--strategy"],
        "--trace needs a value",
    );
    assert_rejected(
        bin,
        "scenario-scenario",
        &["--scenario", "--seed", "1"],
        "--scenario needs a value",
    );
}

#[test]
fn campaign_run_takes_no_flag_as_a_value() {
    let bin = env!("CARGO_BIN_EXE_campaign-run");
    let scenario = repo("scenarios/partition_heal.toml");
    assert_rejected(
        bin,
        "campaign-out",
        &[&scenario, "--jobs", "1", "--out", "--dir"],
        "--out needs a value",
    );
}

#[test]
fn service_run_takes_no_flag_as_a_value() {
    let bin = env!("CARGO_BIN_EXE_service-run");
    let service = repo("scenarios/service/service_smoke.toml");
    assert_rejected(
        bin,
        "service-stats",
        &[
            "--scenario",
            &service,
            "--instances",
            "2",
            "--stats",
            "--cold-cache",
        ],
        "--stats needs a value",
    );
    assert_rejected(
        bin,
        "service-out",
        &[
            "--scenario",
            &service,
            "--instances",
            "2",
            "--out",
            "--trace",
            "t.jsonl",
        ],
        "--out needs a value",
    );
}

#[test]
fn campaign_report_takes_no_flag_as_a_value() {
    let bin = env!("CARGO_BIN_EXE_campaign-report");
    let verdicts = repo("crates/bvc-scenario/tests/corpus/campaign_verdicts.jsonl");
    assert_rejected(
        bin,
        "report-out",
        &["--in", &verdicts, "--out", "--title"],
        "--out needs a value",
    );
}
