//! Tier-1 reach for the cross-layer byte pins.
//!
//! `cargo test -q` at the root builds only the facade crate, so the pins that
//! define "the same behaviour" for a delivery or driver refactor — the golden
//! trace, the verdict corpus and the pinned chaos counterexamples — would
//! otherwise run only under `--workspace` or in CI.  This replays the
//! committed pin files (it adds one, the report pin):
//!
//! * `scenarios/trace/trace_smoke.toml` under a JSONL tracer, byte-compared
//!   with `scenarios/trace/trace_smoke.golden.jsonl` (every `send`,
//!   `deliver` and round event of one restricted-sync run, in order);
//! * the `trace-report` of that golden trace, byte-compared with
//!   `scenarios/trace/trace_smoke.report.md`;
//! * one base instance per `scenarios/*.toml`, byte-compared with
//!   `crates/bvc-scenario/tests/corpus/catalogue_single.jsonl` (all seven
//!   protocols, both simulated executors, faults, topologies, local
//!   broadcast — cheap in a debug build);
//! * every `scenarios/repros/*.toml`, byte-compared with its sibling
//!   `.expected` verdict line (what `chaos-run --replay` does; `bvc-chaos`
//!   is not behind the facade, but the replay needs only the scenario
//!   runner).

use bvc::scenario::{run_scenario, ScenarioSpec};
use bvc::trace::{install, render_trace, TraceHandle};
use std::path::{Path, PathBuf};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `*.toml` files directly under `relative`, sorted by name.
fn toml_files(relative: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files
}

/// The file's name (for failure messages) and the scenario it holds.
fn load(file: &Path) -> (String, ScenarioSpec) {
    let name = file.file_name().unwrap().to_string_lossy().into_owned();
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{name}: {e}"));
    let spec = ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    (name, spec)
}

fn verdict_line(name: &str, spec: &ScenarioSpec) -> String {
    run_scenario(spec, spec.seed, spec.strategy, spec.policy.clone())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .to_json()
}

#[test]
fn trace_smoke_reproduces_the_golden_trace() {
    let spec = ScenarioSpec::from_toml(&read("scenarios/trace/trace_smoke.toml")).unwrap();
    let handle = TraceHandle::jsonl();
    {
        let _scope = install(handle.clone(), 0);
        verdict_line("trace_smoke.toml", &spec);
    }
    let trace = render_trace(&handle.finish());
    let golden = read("scenarios/trace/trace_smoke.golden.jsonl");
    // Compare line by line first: a 4786-line string diff is unreadable.
    for (index, (fresh, pinned)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(fresh, pinned, "trace line {} drifted", index + 1);
    }
    assert_eq!(trace, golden, "trace length drifted");
}

#[test]
fn golden_trace_report_is_pinned() {
    let golden = read("scenarios/trace/trace_smoke.golden.jsonl");
    let report = bvc::trace::report(&golden).expect("the golden trace decodes");
    assert_eq!(report, read("scenarios/trace/trace_smoke.report.md"));
}

#[test]
fn catalogue_base_instances_reproduce_the_corpus() {
    let files = toml_files("scenarios");
    let corpus = read("crates/bvc-scenario/tests/corpus/catalogue_single.jsonl");
    assert_eq!(
        files.len(),
        corpus.lines().count(),
        "one corpus line per scenario file, in sorted-filename order"
    );
    for (file, pinned) in files.iter().zip(corpus.lines()) {
        let (name, spec) = load(file);
        assert_eq!(
            verdict_line(&name, &spec),
            pinned,
            "{name}: verdict drifted"
        );
    }
}

#[test]
fn pinned_repros_reproduce_their_expected_verdicts() {
    let files = toml_files("scenarios/repros");
    assert_eq!(files.len(), 7, "one pair per pinned counterexample family");
    for file in &files {
        let (name, spec) = load(file);
        let expected = file.with_extension("expected");
        let pinned = std::fs::read_to_string(&expected)
            .unwrap_or_else(|e| panic!("{}: {e}", expected.display()));
        assert_eq!(
            format!("{}\n", verdict_line(&name, &spec)),
            pinned,
            "{name}: verdict drifted"
        );
    }
}
