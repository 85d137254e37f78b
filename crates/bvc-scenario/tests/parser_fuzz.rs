//! The two input parsers never panic: `bvc_scenario::toml::parse` /
//! `ScenarioSpec::from_toml` (scenario files) and `bvc_trace::Json::parse` /
//! `TraceEvent::from_json` (trace lines) answer `Ok` or a typed `Err` on
//! arbitrary text and on mutations of the shipped scenario files and golden
//! trace lines.
//!
//! Arbitrary bytes mostly fail on the first character, so the generator
//! draws from an alphabet weighted toward both grammars' punctuation, and the
//! mutations (delete, insert, duplicate, overwrite a byte span) start from
//! inputs the parsers accept, which reaches their deeper states.

use bvc_scenario::{toml, ScenarioSpec};
use bvc_trace::{Json, TraceEvent};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Bytes the two grammars give meaning to, plus a few they do not.
const ALPHABET: &[u8] = b"[]{}\",=:.#\n\\ -+eE0123456789aflnrstux_'\t\r\xc3\xa9\x00";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The text of every `.toml` file directly under each of `dirs`.
fn scenario_files(dirs: &[&str]) -> Vec<String> {
    let mut paths: Vec<PathBuf> = dirs
        .iter()
        .flat_map(|dir| std::fs::read_dir(root().join(dir)).expect("scenario directory"))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    paths.iter().map(|p| read(p)).collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `parse` on `input` and fails, naming the input, if it panics.
fn never_panics<T, E>(what: &str, input: &str, parse: impl Fn(&str) -> Result<T, E>) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse(input);
    }));
    assert!(outcome.is_ok(), "{what} panicked on {input:?}");
}

fn toml_parsers(input: &str) {
    never_panics("toml::parse", input, toml::parse);
    never_panics("ScenarioSpec::from_toml", input, ScenarioSpec::from_toml);
}

fn trace_parsers(input: &str) {
    never_panics("Json::parse", input, Json::parse);
    never_panics("TraceEvent::from_json", input, TraceEvent::from_json);
}

/// `base` with `edits` byte-span edits applied; `draws` supplies the
/// positions, lengths and kinds (four numbers per edit).
fn mutate(base: &str, draws: &[usize]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for edit in draws.chunks_exact(4) {
        let at = edit[0] % (bytes.len() + 1);
        let len = (edit[1] % 8).min(bytes.len() - at);
        let symbol = ALPHABET[edit[3] % ALPHABET.len()];
        match edit[2] % 4 {
            0 => drop(bytes.drain(at..at + len)),
            1 => bytes.insert(at, symbol),
            2 => {
                let span = bytes[at..at + len].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes[at..at + len].fill(symbol),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parsers_never_panic_on_arbitrary_text(
        len in 0usize..160,
        raw in prop::collection::vec(0usize..256, 160),
        weighted in prop::collection::vec(0usize..4, 160),
    ) {
        // Three draws in four come from the alphabet, the rest are raw bytes.
        let bytes: Vec<u8> = raw[..len]
            .iter()
            .zip(&weighted)
            .map(|(&b, &w)| if w == 0 { b as u8 } else { ALPHABET[b % ALPHABET.len()] })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        toml_parsers(&text);
        trace_parsers(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_mutated_scenarios_and_trace_lines(
        edits in 1usize..6,
        draws in prop::collection::vec(0usize..1 << 20, 24),
        line in 0usize..1 << 20,
    ) {
        let draws = &draws[..4 * edits];
        for text in scenario_files(&["scenarios", "scenarios/repros", "scenarios/trace"]) {
            toml_parsers(&mutate(&text, draws));
        }
        let golden = read(&root().join("scenarios/trace/trace_smoke.golden.jsonl"));
        let lines: Vec<&str> = golden.lines().collect();
        // Every event kind of the golden trace sits in its first and last
        // hundred lines; mutate a line of each end.
        for index in [line % 100, lines.len() - 1 - line % 100] {
            trace_parsers(&mutate(lines[index], draws));
        }
    }
}
