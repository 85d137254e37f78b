//! Reproducer files: pin a shrunk counterexample as a standard scenario
//! TOML plus its expected verdict line, and replay the whole directory.
//!
//! A reproducer is two files in `scenarios/repros/`:
//!
//! * `<signature>.toml` — the shrunk spec in ordinary scenario form (it
//!   runs under `scenario-run` like any other scenario);
//! * `<signature>.expected` — the verdict JSON line the violation produced,
//!   byte-exact.
//!
//! This module is the lab's only TOML boundary: [`write_repro`] writes a
//! spec's text, and [`known_signatures`] and [`replay_dir`] read committed
//! files back.  That a pinned reproducer replays what the search ran is the
//! round trip `from_toml(text) == spec`, held by this module's tests for
//! every spec a seeded search samples, mutates and shrinks.  [`replay_dir`]
//! re-runs every committed reproducer through the same scenario runner the
//! search used and byte-compares the verdict against the pinned line — the
//! CI scenarios job fails on any drift.

use bvc_core::{FaultKind, LinkSelector};
use bvc_net::{DeliveryPolicy, ProcessId};
use bvc_scenario::{run_scenario, InputSpec, ScenarioSpec, ValidityMode};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The family signature of a spec, used to name reproducers and to match
/// fresh findings against pinned families:
/// `<protocol>-n<n>f<f>d<d>-<validity family>`, where the family is
/// `strict`, `alpha` or `k<k>` — deliberately independent of the α value,
/// so every small-α variant of one failure family shares a signature — with
/// a `-<topology>` suffix (`:` flattened to `-` so the signature stays a
/// valid file stem) when the spec declares one.  Every spec the lab builds
/// carries its signature as its `name`.
pub fn spec_signature(spec: &ScenarioSpec) -> String {
    let family = match spec.validity {
        None | Some(ValidityMode::Strict) => "strict".to_string(),
        Some(ValidityMode::AlphaScaled(_)) => "alpha".to_string(),
        Some(ValidityMode::KRelaxed(k)) => format!("k{k}"),
    };
    let mut signature = format!(
        "{}-n{}f{}d{}-{}",
        spec.protocol.name(),
        spec.n,
        spec.f,
        spec.d,
        family
    );
    if let Some(topology) = &spec.topology {
        let _ = write!(signature, "-{}", topology.name().replace(':', "-"));
    }
    signature
}

/// TOML float formatting: shortest round-trip, always with a decimal point
/// so the value parses back as a float (matching the verdict JSON rules).
fn toml_f64(x: f64) -> String {
    let mut s = format!("{x}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

/// Process indices as the body of a TOML array (`0, 2`).
fn toml_ids(ids: &[ProcessId]) -> String {
    let ids: Vec<String> = ids.iter().map(|p| p.index().to_string()).collect();
    ids.join(", ")
}

/// The scenario TOML of a lab spec — the text a reproducer pins below its
/// comment header.  It writes the lab's vocabulary: explicit inputs, a
/// strategy label, an optional validity mode and topology, the round-robin
/// schedule when chosen, and latency windows on directed links; value
/// bounds and the random-fair schedule are the schema's defaults.
fn repro_toml(spec: &ScenarioSpec) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "[scenario]\nname = \"{}\"", spec.name);
    let _ = writeln!(out, "protocol = \"{}\"", spec.protocol.name());
    let _ = writeln!(out, "n = {}", spec.n);
    let _ = writeln!(out, "f = {}", spec.f);
    let _ = writeln!(out, "d = {}", spec.d);
    let _ = writeln!(out, "epsilon = {}", toml_f64(spec.epsilon));
    let _ = writeln!(out, "seed = {}", spec.seed);
    let _ = writeln!(out, "max_steps = {}", spec.max_steps);
    match spec.validity {
        None => {}
        Some(ValidityMode::Strict) => out.push_str("validity = \"strict\"\n"),
        Some(ValidityMode::AlphaScaled(alpha)) => {
            let alpha = toml_f64(alpha);
            let _ = writeln!(out, "validity = \"alpha-relaxed\"\nalpha = {alpha}");
        }
        Some(ValidityMode::KRelaxed(k)) => {
            let _ = writeln!(out, "validity = \"k-relaxed\"\nk = {k}");
        }
    }
    out.push_str("\n[inputs]\ngenerator = \"explicit\"\npoints = [\n");
    if let InputSpec::Explicit { points } = &spec.inputs {
        for point in points {
            let coordinates: Vec<String> = point.iter().map(|c| toml_f64(*c)).collect();
            let _ = writeln!(out, "    [{}],", coordinates.join(", "));
        }
    }
    out.push_str("]\n");
    let strategy = spec.strategy.label();
    let _ = writeln!(out, "\n[adversary]\nstrategy = \"{strategy}\"");
    if let Some(topology) = &spec.topology {
        let _ = writeln!(out, "\n[topology]\nkind = \"{}\"", topology.name());
    }
    if spec.policy == DeliveryPolicy::RoundRobin {
        out.push_str("\n[delivery]\npolicy = \"round-robin\"\n");
    }
    for event in spec.faults.events() {
        if let FaultKind::Latency {
            extra,
            links: LinkSelector::Directed(from, to),
        } = &event.kind
        {
            let _ = writeln!(
                out,
                "\n[[faults]]\nkind = \"latency\"\nextra = {extra}\nfrom = [{}]\nto = [{}]\n\
                 start = {}\nduration = {}",
                toml_ids(from),
                toml_ids(to),
                event.start,
                event.duration,
            );
        }
    }
    out
}

/// Signatures of every committed reproducer in `dir` (empty if the
/// directory does not exist).
///
/// # Errors
///
/// I/O failures reading the directory, or a committed file that no longer
/// parses as a scenario.
pub fn known_signatures(dir: &Path) -> io::Result<Vec<String>> {
    let mut signatures = Vec::new();
    if !dir.exists() {
        return Ok(signatures);
    }
    for path in toml_files(dir)? {
        let text = fs::read_to_string(&path)?;
        let spec = ScenarioSpec::from_toml(&text)
            .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
        signatures.push(spec_signature(&spec));
    }
    Ok(signatures)
}

/// Writes the reproducer pair for a shrunk violating lab spec, named by
/// its `name` (the family signature), returning the TOML path.
/// `expected_line` must be the verdict JSON of the violating run (no
/// trailing newline needed).
///
/// # Errors
///
/// Filesystem errors creating the directory or files.
pub fn write_repro(
    dir: &Path,
    spec: &ScenarioSpec,
    expected_line: &str,
    master_seed: u64,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let signature = &spec.name;
    let toml_path = dir.join(format!("{signature}.toml"));
    let flags_note = format!(
        "# Found by `chaos-run --search` (master seed {master_seed}) and shrunk to this\n\
         # minimal form; the violation is genuine (resource check satisfied, no fault\n\
         # outside the protocol's model).  Replay and byte-compare against\n\
         # `{signature}.expected` with:\n\
         #\n\
         #   cargo run --release -p bvc-chaos --bin chaos-run -- --replay {}\n\n",
        dir.display()
    );
    fs::write(&toml_path, format!("{flags_note}{}", repro_toml(spec)))?;
    let mut expected = expected_line.to_string();
    expected.push('\n');
    fs::write(dir.join(format!("{signature}.expected")), expected)?;
    Ok(toml_path)
}

/// The outcome of replaying one committed reproducer.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// The reproducer TOML path.
    pub path: PathBuf,
    /// `true` when the fresh verdict byte-matched the pinned line.
    pub matched: bool,
    /// Human-readable detail for mismatches/errors.
    pub detail: String,
}

/// Replays every `*.toml` under `dir` (sorted by name) and byte-compares
/// each verdict against its `.expected` sibling.
///
/// # Errors
///
/// I/O failures walking the directory; per-file run/parse failures are
/// reported as unmatched [`ReplayResult`]s, not errors.
pub fn replay_dir(dir: &Path) -> io::Result<Vec<ReplayResult>> {
    let mut results = Vec::new();
    for path in toml_files(dir)? {
        results.push(replay_one(&path));
    }
    Ok(results)
}

fn replay_one(path: &Path) -> ReplayResult {
    let fail = |detail: String| ReplayResult {
        path: path.to_path_buf(),
        matched: false,
        detail,
    };
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail(format!("unreadable: {e}")),
    };
    let spec = match ScenarioSpec::from_toml(&text) {
        Ok(spec) => spec,
        Err(e) => return fail(format!("parse: {e}")),
    };
    let outcome = match run_scenario(&spec, spec.seed, spec.strategy, spec.policy.clone()) {
        Ok(outcome) => outcome,
        Err(e) => return fail(format!("run: {e}")),
    };
    let expected_path = path.with_extension("expected");
    let expected = match fs::read_to_string(&expected_path) {
        Ok(expected) => expected,
        Err(e) => {
            return fail(format!(
                "missing pinned verdict {}: {e}",
                expected_path.display()
            ))
        }
    };
    let fresh = format!("{}\n", outcome.to_json());
    if fresh == expected {
        ReplayResult {
            path: path.to_path_buf(),
            matched: true,
            detail: "byte-identical".to_string(),
        }
    } else {
        fail(format!(
            "verdict drift:\n  pinned: {}\n  fresh:  {}",
            expected.trim_end(),
            fresh.trim_end()
        ))
    }
}

/// Sorted `*.toml` paths under `dir`.
fn toml_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{mutate, sample, search, SearchConfig};
    use crate::shrink::shrink;
    use bvc_scenario::Protocol;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_round_trips(spec: &ScenarioSpec) {
        let text = repro_toml(spec);
        let parsed = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("{e} in the written text:\n{text}"));
        assert_eq!(&parsed, spec, "the written text:\n{text}");
    }

    #[test]
    fn every_searched_spec_round_trips_through_its_repro_text() {
        // Samples and mutation chains over the default space and a space
        // with both directed kinds (topologies, broadcast flips)…
        let mut directed = SearchConfig::new(0, 0, 0).space;
        directed.protocols = vec![
            Protocol::Exact,
            Protocol::DirectedExact,
            Protocol::DirectedExactLb,
        ];
        let mut seen = Vec::new();
        for space in [SearchConfig::new(0, 0, 0).space, directed] {
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..12 {
                let mut spec = sample(&mut rng, &space);
                assert_round_trips(&spec);
                for _ in 0..30 {
                    spec = mutate(&spec, &mut rng, &space).0;
                    assert_round_trips(&spec);
                    seen.push(spec.clone());
                }
            }
        }
        // The chains reach every optional part of the written text.
        assert!(seen.iter().any(|s| !s.faults.is_empty()));
        assert!(seen.iter().any(|s| s.policy == DeliveryPolicy::RoundRobin));
        assert!(seen.iter().any(|s| s.topology.is_some()));
        for family in ["-strict", "-alpha", "-k"] {
            assert!(seen.iter().any(|s| s.name.contains(family)), "{family}");
        }
        // …and what a small seeded search finds, before and after shrinking:
        // at d = 3, where an α-relaxed exact run is admitted below the
        // strict floor (a latency window on this synchronous protocol
        // excuses what it breaks, so the smaller shapes find nothing).
        let mut config = SearchConfig::new(0, 3, 6);
        config.space.protocols = vec![Protocol::Exact];
        config.space.f_range = (1, 1);
        config.space.d_range = (3, 3);
        config.space.n_slack = 1;
        config.space.alpha_max = 2.0;
        let findings = search(&config).findings;
        assert!(
            !findings.is_empty(),
            "the seeded search must find something"
        );
        for finding in findings {
            assert_round_trips(&finding.spec);
            assert_round_trips(&shrink(&finding.spec, finding.flags).spec);
        }
    }

    #[test]
    fn signatures_name_the_failure_family_not_the_alpha_value() {
        let mut config = SearchConfig::new(0, 0, 0);
        config.space.protocols = vec![Protocol::DirectedExactLb];
        let mut spec = sample(&mut StdRng::seed_from_u64(5), &config.space);
        (spec.n, spec.f, spec.d) = (8, 1, 2);
        spec.topology = None;
        spec.validity = Some(ValidityMode::AlphaScaled(0.25));
        let small = spec_signature(&spec);
        spec.validity = Some(ValidityMode::AlphaScaled(3.0));
        assert_eq!(spec_signature(&spec), small);
        assert_eq!(small, "directed-exact-lb-n8f1d2-alpha");
        spec.validity = Some(ValidityMode::KRelaxed(1));
        assert_eq!(spec_signature(&spec), "directed-exact-lb-n8f1d2-k1");
        spec.validity = None;
        spec.topology = Some(bvc_scenario::TopologySpec::RandomRegular { degree: 4 });
        assert_eq!(
            spec_signature(&spec),
            "directed-exact-lb-n8f1d2-strict-random-regular-4",
            "the topology suffix flattens `:` into a file-stem-safe `-`"
        );
    }

    #[test]
    fn committed_reproducers_survive_a_write_and_a_reparse() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/repros");
        let paths = toml_files(&dir).expect("the committed reproducers are readable");
        assert!(!paths.is_empty(), "no reproducers under {}", dir.display());
        for path in paths {
            let text = fs::read_to_string(&path).unwrap();
            let spec = ScenarioSpec::from_toml(&text).unwrap();
            assert_eq!(spec.name, spec_signature(&spec), "{}", path.display());
            assert_round_trips(&spec);
        }
    }
}
