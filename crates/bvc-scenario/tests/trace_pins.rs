//! Pins of the bvc-trace determinism contract at the scenario/service level:
//!
//! 1. the verdict stream of a traced run is **byte-identical** to an
//!    untraced one (tracing is observationally transparent);
//! 2. the trace itself is **byte-deterministic**: same scenario + seed ⇒
//!    identical `bvc-trace/v1` document, and for service streams the same
//!    holds across worker counts (per-instance slots + per-slot sequence
//!    numbers canonicalise scheduling);
//! 3. event-stream invariants on every run path: every `round_open` is
//!    closed, `delivered` never exceeds `sent`, and every engine-computed Γ
//!    point query is path-attributed;
//! 4. the Γ totals recorded in `ExecutionStats` / `ServiceStats` equal the
//!    per-path call counts in the trace — the contract `trace-report`'s
//!    hot-path breakdown relies on (the trace is the only per-path account).

use bvc_core::{InstanceOverrides, ProtocolKind, RunConfig};
use bvc_geometry::{Point, WorkloadGenerator};
use bvc_scenario::{run_scenario, ScenarioSpec};
use bvc_service::{BvcService, CacheMode, MemorySink, ServiceConfig};
use bvc_trace::{install, parse_flat, render_trace, Json, TraceHandle};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Runs `f` under a fresh JSONL trace scope and returns (result, trace
/// lines in canonical order).
fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let handle = TraceHandle::jsonl();
    let value = {
        let _scope = install(handle.clone(), 0);
        f()
    };
    (value, handle.finish())
}

fn spec_from(toml: &str) -> ScenarioSpec {
    ScenarioSpec::from_toml(toml).expect("inline spec parses")
}

/// A cheap restricted-sync shape for the determinism and invariant pins
/// (tens of rounds in a debug build).
fn small_spec() -> ScenarioSpec {
    spec_from(
        r#"
[scenario]
name = "trace-pin-small"
protocol = "restricted-sync"
n = 5
f = 1
d = 2
epsilon = 0.1

[inputs]
generator = "random-ball"
center = [0.5, 0.5]
radius = 0.4

[adversary]
strategy = "equivocate"
"#,
    )
}

/// The acceptance-criterion shape: restricted-sync, n = 9, f = 2, d = 2.
/// ε is kept loose so the single traced run stays affordable in a debug
/// build — the Γ-attribution contract under test is ε-independent.
fn acceptance_spec() -> ScenarioSpec {
    spec_from(
        r#"
[scenario]
name = "trace-pin-acceptance"
protocol = "restricted-sync"
n = 9
f = 2
d = 2
epsilon = 0.35

[inputs]
generator = "random-ball"
center = [0.5, 0.5]
radius = 0.4

[adversary]
strategy = "equivocate"
"#,
    )
}

/// The one shape whose Γ(S) query walks 45 subset hulls: exact BVC at
/// n = 10, f = 2, d = 3.
fn heavy_spec() -> ScenarioSpec {
    spec_from(
        r#"
[scenario]
name = "trace-pin-heavy"
protocol = "exact"
n = 10
f = 2
d = 3

[inputs]
generator = "random-ball"
center = [0.5, 0.5, 0.5]
radius = 0.4

[adversary]
strategy = "equivocate"
"#,
    )
}

/// A small restricted-sync service stream with repeated seeds (so the
/// shared parent cache sees cross-instance traffic in the trace).
fn stream(instances: usize) -> ServiceConfig {
    let template = RunConfig::new(5, 1, 2).epsilon(0.1);
    let overrides = (0..instances)
        .map(|i| {
            let seed = i as u64 % 4;
            InstanceOverrides {
                seed,
                honest_inputs: Some(
                    (0..4)
                        .map(|p| {
                            Point::new(vec![
                                (seed as f64 * 0.31 + p as f64 * 0.17) % 1.0,
                                (seed as f64 * 0.47 + p as f64 * 0.13) % 1.0,
                            ])
                        })
                        .collect(),
                ),
                ..InstanceOverrides::default()
            }
        })
        .collect();
    ServiceConfig::new(ProtocolKind::RestrictedSync, template)
        .instances(overrides)
        .label("trace-pin")
}

/// Two instances of the [`heavy_spec`] shape as a service stream.
fn heavy_stream() -> ServiceConfig {
    let overrides = (0..2)
        .map(|seed| InstanceOverrides {
            seed,
            honest_inputs: Some(
                WorkloadGenerator::new(seed)
                    .box_points(8, 3, 0.0, 1.0)
                    .points()
                    .to_vec(),
            ),
            ..InstanceOverrides::default()
        })
        .collect();
    ServiceConfig::new(ProtocolKind::Exact, RunConfig::new(10, 2, 3))
        .instances(overrides)
        .label("trace-pin-heavy")
}

fn parsed(lines: &[String]) -> Vec<BTreeMap<String, Json>> {
    lines
        .iter()
        .map(|line| parse_flat(line).expect("trace lines are flat JSON"))
        .collect()
}

fn str_field<'a>(map: &'a BTreeMap<String, Json>, key: &str) -> &'a str {
    map.get(key).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn trace_is_byte_deterministic_and_transparent_for_the_pinned_scenario() {
    for spec in [small_spec(), heavy_spec()] {
        let untraced = run_scenario(&spec, 11, spec.strategy, spec.policy.clone()).unwrap();
        let (first, lines_a) =
            capture(|| run_scenario(&spec, 11, spec.strategy, spec.policy.clone()).unwrap());
        let (_, lines_b) =
            capture(|| run_scenario(&spec, 11, spec.strategy, spec.policy.clone()).unwrap());
        assert_eq!(
            untraced.to_json(),
            first.to_json(),
            "tracing must not perturb the verdict stream"
        );
        assert_eq!(
            render_trace(&lines_a),
            render_trace(&lines_b),
            "same scenario + seed must yield a byte-identical trace"
        );
        // The run's first Γ query misses its trimmed-centre probe, i.e. the
        // depth region refuted the centre.  At d ≤ 3 the region refutes by
        // orientation signs alone (no subset hull, no membership LP), so no
        // refuting `infeasible` simplex comes before that query's `gamma`
        // event.  In R³ the one solve there may be is the region's centre
        // LP, which is never infeasible (its start is feasible).
        let events = parsed(&lines_a);
        let first_gamma = events
            .iter()
            .position(|m| str_field(m, "ev") == "gamma")
            .expect("both protocols query Γ");
        assert_eq!(
            events[first_gamma].get("probe_missed"),
            Some(&Json::Bool(true))
        );
        assert!(
            spec.d <= 3,
            "{}: the pinned scenarios are planar or spatial",
            spec.name
        );
        let solves: Vec<&str> = events[..first_gamma]
            .iter()
            .filter(|m| str_field(m, "ev") == "simplex")
            .map(|m| str_field(m, "status"))
            .collect();
        assert!(
            solves.len() <= usize::from(spec.d == 3) && solves.iter().all(|&s| s == "optimal"),
            "{}: the first Γ query ran {solves:?}; the depth region runs at most its centre LP, in R³",
            spec.name
        );
    }
}

/// One scenario per run path, each with Γ traffic of its own: the trace is
/// the only partition of a run's Γ queries, so it must account for all of
/// them on every path.  Exact under k-relaxed validity counts two queries
/// per Step-2 miss — the `decision` query and its strict leg.
fn run_path_specs() -> Vec<(&'static str, ScenarioSpec)> {
    [
        (
            "approx",
            "protocol = \"approx\"\nn = 5\nf = 1\nd = 2\nepsilon = 0.1\n",
        ),
        (
            "restricted-async",
            "protocol = \"restricted-async\"\nn = 6\nf = 1\nd = 1\nepsilon = 0.1\n",
        ),
        (
            "iterative",
            "protocol = \"iterative\"\nn = 8\nf = 0\nd = 1\nepsilon = 0.05\n\
             [topology]\nkind = \"ring\"\n",
        ),
        (
            "directed-exact",
            "protocol = \"directed-exact\"\nn = 8\nf = 1\nd = 2\n\
             [topology]\nkind = \"random-regular:4\"\n[adversary]\nstrategy = \"crash:1\"\n",
        ),
        (
            "exact-k-relaxed",
            "protocol = \"exact\"\nn = 5\nf = 1\nd = 2\nvalidity = \"k-relaxed\"\nk = 1\n",
        ),
    ]
    .into_iter()
    .map(|(name, body)| {
        let spec = spec_from(&format!("[scenario]\nname = \"{name}\"\n{body}"));
        (name, spec)
    })
    .chain([("restricted-sync", small_spec())])
    .collect()
}

#[test]
fn event_invariants_hold_on_every_run_path() {
    for (name, spec) in run_path_specs() {
        let (outcome, lines) =
            capture(|| run_scenario(&spec, 3, spec.strategy, spec.policy.clone()).unwrap());

        // Every round_open is closed (and vice versa), per slot.
        let mut opened: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut closed: BTreeSet<(u64, u64)> = BTreeSet::new();
        let (mut sent, mut delivered) = (0u64, 0u64);
        let mut gamma_kinds: BTreeMap<String, u64> = BTreeMap::new();
        for map in parsed(&lines) {
            let slot = map.get("slot").and_then(Json::as_u64).unwrap_or(0);
            match str_field(&map, "ev") {
                "round_open" => {
                    let round = map.get("round").and_then(Json::as_u64).unwrap();
                    opened.insert((slot, round));
                }
                "round_close" => {
                    let round = map.get("round").and_then(Json::as_u64).unwrap();
                    closed.insert((slot, round));
                }
                "send" => sent += 1,
                "deliver" => delivered += 1,
                "gamma" => {
                    *gamma_kinds
                        .entry(str_field(&map, "kind").into())
                        .or_default() += 1;
                    // Engine-computed point queries are always
                    // path-attributed; only relaxed decision-kind queries
                    // go unattributed.
                    if str_field(&map, "cache") == "miss" && str_field(&map, "kind") != "decision" {
                        assert!(
                            map.get("path").and_then(Json::as_str).is_some(),
                            "{name}: miss without path attribution: {map:?}"
                        );
                    }
                }
                _ => {}
            }
        }
        assert_eq!(opened, closed, "{name}: every round_open must be closed");
        assert_eq!(
            opened.is_empty(),
            spec.protocol.is_async(),
            "{name}: sync runs open rounds"
        );
        assert!(
            delivered <= sent,
            "{name}: delivered {delivered} > sent {sent}"
        );
        let gamma_total: u64 = gamma_kinds.values().sum();
        assert!(gamma_total > 0, "{name}: Γ work happened");
        assert_eq!(
            gamma_total, outcome.stats.gamma_queries,
            "{name}: trace Γ events must equal the ExecutionStats total"
        );
        if name == "exact-k-relaxed" {
            assert_eq!(
                gamma_kinds.len(),
                2,
                "{name}: decision and strict leg: {gamma_kinds:?}"
            );
        }
    }
}

/// The acceptance pin: on the n = 9, f = 2, d = 2 restricted-sync trace the
/// per-path call counts (the rows of `trace-report`'s Γ hot-path breakdown)
/// sum to exactly the Γ query total recorded in `ExecutionStats`.
#[test]
fn gamma_breakdown_rows_sum_to_recorded_totals() {
    let spec = acceptance_spec();
    let (outcome, lines) =
        capture(|| run_scenario(&spec, 5, spec.strategy, spec.policy.clone()).unwrap());
    let mut rows: BTreeMap<String, u64> = BTreeMap::new();
    for map in parsed(&lines) {
        if str_field(&map, "ev") != "gamma" {
            continue;
        }
        let row = match str_field(&map, "cache") {
            "local" => "cache-local".to_string(),
            "parent" => "cache-parent".to_string(),
            _ => match map.get("path").and_then(Json::as_str) {
                Some(path) => path.to_string(),
                None => "unattributed".to_string(),
            },
        };
        *rows.entry(row).or_default() += 1;
    }
    let sum: u64 = rows.values().sum();
    assert!(outcome.stats.gamma_queries > 0, "Γ work happened");
    assert_eq!(
        sum, outcome.stats.gamma_queries,
        "breakdown rows must partition the recorded Γ total: {rows:?}"
    );
}

fn run_service(
    stream: ServiceConfig,
    workers: usize,
    mode: CacheMode,
) -> ((Vec<String>, bvc_service::ServiceStats), Vec<String>) {
    capture(|| {
        let mut sink = MemorySink::new();
        let stats = BvcService::new(stream.workers(workers).cache_mode(mode))
            .expect("stream admits")
            .run(&mut sink)
            .expect("memory sink cannot fail");
        (sink.into_lines(), stats)
    })
}

/// With isolated per-instance caches the service trace is byte-identical
/// across worker counts: per-instance slots plus per-slot sequence numbers
/// canonicalise the physical interleaving.
#[test]
fn per_instance_service_trace_is_byte_identical_across_worker_counts() {
    for (stream, instances) in [(stream(12), 12), (heavy_stream(), 2)] {
        let ((verdicts_1, stats_1), trace_1) =
            run_service(stream.clone(), 1, CacheMode::PerInstance);
        let ((verdicts_4, stats_4), trace_4) = run_service(stream, 4, CacheMode::PerInstance);
        assert_eq!(verdicts_1, verdicts_4);
        assert_eq!(
            render_trace(&trace_1),
            render_trace(&trace_4),
            "per-instance slots must canonicalise worker scheduling"
        );
        // Span accounting matches the stream, and the service-level Γ total
        // equals the trace's gamma event count.
        let events = parsed(&trace_1);
        let spans = events
            .iter()
            .filter(|m| str_field(m, "ev") == "span_close")
            .count();
        assert_eq!(spans, instances, "one span per instance");
        let gammas = events
            .iter()
            .filter(|m| str_field(m, "ev") == "gamma")
            .count() as u64;
        assert_eq!(gammas, stats_1.messages.gamma_queries);
        assert_eq!(
            stats_1.messages.gamma_queries,
            stats_4.messages.gamma_queries
        );
    }
}

/// With a shared parent cache, *which* instance warms the parent first is a
/// worker-scheduling race, so two things in the trace legitimately depend
/// on the worker count: the attribution fields of gamma events (cache
/// level, path, probe flag), and the simplex events themselves — a query
/// that hits the shared cache under one schedule runs the LP (and emits
/// solve events) under another, which also shifts the `seq` numbers of
/// every later event on that slot.  Everything else is schedule-independent:
/// the verdict stream, the Γ query totals, and the per-slot event sequence
/// once simplex events are dropped, attribution is masked, and `seq` is
/// erased.
#[test]
fn shared_service_trace_is_schedule_independent_up_to_attribution() {
    let ((verdicts_1, stats_1), trace_1) = run_service(stream(12), 1, CacheMode::Shared);
    let ((verdicts_4, stats_4), trace_4) = run_service(stream(12), 4, CacheMode::Shared);
    assert_eq!(verdicts_1, verdicts_4);
    assert_eq!(
        stats_1.messages.gamma_queries,
        stats_4.messages.gamma_queries
    );

    let mask = |lines: &[String]| -> Vec<String> {
        parsed(lines)
            .into_iter()
            .filter(|map| str_field(map, "ev") != "simplex")
            .map(|mut map| {
                map.remove("seq");
                if str_field(&map, "ev") == "gamma" {
                    map.remove("cache");
                    map.remove("path");
                    map.remove("probe_missed");
                }
                format!("{map:?}")
            })
            .collect()
    };
    assert_eq!(
        mask(&trace_1),
        mask(&trace_4),
        "masking attribution and solver activity must restore cross-worker \
         determinism"
    );
}

proptest! {
    // Traced end-to-end runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing is observationally transparent for any seed: the verdict
    /// JSON of a traced run is byte-identical to the untraced one.
    #[test]
    fn traced_verdict_is_byte_identical_for_any_seed(seed in 0u64..500) {
        let spec = small_spec();
        let untraced = run_scenario(&spec, seed, spec.strategy, spec.policy.clone()).unwrap();
        let (traced, lines) =
            capture(|| run_scenario(&spec, seed, spec.strategy, spec.policy.clone()).unwrap());
        prop_assert_eq!(untraced.to_json(), traced.to_json());
        prop_assert!(!lines.is_empty());
    }
}
