//! The declarative scenario schema and its TOML binding.
//!
//! A scenario file names a protocol, its parameters, an honest-input
//! generator, a Byzantine strategy, a delivery schedule and an optional list
//! of injected network faults; an optional `[campaign]` section turns one
//! file into a seed × strategy × policy sweep.  See the crate-level docs for
//! the full reference and a worked example.

use crate::toml::{parse, TomlValue};
use bvc_adversary::ByzantineStrategy;
/// Which algorithm a scenario exercises, and the delivery guarantee the
/// directed pair assumes: the session API's own enums, so a schema name is
/// parsed once ([`Protocol::from_name`]) and dispatched unmapped.
pub use bvc_core::{BroadcastModel, ProtocolKind as Protocol};
use bvc_core::{RunConfig, ValidityMode};
use bvc_net::{DeliveryPolicy, FaultEvent, FaultKind, FaultPlan, LinkSelector, ProcessId};
use bvc_topology::TopologySpec;
use std::collections::BTreeMap;
use std::fmt;

/// How the `n − f` honest inputs are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSpec {
    /// The first `n − f` points of an axis-aligned lattice over the value
    /// box, in row-major order (deterministic, seed-independent).
    Grid,
    /// Probability vectors (points of the standard simplex), drawn from the
    /// scenario seed — the paper's distributed-optimisation workload.
    Simplex,
    /// Points within `radius` (L∞) of `center`, drawn from the scenario seed.
    RandomBall {
        /// Centre of the ball (dimension must equal `d`).
        center: Vec<f64>,
        /// L∞ radius.
        radius: f64,
    },
    /// Opposite corners of the value box, cycling through the `2^d` corners —
    /// the adversarial maximum-spread workload.
    Corners,
    /// Explicitly listed points.
    Explicit {
        /// The points (each of dimension `d`; exactly `n − f` of them).
        points: Vec<Vec<f64>>,
    },
}

impl InputSpec {
    /// The stable schema name of the generator.
    pub fn name(&self) -> &'static str {
        match self {
            InputSpec::Grid => "grid",
            InputSpec::Simplex => "simplex",
            InputSpec::RandomBall { .. } => "random-ball",
            InputSpec::Corners => "corners",
            InputSpec::Explicit { .. } => "explicit",
        }
    }
}

/// A campaign sweep: the cartesian product of the listed axes, each
/// defaulting to the scenario's single base value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignSpec {
    /// Seeds to sweep (empty ⇒ just the scenario seed).
    pub seeds: Vec<u64>,
    /// Byzantine strategies to sweep (empty ⇒ the scenario strategy).
    pub strategies: Vec<ByzantineStrategy>,
    /// Delivery policies to sweep (empty ⇒ the scenario policy).
    pub policies: Vec<DeliveryPolicy>,
    /// Topologies to sweep (empty ⇒ the scenario topology), in the compact
    /// string form of [`TopologySpec::parse`].
    pub topologies: Vec<TopologySpec>,
    /// `(1+α)`-relaxed validity values to sweep (`alphas = [..]`).
    pub alphas: Vec<f64>,
    /// `k`-relaxed validity values to sweep (`ks = [..]`).  `alphas` and
    /// `ks` together form one validity axis (alphas first, then ks); when
    /// both are empty the scenario's base `validity` is used.
    pub ks: Vec<usize>,
    /// Broadcast models to sweep (`broadcast = [..]`; directed protocols
    /// only).  Each value rewrites the instance's protocol to the directed
    /// kind assuming that model (empty ⇒ the scenario protocol's own model).
    pub broadcasts: Vec<BroadcastModel>,
}

impl CampaignSpec {
    /// The validity axis of the sweep: the declared `alphas` (as
    /// [`ValidityMode::AlphaScaled`]) followed by the declared `ks` (as
    /// [`ValidityMode::KRelaxed`]), or empty when neither was given.
    pub fn validity_axis(&self) -> Vec<ValidityMode> {
        let mut axis: Vec<ValidityMode> = self
            .alphas
            .iter()
            .map(|&a| ValidityMode::AlphaScaled(a))
            .collect();
        axis.extend(self.ks.iter().map(|&k| ValidityMode::KRelaxed(k)));
        axis
    }
}

/// A `[service]` section: turns one scenario file into a multi-shot
/// consensus stream for `service-run` (see `bvc-service`).
///
/// The scenario's `[scenario]` / `[inputs]` / `[adversary]` / `[topology]`
/// tables describe the persistent configuration every instance shares; the
/// `[service]` table describes the stream itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Number of consensus instances in the stream (≥ 1).
    pub instances: usize,
    /// Worker threads (`0` ⇒ available parallelism; default 0).
    pub workers: usize,
    /// Seed cycle length: instance `i` runs at seed `base + (i % cycle)`;
    /// `0` (the default) disables cycling (seed `base + i`).  A short cycle
    /// repeats instance configurations, making the shared Γ-cache's
    /// cross-instance reuse visible in the stats.
    pub seed_cycle: u64,
    /// Strategy rotation: instance `i` uses `strategies[i % len]` (empty ⇒
    /// every instance uses the scenario's base strategy).
    pub strategies: Vec<ByzantineStrategy>,
    /// Whether instances chain their Γ caches to one service-lifetime
    /// parent (default `true`); `false` gives every instance a cold cache.
    pub shared_cache: bool,
    /// Default verdict destination: `None` (also spelled `"stdout"` or
    /// `"-"`) streams to stdout; a path streams to that JSONL file.  The
    /// CLI's `--out` overrides it.
    pub sink: Option<String>,
}

/// A fully parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reported in the JSON verdict).
    pub name: String,
    /// The algorithm under test.
    pub protocol: Protocol,
    /// Total number of processes.
    pub n: usize,
    /// Number of Byzantine processes.
    pub f: usize,
    /// Input/decision dimension.
    pub d: usize,
    /// ε of ε-agreement (ignored by `exact`).
    pub epsilon: f64,
    /// Base seed (the CLI can override it per run).
    pub seed: u64,
    /// Step cap for the asynchronous executor.
    pub max_steps: usize,
    /// A-priori value bounds `[ν, U]`.
    pub value_bounds: (f64, f64),
    /// Honest-input generator.
    pub inputs: InputSpec,
    /// Byzantine strategy of the `f` faulty processes.
    pub strategy: ByzantineStrategy,
    /// Delivery schedule (asynchronous protocols only).
    pub policy: DeliveryPolicy,
    /// Injected network faults.
    pub faults: FaultPlan,
    /// Declared communication topology (`None` ⇒ the paper's complete graph;
    /// verdicts then stay byte-identical to the pre-topology schema).
    pub topology: Option<TopologySpec>,
    /// Declared validity condition (`None` ⇒ strict scoring with no validity
    /// metadata in the verdict, byte-identical to the pre-validity schema).
    pub validity: Option<ValidityMode>,
    /// Optional sweep axes.
    pub campaign: Option<CampaignSpec>,
    /// Optional multi-shot service stream.
    pub service: Option<ServiceSpec>,
}

/// A schema-level error: the file parsed as TOML but is not a valid scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn bad<T>(message: impl Into<String>) -> Result<T, SchemaError> {
    Err(SchemaError(message.into()))
}

type Table = BTreeMap<String, TomlValue>;

/// The most seeds a `seed_range` may span and the most instances a
/// `[service]` may stream: both sizes come from the file and become
/// allocations, so a typo must be an error, not an allocator abort.
const MAX_EXPANSION: usize = 1_000_000;

/// The value at `key` (absent ⇒ `None`) through `read`, which answers
/// `None` for a value that is not `what`.
fn get<'a, T>(
    table: &'a Table,
    key: &str,
    what: &str,
    read: impl Fn(&'a TomlValue) -> Option<T>,
) -> Result<Option<T>, SchemaError> {
    let wrong_kind = || SchemaError(format!("`{key}` must be {what}"));
    let value = table.get(key).map(|v| read(v).ok_or_else(wrong_kind));
    value.transpose()
}

fn get_u64(table: &Table, key: &str) -> Result<Option<u64>, SchemaError> {
    get(table, key, "a non-negative integer", |v| {
        v.as_integer().filter(|&i| i >= 0).map(|i| i as u64)
    })
}

fn get_usize(table: &Table, key: &str) -> Result<Option<usize>, SchemaError> {
    Ok(get_u64(table, key)?.map(|i| i as usize))
}

fn get_f64(table: &Table, key: &str) -> Result<Option<f64>, SchemaError> {
    get(table, key, "a number", TomlValue::as_float)
}

fn get_str<'a>(table: &'a Table, key: &str) -> Result<Option<&'a str>, SchemaError> {
    get(table, key, "a string", TomlValue::as_str)
}

fn get_bool(table: &Table, key: &str) -> Result<Option<bool>, SchemaError> {
    get(table, key, "a boolean", TomlValue::as_bool)
}

fn require<T>(value: Option<T>, key: &str, section: &str) -> Result<T, SchemaError> {
    value.ok_or_else(|| SchemaError(format!("missing `{key}` in [{section}]")))
}

/// Rejects a key nothing reads: a misspelt `bacth = 32` must not parse
/// clean and run with the default.  `place` is `[section]` or a phrase.
fn known_keys(table: &Table, place: &str, keys: &[&str]) -> Result<(), SchemaError> {
    match table.keys().find(|key| !keys.contains(&key.as_str())) {
        None => Ok(()),
        Some(key) => bad(format!(
            "unknown key `{key}` in {place} (expected {})",
            keys.join(", ")
        )),
    }
}

/// The array `value` found at `key`, each item through `item`, which
/// answers `Ok(None)` for an item of the wrong kind.  `nouns` name the items
/// in the "must be an array of …" and the "must contain …" message.
fn items_of<T>(
    value: &TomlValue,
    key: &str,
    nouns: [&str; 2],
    item: impl Fn(&TomlValue) -> Result<Option<T>, SchemaError>,
) -> Result<Vec<T>, SchemaError> {
    let Some(items) = value.as_array() else {
        return bad(format!("`{key}` must be an array of {}", nouns[0]));
    };
    let wrong_kind = || SchemaError(format!("`{key}` must contain {}", nouns[1]));
    items
        .iter()
        .map(|v| item(v)?.ok_or_else(wrong_kind))
        .collect()
}

/// [`items_of`] the list at `key` of `table` (absent ⇒ empty).
fn list_of<T>(
    table: &Table,
    key: &str,
    nouns: [&str; 2],
    item: impl Fn(&TomlValue) -> Result<Option<T>, SchemaError>,
) -> Result<Vec<T>, SchemaError> {
    let value = table.get(key).map(|v| items_of(v, key, nouns, item));
    value.unwrap_or(Ok(Vec::new()))
}

fn float_list(value: &TomlValue, key: &str) -> Result<Vec<f64>, SchemaError> {
    let nouns = ["numbers", "only numbers"];
    items_of(value, key, nouns, |v| Ok(v.as_float()))
}

fn process_list(value: &TomlValue, key: &str) -> Result<Vec<ProcessId>, SchemaError> {
    let nouns = ["process indices", "non-negative process indices"];
    items_of(value, key, nouns, |v| {
        let index = v.as_integer().filter(|&i| i >= 0);
        Ok(index.map(|i| ProcessId::new(i as usize)))
    })
}

/// [`list_of`] for a list of names, each through `parse`.
fn names_of<T>(
    table: &Table,
    key: &str,
    noun: &str,
    parse: impl Fn(&str) -> Result<T, SchemaError>,
) -> Result<Vec<T>, SchemaError> {
    list_of(table, key, [noun, noun], |v| {
        v.as_str().map(&parse).transpose()
    })
}

/// The `strategies` list of a `[campaign]` or `[service]` section.
fn strategy_list(table: &Table) -> Result<Vec<ByzantineStrategy>, SchemaError> {
    names_of(table, "strategies", "strategy names", parse_strategy)
}

/// Parses a Byzantine strategy name: `silent`, `fixed-outlier`,
/// `random-noise`, `equivocate`, `anti-convergence`, `split-brain:MASK`
/// (receiver-partition bit mask), `benign` or `crash:K` (crash after round
/// `K`).
pub fn parse_strategy(name: &str) -> Result<ByzantineStrategy, SchemaError> {
    if let Some(round) = name.strip_prefix("crash:") {
        return match round.parse::<usize>() {
            Ok(k) => Ok(ByzantineStrategy::Crash(k)),
            Err(_) => bad(format!("invalid crash round in `{name}`")),
        };
    }
    if let Some(mask) = name.strip_prefix("split-brain:") {
        return match mask.parse::<u64>() {
            Ok(m) => Ok(ByzantineStrategy::SplitBrain(m)),
            Err(_) => bad(format!("invalid split-brain mask in `{name}`")),
        };
    }
    match name {
        "crash" => Ok(ByzantineStrategy::Crash(1)),
        "silent" => Ok(ByzantineStrategy::Silent),
        "fixed-outlier" => Ok(ByzantineStrategy::FixedOutlier),
        "random-noise" => Ok(ByzantineStrategy::RandomNoise),
        "equivocate" => Ok(ByzantineStrategy::Equivocate),
        "anti-convergence" => Ok(ByzantineStrategy::AntiConvergence),
        "benign" => Ok(ByzantineStrategy::Benign),
        _ => bad(format!(
            "unknown strategy `{name}` (expected crash[:K], silent, fixed-outlier, \
             random-noise, equivocate, anti-convergence, split-brain:MASK or benign)"
        )),
    }
}

/// A stable display name for a delivery policy.
pub fn policy_name(policy: &DeliveryPolicy) -> String {
    match policy {
        DeliveryPolicy::RandomFair => "random-fair".into(),
        DeliveryPolicy::RoundRobin => "round-robin".into(),
        DeliveryPolicy::DelayFrom(ids) => format!(
            "delay-from:{}",
            ids.iter()
                .map(|p| p.index().to_string())
                .collect::<Vec<_>>()
                .join("+")
        ),
        DeliveryPolicy::DelayTo(ids) => format!(
            "delay-to:{}",
            ids.iter()
                .map(|p| p.index().to_string())
                .collect::<Vec<_>>()
                .join("+")
        ),
    }
}

fn parse_policy(table: &Table) -> Result<DeliveryPolicy, SchemaError> {
    known_keys(table, "[delivery]", &["policy", "processes"])?;
    let name = require(get_str(table, "policy")?, "policy", "delivery")?;
    parse_policy_name(name, table.get("processes"))
}

fn parse_policy_name(
    name: &str,
    processes: Option<&TomlValue>,
) -> Result<DeliveryPolicy, SchemaError> {
    let listed = |value: Option<&TomlValue>| -> Result<Vec<ProcessId>, SchemaError> {
        match value {
            Some(v) => process_list(v, "processes"),
            None => bad(format!("policy `{name}` needs a `processes` array")),
        }
    };
    match name {
        "random-fair" => Ok(DeliveryPolicy::RandomFair),
        "round-robin" => Ok(DeliveryPolicy::RoundRobin),
        "delay-from" => Ok(DeliveryPolicy::DelayFrom(listed(processes)?)),
        "delay-to" => Ok(DeliveryPolicy::DelayTo(listed(processes)?)),
        _ => bad(format!(
            "unknown delivery policy `{name}` (expected random-fair, round-robin, \
             delay-from or delay-to)"
        )),
    }
}

fn parse_link_selector(table: &Table) -> Result<LinkSelector, SchemaError> {
    let from = table.get("from");
    let to = table.get("to");
    match (from, to) {
        (None, None) => Ok(LinkSelector::All),
        (Some(f), None) => Ok(LinkSelector::From(process_list(f, "from")?)),
        (None, Some(t)) => Ok(LinkSelector::To(process_list(t, "to")?)),
        // `from` + `to` together select only the directed links from × to —
        // replies travel the reverse links and stay unaffected.
        (Some(f), Some(t)) => Ok(LinkSelector::Directed(
            process_list(f, "from")?,
            process_list(t, "to")?,
        )),
    }
}

fn parse_fault(table: &Table) -> Result<FaultEvent, SchemaError> {
    known_keys(
        table,
        "[[faults]]",
        &[
            "kind", "rate", "extra", "groups", "from", "to", "start", "duration",
        ],
    )?;
    let kind_name = require(get_str(table, "kind")?, "kind", "faults")?;
    let kind = match kind_name {
        "drop" => {
            let rate = require(get_f64(table, "rate")?, "rate", "faults")?;
            FaultKind::Drop {
                rate,
                links: parse_link_selector(table)?,
            }
        }
        "latency" => {
            let extra = require(get_usize(table, "extra")?, "extra", "faults")?;
            FaultKind::Latency {
                extra,
                links: parse_link_selector(table)?,
            }
        }
        "partition" => {
            let Some(groups_value) = table.get("groups") else {
                return bad("partition fault needs a `groups` array of process-index arrays");
            };
            let groups = items_of(groups_value, "groups", ["process-index arrays"; 2], |g| {
                process_list(g, "groups").map(Some)
            })?;
            FaultKind::Partition { groups }
        }
        other => {
            return bad(format!(
                "unknown fault kind `{other}` (expected drop, latency or partition)"
            ))
        }
    };
    let start = get_usize(table, "start")?.unwrap_or(0);
    let duration = require(get_usize(table, "duration")?, "duration", "faults")?;
    Ok(FaultEvent {
        kind,
        start,
        duration,
    })
}

fn parse_inputs(table: Option<&Table>, d: usize) -> Result<InputSpec, SchemaError> {
    let Some(table) = table else {
        return Ok(InputSpec::Grid);
    };
    known_keys(
        table,
        "[inputs]",
        &["generator", "center", "radius", "points"],
    )?;
    let generator = get_str(table, "generator")?.unwrap_or("grid");
    match generator {
        "grid" => Ok(InputSpec::Grid),
        "simplex" => Ok(InputSpec::Simplex),
        "corners" => Ok(InputSpec::Corners),
        "random-ball" => {
            let center = match table.get("center") {
                Some(value) => float_list(value, "center")?,
                None => vec![0.5; d],
            };
            if center.len() != d {
                return bad(format!(
                    "`center` has dimension {}, expected {d}",
                    center.len()
                ));
            }
            let radius = get_f64(table, "radius")?.unwrap_or(0.1);
            if !(radius >= 0.0 && radius.is_finite()) {
                return bad("`radius` must be a non-negative finite number");
            }
            Ok(InputSpec::RandomBall { center, radius })
        }
        "explicit" => {
            let Some(points_value) = table.get("points") else {
                return bad("explicit inputs need a `points` array of coordinate arrays");
            };
            let points = items_of(points_value, "points", ["coordinate arrays"; 2], |p| {
                float_list(p, "points").map(Some)
            })?;
            if let Some(wrong) = points.iter().find(|p| p.len() != d) {
                return bad(format!(
                    "explicit point {wrong:?} has dimension {}, expected {d}",
                    wrong.len()
                ));
            }
            Ok(InputSpec::Explicit { points })
        }
        other => bad(format!(
            "unknown input generator `{other}` (expected grid, simplex, random-ball, \
             corners or explicit)"
        )),
    }
}

/// Parses a `[topology]` section.  `kind` accepts both the long form with
/// parameter keys (`kind = "torus"` with `rows`/`cols`, `kind =
/// "random-regular"` with `degree`, `kind = "explicit"` with
/// `edges`/`undirected`) and the compact string form of campaign axes
/// (`"torus:2x4"`, `"random-regular:4"`).
fn parse_topology(table: &Table) -> Result<TopologySpec, SchemaError> {
    known_keys(
        table,
        "[topology]",
        &["kind", "rows", "cols", "degree", "edges", "undirected"],
    )?;
    let kind = require(get_str(table, "kind")?, "kind", "topology")?;
    match kind {
        "torus" => {
            let rows = require(get_usize(table, "rows")?, "rows", "topology")?;
            let cols = require(get_usize(table, "cols")?, "cols", "topology")?;
            Ok(TopologySpec::Torus { rows, cols })
        }
        "random-regular" => {
            let degree = require(get_usize(table, "degree")?, "degree", "topology")?;
            Ok(TopologySpec::RandomRegular { degree })
        }
        "explicit" => {
            let Some(edges_value) = table.get("edges") else {
                return bad("explicit topology needs an `edges` array of [from, to] pairs");
            };
            let Some(items) = edges_value.as_array() else {
                return bad("`edges` must be an array of [from, to] pairs");
            };
            let mut edges = Vec::with_capacity(items.len());
            for item in items {
                let pair = process_list(item, "edges")?;
                if pair.len() != 2 {
                    return bad("each `edges` entry must be a [from, to] pair");
                }
                edges.push((pair[0].index(), pair[1].index()));
            }
            let undirected = get_bool(table, "undirected")?.unwrap_or(false);
            Ok(TopologySpec::Explicit { edges, undirected })
        }
        other => TopologySpec::parse(other).map_err(SchemaError),
    }
}

/// Parses the `[scenario]` table's validity declaration: `validity =
/// "strict" | "(1+α)-relaxed" | "k-relaxed"` (ASCII alias `alpha-relaxed`
/// accepted), with companion keys `alpha` (default `0.0`) and `k` (default
/// `1`).
fn parse_validity(table: &Table) -> Result<Option<ValidityMode>, SchemaError> {
    let Some(name) = get_str(table, "validity")? else {
        return Ok(None);
    };
    match name {
        "strict" => Ok(Some(ValidityMode::Strict)),
        "(1+α)-relaxed" | "(1+a)-relaxed" | "alpha-relaxed" => {
            let alpha = get_f64(table, "alpha")?.unwrap_or(0.0);
            if !(alpha.is_finite() && alpha >= 0.0) {
                return bad(format!("`alpha` must be finite and >= 0, got {alpha}"));
            }
            Ok(Some(ValidityMode::AlphaScaled(alpha)))
        }
        "k-relaxed" => {
            let k = get_usize(table, "k")?.unwrap_or(1);
            if k == 0 {
                return bad("`k` must be at least 1");
            }
            Ok(Some(ValidityMode::KRelaxed(k)))
        }
        other => bad(format!(
            "unknown validity `{other}` (expected strict, (1+α)-relaxed / \
             alpha-relaxed, or k-relaxed)"
        )),
    }
}

fn parse_campaign(table: &Table) -> Result<CampaignSpec, SchemaError> {
    known_keys(
        table,
        "[campaign]",
        &[
            "seeds",
            "seed_range",
            "strategies",
            "policies",
            "topologies",
            "alphas",
            "ks",
            "broadcast",
        ],
    )?;
    let mut seeds = list_of(table, "seeds", ["integers", "non-negative integers"], |v| {
        Ok(v.as_integer().filter(|&i| i >= 0).map(|i| i as u64))
    })?;
    if let Some(range) = table.get("seed_range") {
        let items = range
            .as_array()
            .ok_or_else(|| SchemaError("`seed_range` must be [first, last]".into()))?;
        let bounds: Vec<i64> = items
            .iter()
            .map(|v| {
                v.as_integer()
                    .ok_or_else(|| SchemaError("`seed_range` bounds must be integers".into()))
            })
            .collect::<Result<_, _>>()?;
        if bounds.len() != 2 || bounds[0] < 0 || bounds[1] < bounds[0] {
            return bad("`seed_range` must be [first, last] with 0 <= first <= last");
        }
        let (first, last) = (bounds[0] as u64, bounds[1] as u64);
        if last - first >= MAX_EXPANSION as u64 {
            return bad(format!(
                "`seed_range` spans more than {MAX_EXPANSION} seeds"
            ));
        }
        seeds.extend(first..=last);
    }
    let finite_non_negative = |a: &f64| a.is_finite() && *a >= 0.0;
    Ok(CampaignSpec {
        seeds,
        strategies: strategy_list(table)?,
        policies: names_of(table, "policies", "policy names", |name| {
            parse_policy_name(name, None)
        })?,
        topologies: names_of(table, "topologies", "topology names", |name| {
            TopologySpec::parse(name).map_err(SchemaError)
        })?,
        alphas: list_of(table, "alphas", ["numbers", "finite numbers >= 0"], |v| {
            Ok(v.as_float().filter(finite_non_negative))
        })?,
        ks: list_of(table, "ks", ["positive integers"; 2], |v| {
            Ok(v.as_integer().filter(|&k| k >= 1).map(|k| k as usize))
        })?,
        broadcasts: names_of(table, "broadcast", "broadcast model names", |name| {
            BroadcastModel::from_name(name).ok_or_else(|| {
                SchemaError(format!(
                    "unknown broadcast model `{name}` (expected point-to-point or local)"
                ))
            })
        })?,
    })
}

fn parse_service(table: &Table) -> Result<ServiceSpec, SchemaError> {
    known_keys(
        table,
        "[service]",
        &[
            "instances",
            "workers",
            "seed_cycle",
            "strategies",
            "shared_cache",
            "sink",
        ],
    )?;
    let instances = require(get_usize(table, "instances")?, "instances", "service")?;
    if instances == 0 {
        return bad("`instances` must be at least 1");
    }
    if instances > MAX_EXPANSION {
        return bad(format!("`instances` must be at most {MAX_EXPANSION}"));
    }
    let workers = get_usize(table, "workers")?.unwrap_or(0);
    let seed_cycle = get_u64(table, "seed_cycle")?.unwrap_or(0);
    let strategies = strategy_list(table)?;
    let shared_cache = get_bool(table, "shared_cache")?.unwrap_or(true);
    let sink = match get_str(table, "sink")? {
        None | Some("stdout") | Some("-") => None,
        Some(path) => Some(path.to_string()),
    };
    Ok(ServiceSpec {
        instances,
        workers,
        seed_cycle,
        strategies,
        shared_cache,
        sink,
    })
}

impl ScenarioSpec {
    /// Parses a scenario from TOML text.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first TOML or schema violation.
    pub fn from_toml(text: &str) -> Result<Self, SchemaError> {
        let root = parse(text).map_err(|e| SchemaError(e.to_string()))?;
        known_keys(
            &root,
            "the top level",
            &[
                "scenario",
                "inputs",
                "adversary",
                "delivery",
                "faults",
                "topology",
                "campaign",
                "service",
            ],
        )?;
        let scenario = root
            .get("scenario")
            .and_then(|v| v.as_table())
            .ok_or_else(|| SchemaError("missing [scenario] section".into()))?;
        known_keys(
            scenario,
            "[scenario]",
            &[
                "name",
                "protocol",
                "n",
                "f",
                "d",
                "epsilon",
                "seed",
                "max_steps",
                "value_bounds",
                "validity",
                "alpha",
                "k",
            ],
        )?;

        let name = require(get_str(scenario, "name")?, "name", "scenario")?.to_string();
        let protocol_name = require(get_str(scenario, "protocol")?, "protocol", "scenario")?;
        let protocol = Protocol::from_name(protocol_name).ok_or_else(|| {
            SchemaError(format!(
                "unknown protocol `{protocol_name}` (expected exact, approx, \
                 restricted-sync, restricted-async, iterative, directed-exact \
                 or directed-exact-lb)"
            ))
        })?;
        let n = require(get_usize(scenario, "n")?, "n", "scenario")?;
        let f = require(get_usize(scenario, "f")?, "f", "scenario")?;
        let d = require(get_usize(scenario, "d")?, "d", "scenario")?;
        // An omitted key takes the run's default: RunConfig::new states them once.
        let defaults = RunConfig::new(n, f, d);
        let epsilon = get_f64(scenario, "epsilon")?.unwrap_or(defaults.epsilon);
        let seed = get_u64(scenario, "seed")?.unwrap_or(defaults.seed);
        let max_steps = get_usize(scenario, "max_steps")?.unwrap_or(defaults.max_steps);
        let value_bounds = match scenario.get("value_bounds") {
            None => defaults.value_bounds,
            Some(value) => {
                let bounds = float_list(value, "value_bounds")?;
                if bounds.len() != 2 {
                    return bad("`value_bounds` must be [lower, upper]");
                }
                (bounds[0], bounds[1])
            }
        };

        let inputs = parse_inputs(root.get("inputs").and_then(|v| v.as_table()), d)?;

        let strategy = match root.get("adversary").and_then(|v| v.as_table()) {
            Some(adversary) => {
                known_keys(adversary, "[adversary]", &["strategy"])?;
                parse_strategy(require(
                    get_str(adversary, "strategy")?,
                    "strategy",
                    "adversary",
                )?)?
            }
            None => defaults.adversary,
        };

        let policy = match root.get("delivery").and_then(|v| v.as_table()) {
            Some(delivery) => parse_policy(delivery)?,
            None => defaults.delivery_policy,
        };

        let mut faults = FaultPlan::new();
        if let Some(entries) = root.get("faults") {
            let Some(items) = entries.as_array() else {
                return bad("`faults` must be written as [[faults]] tables");
            };
            for item in items {
                let Some(table) = item.as_table() else {
                    return bad("`faults` must be written as [[faults]] tables");
                };
                let event = parse_fault(table)?;
                faults.push(event).map_err(|e| SchemaError(e.to_string()))?;
            }
        }

        let topology = match root.get("topology").and_then(|v| v.as_table()) {
            Some(table) => Some(parse_topology(table)?),
            None => None,
        };

        let validity = parse_validity(scenario)?;

        let campaign = match root.get("campaign").and_then(|v| v.as_table()) {
            Some(table) => Some(parse_campaign(table)?),
            None => None,
        };
        if let Some(spec) = &campaign {
            if !spec.broadcasts.is_empty() && protocol.broadcast_model().is_none() {
                return bad(format!(
                    "`broadcast` axis requires a directed protocol, got `{}`",
                    protocol.name()
                ));
            }
        }

        let service = match root.get("service").and_then(|v| v.as_table()) {
            Some(table) => Some(parse_service(table)?),
            None => None,
        };

        Ok(Self {
            name,
            protocol,
            n,
            f,
            d,
            epsilon,
            seed,
            max_steps,
            value_bounds,
            inputs,
            strategy,
            policy,
            faults,
            topology,
            validity,
            campaign,
            service,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
[scenario]
name = "example"
protocol = "approx"
n = 5
f = 1
d = 2
epsilon = 0.05
seed = 7
max_steps = 100000
value_bounds = [0.0, 1.0]

[inputs]
generator = "random-ball"
center = [0.5, 0.5]
radius = 0.25

[adversary]
strategy = "anti-convergence"

[delivery]
policy = "delay-from"
processes = [4]

[[faults]]
kind = "partition"
groups = [[0, 1]]
start = 0
duration = 200

[[faults]]
kind = "drop"
rate = 0.25
from = [4]
start = 0
duration = 100

[campaign]
seed_range = [0, 4]
strategies = ["equivocate", "silent"]
"#;

    #[test]
    fn full_example_parses() {
        let spec = ScenarioSpec::from_toml(EXAMPLE).unwrap();
        assert_eq!(spec.name, "example");
        assert_eq!(spec.protocol, Protocol::Approx);
        assert_eq!((spec.n, spec.f, spec.d), (5, 1, 2));
        assert_eq!(spec.epsilon, 0.05);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.max_steps, 100_000);
        assert!(
            matches!(spec.inputs, InputSpec::RandomBall { ref center, radius }
            if center == &vec![0.5, 0.5] && radius == 0.25)
        );
        assert_eq!(spec.strategy, ByzantineStrategy::AntiConvergence);
        assert_eq!(
            spec.policy,
            DeliveryPolicy::DelayFrom(vec![ProcessId::new(4)])
        );
        assert_eq!(spec.faults.events().len(), 2);
        let campaign = spec.campaign.unwrap();
        assert_eq!(campaign.seeds, vec![0, 1, 2, 3, 4]);
        assert_eq!(campaign.strategies.len(), 2);
    }

    #[test]
    fn minimal_scenario_gets_defaults() {
        let spec = ScenarioSpec::from_toml(
            "[scenario]\nname = \"tiny\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n",
        )
        .unwrap();
        assert_eq!(spec.inputs, InputSpec::Grid);
        assert_eq!(spec.strategy, ByzantineStrategy::Equivocate);
        assert_eq!(spec.policy, DeliveryPolicy::RandomFair);
        assert!(spec.faults.is_empty());
        assert!(spec.campaign.is_none());
        assert!(spec.topology.is_none(), "no [topology] ⇒ complete graph");
        assert!(
            spec.validity.is_none(),
            "no `validity` ⇒ strict, no metadata"
        );
        assert_eq!(spec.value_bounds, (0.0, 1.0));
    }

    #[test]
    fn validity_declarations_parse() {
        let base = "[scenario]\nname = \"v\"\nprotocol = \"exact\"\nn = 8\nf = 2\nd = 3\n";
        let strict = format!("{base}validity = \"strict\"\n");
        assert_eq!(
            ScenarioSpec::from_toml(&strict).unwrap().validity,
            Some(ValidityMode::Strict)
        );
        let alpha = format!("{base}validity = \"(1+α)-relaxed\"\nalpha = 0.5\n");
        assert_eq!(
            ScenarioSpec::from_toml(&alpha).unwrap().validity,
            Some(ValidityMode::AlphaScaled(0.5))
        );
        let ascii = format!("{base}validity = \"alpha-relaxed\"\n");
        assert_eq!(
            ScenarioSpec::from_toml(&ascii).unwrap().validity,
            Some(ValidityMode::AlphaScaled(0.0)),
            "alpha defaults to 0"
        );
        let k = format!("{base}validity = \"k-relaxed\"\nk = 2\n");
        assert_eq!(
            ScenarioSpec::from_toml(&k).unwrap().validity,
            Some(ValidityMode::KRelaxed(2))
        );
        let bad_name = format!("{base}validity = \"loose\"\n");
        assert!(ScenarioSpec::from_toml(&bad_name).is_err());
        let bad_alpha = format!("{base}validity = \"alpha-relaxed\"\nalpha = -1.0\n");
        assert!(ScenarioSpec::from_toml(&bad_alpha).is_err());
        let bad_k = format!("{base}validity = \"k-relaxed\"\nk = 0\n");
        assert!(ScenarioSpec::from_toml(&bad_k).is_err());
    }

    #[test]
    fn campaign_validity_axes_parse() {
        let text = "[scenario]\nname = \"v\"\nprotocol = \"exact\"\nn = 8\nf = 2\nd = 3\n\
            validity = \"(1+α)-relaxed\"\n\
            [campaign]\nalphas = [0.0, 0.5, 1.0]\nks = [1, 2]\n";
        let spec = ScenarioSpec::from_toml(text).unwrap();
        let campaign = spec.campaign.unwrap();
        assert_eq!(campaign.alphas, vec![0.0, 0.5, 1.0]);
        assert_eq!(campaign.ks, vec![1, 2]);
        assert_eq!(
            campaign.validity_axis(),
            vec![
                ValidityMode::AlphaScaled(0.0),
                ValidityMode::AlphaScaled(0.5),
                ValidityMode::AlphaScaled(1.0),
                ValidityMode::KRelaxed(1),
                ValidityMode::KRelaxed(2),
            ]
        );
        let bad = "[scenario]\nname = \"v\"\nprotocol = \"exact\"\nn = 8\nf = 2\nd = 3\n\
            [campaign]\nalphas = [-0.5]\n";
        assert!(ScenarioSpec::from_toml(bad).is_err());
        let bad_k = "[scenario]\nname = \"v\"\nprotocol = \"exact\"\nn = 8\nf = 2\nd = 3\n\
            [campaign]\nks = [0]\n";
        assert!(ScenarioSpec::from_toml(bad_k).is_err());
    }

    #[test]
    fn topology_sections_parse_in_long_and_compact_form() {
        let torus = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 8\nf = 1\nd = 1\n\
            [topology]\nkind = \"torus\"\nrows = 2\ncols = 4\n";
        let spec = ScenarioSpec::from_toml(torus).unwrap();
        assert_eq!(spec.protocol, Protocol::Iterative);
        assert!(!spec.protocol.is_async());
        assert_eq!(
            spec.topology,
            Some(TopologySpec::Torus { rows: 2, cols: 4 })
        );

        let compact = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 8\nf = 1\nd = 1\n\
            [topology]\nkind = \"random-regular:4\"\n";
        let spec = ScenarioSpec::from_toml(compact).unwrap();
        assert_eq!(
            spec.topology,
            Some(TopologySpec::RandomRegular { degree: 4 })
        );

        let explicit = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 3\nf = 0\nd = 1\n\
            [topology]\nkind = \"explicit\"\nedges = [[0, 1], [1, 2]]\nundirected = true\n";
        let spec = ScenarioSpec::from_toml(explicit).unwrap();
        assert_eq!(
            spec.topology,
            Some(TopologySpec::Explicit {
                edges: vec![(0, 1), (1, 2)],
                undirected: true,
            })
        );
    }

    #[test]
    fn bad_topology_sections_are_rejected() {
        let unknown = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 8\nf = 1\nd = 1\n\
            [topology]\nkind = \"moebius\"\n";
        assert!(ScenarioSpec::from_toml(unknown).is_err());
        let bad_edges = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 3\nf = 0\nd = 1\n\
            [topology]\nkind = \"explicit\"\nedges = [[0, 1, 2]]\n";
        assert!(ScenarioSpec::from_toml(bad_edges).is_err());
    }

    #[test]
    fn campaign_topology_axis_parses() {
        let text = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 8\nf = 1\nd = 1\n\
            [campaign]\ntopologies = [\"complete\", \"ring\", \"torus:2x4\"]\n";
        let spec = ScenarioSpec::from_toml(text).unwrap();
        let campaign = spec.campaign.unwrap();
        assert_eq!(
            campaign.topologies,
            vec![
                TopologySpec::Complete,
                TopologySpec::Ring,
                TopologySpec::Torus { rows: 2, cols: 4 },
            ]
        );
        let bad = "[scenario]\nname = \"t\"\nprotocol = \"iterative\"\nn = 8\nf = 1\nd = 1\n\
            [campaign]\ntopologies = [\"klein-bottle\"]\n";
        assert!(ScenarioSpec::from_toml(bad).is_err());
    }

    #[test]
    fn directed_protocols_and_the_broadcast_axis_parse() {
        let text =
            "[scenario]\nname = \"dir\"\nprotocol = \"directed-exact\"\nn = 8\nf = 1\nd = 2\n\
            [topology]\nkind = \"ring\"\n\
            [campaign]\nbroadcast = [\"point-to-point\", \"local\"]\n";
        let spec = ScenarioSpec::from_toml(text).unwrap();
        assert_eq!(spec.protocol, Protocol::DirectedExact);
        assert!(!spec.protocol.is_async());
        assert_eq!(
            spec.protocol.broadcast_model(),
            Some(BroadcastModel::PointToPoint)
        );
        let campaign = spec.campaign.unwrap();
        assert_eq!(
            campaign.broadcasts,
            vec![BroadcastModel::PointToPoint, BroadcastModel::Local]
        );

        let lb =
            "[scenario]\nname = \"dir\"\nprotocol = \"directed-exact-lb\"\nn = 8\nf = 1\nd = 2\n";
        let spec = ScenarioSpec::from_toml(lb).unwrap();
        assert_eq!(spec.protocol, Protocol::DirectedExactLb);
        assert_eq!(spec.protocol.broadcast_model(), Some(BroadcastModel::Local));
    }

    #[test]
    fn broadcast_axis_is_rejected_off_the_directed_protocols() {
        let wrong_protocol =
            "[scenario]\nname = \"b\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n\
            [campaign]\nbroadcast = [\"local\"]\n";
        let err = ScenarioSpec::from_toml(wrong_protocol).unwrap_err();
        assert!(err.to_string().contains("requires a directed protocol"));
        let unknown_model =
            "[scenario]\nname = \"b\"\nprotocol = \"directed-exact\"\nn = 8\nf = 1\nd = 2\n\
            [campaign]\nbroadcast = [\"telepathy\"]\n";
        let err = ScenarioSpec::from_toml(unknown_model).unwrap_err();
        assert!(err.to_string().contains("unknown broadcast model"));
    }

    #[test]
    fn strategy_names_round_trip() {
        assert_eq!(
            parse_strategy("crash:3").unwrap(),
            ByzantineStrategy::Crash(3)
        );
        assert_eq!(parse_strategy("silent").unwrap(), ByzantineStrategy::Silent);
        assert_eq!(
            parse_strategy("split-brain:6").unwrap(),
            ByzantineStrategy::SplitBrain(6),
        );
        assert!(parse_strategy("nope").is_err());
        assert!(parse_strategy("crash:x").is_err());
        assert!(parse_strategy("split-brain:x").is_err());
        // The label a verdict carries parses back to the strategy it names.
        let mut strategies = ByzantineStrategy::all();
        strategies.extend([
            ByzantineStrategy::Crash(7),
            ByzantineStrategy::SplitBrain(5),
        ]);
        for strategy in strategies {
            assert_eq!(parse_strategy(&strategy.label()).unwrap(), strategy);
        }
    }

    #[test]
    fn from_plus_to_selects_directed_links_only() {
        let text = "[scenario]\nname = \"a\"\nprotocol = \"approx\"\nn = 5\nf = 1\nd = 1\n\
            [[faults]]\nkind = \"drop\"\nrate = 1.0\nfrom = [0]\nto = [1]\n\
            start = 0\nduration = 10\n";
        let spec = ScenarioSpec::from_toml(text).unwrap();
        // The fault covers 0 → 1 but must leave the reply link 1 → 0 alone.
        assert_eq!(spec.faults.drop_probability(0, 0, 1), 1.0);
        assert_eq!(spec.faults.drop_probability(0, 1, 0), 0.0);
    }

    #[test]
    fn seed_range_rejects_non_integers() {
        let text = "[scenario]\nname = \"a\"\nprotocol = \"approx\"\nn = 5\nf = 1\nd = 1\n\
            [campaign]\nseed_range = [0, 24.9]\n";
        assert!(ScenarioSpec::from_toml(text).is_err());
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(ScenarioSpec::from_toml("x = 1").is_err());
        let missing_n = "[scenario]\nname = \"a\"\nprotocol = \"exact\"\nf = 1\nd = 2\n";
        assert!(ScenarioSpec::from_toml(missing_n).is_err());
        let bad_protocol =
            "[scenario]\nname = \"a\"\nprotocol = \"quantum\"\nn = 4\nf = 1\nd = 2\n";
        assert!(ScenarioSpec::from_toml(bad_protocol).is_err());
        let never_expires =
            "[scenario]\nname = \"a\"\nprotocol = \"approx\"\nn = 4\nf = 1\nd = 1\n\
            [[faults]]\nkind = \"partition\"\ngroups = [[0]]\nstart = 0\nduration = 0\n";
        assert!(ScenarioSpec::from_toml(never_expires).is_err());
        // A key nothing reads is a typed error naming its section.
        let base = "[scenario]\nname = \"a\"\nprotocol = \"approx\"\nn = 5\nf = 1\nd = 1\n";
        for (body, key, place) in [
            ("epsilom = 0.1\n", "epsilom", "[scenario]"),
            (
                "[inputs]\ngenerator = \"grid\"\nradios = 0.1\n",
                "radios",
                "[inputs]",
            ),
            (
                "[adversary]\nstrategy = \"silent\"\nmask = 3\n",
                "mask",
                "[adversary]",
            ),
            (
                "[delivery]\npolicy = \"round-robin\"\nprocess = [1]\n",
                "process",
                "[delivery]",
            ),
            (
                "[[faults]]\nkind = \"drop\"\nrate = 0.5\nduration = 5\nlength = 5\n",
                "length",
                "[[faults]]",
            ),
            (
                "[topology]\nkind = \"ring\"\ndirected = true\n",
                "directed",
                "[topology]",
            ),
            ("[campaign]\nseed = [0, 1]\n", "seed", "[campaign]"),
            (
                "[service]\ninstances = 5\nbacth = 32\n",
                "bacth",
                "[service]",
            ),
            ("[servise]\ninstances = 5\n", "servise", "the top level"),
        ] {
            let error = ScenarioSpec::from_toml(&format!("{base}{body}")).unwrap_err();
            let wanted = format!("unknown key `{key}` in {place} (expected ");
            assert!(error.0.starts_with(&wanted), "{body:?} gave: {error}");
        }
        // Every list key has one reader; these are its messages, verbatim.
        for (body, wanted) in [
            ("seeds = 3\n", "`seeds` must be an array of integers"),
            (
                "seeds = [-1]\n",
                "`seeds` must contain non-negative integers",
            ),
            (
                "strategies = \"silent\"\n",
                "`strategies` must be an array of strategy names",
            ),
            (
                "strategies = [1]\n",
                "`strategies` must contain strategy names",
            ),
            ("policies = [1]\n", "`policies` must contain policy names"),
            (
                "topologies = [1]\n",
                "`topologies` must contain topology names",
            ),
            (
                "alphas = [-0.5]\n",
                "`alphas` must contain finite numbers >= 0",
            ),
            ("ks = [0]\n", "`ks` must contain positive integers"),
            (
                "broadcast = [1]\n",
                "`broadcast` must contain broadcast model names",
            ),
            // A size read from the file is checked before it is allocated.
            (
                "seed_range = [0, 9223372036854775807]\n",
                "`seed_range` spans more than 1000000 seeds",
            ),
        ] {
            let error = ScenarioSpec::from_toml(&format!("{base}[campaign]\n{body}")).unwrap_err();
            assert_eq!(error.0, wanted, "{body:?}");
        }
        let widest = format!(
            "{base}[campaign]\nseed_range = [5, {}]\n",
            MAX_EXPANSION + 4
        );
        let campaign = ScenarioSpec::from_toml(&widest).unwrap().campaign.unwrap();
        assert_eq!(campaign.seeds.len(), MAX_EXPANSION);
    }

    #[test]
    fn service_sections_parse_with_defaults_and_rotation() {
        let base =
            "[scenario]\nname = \"svc\"\nprotocol = \"restricted-sync\"\nn = 5\nf = 1\nd = 2\n";
        let minimal = format!("{base}[service]\ninstances = 10\n");
        let spec = ScenarioSpec::from_toml(&minimal).unwrap();
        let service = spec.service.unwrap();
        assert_eq!(service.instances, 10);
        assert_eq!(service.workers, 0);
        assert_eq!(service.seed_cycle, 0);
        assert!(service.strategies.is_empty());
        assert!(service.shared_cache);
        assert_eq!(service.sink, None, "default sink is stdout");

        let full = format!(
            "{base}[service]\ninstances = 200\nworkers = 4\nseed_cycle = 20\n\
             strategies = [\"equivocate\", \"crash:2\"]\nshared_cache = false\n\
             sink = \"out.jsonl\"\n"
        );
        let service = ScenarioSpec::from_toml(&full).unwrap().service.unwrap();
        assert_eq!((service.instances, service.workers), (200, 4));
        assert_eq!(service.seed_cycle, 20);
        assert_eq!(
            service.strategies,
            vec![ByzantineStrategy::Equivocate, ByzantineStrategy::Crash(2)]
        );
        assert!(!service.shared_cache);
        assert_eq!(service.sink.as_deref(), Some("out.jsonl"));

        let stdout = format!("{base}[service]\ninstances = 1\nsink = \"-\"\n");
        assert_eq!(
            ScenarioSpec::from_toml(&stdout)
                .unwrap()
                .service
                .unwrap()
                .sink,
            None
        );
    }

    #[test]
    fn degenerate_service_sections_are_rejected() {
        let base = "[scenario]\nname = \"svc\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n";
        for body in [
            "[service]\n",                           // missing instances
            "[service]\ninstances = 0\n",            // empty stream
            "[service]\ninstances = 5\nbatch = 4\n", // a key nothing reads
            "[service]\ninstances = 5\nstrategies = [\"nope\"]\n",
            "[service]\ninstances = 9223372036854775807\n", // sizes an allocation
        ] {
            let text = format!("{base}{body}");
            assert!(ScenarioSpec::from_toml(&text).is_err(), "accepted: {body}");
        }
        let oversized = format!("{base}[service]\ninstances = {}\n", MAX_EXPANSION + 1);
        let error = ScenarioSpec::from_toml(&oversized).unwrap_err();
        assert_eq!(error.0, "`instances` must be at most 1000000");
        let largest = format!("{base}[service]\ninstances = {MAX_EXPANSION}\n");
        assert!(ScenarioSpec::from_toml(&largest).is_ok());
    }

    #[test]
    fn explicit_inputs_must_match_dimension() {
        let text = "[scenario]\nname = \"a\"\nprotocol = \"exact\"\nn = 5\nf = 1\nd = 2\n\
            [inputs]\ngenerator = \"explicit\"\npoints = [[0.0, 0.0], [1.0]]\n";
        assert!(ScenarioSpec::from_toml(text).is_err());
    }
}
