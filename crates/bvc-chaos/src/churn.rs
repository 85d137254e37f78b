//! The chaos campaign: seeded randomized churn across the whole stack,
//! with longitudinal metrics.
//!
//! A churn session alternates two kinds of waves, all derived from one
//! master seed so a session is exactly reproducible:
//!
//! * **campaign waves** sample boundary-centred specs from the same
//!   [`SearchSpace`] the adversary search uses
//!   and run them through the parallel campaign runner, tallying verdicts,
//!   near-misses (ε-agreement runs that decided within 20 % of the ε
//!   budget) and any genuine violations;
//! * **service waves** stream a list of instances through the
//!   [`BvcService`] worker pool from a deliberately *safe* cell (above the
//!   strict bound), flipping the panic-injection knob on half the waves to
//!   exercise panic containment and in-flight accounting end to end.
//!
//! The session report serialises as a `bvc-chaos-metrics/v1` JSON document
//! and as one Markdown row for the longitudinal `CHAOS.md` dashboard.

use crate::objective::fault_excused;
use crate::search::{sample, SearchSpace};
use bvc_core::{InstanceOverrides, RunConfig};
use bvc_geometry::Point;
use bvc_scenario::{expand, run_campaign, Protocol};
use bvc_service::{BvcService, MemorySink, ServiceConfig};
use bvc_trace::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A churn session's budget and identity.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed: one seed reproduces the whole session byte for byte.
    pub master_seed: u64,
    /// Total waves (campaign and service waves alternate).
    pub waves: usize,
    /// Instances per wave.
    pub per_wave: usize,
    /// Worker threads for campaign waves and the service pool (0 = auto).
    pub jobs: usize,
    /// Session label for the dashboard row (commit id, CI run id…).
    pub label: String,
    /// The sampling space for campaign waves.
    pub space: SearchSpace,
}

impl ChurnConfig {
    /// A session over the default search space.
    pub fn new(master_seed: u64, waves: usize, per_wave: usize) -> Self {
        Self {
            master_seed,
            waves,
            per_wave,
            jobs: 0,
            label: "local".to_string(),
            space: SearchSpace::default(),
        }
    }
}

/// Tallies for one wave.
#[derive(Debug, Clone, Default)]
pub struct WaveMetrics {
    /// Wave index within the session.
    pub index: usize,
    /// `"campaign"` or `"service"`.
    pub kind: &'static str,
    /// Instances attempted.
    pub instances: usize,
    /// Verdicts with all three conditions holding.
    pub passed: usize,
    /// Genuine violations (unexcused failed verdicts / contained panics).
    pub violated: usize,
    /// Failed verdicts excused up front: flagged expected-unsolvable, or
    /// run under a fault window outside the protocol's model
    /// ([`fault_excused`]).
    pub expected_unsolvable: usize,
    /// Instances rejected at admission.
    pub rejected: usize,
    /// Passing ε-agreement runs that used more than 80 % of the ε budget.
    pub near_misses: usize,
    /// Contained panics (service waves only).
    pub panicked: usize,
    /// Family signatures of the genuine violations, in instance order.
    pub genuine: Vec<String>,
}

/// The session report: per-wave metrics plus the aggregates the dashboard
/// tracks over time.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Session label.
    pub label: String,
    /// Master seed of the session.
    pub master_seed: u64,
    /// Per-wave tallies, in wave order.
    pub waves: Vec<WaveMetrics>,
}

impl ChurnReport {
    /// Sums one numeric wave field across the session.
    fn total(&self, field: impl Fn(&WaveMetrics) -> usize) -> usize {
        self.waves.iter().map(field).sum()
    }

    /// Deduplicated genuine-violation signatures across the session.
    pub fn genuine_signatures(&self) -> Vec<String> {
        let mut signatures: Vec<String> = Vec::new();
        for wave in &self.waves {
            for signature in &wave.genuine {
                if !signatures.contains(signature) {
                    signatures.push(signature.clone());
                }
            }
        }
        signatures
    }

    /// The `bvc-chaos-metrics/v1` JSON document (deterministic key order,
    /// one line), rendered by the workspace's one JSON writer.
    pub fn to_json(&self) -> String {
        let waves: Vec<Json> = self
            .waves
            .iter()
            .map(|wave| {
                Json::object()
                    .field("index", wave.index)
                    .field("kind", wave.kind)
                    .field("instances", wave.instances)
                    .field("passed", wave.passed)
                    .field("violated", wave.violated)
                    .field("expected_unsolvable", wave.expected_unsolvable)
                    .field("rejected", wave.rejected)
                    .field("near_misses", wave.near_misses)
                    .field("panicked", wave.panicked)
            })
            .collect();
        Json::object()
            .field("format", "bvc-chaos-metrics/v1")
            .field("label", self.label.as_str())
            .field("master_seed", self.master_seed)
            .field("instances", self.total(|w| w.instances))
            .field("passed", self.total(|w| w.passed))
            .field("violated", self.total(|w| w.violated))
            .field("expected_unsolvable", self.total(|w| w.expected_unsolvable))
            .field("rejected", self.total(|w| w.rejected))
            .field("near_misses", self.total(|w| w.near_misses))
            .field("panicked", self.total(|w| w.panicked))
            .field("genuine", self.genuine_signatures())
            .field("waves", waves)
            .to_string()
    }

    /// One Markdown table row for the `CHAOS.md` longitudinal dashboard
    /// (columns match [`dashboard_header`]).
    pub fn dashboard_row(&self) -> String {
        let genuine = self.genuine_signatures();
        let genuine = if genuine.is_empty() {
            "—".to_string()
        } else {
            genuine.join(", ")
        };
        format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            self.label,
            self.master_seed,
            self.waves.len(),
            self.total(|w| w.instances),
            self.total(|w| w.passed),
            self.total(|w| w.violated),
            self.total(|w| w.expected_unsolvable + w.rejected),
            self.total(|w| w.near_misses),
            self.total(|w| w.panicked),
            genuine,
        )
    }
}

/// The `CHAOS.md` dashboard table header (label through genuine families).
pub fn dashboard_header() -> String {
    "| label | seed | waves | instances | passed | violated | excused | near-miss | \
     contained panics | genuine families |\n\
     |---|---|---|---|---|---|---|---|---|---|"
        .to_string()
}

/// Runs one churn session.  Waves alternate campaign (even) and service
/// (odd); everything is derived from `config.master_seed`.
pub fn churn(config: &ChurnConfig) -> ChurnReport {
    let mut rng = StdRng::seed_from_u64(config.master_seed);
    let mut waves = Vec::with_capacity(config.waves);
    for index in 0..config.waves {
        let wave = if index % 2 == 0 {
            campaign_wave(index, config, &mut rng)
        } else {
            service_wave(index, config, &mut rng)
        };
        waves.push(wave);
    }
    ChurnReport {
        label: config.label.clone(),
        master_seed: config.master_seed,
        waves,
    }
}

/// One campaign wave: sampled boundary specs through the campaign runner.
fn campaign_wave(index: usize, config: &ChurnConfig, rng: &mut StdRng) -> WaveMetrics {
    let mut metrics = WaveMetrics {
        index,
        kind: "campaign",
        instances: config.per_wave,
        ..WaveMetrics::default()
    };
    let instances: Vec<_> = (0..config.per_wave)
        .flat_map(|_| expand(0, &sample(rng, &config.space)))
        .collect();
    for result in run_campaign(&instances, config.jobs) {
        match result {
            Ok(outcome) => {
                if outcome.verdict.all_hold() {
                    metrics.passed += 1;
                    if let Some(epsilon) = outcome.epsilon {
                        let spread = outcome.verdict.max_pairwise_distance;
                        if epsilon > 0.0 && spread.is_finite() && spread / epsilon > 0.8 {
                            metrics.near_misses += 1;
                        }
                    }
                } else if !outcome.expected_solvable() || fault_excused(&outcome) {
                    metrics.expected_unsolvable += 1;
                } else {
                    metrics.violated += 1;
                    // Lab specs are named by their family signature, so
                    // the verdict already carries it.
                    metrics.genuine.push(outcome.scenario.clone());
                }
            }
            Err(_) => metrics.rejected += 1,
        }
    }
    metrics
}

/// One service wave: a safe above-bound cell streamed through the
/// [`BvcService`] pool, with the panic knob flipped on every other
/// service wave.
fn service_wave(index: usize, config: &ChurnConfig, rng: &mut StdRng) -> WaveMetrics {
    let mut metrics = WaveMetrics {
        index,
        kind: "service",
        ..WaveMetrics::default()
    };
    // A safe cell: restricted-sync or exact, comfortably above the strict
    // bound, honest inputs inside [0, 1].
    let protocol = if rng.gen_bool(0.5) {
        Protocol::RestrictedSync
    } else {
        Protocol::Exact
    };
    let f = 1;
    let d = rng.gen_range(1..=2usize);
    let floor = protocol.min_processes(d, f).expect("a paper protocol");
    let n = floor + rng.gen_range(0..=1usize);
    let template = RunConfig::new(n, f, d).epsilon(0.1);
    let count = config.per_wave.max(1);
    let instances: Vec<InstanceOverrides> = (0..count)
        .map(|_| {
            let seed = rng.gen_range(0..1_000u64);
            let inputs = (0..n - f)
                .map(|i| Point::uniform(d, (i as f64 + rng.gen_range(0.0..1.0)) / n as f64))
                .collect();
            InstanceOverrides {
                seed,
                honest_inputs: Some(inputs),
                ..InstanceOverrides::default()
            }
        })
        .collect();
    let mut service_config = ServiceConfig::new(protocol, template)
        .instances(instances)
        .workers(if config.jobs == 0 { 2 } else { config.jobs })
        .label(format!("chaos-wave-{index}"));
    // Half the service waves exercise panic containment end to end.
    if index % 4 == 1 {
        service_config = service_config.inject_panic(rng.gen_range(0..count));
    }
    metrics.instances = count;
    match BvcService::new(service_config) {
        Ok(service) => {
            let mut sink = MemorySink::new();
            match service.run(&mut sink) {
                Ok(stats) => {
                    metrics.passed = stats.decided;
                    metrics.violated = stats.violated;
                    metrics.panicked = stats.panicked;
                    // A violation beyond the injected panics would be a real
                    // finding in a cell engineered to be safe.
                    for _ in 0..stats.violated.saturating_sub(stats.panicked) {
                        metrics
                            .genuine
                            .push(format!("service-{}-n{n}f{f}d{d}", protocol.name()));
                    }
                }
                Err(_) => metrics.rejected = count,
            }
        }
        Err(_) => metrics.rejected = count,
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> ChurnConfig {
        let mut config = ChurnConfig::new(seed, 2, 3);
        config.jobs = 2;
        config.label = "test".to_string();
        // Keep the campaign wave cheap for debug-mode tests.
        config.space.protocols = vec![Protocol::Exact];
        config.space.d_range = (1, 1);
        config.space.f_range = (1, 1);
        config.space.n_slack = 1;
        config
    }

    #[test]
    fn a_session_is_reproducible_from_its_master_seed() {
        let a = churn(&tiny_config(11));
        let b = churn(&tiny_config(11));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn metrics_json_has_the_version_header_and_covers_every_wave() {
        let report = churn(&tiny_config(5));
        let json = report.to_json();
        assert!(json.starts_with("{\"format\": \"bvc-chaos-metrics/v1\""));
        assert_eq!(report.waves.len(), 2);
        assert_eq!(report.waves[0].kind, "campaign");
        assert_eq!(report.waves[1].kind, "service");
        assert!(report.waves[1].passed + report.waves[1].violated > 0);
    }

    #[test]
    fn metrics_json_escapes_the_label() {
        let report = ChurnReport {
            label: "nightly \"quoted\"".to_string(),
            master_seed: 0,
            waves: Vec::new(),
        };
        let parsed = Json::parse(&report.to_json()).expect("metrics are valid JSON");
        assert_eq!(
            parsed.get("label").and_then(Json::as_str),
            Some("nightly \"quoted\"")
        );
    }

    #[test]
    fn dashboard_row_has_the_header_column_count() {
        let report = churn(&tiny_config(3));
        let header_cols = dashboard_header()
            .lines()
            .next()
            .unwrap()
            .matches('|')
            .count();
        assert_eq!(report.dashboard_row().matches('|').count(), header_cols);
    }
}
