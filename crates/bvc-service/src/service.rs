//! The service core: one job per admitted instance on the ordered pool,
//! and the fold of the per-instance tallies into [`ServiceStats`].

use crate::config::{CacheMode, ServiceConfig, ServiceError};
use crate::pool::run_ordered;
use crate::sink::VerdictSink;
use crate::stats::{CacheStats, LatencyStats, QueueStats, ServiceStats, WorkerStats};
use bvc_core::{BvcSession, RunReport};
use bvc_geometry::{GammaCache, SharedGammaCache};
use bvc_net::ExecutionStats;
use bvc_trace::json::Json;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A validated multi-shot consensus service.
///
/// Construction ([`BvcService::new`]) is the admission point: every
/// instance of the stream is checked against the protocol's resilience
/// bound up front, so [`run`](Self::run) executes an already-admitted
/// stream and can only fail on sink I/O.
#[derive(Debug, Clone)]
pub struct BvcService {
    config: ServiceConfig,
}

/// What one instance measured (folded into [`ServiceStats`] after the pool
/// joins).
struct InstanceTally {
    worker: usize,
    decided: bool,
    violated: bool,
    panicked: bool,
    busy_ms: f64,
    latency_ms: f64,
    local_hits: u64,
    local_misses: u64,
    messages: ExecutionStats,
}

fn ms(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// One instance's verdict line.  Deliberately timing-free: the line is a
/// pure function of the instance configuration, which is what makes the
/// stream byte-identical across worker counts.
fn verdict_line(label: &str, seq: usize, report: &RunReport) -> String {
    let config = report.config();
    let verdict = report.verdict();
    let stats = report.stats();
    Json::object()
        .field("service", label)
        .field("instance", seq)
        .field("protocol", report.protocol().name())
        .field("n", config.n)
        .field("f", config.f)
        .field("d", config.d)
        .field("seed", config.seed)
        .field("strategy", config.adversary.label())
        .field("validity", report.validity_mode().label())
        .field("epsilon", report.epsilon().map_or(Json::Null, Json::Float))
        .field(
            "verdict",
            verdict_json(
                verdict.agreement,
                verdict.validity,
                verdict.termination,
                verdict.max_pairwise_distance,
            ),
        )
        .field("rounds", report.rounds())
        .field(
            "messages",
            Json::object()
                .field("sent", stats.messages_sent)
                .field("delivered", stats.messages_delivered)
                .field("dropped", stats.messages_dropped),
        )
        .to_string()
}

/// The verdict line for a contained instance panic: an all-false verdict
/// carrying the panic message.  Still timing-free and deterministic for a
/// deterministic panic, so pinned streams stay byte-identical.
fn panic_line(label: &str, seq: usize, message: &str) -> String {
    Json::object()
        .field("service", label)
        .field("instance", seq)
        .field("panic", message)
        .field("verdict", verdict_json(false, false, false, f64::NAN))
        .to_string()
}

/// The `verdict` object of both line shapes (a non-finite distance renders
/// as `null`).
fn verdict_json(agreement: bool, validity: bool, termination: bool, distance: f64) -> Json {
    Json::object()
        .field("agreement", agreement)
        .field("validity", validity)
        .field("termination", termination)
        .field("max_pairwise_distance", distance)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

impl BvcService {
    /// Validates the stream ([`ServiceConfig::validate`]) and builds the
    /// service.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ServiceConfig::validate`].
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Runs the whole stream on the ordered pool: one verdict line per
    /// instance streams into `sink` in admission order, and the aggregate
    /// statistics come back.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the sink fails; the stream still drains
    /// (every instance runs) but emission stops at the first error.
    pub fn run(&self, sink: &mut dyn VerdictSink) -> Result<ServiceStats, ServiceError> {
        let config = &self.config;
        let total = config.instances.len();

        // The parent outlives every instance, so it gets a much larger
        // capacity than the per-instance children: entries must survive a
        // whole seed cycle to ever be reused (eviction is wholesale-clear).
        let shared_cache: Option<SharedGammaCache> = match config.cache_mode {
            CacheMode::Shared => Some(Arc::new(GammaCache::with_capacity(
                ServiceConfig::DEFAULT_SHARED_CAPACITY,
            ))),
            CacheMode::PerInstance => None,
        };

        // When the caller runs the stream under a trace scope, each instance
        // traces into its own slot (admission seq + 1): the sorted stream is
        // then byte-identical across worker counts, because per-slot
        // sequence numbers restart at every install.
        let trace = bvc_trace::current_handle();

        let started = Instant::now();
        let done = run_ordered(total, config.workers, sink, |worker, seq| {
            let claimed = Instant::now();
            let overrides = &config.instances[seq];
            let mut run_config = config.template.for_instance(overrides);
            // A per-instance child cache either chains to the
            // service-lifetime parent (cross-instance reuse, measurable) or
            // stands alone (the control group).
            let child: SharedGammaCache = match &shared_cache {
                Some(parent) => Arc::new(GammaCache::with_parent(Arc::clone(parent))),
                None => GammaCache::shared(),
            };
            run_config.gamma_cache = Some(Arc::clone(&child));

            let _trace_scope = trace
                .as_ref()
                .map(|h| bvc_trace::install(h.clone(), u32::try_from(seq + 1).unwrap_or(u32::MAX)));
            bvc_trace::emit(|| bvc_trace::TraceEvent::SpanOpen {
                instance: seq as u64,
                label: config.label.clone(),
            });

            let exec_started = Instant::now();
            // Contain instance panics to the instance: a panic becomes a
            // failed verdict line and the stream keeps draining.
            // AssertUnwindSafe is sound because the panicking closure's
            // state (run config, child cache) is either dropped with the
            // payload or only read through monotone counters afterwards.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if config.panic_instance == Some(seq) {
                    panic!("panic injected by ServiceConfig::inject_panic({seq})");
                }
                BvcSession::new(config.protocol, run_config)
                    .expect("admission validated every instance")
                    .run()
            }));
            let busy_ms = ms(exec_started.elapsed());

            // A panic is a failed verdict: it violates termination at the
            // very least.
            let (line, messages, decided, violated, rounds) = match &outcome {
                Ok(report) => (
                    verdict_line(&config.label, seq, report),
                    report.stats().clone(),
                    report.verdict().termination,
                    !report.verdict().all_hold(),
                    Some(report.rounds()),
                ),
                Err(payload) => (
                    panic_line(&config.label, seq, panic_message(payload.as_ref())),
                    ExecutionStats::default(),
                    false,
                    true,
                    None,
                ),
            };
            bvc_trace::emit(|| bvc_trace::TraceEvent::SpanClose {
                instance: seq as u64,
                decided,
                violated,
                rounds,
            });
            let tally = InstanceTally {
                worker,
                decided,
                violated,
                panicked: outcome.is_err(),
                busy_ms,
                latency_ms: ms(claimed.elapsed()),
                local_hits: child.hits(),
                local_misses: child.misses(),
                messages,
            };
            (Some(line), tally)
        })?;
        let wall_ms = ms(started.elapsed());

        let mut workers = vec![WorkerStats::default(); done.workers];
        let mut latencies = Vec::with_capacity(total);
        let mut cache = CacheStats::default();
        let mut messages = ExecutionStats::default();
        let (mut decided, mut violated, mut panicked) = (0usize, 0usize, 0usize);
        for tally in &done.results {
            workers[tally.worker].instances += 1;
            workers[tally.worker].busy_ms += tally.busy_ms;
            latencies.push(tally.latency_ms);
            cache.local_hits += tally.local_hits;
            cache.local_misses += tally.local_misses;
            messages.absorb(&tally.messages);
            decided += usize::from(tally.decided);
            violated += usize::from(tally.violated);
            panicked += usize::from(tally.panicked);
        }
        if wall_ms > 0.0 {
            for worker in &mut workers {
                worker.utilization = worker.busy_ms / wall_ms;
            }
        }
        if let Some(shared) = &shared_cache {
            cache.shared_hits = shared.hits();
            cache.shared_misses = shared.misses();
        }

        Ok(ServiceStats {
            label: config.label.clone(),
            instances: total,
            decided,
            violated,
            panicked,
            wall_ms,
            decisions_per_sec: if wall_ms > 0.0 {
                decided as f64 * 1e3 / wall_ms
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(latencies),
            cache,
            queue: QueueStats::from_samples(&done.depth),
            workers,
            messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use bvc_core::{InstanceOverrides, ProtocolKind, RunConfig};
    use bvc_geometry::Point;
    use std::io;

    fn stream_config(instances: usize) -> ServiceConfig {
        let template = RunConfig::new(5, 1, 2).epsilon(0.1);
        let overrides = (0..instances as u64)
            .map(|seed| InstanceOverrides {
                seed,
                honest_inputs: Some(
                    (0..4)
                        .map(|i| {
                            Point::new(vec![
                                (seed as f64 * 0.37 + i as f64 * 0.11) % 1.0,
                                (seed as f64 * 0.53 + i as f64 * 0.19) % 1.0,
                            ])
                        })
                        .collect(),
                ),
                ..InstanceOverrides::default()
            })
            .collect();
        ServiceConfig::new(ProtocolKind::RestrictedSync, template)
            .instances(overrides)
            .label("unit")
    }

    #[test]
    fn streams_one_line_per_instance_in_admission_order() {
        let config = stream_config(12).workers(3);
        let mut sink = MemorySink::new();
        let stats = BvcService::new(config).unwrap().run(&mut sink).unwrap();
        assert_eq!(stats.instances, 12);
        assert_eq!(stats.decided, 12);
        assert_eq!(stats.violated, 0);
        assert_eq!(sink.lines().len(), 12);
        for (seq, line) in sink.lines().iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"service\": \"unit\", \"instance\": {seq}, ")),
                "line {seq} out of order: {line}"
            );
        }
        assert!(stats.decisions_per_sec > 0.0);
        assert!(stats.latency.p50_ms <= stats.latency.p99_ms);
        assert!(stats.latency.p99_ms <= stats.latency.max_ms);
        assert_eq!(stats.workers.iter().map(|w| w.instances).sum::<usize>(), 12);
    }

    #[test]
    fn shared_cache_sees_cross_instance_hits_on_repeated_seeds() {
        // Two passes over the same five seeds: the second pass's multisets
        // were all computed in the first, so the parent cache must hit.
        let mut config = stream_config(5);
        let repeat = config.instances.clone();
        config.instances.extend(repeat);
        let stats = BvcService::new(config)
            .unwrap()
            .run(&mut MemorySink::new())
            .unwrap();
        assert!(
            stats.cache.shared_hits > 0,
            "repeated instances must hit the shared parent: {:?}",
            stats.cache
        );
        assert!(stats.cache.cross_instance_hit_rate() > 0.0);
    }

    #[test]
    fn a_panicking_instance_is_contained_and_the_stream_drains() {
        let config = stream_config(8).workers(2).inject_panic(3);
        let mut sink = MemorySink::new();
        let stats = BvcService::new(config).unwrap().run(&mut sink).unwrap();
        assert_eq!(stats.instances, 8);
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.violated, 1);
        assert_eq!(stats.decided, 7);
        assert_eq!(sink.lines().len(), 8, "stream must drain past the panic");
        let line = &sink.lines()[3];
        assert!(
            line.contains("\"panic\": \"panic injected by ServiceConfig::inject_panic(3)\""),
            "panic line must carry the message: {line}"
        );
        assert!(line.contains("\"termination\": false"));
        assert!(sink.lines()[4].starts_with("{\"service\": \"unit\", \"instance\": 4, "));
    }

    #[test]
    fn queue_depth_counts_claimed_but_unreleased_instances() {
        let config = stream_config(12).workers(3);
        let stats = BvcService::new(config)
            .unwrap()
            .run(&mut MemorySink::new())
            .unwrap();
        assert!(!stats.queue.series.is_empty());
        // An instance arriving at the emit lock is itself unreleased, and
        // nothing can be in flight beyond the stream.
        assert!(stats.queue.max_depth >= 1, "{:?}", stats.queue);
        assert!(stats.queue.max_depth <= 12, "{:?}", stats.queue);
        assert!(stats.queue.mean_depth > 0.0);
    }

    #[test]
    fn sink_errors_surface_as_service_errors() {
        struct FailingSink;
        impl VerdictSink for FailingSink {
            fn emit(&mut self, _line: &str) -> io::Result<()> {
                Err(io::Error::other("sink closed"))
            }
        }
        let config = stream_config(4).workers(2);
        let result = BvcService::new(config).unwrap().run(&mut FailingSink);
        assert!(matches!(result, Err(ServiceError::Io(_))));
    }
}
