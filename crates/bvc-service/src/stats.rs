//! Aggregate service statistics, rendered with the workspace's one JSON
//! writer ([`bvc_trace::json::Json`]).

use bvc_net::ExecutionStats;
use bvc_trace::json::Json;

/// Instance-latency percentiles, measured from the moment a worker claims
/// the instance to the hand-off of its verdict line (wall clock on the
/// deciding worker).  Instances do not wait in a queue — a free worker
/// takes the next one — so this is execution plus line rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Median instance latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile instance latency, milliseconds (nearest-rank).
    pub p99_ms: f64,
    /// Worst instance latency, milliseconds.
    pub max_ms: f64,
    /// Mean instance latency, milliseconds.
    pub mean_ms: f64,
}

impl LatencyStats {
    /// Nearest-rank percentiles over a latency sample (milliseconds).
    /// Returns zeros for an empty sample.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let position = (q * samples.len() as f64).ceil() as usize;
            samples[position.clamp(1, samples.len()) - 1]
        };
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Self {
            p50_ms: rank(0.50),
            p99_ms: rank(0.99),
            max_ms: *samples.last().expect("non-empty"),
            mean_ms: mean,
        }
    }
}

/// Two-level Γ-cache counters: `local` is the sum over per-instance child
/// caches, `shared` is the service-lifetime parent.  Every `shared` hit is
/// a query some earlier instance already computed — the cross-instance
/// reuse the service exists to measure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered by a per-instance cache.
    pub local_hits: u64,
    /// Queries that missed the per-instance cache.
    pub local_misses: u64,
    /// Local misses answered by the shared parent (cross-instance reuse).
    pub shared_hits: u64,
    /// Queries no instance had computed before (Γ-engine work).
    pub shared_misses: u64,
}

impl CacheStats {
    /// Fraction of instance-level queries answered without running the Γ
    /// engine (local or shared hit).  Zero for an empty stream.
    pub fn hit_rate(&self) -> f64 {
        let total = self.local_hits + self.local_misses;
        if total == 0 {
            return 0.0;
        }
        (self.local_hits + self.shared_hits) as f64 / total as f64
    }

    /// Fraction of parent-level queries answered by the shared cache —
    /// the cross-instance reuse rate.  Zero without a shared cache.
    pub fn cross_instance_hit_rate(&self) -> f64 {
        let total = self.shared_hits + self.shared_misses;
        if total == 0 {
            return 0.0;
        }
        self.shared_hits as f64 / total as f64
    }
}

/// Instances claimed by a worker but not yet released to the sink: those
/// still running plus those finished and held in the reorder buffer behind
/// a slower predecessor — the quantity that bounds the stream's memory.
/// Sampled twice per instance, as it arrives at the emit lock and once it
/// has released what it could.  The series is decimated to at most
/// [`MAX_SERIES`](Self::MAX_SERIES) bucket maxima so the JSON stays small
/// on long streams while the peaks survive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueStats {
    /// Deepest observed depth (claimed − released).
    pub max_depth: usize,
    /// Mean observed depth.
    pub mean_depth: f64,
    /// Decimated depth-over-time series, in sample order; each entry is
    /// the maximum of one contiguous bucket of raw samples.
    pub series: Vec<usize>,
}

impl QueueStats {
    /// Upper bound on the decimated series length.
    pub const MAX_SERIES: usize = 32;

    /// Aggregates a raw sample series (in observation order).
    pub fn from_samples(samples: &[usize]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let bucket = samples.len().div_ceil(Self::MAX_SERIES);
        let series = samples
            .chunks(bucket)
            .map(|chunk| *chunk.iter().max().expect("non-empty chunk"))
            .collect();
        Self {
            max_depth: *samples.iter().max().expect("non-empty"),
            mean_depth: samples.iter().sum::<usize>() as f64 / samples.len() as f64,
            series,
        }
    }
}

/// One worker's share of the stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Instances this worker decided.
    pub instances: usize,
    /// Wall-clock time spent executing instances, milliseconds.
    pub busy_ms: f64,
    /// `busy_ms` over the stream's wall time (0..=1, roughly).
    pub utilization: f64,
}

/// Aggregate outcome of one service stream.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Stream label (echoed from the config).
    pub label: String,
    /// Instances executed.
    pub instances: usize,
    /// Instances whose every honest process decided in budget.
    pub decided: usize,
    /// Instances whose verdict violated agreement, validity or
    /// termination.
    pub violated: usize,
    /// Instances that panicked inside the pool and were contained (each is
    /// also counted in `violated`: a panic is a failed verdict).
    pub panicked: usize,
    /// Stream wall time, milliseconds.
    pub wall_ms: f64,
    /// Decided instances per wall-clock second — the service's primary
    /// throughput metric.
    pub decisions_per_sec: f64,
    /// Instance-latency percentiles.
    pub latency: LatencyStats,
    /// Two-level Γ-cache counters.
    pub cache: CacheStats,
    /// In-flight plus held-for-order instance counts.
    pub queue: QueueStats,
    /// Per-worker load split, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Message totals summed over every instance execution.
    pub messages: ExecutionStats,
}

impl ServiceStats {
    /// Renders the stats as one deterministic-key-order JSON object
    /// (values are measurements and vary run to run; the *shape* is
    /// stable).
    pub fn to_json(&self) -> String {
        let workers: Vec<Json> = self
            .workers
            .iter()
            .map(|worker| {
                Json::object()
                    .field("instances", worker.instances)
                    .field("busy_ms", worker.busy_ms)
                    .field("utilization", worker.utilization)
            })
            .collect();
        Json::object()
            .field("schema", "bvc-service-stats/v1")
            .field("service", self.label.as_str())
            .field("instances", self.instances)
            .field("decided", self.decided)
            .field("violated", self.violated)
            .field("panicked", self.panicked)
            .field("wall_ms", self.wall_ms)
            .field("decisions_per_sec", self.decisions_per_sec)
            .field(
                "latency",
                Json::object()
                    .field("p50_ms", self.latency.p50_ms)
                    .field("p99_ms", self.latency.p99_ms)
                    .field("max_ms", self.latency.max_ms)
                    .field("mean_ms", self.latency.mean_ms),
            )
            .field(
                "cache",
                Json::object()
                    .field("local_hits", self.cache.local_hits)
                    .field("local_misses", self.cache.local_misses)
                    .field("shared_hits", self.cache.shared_hits)
                    .field("shared_misses", self.cache.shared_misses)
                    .field("hit_rate", self.cache.hit_rate())
                    .field(
                        "cross_instance_hit_rate",
                        self.cache.cross_instance_hit_rate(),
                    ),
            )
            .field(
                "messages",
                Json::object()
                    .field("sent", self.messages.messages_sent)
                    .field("delivered", self.messages.messages_delivered)
                    .field("dropped", self.messages.messages_dropped)
                    .field("gamma_queries", self.messages.gamma_queries),
            )
            .field(
                "queue",
                Json::object()
                    .field("max_depth", self.queue.max_depth)
                    .field("mean_depth", self.queue.mean_depth)
                    .field("series", self.queue.series.clone()),
            )
            .field("workers", workers)
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let latency = LatencyStats::from_samples(samples);
        assert_eq!(latency.p50_ms, 50.0);
        assert_eq!(latency.p99_ms, 99.0);
        assert_eq!(latency.max_ms, 100.0);
        assert_eq!(latency.mean_ms, 50.5);
        assert_eq!(LatencyStats::from_samples(vec![7.5]).p99_ms, 7.5);
        assert_eq!(
            LatencyStats::from_samples(Vec::new()),
            LatencyStats::default()
        );
    }

    #[test]
    fn cache_rates_count_engine_avoidance_and_cross_instance_reuse() {
        let cache = CacheStats {
            local_hits: 60,
            local_misses: 40,
            shared_hits: 30,
            shared_misses: 10,
        };
        assert!((cache.hit_rate() - 0.9).abs() < 1e-12);
        assert!((cache.cross_instance_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().cross_instance_hit_rate(), 0.0);
    }

    #[test]
    fn stats_json_shape_is_stable() {
        let stats = ServiceStats {
            label: "smoke".into(),
            instances: 2,
            decided: 2,
            violated: 0,
            panicked: 0,
            wall_ms: 1.5,
            decisions_per_sec: 1333.0,
            latency: LatencyStats::from_samples(vec![0.5, 1.0]),
            cache: CacheStats::default(),
            queue: QueueStats::from_samples(&[1, 2, 1]),
            workers: vec![WorkerStats {
                instances: 2,
                busy_ms: 1.0,
                utilization: 0.66,
            }],
            messages: ExecutionStats::default(),
        };
        let json = stats.to_json();
        assert!(json.starts_with("{\"schema\": \"bvc-service-stats/v1\", \"service\": \"smoke\""));
        assert!(json.contains("\"decisions_per_sec\": 1333.0"));
        assert!(json.contains("\"panicked\": 0"));
        assert!(json.contains("\"p99_ms\": 1.0"));
        assert!(json.contains("\"queue\": {\"max_depth\": 2, "));
        assert!(json.ends_with("\"utilization\": 0.66}]}"));
    }

    #[test]
    fn queue_stats_decimate_with_bucket_maxima() {
        let raw: Vec<usize> = (0..100).map(|i| if i == 77 { 40 } else { i % 5 }).collect();
        let queue = QueueStats::from_samples(&raw);
        assert_eq!(queue.max_depth, 40);
        assert!(queue.series.len() <= QueueStats::MAX_SERIES);
        assert!(
            queue.series.contains(&40),
            "decimation must preserve the peak: {:?}",
            queue.series
        );
        assert!(queue.mean_depth > 0.0);
        assert_eq!(QueueStats::from_samples(&[]), QueueStats::default());
    }
}
