//! `service-snapshot` — the multi-shot consensus-service throughput gate.
//!
//! Runs a fixed matrix of `bvc-service` streams (thousands of queued
//! instances over persistent configurations, seeds cycling so the shared
//! Γ cache sees cross-instance repeats) and emits one
//! `bvc-perf-snapshot/v1` document, by convention `BENCH_service.json`,
//! that the existing `perf-compare` binary gates exactly like the
//! Γ-engine matrix.  Every row is a whole stream: `calls` is the queued
//! instance count, so `mean_us` is the per-decision latency and
//! `1e6 / mean_us` the stream's decisions/sec.
//!
//! ```text
//! cargo run --release -p bvc-bench --bin service-snapshot -- [--out BENCH_service.json]
//! ```
//!
//! Exit code 0 means every stream decided every instance without a
//! verdict violation *and* every shared-cache stream measured nonzero
//! cross-instance reuse; 1 means some stream failed either check
//! (timings are reported either way).
//!
//! The matrix is sized for CI's single-core wall-clock budget: the
//! n = 5 shapes run thousands of instances (≈ 1–2 ms each), the n = 9
//! restricted shapes run shorter streams because one d = 2 instance
//! costs hundreds of milliseconds even warm.

use bvc_core::{ByzantineStrategy, InstanceOverrides, ProtocolKind, RunConfig};
use bvc_geometry::{Point, WorkloadGenerator};
use bvc_service::{BvcService, CacheMode, MemorySink, ServiceConfig, ServiceStats};
use bvc_trace::event::escape_json;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Byzantine rotation shared by every stream; its length (2) divides
/// every seed cycle in the matrix, so each seed repeat is an exact
/// configuration repeat and cross-instance Γ reuse is guaranteed by
/// construction.
const ROTATION: [ByzantineStrategy; 2] = [
    ByzantineStrategy::Equivocate,
    ByzantineStrategy::AntiConvergence,
];

struct Row {
    kind: &'static str,
    n: usize,
    f: usize,
    d: usize,
    detail: String,
    calls: usize,
    wall_ms: f64,
    ok: bool,
    /// Γ-cache hit rate of the stream (local + shared levels), in percent:
    /// the service-level fast path.  A drop here without a protocol change
    /// means instances stopped finding their safe-area evaluations cached.
    fast_path_pct: f64,
}

impl Row {
    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_ms * 1000.0 / self.calls as f64
        }
    }
}

/// One stream of the matrix: `instances` queued instances over a
/// persistent `(protocol, n, f, d, ε)` configuration, seeds cycling with
/// period `cycle`.
struct Stream {
    protocol: ProtocolKind,
    n: usize,
    f: usize,
    d: usize,
    epsilon: f64,
    instances: usize,
    cycle: usize,
    cache: CacheMode,
}

fn inputs_for_seed(n: usize, f: usize, d: usize, seed: u64) -> Vec<Point> {
    WorkloadGenerator::new(0x5EED_0000 ^ seed)
        .box_points(n - f, d, 0.0, 1.0)
        .into_points()
}

fn build_config(stream: &Stream) -> ServiceConfig {
    let template = RunConfig::new(stream.n, stream.f, stream.d)
        .epsilon(stream.epsilon)
        .honest_inputs(inputs_for_seed(stream.n, stream.f, stream.d, 0));
    let overrides = (0..stream.instances)
        .map(|i| {
            let seed = (i % stream.cycle) as u64;
            InstanceOverrides {
                seed,
                honest_inputs: Some(inputs_for_seed(stream.n, stream.f, stream.d, seed)),
                adversary: Some(ROTATION[i % ROTATION.len()]),
                ..InstanceOverrides::default()
            }
        })
        .collect();
    ServiceConfig::new(stream.protocol, template)
        .instances(overrides)
        .workers(4)
        .batch(64)
        .cache_mode(stream.cache)
        .label("service-snapshot")
}

fn run_stream(stream: &Stream) -> Row {
    let cache_label = match stream.cache {
        CacheMode::Shared => "shared",
        CacheMode::PerInstance => "cold",
    };
    let protocol_label = match stream.protocol {
        ProtocolKind::Exact => "exact",
        _ => "restricted-sync",
    };
    eprintln!(
        "service-snapshot: {protocol_label} n={} f={} d={} x{} (cache={cache_label})",
        stream.n, stream.f, stream.d, stream.instances
    );
    let service =
        BvcService::new(build_config(stream)).expect("matrix shapes satisfy the admission bounds");
    let mut sink = MemorySink::new();
    let stats: ServiceStats = service
        .run(&mut sink)
        .expect("the in-memory sink cannot fail");
    // A shared-cache stream that measures zero cross-instance reuse is a
    // correctness failure of the service (the seeds cycle by
    // construction), not just a slow run.
    let reuse_ok = match stream.cache {
        CacheMode::Shared => stats.cache.shared_hits > 0,
        CacheMode::PerInstance => stats.cache.shared_hits == 0,
    };
    Row {
        kind: "service_run",
        n: stream.n,
        f: stream.f,
        d: stream.d,
        detail: format!(
            "{protocol_label}, epsilon={}, instances={}, cycle={}, cache={cache_label}",
            stream.epsilon, stream.instances, stream.cycle
        ),
        calls: stream.instances,
        wall_ms: stats.wall_ms,
        ok: stats.violated == 0
            && stats.decided == stream.instances
            && sink.lines().len() == stream.instances
            && reuse_ok,
        fast_path_pct: 100.0 * stats.cache.hit_rate(),
    }
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"bvc-perf-snapshot/v1\",\n");
    out.push_str("  \"description\": \"Multi-shot consensus-service matrix: queued instance streams over persistent configurations (wall clock, release build; mean_us is per-decision latency)\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kind\": \"{}\", \"n\": {}, \"f\": {}, \"d\": {}, \"detail\": \"{}\", \"calls\": {}, \"wall_ms\": {:.3}, \"mean_us\": {:.1}, \"ok\": {}, \"fast_path_pct\": {:.1}}}",
            row.kind,
            row.n,
            row.f,
            row.d,
            escape_json(&row.detail),
            row.calls,
            row.wall_ms,
            row.mean_us(),
            row.ok,
            row.fast_path_pct
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_service.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("usage: service-snapshot [--out <file>]");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!("usage: service-snapshot [--out <file>]");
                return ExitCode::from(2);
            }
            other => {
                eprintln!("service-snapshot: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    // Streams are ordered cheapest-first so a wall-clock timeout still
    // reports the bulk of the matrix.  The n = 9, d = 2 restricted shape
    // (the issue's acceptance shape) runs a short stream at a generous ε:
    // even warm, one instance costs hundreds of milliseconds on one core.
    let streams = [
        // Throughput rows: thousands of queued instances, n = 5.
        Stream {
            protocol: ProtocolKind::Exact,
            n: 5,
            f: 1,
            d: 2,
            epsilon: 0.1,
            instances: 2000,
            cycle: 100,
            cache: CacheMode::Shared,
        },
        Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 5,
            f: 1,
            d: 1,
            epsilon: 0.05,
            instances: 2000,
            cycle: 100,
            cache: CacheMode::Shared,
        },
        Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 5,
            f: 1,
            d: 2,
            epsilon: 0.1,
            instances: 2000,
            cycle: 100,
            cache: CacheMode::Shared,
        },
        // Cold-cache control: identical stream, isolated caches — the
        // mean_us gap against the row above is the cross-instance reuse
        // dividend.
        Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 5,
            f: 1,
            d: 2,
            epsilon: 0.1,
            instances: 500,
            cycle: 100,
            cache: CacheMode::PerInstance,
        },
        // Wider shapes, shorter streams.
        Stream {
            protocol: ProtocolKind::Exact,
            n: 7,
            f: 2,
            d: 2,
            epsilon: 0.1,
            instances: 1000,
            cycle: 50,
            cache: CacheMode::Shared,
        },
        Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 9,
            f: 2,
            d: 1,
            epsilon: 0.05,
            instances: 200,
            cycle: 50,
            cache: CacheMode::Shared,
        },
        Stream {
            protocol: ProtocolKind::RestrictedSync,
            n: 9,
            f: 2,
            d: 2,
            epsilon: 0.2,
            instances: 24,
            cycle: 12,
            cache: CacheMode::Shared,
        },
    ];
    let rows: Vec<Row> = streams.iter().map(run_stream).collect();

    let rendered = render(&rows);
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("service-snapshot: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    print!("{rendered}");

    let total_ms: f64 = rows.iter().map(|r| r.wall_ms).sum();
    let total_calls: usize = rows.iter().map(|r| r.calls).sum();
    eprintln!(
        "service-snapshot: {total_calls} instances across {} streams in {:.1} ms",
        rows.len(),
        total_ms
    );
    if rows.iter().all(|r| r.ok) {
        ExitCode::SUCCESS
    } else {
        eprintln!("service-snapshot: some stream failed its correctness check");
        ExitCode::from(1)
    }
}
