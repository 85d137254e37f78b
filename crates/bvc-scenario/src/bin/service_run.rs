//! `service-run` — run a `[service]` scenario as a multi-shot consensus
//! stream on the ordered worker pool, with streaming JSONL verdicts.
//!
//! ```text
//! cargo run --release -p bvc-scenario --bin service-run -- \
//!     --scenario scenarios/service/restricted_stream.toml \
//!     [--instances N] [--workers N] [--cold-cache] \
//!     [--out verdicts.jsonl] [--stats stats.json] [--trace trace.jsonl]
//! ```
//!
//! `--trace` writes the stream's deterministic `bvc-trace/v1` event trace:
//! each instance traces into its own slot (admission sequence + 1), so the
//! sorted trace is byte-identical across `--workers` settings.
//!
//! Verdict lines stream to stdout (default), or to the scenario's declared
//! `sink`, or to `--out` (highest precedence) — one JSON object per
//! instance, in admission order, written as each instance's turn comes up.
//! The aggregate [`ServiceStats`] — decisions/sec,
//! latency percentiles, Γ-cache reuse, per-worker load — go to stderr as a
//! human summary and, with `--stats`, to a JSON file.  Exit code 0 means
//! every verdict held; 1 means some verdict was violated; 2 means the
//! stream could not be loaded or admitted.

use bvc_scenario::{service_config_from_spec, ScenarioSpec};
use bvc_service::{BvcService, CacheMode, JsonlSink, ServiceStats, VerdictSink};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: service-run --scenario <file.toml> [--instances <n>] [--workers <n>] \
         [--cold-cache] [--out <file>] [--stats <file>] [--trace <file>]"
    );
    std::process::exit(2);
}

fn parse_count(value: Option<String>, flag: &str) -> usize {
    let value = value.unwrap_or_else(|| usage());
    value.parse().unwrap_or_else(|_| {
        eprintln!("service-run: invalid {flag} `{value}`");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut scenario: Option<PathBuf> = None;
    let mut instances: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut cold_cache = false;
    let mut out_path: Option<PathBuf> = None;
    let mut stats_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => scenario = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--instances" => instances = Some(parse_count(args.next(), "--instances")),
            "--workers" => workers = Some(parse_count(args.next(), "--workers")),
            "--cold-cache" => cold_cache = true,
            "--out" => out_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--stats" => stats_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--trace" => trace_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("service-run: unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(path) = scenario else { usage() };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("service-run: cannot read `{}`: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let mut spec = match ScenarioSpec::from_toml(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("service-run: `{}`: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    if let (Some(n), Some(service)) = (instances, spec.service.as_mut()) {
        service.instances = n;
    }

    let mut config = match service_config_from_spec(&spec) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("service-run: `{}`: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    if let Some(workers) = workers {
        config = config.workers(workers);
    }
    if cold_cache {
        config = config.cache_mode(CacheMode::PerInstance);
    }

    let service = match BvcService::new(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("service-run: {e}");
            return ExitCode::from(2);
        }
    };

    // --out beats the scenario's declared sink; both beat stdout.
    let file_target = out_path.or_else(|| spec.service.as_ref()?.sink.as_ref().map(PathBuf::from));
    let stats = bvc_trace::run_traced(trace_path.as_deref(), || match file_target {
        Some(target) => {
            let file = match File::create(&target) {
                Ok(file) => file,
                Err(e) => {
                    eprintln!("service-run: cannot write `{}`: {e}", target.display());
                    std::process::exit(2);
                }
            };
            run(&service, &mut JsonlSink::new(BufWriter::new(file)))
        }
        None => run(&service, &mut JsonlSink::new(BufWriter::new(io::stdout()))),
    });
    let stats = match stats {
        Ok(Ok(stats)) => stats,
        Ok(Err(e)) => {
            eprintln!("service-run: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("service-run: cannot write trace: {e}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "service-run: {} instance(s) in {:.1} ms → {:.1} decisions/sec \
         (latency p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms)",
        stats.instances,
        stats.wall_ms,
        stats.decisions_per_sec,
        stats.latency.p50_ms,
        stats.latency.p99_ms,
        stats.latency.max_ms,
    );
    eprintln!(
        "service-run: {} decided, {} violated ({} contained panic(s)); \
         Γ-cache hit rate {:.1}% (cross-instance {:.1}%, {} shared hits); {} workers",
        stats.decided,
        stats.violated,
        stats.panicked,
        100.0 * stats.cache.hit_rate(),
        100.0 * stats.cache.cross_instance_hit_rate(),
        stats.cache.shared_hits,
        stats.workers.len(),
    );
    eprintln!(
        "service-run: in flight or held for order: max {}, mean {:.1} \
         (over {} sample(s))",
        stats.queue.max_depth,
        stats.queue.mean_depth,
        stats.queue.series.len(),
    );
    if let Some(path) = &stats_path {
        let mut json = stats.to_json();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("service-run: cannot write `{}`: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let _ = io::stderr().flush();
    if stats.violated == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run(
    service: &BvcService,
    sink: &mut dyn VerdictSink,
) -> Result<ServiceStats, bvc_service::ServiceError> {
    service.run(sink)
}
