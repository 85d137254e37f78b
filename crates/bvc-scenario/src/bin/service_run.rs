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
//! stream could not be loaded or admitted.  A malformed command line exits 2
//! with the usage before anything runs: see [`bvc_trace::cli`].

use bvc_scenario::{service_config_from_spec, ScenarioSpec};
use bvc_service::{BvcService, CacheMode, JsonlSink, ServiceStats, VerdictSink};
use bvc_trace::cli::Cli;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::new(
        "service-run",
        "usage: service-run --scenario <file.toml> [--instances <n>] [--workers <n>] \
         [--cold-cache] [--out <file>] [--stats <file>] [--trace <file>]",
    );
    let args = cli.read(&[
        ("--scenario", true),
        ("--instances", true),
        ("--workers", true),
        ("--cold-cache", false),
        ("--out", true),
        ("--stats", true),
        ("--trace", true),
    ]);
    let path = args.required("--scenario");
    let instances: Option<usize> = args.parsed("--instances");
    let workers: Option<usize> = args.parsed("--workers");
    let out_path = args.value("--out").map(PathBuf::from);
    let stats_path = args.value("--stats");
    let trace_path = args.value("--trace").map(Path::new);

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("service-run: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spec = match ScenarioSpec::from_toml(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("service-run: `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    if let (Some(n), Some(service)) = (instances, spec.service.as_mut()) {
        service.instances = n;
    }

    let mut config = match service_config_from_spec(&spec) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("service-run: `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workers) = workers {
        config = config.workers(workers);
    }
    if args.has("--cold-cache") {
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
    let stats = bvc_trace::run_traced(trace_path, || match file_target {
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
    if let Some(path) = stats_path {
        let mut json = stats.to_json();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("service-run: cannot write `{path}`: {e}");
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
