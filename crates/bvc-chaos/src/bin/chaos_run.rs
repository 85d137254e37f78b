//! `chaos-run` — the chaos lab CLI.
//!
//! Three modes:
//!
//! ```text
//! chaos-run --search [--seed S] [--restarts R] [--iters I]
//!           [--repros DIR] [--pin] [--protocols LIST]
//!     Hill-climbing adversary search.  Every genuine violation is shrunk
//!     to a minimal reproducer and matched (by family signature) against
//!     the reproducers already committed under DIR (default
//!     scenarios/repros).  New families exit 1 — unless --pin, which
//!     writes the shrunk reproducer + pinned verdict there instead.
//!     --protocols takes a comma-separated list of schema protocol names
//!     to attack (default exact,restricted-sync,approx — the pinned CI
//!     trajectory).  Listing a directed kind (directed-exact,
//!     directed-exact-lb) additionally unlocks the digraph-aware mutation
//!     operators: topology sampling/rewiring and broadcast-model flips.
//!
//! chaos-run --churn [--seed S] [--waves W] [--per-wave P] [--jobs J]
//!           [--label L] [--metrics PATH] [--dashboard PATH]
//!     Seeded chaos campaign (alternating campaign/service waves).
//!     Emits bvc-chaos-metrics/v1 JSON (stdout, or PATH) and appends one
//!     longitudinal row to the Markdown dashboard at PATH.  Exits 1 if
//!     the session surfaced a genuine violation.
//!
//! chaos-run --replay DIR
//!     Replays every committed reproducer in DIR and byte-compares each
//!     verdict against its pinned .expected file.  Exits 1 on any drift.
//! ```
//!
//! All modes accept `--trace PATH`: the whole session runs under a trace
//! scope and its deterministic `bvc-trace/v1` event stream is written to
//! PATH (verdicts and metrics stay byte-identical with and without it).
//!
//! Exactly one mode is given, and only its flags.  A malformed command line
//! exits 2 with the usage before anything runs: see [`bvc_trace::cli`].  A
//! replay directory without reproducers is an error too, exit 2.

use bvc_chaos::{
    churn, dashboard_header, evaluate, known_signatures, replay_dir, search, shrink, write_repro,
    ChurnConfig, SearchConfig,
};
use bvc_scenario::Protocol;
use bvc_trace::cli::{Args, Cli, Flags};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: chaos-run --search [--seed S] [--restarts R] [--iters I] [--repros DIR] [--pin]\n\
     \x20                [--protocols LIST]\n\
     \x20      chaos-run --churn [--seed S] [--waves W] [--per-wave P] [--jobs J] [--label L]\n\
     \x20                [--metrics PATH] [--dashboard PATH]\n\
     \x20      chaos-run --replay DIR\n\
     \x20      (any mode) --trace PATH";

/// The three modes; exactly one is given.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Search,
    Churn,
    Replay,
}

impl Mode {
    fn of(flag: &str) -> Option<Self> {
        match flag {
            "--search" => Some(Mode::Search),
            "--churn" => Some(Mode::Churn),
            "--replay" => Some(Mode::Replay),
            _ => None,
        }
    }

    /// The flags the mode takes (its own, `--trace` and its options), each
    /// with whether it takes a value.
    fn flags(self) -> &'static Flags {
        match self {
            Mode::Search => &[
                ("--search", false),
                ("--trace", true),
                ("--seed", true),
                ("--restarts", true),
                ("--iters", true),
                ("--repros", true),
                ("--pin", false),
                ("--protocols", true),
            ],
            Mode::Churn => &[
                ("--churn", false),
                ("--trace", true),
                ("--seed", true),
                ("--waves", true),
                ("--per-wave", true),
                ("--jobs", true),
                ("--label", true),
                ("--metrics", true),
                ("--dashboard", true),
            ],
            Mode::Replay => &[("--replay", true), ("--trace", true)],
        }
    }
}

/// A session whose flags are read, to run under the trace.
type Session<'a> = Box<dyn FnOnce() -> Result<ExitCode, String> + 'a>;

fn main() -> ExitCode {
    let cli = Cli::new("chaos-run", USAGE);
    let mut modes = cli.raw().iter().filter_map(|arg| Mode::of(arg));
    let (Some(mode), None) = (modes.next(), modes.next()) else {
        cli.fail("give exactly one of --search, --churn, --replay")
    };
    let args = cli.read(mode.flags());
    let session = match mode {
        Mode::Search => search_session(&cli, &args),
        Mode::Churn => churn_session(&args),
        Mode::Replay => {
            let dir = args.required("--replay");
            Box::new(move || run_replay(dir))
        }
    };
    match bvc_trace::run_traced(args.value("--trace").map(Path::new), session) {
        Ok(Ok(code)) => code,
        Ok(Err(message)) => {
            eprintln!("chaos-run: {message}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("chaos-run: cannot write trace: {e}");
            ExitCode::from(2)
        }
    }
}

fn search_session<'a>(cli: &Cli, args: &'a Args) -> Session<'a> {
    let mut config = SearchConfig::new(
        args.parsed("--seed").unwrap_or(0),
        args.parsed("--restarts").unwrap_or(24),
        args.parsed("--iters").unwrap_or(40),
    );
    if let Some(raw) = args.value("--protocols") {
        config.space.protocols = raw
            .split(',')
            .map(|name| {
                let name = name.trim();
                Protocol::from_name(name).unwrap_or_else(|| {
                    cli.fail(format!("unknown protocol `{name}` in --protocols"))
                })
            })
            .collect();
    }
    Box::new(move || run_search(&config, args))
}

fn run_search(config: &SearchConfig, args: &Args) -> Result<ExitCode, String> {
    let seed = config.master_seed;
    let repros = PathBuf::from(args.value("--repros").unwrap_or("scenarios/repros"));
    let pin = args.has("--pin");
    let report = search(config);
    println!(
        "chaos-run: search seed {seed}: {} evaluation(s), best score {:.3}, {} finding(s)",
        report.evaluations,
        report.best_score,
        report.findings.len()
    );

    let known = known_signatures(&repros).map_err(|e| e.to_string())?;
    let mut unpinned = 0usize;
    for finding in &report.findings {
        let shrunk = shrink(&finding.spec, finding.flags);
        let signature = &shrunk.spec.name;
        println!(
            "chaos-run: violation {} (flags a={} v={} t={}) shrunk to {} in {} step(s) \
             [{} evaluation(s)]",
            finding.spec.name,
            finding.flags.0,
            finding.flags.1,
            finding.flags.2,
            signature,
            shrunk.steps.len(),
            shrunk.evaluations,
        );
        if known.contains(signature) || known.contains(&finding.spec.name) {
            println!(
                "chaos-run:   family already pinned under {}",
                repros.display()
            );
            continue;
        }
        if pin {
            let eval = evaluate(&shrunk.spec);
            let outcome = eval
                .outcome
                .ok_or_else(|| "shrunk spec no longer runs".to_string())?;
            let path = write_repro(&repros, &shrunk.spec, &outcome.to_json(), seed)
                .map_err(|e| e.to_string())?;
            println!("chaos-run:   pinned new reproducer {}", path.display());
        } else {
            println!("chaos-run:   UNPINNED new violation family — rerun with --pin to commit it");
            unpinned += 1;
        }
    }
    if unpinned > 0 {
        eprintln!("chaos-run: {unpinned} unpinned violation family(ies)");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn churn_session<'a>(args: &'a Args) -> Session<'a> {
    let mut config = ChurnConfig::new(
        args.parsed("--seed").unwrap_or(0),
        args.parsed("--waves").unwrap_or(8),
        args.parsed("--per-wave").unwrap_or(32),
    );
    config.jobs = args.parsed("--jobs").unwrap_or(0);
    config.label = args.value("--label").unwrap_or("local").to_string();
    Box::new(move || run_churn(&config, args))
}

fn run_churn(config: &ChurnConfig, args: &Args) -> Result<ExitCode, String> {
    let report = churn(config);
    let json = report.to_json();
    match args.value("--metrics") {
        None => println!("{json}"),
        Some(path) => {
            fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
            println!("chaos-run: metrics written to {path}");
        }
    }
    if let Some(path) = args.value("--dashboard") {
        append_dashboard_row(Path::new(path), &report.dashboard_row())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("chaos-run: dashboard row appended to {path}");
    }
    let genuine = report.genuine_signatures();
    println!(
        "chaos-run: churn seed {} over {} wave(s): {} genuine violation family(ies)",
        config.master_seed,
        report.waves.len(),
        genuine.len()
    );
    if genuine.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for signature in genuine {
            eprintln!("chaos-run: genuine violation family {signature}");
        }
        Ok(ExitCode::from(1))
    }
}

/// Appends a dashboard row, creating the file (with its preamble and table
/// header) on first use.
fn append_dashboard_row(path: &Path, row: &str) -> std::io::Result<()> {
    if !path.exists() {
        let preamble = format!(
            "# Chaos dashboard\n\n\
             Longitudinal results of `chaos-run --churn` sessions, one row per run\n\
             (append-only; newest last).  Regenerate a row's session exactly with\n\
             `chaos-run --churn --seed <seed> --label <label>` — every session is\n\
             deterministic from its master seed.\n\n{}\n",
            dashboard_header()
        );
        fs::write(path, preamble)?;
    }
    let mut file = fs::OpenOptions::new().append(true).open(path)?;
    writeln!(file, "{row}")
}

fn run_replay(dir: &str) -> Result<ExitCode, String> {
    let results = replay_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    if results.is_empty() {
        return Err(format!("no reproducers under {dir}"));
    }
    let mut failed = 0usize;
    for result in &results {
        if result.matched {
            println!("chaos-run: replay {} OK", result.path.display());
        } else {
            eprintln!(
                "chaos-run: replay {} FAILED: {}",
                result.path.display(),
                result.detail
            );
            failed += 1;
        }
    }
    println!(
        "chaos-run: {}/{} reproducer(s) byte-identical",
        results.len() - failed,
        results.len()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
