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
//! The command line is read strictly: two modes, a flag of another mode, a
//! flag given twice, a missing value (or a flag where a value belongs) and
//! a replay directory without reproducers are each an error, exit 2.

use bvc_chaos::{
    churn, dashboard_header, evaluate, known_signatures, replay_dir, search, shrink, write_repro,
    ChurnConfig, SearchConfig,
};
use bvc_scenario::Protocol;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos-run --search [--seed S] [--restarts R] [--iters I] [--repros DIR] [--pin]\n\
         \x20                [--protocols LIST]\n\
         \x20      chaos-run --churn [--seed S] [--waves W] [--per-wave P] [--jobs J] [--label L]\n\
         \x20                [--metrics PATH] [--dashboard PATH]\n\
         \x20      chaos-run --replay DIR\n\
         \x20      (any mode) --trace PATH"
    );
    ExitCode::from(2)
}

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
    fn flags(self) -> &'static [(&'static str, bool)] {
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

/// The command line, read strictly: one mode, only that mode's flags, each
/// at most once, every value present and not itself a flag.
struct Args {
    mode: Mode,
    /// The flags given, each with its value.
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut modes = raw.iter().filter_map(|arg| Mode::of(arg));
        let (Some(mode), None) = (modes.next(), modes.next()) else {
            return Err("give exactly one of --search, --churn, --replay".to_string());
        };
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            let Some(&(flag, takes_value)) = mode.flags().iter().find(|(f, _)| f == arg) else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = match takes_value {
                false => None,
                true => match rest.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => return Err(format!("{flag} needs a value")),
                },
            };
            given.push((flag, value));
        }
        Ok(Self { mode, given })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| value.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for {name}: {raw}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| *flag == name)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("chaos-run: {message}");
            return usage();
        }
    };
    let trace = args.value("--trace").map(PathBuf::from);
    let run = bvc_trace::run_traced(trace.as_deref(), || match args.mode {
        Mode::Search => run_search(&args),
        Mode::Churn => run_churn(&args),
        Mode::Replay => run_replay(&args),
    });
    match run {
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

fn run_search(args: &Args) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed", 0u64)?;
    let restarts = args.parsed("--restarts", 24usize)?;
    let iters = args.parsed("--iters", 40usize)?;
    let repros = PathBuf::from(args.value("--repros").unwrap_or("scenarios/repros"));
    let pin = args.has("--pin");

    let mut config = SearchConfig::new(seed, restarts, iters);
    if let Some(raw) = args.value("--protocols") {
        config.space.protocols = raw
            .split(',')
            .map(|name| {
                let name = name.trim();
                Protocol::from_name(name)
                    .ok_or_else(|| format!("unknown protocol `{name}` in --protocols"))
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    let report = search(&config);
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

fn run_churn(args: &Args) -> Result<ExitCode, String> {
    let mut config = ChurnConfig::new(
        args.parsed("--seed", 0u64)?,
        args.parsed("--waves", 8usize)?,
        args.parsed("--per-wave", 32usize)?,
    );
    config.jobs = args.parsed("--jobs", 0usize)?;
    config.label = args.value("--label").unwrap_or("local").to_string();

    let report = churn(&config);
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

fn run_replay(args: &Args) -> Result<ExitCode, String> {
    let dir = args.value("--replay").expect("--replay takes a value");
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
