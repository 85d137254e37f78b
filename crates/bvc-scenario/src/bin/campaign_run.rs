//! `campaign-run` — expand scenarios into their campaign matrices and run
//! the whole lot across worker threads.
//!
//! ```text
//! cargo run -p bvc-scenario --bin campaign-run -- \
//!     [--dir scenarios] [file.toml ...] [--jobs 8] [--out verdicts.jsonl]
//! ```
//!
//! Scenario files can be named directly (positional `.toml` paths), pulled
//! from a directory with `--dir`, or both.
//!
//! stdout carries exactly one JSON line per instance, in deterministic
//! instance order (scenario files sorted by name, then the scenario's own
//! sweep order) regardless of thread interleaving; the human-readable
//! summary goes to stderr.  Verdicts **stream**: each line is written as
//! soon as it is next in instance order, so a long campaign produces output
//! while it runs instead of buffering every result.  Exit code 0 means
//! every instance ran and every verdict held; 1 means some verdict was
//! violated or some instance was rejected; 2 means the campaign could not
//! be loaded.  A malformed command line exits 2 with the usage before
//! anything runs: see [`bvc_trace::cli`].

use bvc_scenario::{expand_all, run_campaign_streaming, ScenarioSpec, VerdictSink};
use bvc_trace::cli::Cli;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

/// Streams each verdict line to stdout and (optionally) tees it into
/// `--out`, flushing both at the end of the campaign.
struct CampaignSink {
    stdout: io::Stdout,
    file: Option<BufWriter<File>>,
}

impl VerdictSink for CampaignSink {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        self.stdout.write_all(line.as_bytes())?;
        self.stdout.write_all(b"\n")?;
        if let Some(file) = &mut self.file {
            file.write_all(line.as_bytes())?;
            file.write_all(b"\n")?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.stdout.flush()?;
        if let Some(file) = &mut self.file {
            file.flush()?;
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let cli = Cli::new(
        "campaign-run",
        "usage: campaign-run [--dir <scenario-dir>] [<scenario.toml> ...] \
         [--jobs <n>] [--out <file>]",
    );
    let args = cli.read_files(
        &[("--dir", true), ("--jobs", true), ("--out", true)],
        ".toml",
    );
    let dir = args.value("--dir").map(PathBuf::from);
    let jobs = args.parsed("--jobs").unwrap_or(0);
    let out_path = args.value("--out").map(PathBuf::from);
    if dir.is_none() && args.positionals().is_empty() {
        cli.fail("give --dir or a .toml file");
    }

    // Load scenario files in sorted order for a stable instance matrix;
    // positional files come first, then the directory contents.  A file
    // reachable both ways (named positionally *and* living in --dir) is run
    // once: duplicates are filtered by canonical path.
    let mut paths: Vec<PathBuf> = args.positionals().iter().map(PathBuf::from).collect();
    paths.sort();
    if let Some(dir) = &dir {
        let mut from_dir: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
                .collect(),
            Err(e) => {
                eprintln!("campaign-run: cannot read `{}`: {e}", dir.display());
                return ExitCode::from(2);
            }
        };
        from_dir.sort();
        paths.extend(from_dir);
    }
    let mut seen = std::collections::BTreeSet::new();
    paths.retain(|path| {
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.clone());
        seen.insert(key)
    });
    if paths.is_empty() {
        eprintln!("campaign-run: no .toml scenarios to run");
        return ExitCode::from(2);
    }

    let mut specs = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("campaign-run: cannot read `{}`: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match ScenarioSpec::from_toml(&text) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("campaign-run: `{}`: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let instances = expand_all(&specs);
    eprintln!(
        "campaign-run: {} scenario file(s) → {} instance(s)",
        specs.len(),
        instances.len()
    );

    let file = match &out_path {
        None => None,
        Some(path) => match File::create(path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(e) => {
                eprintln!("campaign-run: cannot write `{}`: {e}", path.display());
                return ExitCode::from(2);
            }
        },
    };
    let mut sink = CampaignSink {
        stdout: io::stdout(),
        file,
    };
    let (summary, rejections) = match run_campaign_streaming(&instances, jobs, &mut sink) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("campaign-run: verdict stream failed: {e}");
            return ExitCode::from(2);
        }
    };
    for (index, error) in &rejections {
        let instance = &instances[*index];
        eprintln!(
            "campaign-run: `{}` seed {} rejected: {error}",
            instance.spec.name, instance.seed
        );
    }
    eprintln!(
        "campaign-run: {} passed, {} violated, {} expected-unsolvable, {} rejected ({} total)",
        summary.passed,
        summary.violated,
        summary.expected_unsolvable,
        summary.rejected,
        summary.total()
    );
    let _ = std::io::stderr().flush();
    if summary.violated == 0 && summary.rejected == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
