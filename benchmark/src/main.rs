//! `bvc-benchmark` — the benchmark of record.  README.md has the tables.
//!
//! ```text
//! bvc-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! bvc-benchmark suite [--seed <u64>] [--seconds <n>] [--runs <k>] --out <file>
//! bvc-benchmark compare <first> <second>
//! bvc-benchmark instance --workload <name> [--seed <u64>] --index <k>
//! bvc-benchmark rss --workload <name> [--seed <u64>]
//! ```
//!
//! The first form is what the driver runs, from the repository root: it
//! prints the metrics by name and, as its last line, the result as one JSON
//! object.  Any output check that fails ends the run with exit code 1 and no
//! result line.

mod calibrate;
mod compare;
mod driver;
mod e2e;
mod layers;
mod metrics;
mod procfs;
mod spans;
mod stats;
mod suite;
mod workloads;

use driver::{CampaignDriver, Driver, StreamDriver};
use metrics::{RunResult, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{Kind, Workload};

/// Worker threads of every throughput phase: one per processor.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The options every form shares; a form reads the ones it needs.
#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    runs: Option<u64>,
    index: Option<u64>,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut number = |name: &str| -> Result<Option<u64>, String> {
            let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            value
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: `{value}` is not a whole number"))
        };
        match arg.as_str() {
            "--seed" => options.seed = number("--seed")?,
            "--seconds" => options.seconds = number("--seconds")?,
            "--trace" => options.trace = number("--trace")?,
            "--runs" => options.runs = number("--runs")?,
            "--index" => options.index = number("--index")?,
            "--workload" => {
                options.workload = Some(args.next().ok_or("--workload needs a value")?.clone())
            }
            "--out" => options.out = Some(args.next().ok_or("--out needs a value")?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

fn find_workload(options: &Options) -> Result<&'static Workload, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })
}

fn make_driver(workload: &'static Workload, seed: u64, root: &Path) -> Box<dyn Driver> {
    match &workload.kind {
        Kind::Stream(stream) => Box::new(StreamDriver::new(stream, seed)),
        Kind::Campaign => Box::new(CampaignDriver::new(root)),
    }
}

/// First line of a tool's output, or `unknown` (the driver's checkout is not
/// a git repository, and need not have `rustc` on the path at run time).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_workload(options: &Options) -> Result<(), String> {
    let workload = find_workload(options)?;
    let seed = options.seed.unwrap_or(1);
    let seconds = options.seconds.unwrap_or(suite::DEFAULT_SECONDS);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let traced = match options.trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    // The repository root is the working directory, as the driver runs it.
    let root = Path::new(".");
    println!(
        "workload={} seed={seed} seconds={seconds} trace={} nproc={} gamma_workers={} reference_work_us={:.1} rustc=\"{}\" commit={}",
        workload.name,
        u8::from(traced),
        nproc(),
        bvc_geometry::gamma_workers(),
        calibrate::reference_work() * 1e6,
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    let mut driver = make_driver(workload, seed, root);
    let (result, table): (RunResult, &[(&str, &str)]) = if traced {
        (
            layers::run(workload, driver.as_mut(), seed, seconds as f64, root)?,
            &PER_LAYER,
        )
    } else {
        let rss_mb = suite::fresh_process_rss_mb(workload.name, seed)?;
        (
            e2e::run(driver.as_mut(), seconds as f64, rss_mb)?,
            &END_TO_END,
        )
    };
    for (name, value) in &result.values {
        let unit = table
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, unit)| unit);
        println!("{name} = {value} {unit}");
    }
    println!("{}", result.to_json(table));
    Ok(())
}

/// Decides one instance of a stream workload and prints its verdict line:
/// the one-line reproduction KNOWN_FAILURES.md refers to.
fn run_instance(options: &Options) -> Result<(), String> {
    let workload = find_workload(options)?;
    let index = options.index.ok_or("--index is required")?;
    let seed = options.seed.unwrap_or(1);
    let mut driver = make_driver(workload, seed, Path::new("."));
    driver.setup()?;
    println!("{}", driver.verdict_line(index)?);
    Ok(())
}

/// Sets the workload up, serves round 0 at one worker per processor, and
/// prints this process's peak resident set: what an untraced run reports as
/// `peak_rss_mb`, from a child process of its own.
fn run_rss(options: &Options) -> Result<(), String> {
    let workload = find_workload(options)?;
    let mut driver = make_driver(workload, options.seed.unwrap_or(1), Path::new("."));
    driver.setup()?;
    driver.round(0, nproc())?;
    println!("{}", procfs::peak_rss_mb()?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (form, rest) = match args.first().map(String::as_str) {
        Some(form @ ("suite" | "compare" | "instance" | "rss")) => (form, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = parse_options(rest).and_then(|options| match form {
        "suite" => suite::run(&options.out, options.seed, options.seconds, options.runs),
        "compare" => compare::run(&options.positional),
        "instance" => run_instance(&options),
        "rss" => run_rss(&options),
        _ => run_workload(&options),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bvc-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
