//! What the measurement phases ask of a workload: set up, decide one
//! instance alone, decide a round of instances on some number of workers.
//! Two implementations — a generated stream and the scenario campaign — call
//! the program through its public functions only.

use crate::procfs::cpu_seconds;
use crate::workloads::Stream;
use bvc_core::BvcSession;
use bvc_geometry::SharedGammaCache;
use bvc_scenario::{
    expand_all, run_campaign_streaming, run_scenario_instance, Instance, ScenarioOutcome,
    ScenarioSpec,
};
use bvc_service::{BvcService, MemorySink, ServiceStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One instance decided alone on the calling thread.
#[derive(Debug)]
pub struct Sample {
    pub millis: f64,
    /// The verdict holds agreement, validity and termination.
    pub held: bool,
}

/// One round of instances decided through the program's worker pool.
#[derive(Debug)]
pub struct Round {
    /// The verdict stream, in emission order.
    pub lines: Vec<String>,
    pub wall_s: f64,
    /// Processor time of the whole process over the round (all threads).
    pub cpu_s: f64,
    /// The factor `wall_s` and `cpu_s` were scaled by (1 as a driver returns
    /// a round).
    pub scale: f64,
    /// Instances that ended without a verdict of the protocol: contained
    /// panics and admission rejections.
    pub failed: usize,
    /// The service's own account of the round, where a service ran it.
    pub stats: Option<ServiceStats>,
}

pub trait Driver {
    /// Everything before the first timed call: generate inputs (or read the
    /// scenario files), pass admission, and run a short warm-up stream so
    /// that lazy initialisation is paid here.
    fn setup(&mut self) -> Result<(), String>;

    /// Called before each latency pass.
    fn begin_pass(&mut self) {}

    /// Decides instance `i` alone on the calling thread.
    fn sample(&mut self, i: usize) -> Result<Sample, String>;

    /// Instances of one latency pass: `0..latency_samples()`.
    fn latency_samples(&self) -> usize;

    /// Latency passes and throughput rounds of a ten-second run.
    fn passes_and_rounds(&self) -> (usize, usize);

    /// Decides round `index` — `round_size()` instances — on `workers`
    /// threads.  Rounds of a stream are disjoint stretches of it, so that a
    /// run's median round does not hang on one draw of instances; every
    /// round of the campaign is the whole campaign.
    fn round(&mut self, index: usize, workers: usize) -> Result<Round, String>;

    /// Instances per round.
    fn round_size(&self) -> usize;

    /// Round 0 at one worker, run so that a trace scope installed on the
    /// calling thread sees the program's events.
    fn traced_round(&mut self) -> Result<Round, String> {
        self.round(0, 1)
    }

    /// The stream a round must equal byte for byte, when it is pinned in
    /// the repository; otherwise rounds are compared with a one-worker run.
    fn pinned(&self) -> Option<&[String]> {
        None
    }

    /// The verdict line of instance `index`, decided alone.
    fn verdict_line(&mut self, index: u64) -> Result<String, String>;
}

/// Times `f` in wall and processor seconds.
fn timed<T>(f: impl FnOnce() -> T) -> Result<(T, f64, f64), String> {
    let cpu = cpu_seconds()?;
    let started = Instant::now();
    let value = f();
    let wall_s = started.elapsed().as_secs_f64();
    Ok((value, wall_s, cpu_seconds()? - cpu))
}

// ---------------------------------------------------------------------------

pub struct StreamDriver {
    stream: &'static Stream,
    seed: u64,
    /// The latency phase's stand-in for the service-lifetime cache.  A
    /// stream of unique instances renews it at the start of every pass, so
    /// that a repeated pass finds it as empty as the first did; the cycling
    /// stream keeps it, as a service that has seen the cycle once would.
    parent: SharedGammaCache,
}

impl StreamDriver {
    pub fn new(stream: &'static Stream, seed: u64) -> Self {
        Self {
            stream,
            seed,
            parent: Stream::parent_cache(),
        }
    }
}

impl Driver for StreamDriver {
    fn setup(&mut self) -> Result<(), String> {
        let stream = self.stream;
        let nproc = crate::nproc();
        BvcService::new(stream.service_config(self.seed, 0..stream.round as u64, nproc))
            .map_err(|e| format!("admission of a round: {e}"))?;
        BvcService::new(stream.service_config(self.seed, 0..stream.warmup as u64, nproc))
            .and_then(|service| service.run(&mut MemorySink::new()))
            .map_err(|e| format!("warm-up stream: {e}"))?;
        Ok(())
    }

    fn begin_pass(&mut self) {
        if self.stream.seed_cycle.is_none() {
            self.parent = Stream::parent_cache();
        }
    }

    fn sample(&mut self, i: usize) -> Result<Sample, String> {
        let k = i as u64;
        let config = self.stream.session_config(self.seed, k, &self.parent);
        let started = Instant::now();
        let report = BvcSession::new(self.stream.protocol, config)
            .map_err(|e| format!("instance {k} refused: {e}"))?
            .run();
        let millis = started.elapsed().as_secs_f64() * 1e3;
        Ok(Sample {
            millis,
            held: report.verdict().all_hold(),
        })
    }

    fn latency_samples(&self) -> usize {
        self.stream.latency_samples
    }

    fn passes_and_rounds(&self) -> (usize, usize) {
        (self.stream.passes, self.stream.rounds)
    }

    fn round(&mut self, index: usize, workers: usize) -> Result<Round, String> {
        let size = self.stream.round as u64;
        let first = index as u64 * size;
        let config = self
            .stream
            .service_config(self.seed, first..first + size, workers);
        let service = BvcService::new(config).map_err(|e| format!("admission of a round: {e}"))?;
        let mut sink = MemorySink::new();
        let (stats, wall_s, cpu_s) = timed(|| service.run(&mut sink))?;
        let stats = stats.map_err(|e| format!("round: {e}"))?;
        Ok(Round {
            lines: sink.into_lines(),
            wall_s,
            cpu_s,
            scale: 1.0,
            failed: stats.panicked,
            stats: Some(stats),
        })
    }

    fn round_size(&self) -> usize {
        self.stream.round
    }

    fn verdict_line(&mut self, index: u64) -> Result<String, String> {
        let config = self.stream.service_config(self.seed, index..index + 1, 1);
        let mut sink = MemorySink::new();
        BvcService::new(config)
            .and_then(|service| service.run(&mut sink))
            .map_err(|e| format!("instance {index}: {e}"))?;
        Ok(sink.into_lines().remove(0))
    }
}

// ---------------------------------------------------------------------------

/// The researcher's path: every scenario file of `scenarios/`, parsed,
/// expanded and run, with the verdicts compared to the pinned corpus.
pub struct CampaignDriver {
    root: PathBuf,
    texts: Vec<String>,
    instances: Vec<Instance>,
    corpus: Vec<String>,
}

const SCENARIO_DIR: &str = "scenarios";
const CORPUS: &str = "crates/bvc-scenario/tests/corpus/campaign_verdicts.jsonl";
/// Instances of the warm-up stream that set-up runs.
const CAMPAIGN_WARMUP: usize = 24;

impl CampaignDriver {
    pub fn new(root: &Path) -> Self {
        Self {
            root: root.to_path_buf(),
            texts: Vec::new(),
            instances: Vec::new(),
            corpus: Vec::new(),
        }
    }

    /// The scenario files' texts, in file-name order (the order
    /// `campaign-run --dir` uses, which the corpus was recorded in).
    pub fn read_texts(root: &Path) -> Result<Vec<String>, String> {
        let dir = root.join(SCENARIO_DIR);
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| {
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }

    pub fn parse_and_expand(texts: &[String]) -> Result<Vec<Instance>, String> {
        let specs = texts
            .iter()
            .map(|text| ScenarioSpec::from_toml(text).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(expand_all(&specs))
    }
}

/// Decides one expanded scenario instance on the calling thread.
pub fn run_instance(instance: &Instance) -> Result<ScenarioOutcome, String> {
    run_scenario_instance(
        &instance.spec,
        instance.seed,
        instance.strategy,
        instance.policy.clone(),
        instance.topology.as_ref(),
        instance.validity.as_ref(),
    )
    .map_err(|e| format!("refused: {e}"))
}

/// Runs `instances` on `jobs` threads into a line buffer.
fn stream_campaign(instances: &[Instance], jobs: usize) -> Result<(Vec<String>, usize), String> {
    let mut sink = MemorySink::new();
    let (_, rejections) =
        run_campaign_streaming(instances, jobs, &mut sink).map_err(|e| e.to_string())?;
    Ok((sink.into_lines(), rejections.len()))
}

impl Driver for CampaignDriver {
    fn setup(&mut self) -> Result<(), String> {
        self.texts = Self::read_texts(&self.root)?;
        let corpus = self.root.join(CORPUS);
        self.corpus = std::fs::read_to_string(&corpus)
            .map_err(|e| format!("{}: {e}", corpus.display()))?
            .lines()
            .map(str::to_string)
            .collect();
        self.instances = Self::parse_and_expand(&self.texts)?;
        if self.instances.len() != self.corpus.len() {
            return Err(format!(
                "{} scenario instances but {} pinned verdicts",
                self.instances.len(),
                self.corpus.len()
            ));
        }
        stream_campaign(&self.instances[..CAMPAIGN_WARMUP], crate::nproc())?;
        Ok(())
    }

    fn sample(&mut self, i: usize) -> Result<Sample, String> {
        let started = Instant::now();
        let outcome = run_instance(&self.instances[i]);
        let millis = started.elapsed().as_secs_f64() * 1e3;
        let outcome = outcome.map_err(|e| format!("scenario instance {i}: {e}"))?;
        if outcome.to_json() != self.corpus[i] {
            return Err(format!(
                "scenario instance {i} differs from its pinned verdict"
            ));
        }
        Ok(Sample {
            millis,
            held: outcome.verdict.all_hold(),
        })
    }

    fn latency_samples(&self) -> usize {
        self.corpus.len()
    }

    /// A first pass takes about four seconds (a repeat one under a second,
    /// once it leaves out the largest scenarios) and a round more than two,
    /// so the campaign runs the fewest rounds a median can be taken of.
    fn passes_and_rounds(&self) -> (usize, usize) {
        (3, 3)
    }

    fn round(&mut self, _index: usize, workers: usize) -> Result<Round, String> {
        let texts = &self.texts;
        let (outcome, wall_s, cpu_s) = timed(|| {
            let instances = Self::parse_and_expand(texts)?;
            stream_campaign(&instances, workers)
        })?;
        let (lines, failed) = outcome?;
        Ok(Round {
            lines,
            wall_s,
            cpu_s,
            scale: 1.0,
            failed,
            stats: None,
        })
    }

    fn round_size(&self) -> usize {
        self.corpus.len()
    }

    /// The campaign's pool does not hand the caller's trace scope to its
    /// threads (the service's does), so the traced round decides the
    /// instances one by one on this thread.
    fn traced_round(&mut self) -> Result<Round, String> {
        let instances = &self.instances;
        let (lines, wall_s, cpu_s) = timed(|| {
            instances
                .iter()
                .map(|instance| run_instance(instance).map(|outcome| outcome.to_json()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Round {
            lines: lines?,
            wall_s,
            cpu_s,
            scale: 1.0,
            failed: 0,
            stats: None,
        })
    }

    fn pinned(&self) -> Option<&[String]> {
        Some(&self.corpus)
    }

    fn verdict_line(&mut self, index: u64) -> Result<String, String> {
        self.corpus
            .get(index as usize)
            .cloned()
            .ok_or_else(|| format!("the campaign has {} instances", self.corpus.len()))
    }
}
