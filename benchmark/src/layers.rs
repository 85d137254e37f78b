//! The traced run: per-layer counts from a counting `Tracer`, unit costs from
//! timing each layer's public functions on inputs of the workload's shape,
//! and the shares that follow from the two.  Everything is measured from
//! outside the program; spans inside it are a later change.

use crate::calibrate::{monitored, Sampler};
use crate::driver::{run_instance, CampaignDriver, Driver, Round};
use crate::e2e::{check_stream, scaled_round};
use crate::metrics::{in_table_order, RunResult, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{async_fault_plan, Kind, Stream, Workload};
use bvc_broadcast::BroadcastInstance;
use bvc_core::{build_zi_full_cached, BvcSession, FaultPlan, ProtocolKind};
use bvc_geometry::{
    gamma_contains, gamma_point, GammaCache, Point, PointMultiset, WorkloadGenerator,
};
use bvc_lp::{LinearProgram, Objective, Relation, SimplexWorkspace};
use bvc_net::{
    broadcast_to_all, AsyncNetwork, AsyncProcess, Delivery, DeliveryPolicy, Outgoing, ProcessId,
    SyncNetwork, SyncProcess,
};
use bvc_scenario::json::Json;
use bvc_scenario::{expand_all, ScenarioSpec};
use bvc_service::{JsonlSink, VerdictSink};
use bvc_trace::{CacheLevel, GammaPath, TraceEvent, TraceHandle, Tracer};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Share of `--seconds` each unit-cost probe times its function for.
const PROBE_SHARE: f64 = 0.025;
/// Distinct inputs a probe cycles through.
const PROBE_INPUTS: u64 = 64;

// ---------------------------------------------------------------------------
// Counts

/// What the counting tracer tallies over one traced round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub solves: u64,
    pub pivots: u64,
    pub reused: u64,
    pub gamma_local: u64,
    pub gamma_parent: u64,
    pub gamma_miss: u64,
    /// Engine computations on the slow paths (active-set LP, naive fallback,
    /// hull-stream scan) — the definition `perf-snapshot` uses.
    pub gamma_slow: u64,
    pub sends: u64,
    pub delivers: u64,
    pub drops: u64,
    pub vanishes: u64,
    pub round_opens: u64,
    /// Deliveries made while a window of the fault plan was active.
    pub fault_window_delivers: u64,
    pub spans_opened: u64,
    pub spans_closed: u64,
}

/// A `Tracer` that counts events and keeps none.
pub struct CountingTracer {
    counts: Arc<Mutex<Counts>>,
    /// `[start, end)` of every fault window, in the executor's time.
    windows: Vec<(usize, usize)>,
}

impl CountingTracer {
    pub fn new(faults: &FaultPlan) -> (Self, Arc<Mutex<Counts>>) {
        let counts = Arc::new(Mutex::new(Counts::default()));
        let tracer = Self {
            counts: Arc::clone(&counts),
            windows: faults.events().iter().map(|e| (e.start, e.end())).collect(),
        };
        (tracer, counts)
    }
}

impl Tracer for CountingTracer {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        let mut counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        counts.events += 1;
        match event {
            TraceEvent::Simplex { pivots, reused, .. } => {
                counts.solves += 1;
                counts.pivots += pivots;
                counts.reused += u64::from(*reused);
            }
            TraceEvent::Gamma { cache, path, .. } => {
                match cache {
                    CacheLevel::Local => counts.gamma_local += 1,
                    CacheLevel::Parent => counts.gamma_parent += 1,
                    CacheLevel::Miss => counts.gamma_miss += 1,
                }
                if matches!(
                    path,
                    Some(GammaPath::ActiveSetLp | GammaPath::NaiveFallback | GammaPath::StreamScan)
                ) {
                    counts.gamma_slow += 1;
                }
            }
            TraceEvent::Send { .. } => counts.sends += 1,
            TraceEvent::Deliver { time, .. } => {
                counts.delivers += 1;
                if self
                    .windows
                    .iter()
                    .any(|&(start, end)| (start..end).contains(time))
                {
                    counts.fault_window_delivers += 1;
                }
            }
            TraceEvent::Drop { .. } => counts.drops += 1,
            TraceEvent::Vanish { .. } => counts.vanishes += 1,
            TraceEvent::RoundOpen { .. } => counts.round_opens += 1,
            TraceEvent::SpanOpen { .. } => counts.spans_opened += 1,
            TraceEvent::SpanClose { .. } => counts.spans_closed += 1,
            _ => {}
        }
    }
}

/// `part / whole`; 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Mean of the verdict lines' `"rounds"` field: synchronous rounds, or
/// delivery steps for an asynchronous instance.
fn mean_rounds_field(lines: &[String]) -> f64 {
    let total: u64 = lines
        .iter()
        .filter_map(|line| Json::parse(line).ok()?.get("rounds")?.as_u64())
        .sum();
    ratio(total as f64, lines.len() as f64)
}

// ---------------------------------------------------------------------------
// Unit costs

/// Mean scaled seconds per call of `f`, called in growing batches for about
/// `slice` seconds (the clock is read once a batch, so that a call of a few
/// hundred nanoseconds is not timed by a clock of a few dozen).
fn unit_cost(slice: f64, mut f: impl FnMut(u64)) -> f64 {
    let mut sampler = Sampler::new();
    sampler.sample();
    sampler.sample();
    let started = sampler.now();
    let (mut calls, mut batch) = (0u64, 1u64);
    let elapsed = loop {
        let batch_started = Instant::now();
        for i in calls..calls + batch {
            f(i);
        }
        calls += batch;
        let elapsed = sampler.now() - started;
        if elapsed >= slice {
            break elapsed;
        }
        if batch_started.elapsed().as_secs_f64() < 1e-3 {
            batch *= 2;
        }
    };
    sampler.sample();
    sampler.sample();
    elapsed * sampler.factor(started, started + elapsed) / calls as f64
}

fn box_multiset(seed: u64, count: usize, d: usize) -> PointMultiset {
    WorkloadGenerator::new(0xBE_4C40 ^ seed).box_points(count, d, 0.0, 1.0)
}

/// The membership program of a point in the hull of `generators`, as the Γ
/// engine poses it: `Σ α = 1`, `Σ α_i g_i = point`, `α ≥ 0`.
fn membership_lp(generators: &PointMultiset, point: &Point) -> LinearProgram {
    let k = generators.len();
    let mut lp = LinearProgram::new(k, Objective::Minimize);
    lp.add_constraint(vec![1.0; k], Relation::Equal, 1.0);
    for l in 0..generators.dim() {
        let row = generators.iter().map(|g| g.coord(l)).collect();
        lp.add_constraint(row, Relation::Equal, point.coord(l));
    }
    lp
}

/// The executor's cost per message with no protocol on top.  Under the
/// synchronous executor an echo sends its value to everyone for `rounds`
/// rounds and then decides; under the asynchronous one it answers every
/// message and never decides, so a run lasts exactly its step cap.
struct Echo {
    n: usize,
    value: Point,
    rounds: usize,
    seen: usize,
}

impl SyncProcess for Echo {
    type Msg = Point;
    type Output = usize;

    fn round(&mut self, round: usize, inbox: &[Delivery<Point>]) -> Vec<Outgoing<Point>> {
        self.seen += inbox.len();
        if round <= self.rounds {
            broadcast_to_all(self.n, None, &self.value)
        } else {
            Vec::new()
        }
    }

    fn output(&self) -> Option<usize> {
        (self.seen >= self.rounds * self.n).then_some(self.seen)
    }
}

impl AsyncProcess for Echo {
    type Msg = Point;
    type Output = usize;

    fn on_start(&mut self) -> Vec<Outgoing<Point>> {
        broadcast_to_all(self.n, None, &self.value)
    }

    fn on_message(&mut self, from: ProcessId, msg: Point) -> Vec<Outgoing<Point>> {
        vec![Outgoing::new(from, msg)]
    }

    fn output(&self) -> Option<usize> {
        None
    }
}

fn echoes(n: usize, d: usize, rounds: usize) -> Vec<Echo> {
    (0..n)
        .map(|i| Echo {
            n,
            value: Point::uniform(d, i as f64 / n as f64),
            rounds,
            seen: 0,
        })
        .collect()
}

/// One Byzantine broadcast of `source`'s value among `n` honest processes,
/// messages moved by hand; returns the state machines stepped (`n`).
fn eig_broadcast(n: usize, f: usize, value: &Point) -> usize {
    let default = Point::uniform(value.dim(), 0.0);
    let mut instances: Vec<BroadcastInstance<Point>> = (0..n)
        .map(|me| BroadcastInstance::new(n, f, me, 0, default.clone()))
        .collect();
    instances[0].set_input(value.clone());
    for round in 1..=instances[0].rounds() {
        let messages: Vec<_> = instances
            .iter_mut()
            .map(|i| i.message_for_round(round))
            .collect();
        for (from, message) in messages.iter().enumerate() {
            let Some(message) = message else { continue };
            for (to, instance) in instances.iter_mut().enumerate() {
                if to != from {
                    instance.receive(round, from, message);
                }
            }
        }
        for instance in &mut instances {
            instance.end_round(round);
        }
    }
    assert!(
        instances.iter().all(|i| i.decision() == Some(value)),
        "honest broadcast must deliver"
    );
    n
}

/// Unit costs of the layers' public functions at a stream's shape.
fn stream_probes(
    stream: &Stream,
    seed: u64,
    slice: f64,
    log: &mut SpanLog,
) -> Vec<(&'static str, f64)> {
    let (n, f, d) = (stream.n, stream.f, stream.d);
    let multisets: Vec<PointMultiset> = (0..PROBE_INPUTS)
        .map(|i| box_multiset(seed ^ i, stream.gamma_len, d))
        .collect();
    let pick = |i: u64| &multisets[(i % PROBE_INPUTS) as usize];
    let mut found = Vec::new();

    // bvc-lp: one hull-membership program of a Γ subset, |Y| − f generators.
    let programs: Vec<LinearProgram> = multisets
        .iter()
        .map(|y| {
            let generators = PointMultiset::new(y.points()[..stream.gamma_len - f].to_vec());
            membership_lp(&generators, y.point(stream.gamma_len - 1))
        })
        .collect();
    let mut workspace = SimplexWorkspace::new();
    let feasibility = log.span("probe.lp.solve_feasibility_with", "lp", |_| {
        unit_cost(slice, |i| {
            black_box(programs[(i % PROBE_INPUTS) as usize].solve_feasibility_with(&mut workspace));
        })
    });
    let solve = log.span("probe.lp.solve_with", "lp", |_| {
        unit_cost(slice, |i| {
            black_box(programs[(i % PROBE_INPUTS) as usize].solve_with(&mut workspace));
        })
    });
    found.push(("lp.feasibility_us", feasibility * 1e6));
    found.push(("lp.solve_us", solve * 1e6));

    // bvc-geometry: the engine without a cache, then the cache around it.
    let point = log.span("probe.geometry.gamma_point", "geometry", |_| {
        unit_cost(slice, |i| {
            black_box(gamma_point(pick(i), f));
        })
    });
    let centre = Point::uniform(d, 0.5);
    let contains = log.span("probe.geometry.gamma_contains", "geometry", |_| {
        unit_cost(slice, |i| {
            black_box(gamma_contains(pick(i), f, &centre));
        })
    });
    let cache = GammaCache::new();
    for y in &multisets {
        cache.find_point(y, f);
    }
    let hit = log.span("probe.geometry.cache_hit", "geometry", |_| {
        unit_cost(slice, |i| {
            black_box(cache.find_point(pick(i), f));
        })
    });
    let parent = Stream::parent_cache();
    let child = GammaCache::with_parent(Arc::clone(&parent));
    let miss = log.span("probe.geometry.cache_miss_insert", "geometry", |_| {
        unit_cost(slice, |i| {
            black_box(child.find_point(
                &box_multiset(seed ^ (PROBE_INPUTS + i), stream.gamma_len, d),
                f,
            ));
        })
    });
    found.push(("geometry.gamma_point_us", point * 1e6));
    found.push(("geometry.gamma_contains_us", contains * 1e6));
    found.push(("geometry.cache_hit_ns", hit * 1e9));
    found.push(("geometry.cache_miss_insert_us", miss * 1e6));

    // bvc-broadcast: the exact protocol's Step 1 only.
    let eig = if stream.protocol == ProtocolKind::Exact {
        let value = Point::uniform(d, 0.25);
        let per_broadcast = log.span("probe.broadcast.eig", "broadcast", |_| {
            unit_cost(slice, |_| {
                black_box(eig_broadcast(n, f, &value));
            })
        });
        per_broadcast / n as f64
    } else {
        0.0
    };
    found.push(("broadcast.eig_instance_us", eig * 1e6));

    // bvc-net: the executor under an echo process, no protocol and no Γ.
    let rounds = 50;
    let (sync_msg, async_step) = if stream.protocol.is_async() {
        let faults = if stream.faulted {
            async_fault_plan()
        } else {
            FaultPlan::new()
        };
        let steps = rounds * n * n;
        let per_run = log.span("probe.net.async", "net", |_| {
            unit_cost(slice, |i| {
                let processes = echoes(n, d, rounds)
                    .into_iter()
                    .map(|p| Box::new(p) as Box<dyn AsyncProcess<Msg = Point, Output = usize>>)
                    .collect();
                let outcome = AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, i, steps)
                    .with_faults(faults.clone())
                    .run(&(0..n).collect::<Vec<_>>());
                assert_eq!(outcome.stats.steps, steps, "echoes never run dry");
            })
        });
        (0.0, per_run / steps as f64)
    } else {
        let mut delivered = 0usize;
        let per_run = log.span("probe.net.sync", "net", |_| {
            unit_cost(slice, |_| {
                let processes = echoes(n, d, rounds)
                    .into_iter()
                    .map(|p| Box::new(p) as Box<dyn SyncProcess<Msg = Point, Output = usize>>)
                    .collect();
                let outcome =
                    SyncNetwork::new(processes, rounds + 2).run(&(0..n).collect::<Vec<_>>());
                delivered = outcome.stats.messages_delivered;
            })
        });
        (per_run / delivered.max(1) as f64, 0.0)
    };
    found.push(("net.sync_ns_per_msg", sync_msg * 1e9));
    found.push(("net.async_ns_per_step", async_step * 1e9));

    // bvc-core: one process's Z_i of one restricted round, and admission.
    let (warm, cold) = if stream.protocol == ProtocolKind::RestrictedSync {
        let entries: Vec<Vec<Point>> = (0..PROBE_INPUTS)
            .map(|i| box_multiset(seed ^ (i << 8), n, d).into_points())
            .collect();
        let warm_cache = GammaCache::new();
        for e in &entries {
            build_zi_full_cached(e, n - f, f, Some(&warm_cache));
        }
        let warm = log.span("probe.core.build_zi_warm", "core", |_| {
            unit_cost(slice, |i| {
                black_box(build_zi_full_cached(
                    &entries[(i % PROBE_INPUTS) as usize],
                    n - f,
                    f,
                    Some(&warm_cache),
                ));
            })
        });
        let cold = log.span("probe.core.build_zi_cold", "core", |_| {
            unit_cost(slice, |i| {
                black_box(build_zi_full_cached(
                    &entries[(i % PROBE_INPUTS) as usize],
                    n - f,
                    f,
                    Some(&GammaCache::new()),
                ));
            })
        });
        (warm, cold)
    } else {
        (0.0, 0.0)
    };
    found.push(("core.build_zi_warm_us", warm * 1e6));
    found.push(("core.build_zi_cold_us", cold * 1e6));
    let config = stream.service_config(seed, 0..stream.round as u64, 1);
    let admission = log.span("probe.core.admission", "core", |_| {
        unit_cost(slice, |_| {
            black_box(config.validate()).expect("the round was admitted in set-up");
        })
    });
    found.push(("core.admission_us", admission * 1e6 / stream.round as f64));
    found
}

/// Unit costs of the scenario and topology layers on the campaign's files.
fn campaign_probes(
    texts: &[String],
    slice: f64,
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, String> {
    let specs: Vec<ScenarioSpec> = texts
        .iter()
        .map(|text| ScenarioSpec::from_toml(text).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let instances = expand_all(&specs);
    let parse = log.span("probe.scenario.from_toml", "scenario", |_| {
        unit_cost(slice, |i| {
            black_box(ScenarioSpec::from_toml(&texts[i as usize % texts.len()]))
                .expect("parsed above");
        })
    });
    let expand = log.span("probe.scenario.expand_all", "scenario", |_| {
        unit_cost(slice, |_| {
            black_box(expand_all(&specs));
        })
    });
    let outcome = run_instance(&instances[0])?;
    let to_json = log.span("probe.scenario.to_json", "scenario", |_| {
        unit_cost(slice, |_| {
            black_box(outcome.to_json());
        })
    });
    let topologies: Vec<_> = instances
        .iter()
        .filter_map(|i| {
            let topology = i.topology.as_ref()?.build(i.spec.n, i.seed).ok()?;
            Some((topology, i.spec.f, i.spec.d))
        })
        .collect();
    let sufficiency = if topologies.is_empty() {
        0.0
    } else {
        log.span("probe.topology.iterative_sufficiency", "topology", |_| {
            unit_cost(slice, |i| {
                let (topology, f, d) = &topologies[i as usize % topologies.len()];
                black_box(topology.iterative_sufficiency(*f, *d));
            })
        })
    };
    Ok(vec![
        ("scenario.parse_us_per_file", parse * 1e6),
        ("scenario.expand_us", expand * 1e6),
        ("scenario.verdict_json_us", to_json * 1e6),
        ("topology.sufficiency_us", sufficiency * 1e6),
    ])
}

// ---------------------------------------------------------------------------
// The run

/// Decides every latency instance alone, twice over: the second time with
/// the instance's own cache already full, so that what the second run saves
/// is the Γ engine's work on the first run's misses.  Returns the first
/// runs' times, the median of second over first, and the entries the shared
/// cache ends with.
fn replay_sessions(
    stream: &Stream,
    seed: u64,
    log: &mut SpanLog,
) -> Result<(Vec<f64>, f64, usize), String> {
    let parent = Stream::parent_cache();
    let mut sampler = Sampler::new();
    let mut timed = Vec::new();
    for k in 0..stream.latency_samples as u64 {
        let config = stream.session_config(seed, k, &parent);
        let mut timed_run = |name: &'static str| -> Result<(f64, f64), String> {
            sampler.sample_if_due();
            let start = sampler.now();
            log.span(name, "core", |_| {
                BvcSession::new(stream.protocol, config.clone()).map(BvcSession::run)
            })
            .map_err(|e| format!("instance {k} refused: {e}"))?;
            Ok((start, sampler.now()))
        };
        timed.push((
            timed_run("session.new+run")?,
            timed_run("session.new+run (cache full)")?,
        ));
    }
    sampler.sample();
    let scaled_ms = |(start, end): (f64, f64)| (end - start) * 1e3 * sampler.factor(start, end);
    let first_ms: Vec<f64> = timed.iter().map(|&(first, _)| scaled_ms(first)).collect();
    let ratios: Vec<f64> = timed
        .iter()
        .map(|&(first, again)| scaled_ms(again) / scaled_ms(first))
        .collect();
    Ok((first_ms, median(&ratios), parent.len()))
}

fn traced_round(
    driver: &mut dyn Driver,
    faults: &FaultPlan,
    log: &mut SpanLog,
) -> Result<(Round, Counts), String> {
    let (tracer, counts) = CountingTracer::new(faults);
    let handle = TraceHandle::new(Box::new(tracer), false);
    let round = {
        let _scope = bvc_trace::install(handle, 0);
        log.span("round at 1 worker, traced", "service", |_| {
            let (round, factor) = monitored(|| driver.traced_round());
            round.map(|mut round| {
                round.wall_s *= factor;
                round
            })
        })?
    };
    let counts = counts
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    Ok((round, counts))
}

pub fn run(
    workload: &'static Workload,
    driver: &mut dyn Driver,
    seed: u64,
    seconds: f64,
    root: &Path,
) -> Result<RunResult, String> {
    let nproc = crate::nproc();
    let slice = seconds * PROBE_SHARE;
    let mut log = SpanLog::new(workload.name);
    log.span("setup", "benchmark", |_| driver.setup())?;
    let size = driver.round_size();

    // One-client latencies, for the shares' denominator.
    let (first_ms, again_over_first, cache_entries) = match &workload.kind {
        Kind::Stream(stream) => replay_sessions(stream, seed, &mut log)?,
        Kind::Campaign => {
            let mut sampler = Sampler::new();
            let mut timed = Vec::new();
            for i in 0..driver.latency_samples() {
                sampler.sample_if_due();
                let start = sampler.now();
                let sample = log.span("run_scenario_instance", "scenario", |_| driver.sample(i))?;
                timed.push((start, sampler.now(), sample.millis));
            }
            sampler.sample();
            let millis = timed
                .iter()
                .map(|&(start, end, millis)| millis * sampler.factor(start, end))
                .collect();
            (millis, 1.0, 0)
        }
    };
    // A stream's instances each ran twice.
    let sessions = first_ms.len()
        * if matches!(workload.kind, Kind::Stream(_)) {
            2
        } else {
            1
        };
    let p50_ms = median(&first_ms);

    // Round 0 three times: at one worker per processor (the
    // service's own statistics), at one worker, and at one worker under the
    // counting tracer.  One worker makes the counts repeat exactly: with a
    // shared cache and two workers, which of them computes an entry and
    // which one hits it depends on the schedule.
    // The first round a process serves at several workers pays for growing
    // the allocator's arenas (1.8x on `rsync-n9-d2`), which set-up's short
    // warm-up stream does not finish; a round of its own does.
    log.span("round at nproc workers, warming", "service", |_| {
        driver.round(0, nproc)
    })?;
    let parallel = log.span("round at nproc workers", "service", |_| {
        scaled_round(driver, 0, nproc)
    })?;
    let alone = log.span("round at 1 worker", "service", |_| {
        scaled_round(driver, 0, 1)
    })?;
    let faults = match &workload.kind {
        Kind::Stream(stream) if stream.faulted => async_fault_plan(),
        _ => FaultPlan::new(),
    };
    let (traced, counts) = traced_round(driver, &faults, &mut log)?;
    let reference = driver
        .pinned()
        .map_or(alone.lines.clone(), <[String]>::to_vec);
    for (what, round) in [
        ("at nproc workers", &parallel),
        ("at 1 worker", &alone),
        ("traced", &traced),
    ] {
        check_stream(&format!("round {what}"), round, size, Some(&reference))?;
    }
    println!("traced round: {counts:?}");

    let per_decision = |count: u64| count as f64 / size as f64;
    let queries = counts.gamma_local + counts.gamma_parent + counts.gamma_miss;
    let mut found: Vec<(&'static str, f64)> = vec![
        ("lp.solves_per_decision", per_decision(counts.solves)),
        (
            "lp.pivots_per_solve",
            ratio(counts.pivots as f64, counts.solves as f64),
        ),
        (
            "lp.buffer_reuse_pct",
            pct(counts.reused as f64, counts.solves as f64),
        ),
        ("geometry.queries_per_decision", per_decision(queries)),
        (
            "geometry.local_hit_pct",
            pct(counts.gamma_local as f64, queries as f64),
        ),
        (
            "geometry.shared_hit_pct",
            pct(
                counts.gamma_parent as f64,
                (counts.gamma_parent + counts.gamma_miss) as f64,
            ),
        ),
        (
            "geometry.engine_misses_per_decision",
            per_decision(counts.gamma_miss),
        ),
        (
            "geometry.fast_path_pct",
            pct((queries - counts.gamma_slow) as f64, queries as f64),
        ),
        ("geometry.share_pct", 100.0 * (1.0 - again_over_first)),
        ("geometry.cache_entries_at_end", cache_entries as f64),
        ("net.msgs_sent_per_decision", per_decision(counts.sends)),
        (
            "net.msgs_delivered_per_decision",
            per_decision(counts.delivers),
        ),
        (
            "net.msgs_dropped_per_decision",
            per_decision(counts.drops + counts.vanishes),
        ),
        (
            "net.fault_window_steps",
            per_decision(counts.fault_window_delivers),
        ),
        ("core.rounds_per_decision", per_decision(counts.round_opens)),
        ("trace.events_per_decision", per_decision(counts.events)),
        (
            "trace.overhead_pct",
            100.0 * (traced.wall_s / alone.wall_s - 1.0),
        ),
        // Unscaled on both sides: while every processor is busy the
        // reference work itself slows by what busy processors cost each
        // other, and scaling would take exactly that out of the ratio.
        (
            "service.parallel_efficiency",
            (alone.wall_s / alone.scale) / (parallel.wall_s / parallel.scale) / nproc as f64,
        ),
    ];

    // The service's own account of the round at one worker per processor.
    let (utilization, queue_wait_ms, queue_depth) =
        parallel.stats.as_ref().map_or((0.0, 0.0, 0.0), |stats| {
            let utilization = stats.workers.iter().map(|w| w.utilization).sum::<f64>()
                / stats.workers.len() as f64;
            (
                utilization,
                stats.latency.p50_ms - p50_ms,
                stats.queue.max_depth as f64,
            )
        });
    found.push(("service.worker_utilization", utilization));
    found.push(("service.queue_wait_p50_ms", queue_wait_ms));
    found.push(("service.max_queue_depth", queue_depth));
    let mut sink = JsonlSink::new(Vec::new());
    let emit = log.span("probe.service.sink_emit", "service", |_| {
        unit_cost(slice, |i| {
            sink.emit(&reference[i as usize % size])
                .expect("a Vec sink cannot fail");
        })
    });
    found.push(("service.sink_emit_us", emit * 1e6));

    // Unit costs at the workload's shape; a layer the workload does not run
    // reports 0.
    let unit = |found: &[(&'static str, f64)], name: &str| {
        found
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    match &workload.kind {
        Kind::Stream(stream) => {
            found.extend(stream_probes(stream, seed, slice, &mut log));
            found.extend(
                [
                    "scenario.parse_us_per_file",
                    "scenario.expand_us",
                    "scenario.verdict_json_us",
                    "topology.sufficiency_us",
                ]
                .map(|name| (name, 0.0)),
            );
        }
        Kind::Campaign => {
            let texts = CampaignDriver::read_texts(root)?;
            found.extend(campaign_probes(&texts, slice, &mut log)?);
            found.extend(
                [
                    "lp.feasibility_us",
                    "lp.solve_us",
                    "geometry.gamma_point_us",
                    "geometry.gamma_contains_us",
                    "geometry.cache_hit_ns",
                    "geometry.cache_miss_insert_us",
                    "broadcast.eig_instance_us",
                    "net.sync_ns_per_msg",
                    "net.async_ns_per_step",
                    "core.build_zi_warm_us",
                    "core.build_zi_cold_us",
                    "core.admission_us",
                ]
                .map(|name| (name, 0.0)),
            );
        }
    }

    // Shares of the median one-client latency: a count times a unit cost,
    // except the Γ engine's, which is the time a full cache saves.
    let share = |count_per_decision: f64, unit_seconds: f64| {
        pct(count_per_decision * unit_seconds * 1e3, p50_ms)
    };
    let is_exact = matches!(&workload.kind, Kind::Stream(s) if s.protocol == ProtocolKind::Exact);
    let eig_machines = match &workload.kind {
        Kind::Stream(s) if is_exact => (s.n * s.n) as f64,
        _ => 0.0,
    };
    let steps = mean_rounds_field(&reference);
    let lp_share = share(
        per_decision(counts.solves),
        unit(&found, "lp.feasibility_us") * 1e-6,
    );
    let cache_share = share(
        per_decision(counts.gamma_local + counts.gamma_parent),
        unit(&found, "geometry.cache_hit_ns") * 1e-9,
    );
    let broadcast_share = share(
        eig_machines,
        unit(&found, "broadcast.eig_instance_us") * 1e-6,
    );
    let net_share = share(
        per_decision(counts.delivers),
        unit(&found, "net.sync_ns_per_msg") * 1e-9,
    ) + share(steps, unit(&found, "net.async_ns_per_step") * 1e-9);
    let geometry_share = unit(&found, "geometry.share_pct");
    found.push(("lp.share_pct", lp_share));
    found.push(("geometry.cache_share_pct", cache_share));
    found.push(("broadcast.share_pct", broadcast_share));
    found.push((
        "broadcast.msgs_per_decision",
        if is_exact {
            per_decision(counts.sends)
        } else {
            0.0
        },
    ));
    found.push(("net.steps_per_decision", steps));
    found.push(("net.share_pct", net_share));
    found.push((
        "core.self_pct",
        100.0 - geometry_share - cache_share - broadcast_share - net_share,
    ));

    let out = root.join("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.jsonl", workload.name));
    std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans written to {}", log.spans().len(), path.display());

    Ok(RunResult {
        correct: true,
        attempted: (sessions + 4 * size) as u64,
        failed: (parallel.failed + alone.failed + traced.failed) as u64,
        values: in_table_order(&PER_LAYER, &found),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counting_tracer_tallies_by_kind_and_window() {
        let (mut tracer, counts) = CountingTracer::new(&async_fault_plan());
        let events = [
            TraceEvent::Simplex {
                rows: 3,
                cols: 8,
                pivots: 5,
                class: 1,
                reused: true,
                status: "optimal".to_string(),
            },
            TraceEvent::Send {
                time: 1,
                from: 0,
                to: 1,
            },
            TraceEvent::Deliver {
                time: 1999,
                from: 0,
                to: 1,
            },
            TraceEvent::Deliver {
                time: 2000,
                from: 0,
                to: 1,
            },
            TraceEvent::Drop {
                time: 3,
                from: 0,
                to: 1,
            },
            TraceEvent::RoundOpen { round: 1 },
            TraceEvent::RoundClose {
                round: 1,
                spread: None,
            },
        ];
        for event in &events {
            tracer.record(0, 0, event);
        }
        let counts = counts.lock().unwrap().clone();
        assert_eq!(counts.events, 7);
        assert_eq!((counts.solves, counts.pivots, counts.reused), (1, 5, 1));
        assert_eq!((counts.sends, counts.delivers, counts.drops), (1, 2, 1));
        assert_eq!(counts.fault_window_delivers, 1, "the window is [0, 2000)");
        assert_eq!(counts.round_opens, 1);
    }

    #[test]
    fn unit_cost_grows_with_the_work() {
        let spin = |turns: u64| {
            unit_cost(0.02, |i| {
                let mut x = i;
                for _ in 0..turns {
                    x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                black_box(x);
            })
        };
        assert!(spin(20_000) > 5.0 * spin(200));
    }

    #[test]
    fn the_echo_probes_run_to_completion() {
        let (n, d, rounds) = (4, 2, 5);
        let sync: Vec<_> = echoes(n, d, rounds)
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn SyncProcess<Msg = Point, Output = usize>>)
            .collect();
        let outcome = SyncNetwork::new(sync, rounds + 2).run(&[0, 1, 2, 3]);
        assert_eq!(outcome.stats.messages_delivered, rounds * n * n);
        let asynchronous: Vec<_> = echoes(n, d, rounds)
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn AsyncProcess<Msg = Point, Output = usize>>)
            .collect();
        let outcome = AsyncNetwork::new(asynchronous, DeliveryPolicy::RandomFair, 1, 3000)
            .with_faults(async_fault_plan())
            .run(&[0, 1, 2, 3]);
        assert_eq!(outcome.stats.steps, 3000);
        assert_eq!(eig_broadcast(7, 2, &Point::uniform(3, 0.25)), 7);
    }
}
