//! The untraced run: set-up, one-client latency passes, throughput rounds,
//! and the output checks.
//!
//! How much is measured is fixed by `--seconds` and not by the clock: a
//! workload's passes and rounds are counted for a ten-second run and scaled
//! from there, so that a given seed and `--seconds` decide the same
//! instances the same number of times on any machine.  Every time is scaled
//! to the reference processor (see `calibrate`).  A latency pass repeats the
//! same instances and an instance's latency is its fastest pass (within an
//! instance the disturbance that scaling leaves only adds time); rounds are
//! disjoint stretches of the stream and throughput is the median round (over
//! a round scaling errs both ways, and a stretch with one of the rare very
//! slow instances in it is not the typical one).  Passes, rounds and set-ups
//! alternate over the whole run, so that no metric depends on one stretch of
//! it.

use crate::calibrate::{monitored, Sampler};
use crate::driver::{Driver, Round};
use crate::metrics::{in_table_order, RunResult, END_TO_END};
use crate::procfs::peak_rss_mb;
use crate::stats::{median, percentile, quartiles, tail_percentile};
use std::time::Instant;

/// Set-up runs this many times, spread over the run; the median is reported.
const SETUP_REPEATS: usize = 5;
const LEAST_PASSES: usize = 2;
const LEAST_ROUNDS: usize = 3;

/// Checks a round's verdict stream: one line per instance and, where there
/// is a reference (the pinned corpus, or the same round at one worker), byte
/// for byte that.
pub fn check_stream(
    what: &str,
    round: &Round,
    size: usize,
    reference: Option<&[String]>,
) -> Result<(), String> {
    if round.lines.len() != size {
        return Err(format!(
            "{what}: {} verdict lines for {size} instances",
            round.lines.len()
        ));
    }
    let Some(reference) = reference else {
        return Ok(());
    };
    match round.lines.iter().zip(reference).position(|(a, b)| a != b) {
        Some(at) => Err(format!(
            "{what}: verdict line {at} differs from the reference stream"
        )),
        None if reference.len() != size => {
            Err(format!("{what}: reference has {} lines", reference.len()))
        }
        None => Ok(()),
    }
}

/// Whether a verdict line reports agreement, validity and termination.
pub fn line_holds(line: &str) -> bool {
    [
        "\"agreement\": true",
        "\"validity\": true",
        "\"termination\": true",
    ]
    .iter()
    .all(|condition| line.contains(condition))
}

/// What the passes and rounds of a run add up to; times are scaled unless
/// they say otherwise.
struct Phases {
    /// Fastest time of each latency instance over the passes, in ms.
    best_millis: Vec<f64>,
    /// The same before scaling: printed, never reported.
    unscaled_best_millis: Vec<f64>,
    /// Whether each latency instance's verdict holds.
    held: Vec<bool>,
    passes: usize,
    /// Every round at one worker per processor, in run order.
    rounds: Vec<Round>,
    setup_seconds: Vec<f64>,
    unscaled_setup_seconds: Vec<f64>,
    /// Instances run, repeats included.
    attempted: usize,
    failed: usize,
}

/// One set-up, timed: `(scaled, unscaled)` seconds.
fn timed_setup(driver: &mut dyn Driver) -> Result<(f64, f64), String> {
    let (seconds, factor) = monitored(|| {
        let started = Instant::now();
        driver.setup().map(|()| started.elapsed().as_secs_f64())
    });
    let seconds = seconds?;
    Ok((seconds * factor, seconds))
}

/// A repeat pass leaves out an instance whose fastest time so far is more
/// than this many times the tail percentile: it cannot come down to the
/// tail, so timing it again changes neither reported latency — and the few
/// such instances (a campaign's largest scenarios, an exact instance whose
/// Γ(S) stalls) cost more than all the others together.
const SKIP_ABOVE_TAILS: f64 = 2.0;

/// One latency pass: every instance alone, each scaled by the reference
/// samples taken just before and after it on this thread.  Returns the
/// instances it ran.
fn latency_pass(driver: &mut dyn Driver, phases: &mut Phases) -> Result<usize, String> {
    let tail = percentile(
        &phases.best_millis,
        tail_percentile(phases.best_millis.len()),
    );
    driver.begin_pass();
    let mut sampler = Sampler::new();
    let mut timed = Vec::with_capacity(phases.best_millis.len());
    sampler.sample();
    for i in 0..phases.best_millis.len() {
        if phases.best_millis[i] > SKIP_ABOVE_TAILS * tail {
            continue;
        }
        sampler.sample_if_due();
        let start = sampler.now();
        let sample = driver.sample(i)?;
        timed.push((i, start, sampler.now(), sample.millis));
        phases.held[i] = sample.held;
    }
    sampler.sample();
    for &(i, start, end, millis) in &timed {
        phases.best_millis[i] = phases.best_millis[i].min(millis * sampler.factor(start, end));
        phases.unscaled_best_millis[i] = phases.unscaled_best_millis[i].min(millis);
    }
    Ok(timed.len())
}

/// Round `index` on `workers` threads, its wall and processor time scaled.
pub fn scaled_round(
    driver: &mut dyn Driver,
    index: usize,
    workers: usize,
) -> Result<Round, String> {
    let (round, factor) = monitored(|| driver.round(index, workers));
    let mut round = round?;
    round.wall_s *= factor;
    round.cpu_s *= factor;
    round.scale = factor;
    Ok(round)
}

/// Alternates latency passes and throughput rounds, the workload's count of
/// each scaled from a ten-second run to `seconds`.
fn run_phases(driver: &mut dyn Driver, seconds: f64) -> Result<Phases, String> {
    let nproc = crate::nproc();
    let scale =
        |count: usize, least: usize| ((count as f64 * seconds / 10.0).round() as usize).max(least);
    let (passes, rounds) = driver.passes_and_rounds();
    let (passes, rounds) = (scale(passes, LEAST_PASSES), scale(rounds, LEAST_ROUNDS));
    // Set-up first: the campaign knows its instances only once it has read
    // them.
    let (scaled, unscaled) = timed_setup(driver)?;
    let samples = driver.latency_samples();
    let mut phases = Phases {
        // Infinite until first timed, which also keeps the first pass whole.
        best_millis: vec![f64::INFINITY; samples],
        unscaled_best_millis: vec![f64::INFINITY; samples],
        held: vec![false; samples],
        passes: 0,
        rounds: Vec::new(),
        setup_seconds: vec![scaled],
        unscaled_setup_seconds: vec![unscaled],
        attempted: 0,
        failed: 0,
    };
    while phases.passes < passes || phases.rounds.len() < rounds {
        // Whichever phase is further from done goes next.
        if phases.passes * rounds <= phases.rounds.len() * passes {
            phases.attempted += latency_pass(driver, &mut phases)?;
            phases.passes += 1;
        } else {
            let round = scaled_round(driver, phases.rounds.len(), nproc)?;
            phases.attempted += round.lines.len();
            phases.failed += round.failed;
            phases.rounds.push(round);
        }
        if phases.setup_seconds.len() < SETUP_REPEATS {
            let (scaled, unscaled) = timed_setup(driver)?;
            phases.setup_seconds.push(scaled);
            phases.unscaled_setup_seconds.push(unscaled);
        }
    }
    Ok(phases)
}

/// The untraced run of one workload.  `fresh_process_rss_mb` is the peak
/// resident set of a process that did nothing but serve round 0 (see
/// `suite::fresh_process_rss_mb` for why it is not this process's own).
pub fn run(
    driver: &mut dyn Driver,
    seconds: f64,
    fresh_process_rss_mb: f64,
) -> Result<RunResult, String> {
    let nproc = crate::nproc();
    let mut phases = run_phases(driver, seconds)?;
    let size = driver.round_size();

    // Every round's stream must be complete.  Where the stream is pinned,
    // every round must equal it (and the latency passes already compared
    // every instance decided alone); otherwise round 0 must equal the same
    // round at one worker, and a verdict must not depend on whether the
    // service or a lone session reached it.
    let pinned = driver.pinned().map(<[String]>::to_vec);
    let alone = match pinned {
        Some(_) => None,
        None => {
            let alone = driver.round(0, 1)?;
            phases.attempted += size;
            phases.failed += alone.failed;
            Some(alone.lines)
        }
    };
    for (r, round) in phases.rounds.iter().enumerate() {
        let reference = pinned.as_deref().or(alone.as_deref().filter(|_| r == 0));
        check_stream(
            &format!("round {r} at {nproc} workers"),
            round,
            size,
            reference,
        )?;
    }
    // Every distinct instance the run decided counts once: a stream's by the
    // verdict lines of its rounds, which follow one another in the stream,
    // then the latency instances beyond them by their reports.
    let mut held: Vec<bool> = match &pinned {
        Some(pinned) => pinned.iter().map(|line| line_holds(line)).collect(),
        None => phases
            .rounds
            .iter()
            .flat_map(|round| &round.lines)
            .map(|line| line_holds(line))
            .collect(),
    };
    if let Some(k) = held
        .iter()
        .zip(&phases.held)
        .position(|(service, session)| service != session)
    {
        return Err(format!(
            "instance {k}: the service's verdict and a lone session's differ"
        ));
    }
    held.extend(phases.held.iter().skip(held.len()));
    if pinned.is_none() {
        for (index, _) in held.iter().enumerate().filter(|(_, held)| !**held) {
            println!("verdict does not hold: --index {index}");
        }
    }

    let tail = tail_percentile(phases.best_millis.len());
    let p50 = median(&phases.best_millis);
    let p_tail = percentile(&phases.best_millis, tail);
    println!(
        "latency: N={} passes={} p50={p50:.3} ms p{tail}={p_tail:.3} ms max={:.3} ms (each instance's fastest pass, scaled)",
        phases.best_millis.len(),
        phases.passes,
        percentile(&phases.best_millis, 100)
    );
    let rates: Vec<f64> = phases
        .rounds
        .iter()
        .map(|r| size as f64 / r.wall_s)
        .collect();
    let cpu_ms: Vec<f64> = phases
        .rounds
        .iter()
        .map(|r| r.cpu_s * 1e3 / size as f64)
        .collect();
    let (q1, q3) = quartiles(&rates);
    println!(
        "throughput: {} rounds of {size} at {nproc} workers, median {:.3}/s, quartiles {q1:.3}..{q3:.3} (scaled)",
        rates.len(),
        median(&rates)
    );
    // What the clock said before scaling, for whoever wants to judge it.
    let unscaled = |values: &[f64], scaled_up: bool| -> f64 {
        let values: Vec<f64> = values
            .iter()
            .zip(&phases.rounds)
            .map(|(value, round)| {
                if scaled_up {
                    value * round.scale
                } else {
                    value / round.scale
                }
            })
            .collect();
        median(&values)
    };
    println!(
        "unscaled: decisions_per_s={:.3} p50={:.3} p{tail}={:.3} cpu_ms={:.3} setup_s={:.4}",
        unscaled(&rates, true),
        median(&phases.unscaled_best_millis),
        percentile(&phases.unscaled_best_millis, tail),
        unscaled(&cpu_ms, false),
        median(&phases.unscaled_setup_seconds),
    );
    println!(
        "peak resident set of this process, passes and rounds and all: {:.1} MB",
        peak_rss_mb()?
    );

    let values = [
        ("decisions_per_s", median(&rates)),
        ("decision_latency_p50_ms", p50),
        ("decision_latency_tail_ms", p_tail),
        ("cpu_ms_per_decision", median(&cpu_ms)),
        ("peak_rss_mb", fresh_process_rss_mb),
        (
            "decided_share",
            held.iter().filter(|h| **h).count() as f64 / held.len() as f64,
        ),
        ("setup_s", median(&phases.setup_seconds)),
    ];
    Ok(RunResult {
        correct: true,
        attempted: phases.attempted as u64,
        failed: phases.failed as u64,
        values: in_table_order(&END_TO_END, &values),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(lines: &[&str]) -> Round {
        Round {
            lines: lines.iter().map(|l| l.to_string()).collect(),
            wall_s: 1.0,
            cpu_s: 1.0,
            scale: 1.0,
            failed: 0,
            stats: None,
        }
    }

    #[test]
    fn stream_check_wants_every_line_and_every_byte() {
        let reference = ["a".to_string(), "b".to_string()];
        assert!(check_stream("r", &round(&["a", "b"]), 2, Some(&reference)).is_ok());
        assert!(check_stream("r", &round(&["a"]), 2, Some(&reference)).is_err());
        assert!(check_stream("r", &round(&["a", "c"]), 2, Some(&reference)).is_err());
        assert!(check_stream("r", &round(&["a", "b"]), 2, Some(&reference[..1])).is_err());
        assert!(check_stream("r", &round(&["a", "c"]), 2, None).is_ok());
        assert!(check_stream("r", &round(&["a"]), 2, None).is_err());
    }

    #[test]
    fn a_verdict_holds_only_with_all_three_conditions() {
        let line = |t: bool| {
            format!("{{\"verdict\": {{\"agreement\": true, \"validity\": true, \"termination\": {t}}}}}")
        };
        assert!(line_holds(&line(true)));
        assert!(!line_holds(&line(false)));
        assert!(!line_holds("{\"panic\": \"boom\"}"));
    }
}
