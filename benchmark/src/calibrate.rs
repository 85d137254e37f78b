//! Times scaled to a processor of known speed.
//!
//! The sandbox this runs in is disturbed from outside: for a few tenths of a
//! second up to minutes at a time, a neighbour slows a processor by 1.2x to
//! 1.8x.  Ten runs of one commit then differ by 14 % to 30 %, which no bound
//! below that can tell from a regression.  So a fixed piece of work that
//! shares no code with the program under test is timed next to everything
//! the benchmark times — between the instances of a one-thread stretch, on a
//! monitor thread during a stretch that keeps every processor busy — and
//! each time is scaled by how long that work took then, relative to
//! [`REFERENCE_SECONDS`].  A time the benchmark reports is therefore "on a
//! processor that does the reference work in 68 µs", which is this box
//! undisturbed.  Scaling cancels about half of what the disturbance does to a
//! run (README.md has the measurements); it cancels nothing the program
//! does, since the reference work calls none of it.

use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What [`reference_work`] takes on the box the bounds were set on, when
/// nothing disturbs it (the first percentile to the tenth of 38,000 samples
/// read 68.0 to 68.7 µs, the median of that disturbed hour 94).
pub const REFERENCE_SECONDS: f64 = 68e-6;

/// Dense elimination on a small matrix: floating-point arithmetic in a fixed
/// amount, on the stack, with no allocation, so that neither the program's
/// heap nor what it left in the caches changes the figure — the work runs
/// once untimed to load its own data, and the second run is the sample.
/// Returns the seconds that one took.
///
/// Arithmetic only, and no memory traffic beside it: a random walk over a
/// 32 KB table, recorded next to 250 rounds and 100 latency passes of three
/// workloads, slowed by 1.04x when this elimination slowed by 1.38x and the
/// program by more, and times scaled by the elimination alone spread by a
/// quarter less than those scaled by the two together.
pub fn reference_work() -> f64 {
    const N: usize = 40;
    let mut matrix = [[0.0f64; N]; N];
    let mut work = || {
        for (i, row) in matrix.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = ((i * 31 + j * 17) % 23) as f64 + if i == j { 50.0 } else { 0.0 };
            }
        }
        for _ in 0..4 {
            for k in 0..N {
                let pivot_row = matrix[k];
                for (i, row) in matrix.iter_mut().enumerate() {
                    if i != k {
                        let factor = row[k] / pivot_row[k];
                        for (x, p) in row.iter_mut().zip(pivot_row) {
                            *x -= factor * p * 1e-3;
                        }
                    }
                }
            }
        }
        black_box(&matrix);
    };
    work();
    let started = Instant::now();
    work();
    started.elapsed().as_secs_f64()
}

/// Reference samples taken on the measuring thread itself, between the
/// things it times: the scale of a one-thread stretch.
pub struct Sampler {
    origin: Instant,
    /// `(when, seconds the reference work took)`, in time order.
    samples: Vec<(f64, f64)>,
}

/// A one-thread stretch takes a sample whenever this long has passed since
/// the last one, and its times are scaled by the nearest few.
const SAMPLE_EVERY_SECONDS: f64 = 4e-3;
const NEAREST: usize = 4;

impl Sampler {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since this sampler was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn sample(&mut self) {
        let seconds = reference_work();
        self.samples.push((self.now(), seconds));
    }

    pub fn sample_if_due(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|&(when, _)| self.now() - when >= SAMPLE_EVERY_SECONDS)
        {
            self.sample();
        }
    }

    /// The factor that scales a time measured over `[start, end]` to the
    /// reference processor: the reference over the median of the
    /// [`NEAREST`] samples around the interval, half before and half after
    /// where there are that many.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn factor(&self, start: f64, end: f64) -> f64 {
        let before = self.samples.partition_point(|&(when, _)| when <= start);
        let after = self.samples.partition_point(|&(when, _)| when < end);
        let mut low = before.saturating_sub(NEAREST / 2);
        let high = (after + NEAREST / 2).min(self.samples.len());
        low = low.min(high.saturating_sub(NEAREST));
        let high = (low + NEAREST).max(high).min(self.samples.len());
        REFERENCE_SECONDS
            / median(
                &self.samples[low..high]
                    .iter()
                    .map(|&(_, s)| s)
                    .collect::<Vec<_>>(),
            )
    }
}

/// How often the monitor thread of [`monitored`] takes a sample.
const MONITOR_EVERY: Duration = Duration::from_millis(5);

/// Runs `f`, which keeps every processor busy, while another thread takes a
/// reference sample every few milliseconds, and returns `f`'s value with the
/// factor that scales a time measured inside it to the reference processor.
/// The monitor costs the run about three percent of one processor, the same
/// on every commit.
pub fn monitored<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    let (value, samples) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut samples = vec![reference_work()];
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(MONITOR_EVERY);
                samples.push(reference_work());
            }
            samples
        });
        let value = f();
        done.store(true, Ordering::Relaxed);
        (
            value,
            monitor.join().expect("the reference work does not panic"),
        )
    });
    (value, REFERENCE_SECONDS / median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_takes_a_measurable_time() {
        let seconds = reference_work();
        assert!(seconds > 20e-6 && seconds < 0.5, "{seconds} s");
    }

    #[test]
    fn a_stretch_is_scaled_by_the_samples_around_it() {
        let mut sampler = Sampler::new();
        sampler.samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
            .iter()
            .map(|&t| (t, t * REFERENCE_SECONDS))
            .collect();
        let scale = |start, end| (1.0 / sampler.factor(start, end)).round();
        // Two before and two after: samples 3, 4 | 5, 6.
        assert_eq!(scale(4.5, 4.6), 5.0);
        // At either end, the nearest four there are.
        assert_eq!(scale(0.1, 0.2), 3.0);
        assert_eq!(scale(8.5, 9.0), 7.0);
        // A long stretch takes in the samples inside it as well: 3 .. 8.
        assert_eq!(scale(4.5, 6.5), 6.0);
    }

    #[test]
    fn sampling_waits_until_a_sample_is_due() {
        let mut sampler = Sampler::new();
        sampler.sample_if_due();
        sampler.sample_if_due();
        assert_eq!(
            sampler.samples.len(),
            1,
            "the second call came within four milliseconds"
        );
        std::thread::sleep(Duration::from_millis(5));
        sampler.sample_if_due();
        assert_eq!(sampler.samples.len(), 2);
    }

    #[test]
    fn a_monitored_stretch_returns_its_value_and_a_sane_factor() {
        let (value, factor) = monitored(|| {
            std::thread::sleep(Duration::from_millis(12));
            7
        });
        assert_eq!(value, 7);
        // An unoptimised test build is slower than the reference, never 1000x.
        assert!(factor > 1e-3 && factor < 1e3, "{factor}");
    }
}
