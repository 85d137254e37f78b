//! The workspace's one worker pool for independent instances: an atomic
//! cursor over `0..total`, and one emit lock under which lines leave in
//! index order.
//!
//! Every caller — [`BvcService::run`](crate::BvcService::run) and the two
//! campaign entry points of `bvc-scenario` — holds its complete instance
//! list before the first job starts, so there is no arrival process to
//! batch and nothing to apply backpressure to: a worker that is free takes
//! the next index.

use crate::sink::{ReorderBuffer, VerdictSink};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// What [`run_ordered`] hands back once every index has run.
#[derive(Debug)]
pub struct Ordered<T> {
    /// Every job's value, in index order.
    pub results: Vec<T>,
    /// Instances claimed but not yet released to the sink (running, or
    /// finished and held by the reorder buffer behind a slower
    /// predecessor), sampled twice per hand-off: as the instance arrives
    /// at the emit lock, and once it has released what it could.
    pub depth: Vec<usize>,
    /// Threads the pool ran.
    pub workers: usize,
}

/// Everything a hand-off touches, under the one emit lock.
struct Emit<'a, T> {
    reorder: ReorderBuffer,
    sink: &'a mut dyn VerdictSink,
    error: Option<io::Error>,
    results: Vec<Option<T>>,
    depth: Vec<usize>,
}

/// Runs `job(worker, index)` for every `index` in `0..total` on
/// `min(workers, total)` scoped threads (`workers == 0` selects the
/// available parallelism, or 1 if unknown) and streams each returned line
/// into `sink` as soon as it is next in index order.  A `None` line
/// consumes its slot without emitting.  `sink.finish()` is called once,
/// after the last line.
///
/// # Errors
///
/// The first sink error stops emission — the remaining jobs still run,
/// their lines are dropped, `finish` is not called — and is returned.
///
/// # Panics
///
/// A panic in `job` or in the sink propagates once every worker has
/// stopped; callers that must survive a failing instance catch it inside
/// `job`.
pub fn run_ordered<T, F>(
    total: usize,
    workers: usize,
    sink: &mut dyn VerdictSink,
    job: F,
) -> io::Result<Ordered<T>>
where
    T: Send,
    F: Fn(usize, usize) -> (Option<String>, T) + Sync,
{
    let workers = match workers {
        0 => thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    }
    .min(total);
    // Relaxed throughout: the cursor hands out indices and publishes no
    // other data; results travel through the emit lock.
    let cursor = AtomicUsize::new(0);
    let emit = Mutex::new(Emit {
        reorder: ReorderBuffer::new(),
        sink,
        error: None,
        results: (0..total).map(|_| None).collect(),
        depth: Vec::with_capacity(2 * total),
    });
    thread::scope(|scope| {
        for worker in 0..workers {
            let (cursor, emit, job) = (&cursor, &emit, &job);
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let (line, value) = job(worker, index);
                let mut guard = emit.lock().expect("a worker panicked while emitting");
                let state = &mut *guard;
                let claimed = cursor.load(Ordering::Relaxed).min(total);
                state.depth.push(claimed - state.reorder.next_seq());
                state.results[index] = Some(value);
                if state.error.is_none() {
                    state.error = state.reorder.push(index, line, &mut *state.sink).err();
                }
                state.depth.push(claimed - state.reorder.next_seq());
            });
        }
    });
    let state = emit.into_inner().expect("a worker panicked while emitting");
    if let Some(error) = state.error {
        return Err(error);
    }
    debug_assert!(state.reorder.is_drained(), "every index was pushed");
    state.sink.finish()?;
    Ok(Ordered {
        results: state
            .results
            .into_iter()
            .map(|slot| slot.expect("every index ran"))
            .collect(),
        depth: state.depth,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Counts `emit` and `finish` calls and fails the `fail_at`-th `emit`
    /// (1-based).
    #[derive(Default)]
    struct FlakySink {
        emitted: usize,
        fail_at: usize,
        finished: usize,
    }

    impl VerdictSink for FlakySink {
        fn emit(&mut self, _line: &str) -> io::Result<()> {
            self.emitted += 1;
            if self.emitted == self.fail_at {
                return Err(io::Error::other("sink closed"));
            }
            Ok(())
        }

        fn finish(&mut self) -> io::Result<()> {
            self.finished += 1;
            Ok(())
        }
    }

    #[test]
    fn lines_leave_in_index_order_under_an_adversarial_completion_order() {
        let total = 8;
        let mut sink = MemorySink::new();
        // Job i sleeps inversely to i, so with one worker per job the last
        // index finishes first and the reorder buffer must hold it.
        let done = run_ordered(total, total, &mut sink, |_, i| {
            thread::sleep(Duration::from_millis(3 * (total - i) as u64));
            (Some(format!("line-{i}")), i * i)
        })
        .unwrap();
        let expected: Vec<String> = (0..total).map(|i| format!("line-{i}")).collect();
        assert_eq!(sink.lines(), expected);
        assert_eq!(done.results, (0..total).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(done.workers, total);
    }

    #[test]
    fn the_reorder_buffer_holds_a_line_whose_predecessor_is_still_running() {
        // Forced, not slept: job 0 returns only once job 2 has started, and
        // with two workers job 2 starts only after line 1 was handed off.
        let barrier = Barrier::new(2);
        let mut sink = MemorySink::new();
        let done = run_ordered(3, 2, &mut sink, |worker, i| {
            if i != 1 {
                barrier.wait();
            }
            (Some(i.to_string()), worker)
        })
        .unwrap();
        assert_eq!(sink.lines(), ["0", "1", "2"]);
        assert_ne!(done.results[0], done.results[1]);
        assert_eq!(done.results[1], done.results[2]);
        // Line 1 arrives and stays (0 is running); whichever of 0 and 2
        // lands next finds all three claimed and none released.
        assert_eq!(done.depth[..3], [2, 2, 3], "{:?}", done.depth);
        assert_eq!(done.depth.last(), Some(&0));
    }

    #[test]
    fn none_lines_consume_their_slot() {
        let mut sink = MemorySink::new();
        let done = run_ordered(6, 3, &mut sink, |_, i| {
            ((i % 2 == 1).then(|| format!("odd-{i}")), i)
        })
        .unwrap();
        assert_eq!(sink.lines(), ["odd-1", "odd-3", "odd-5"]);
        assert_eq!(done.results, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_failing_sink_yields_err_while_every_job_still_runs() {
        let ran = AtomicUsize::new(0);
        let mut sink = FlakySink {
            fail_at: 3,
            ..FlakySink::default()
        };
        let result = run_ordered(10, 2, &mut sink, |_, i| {
            ran.fetch_add(1, Ordering::Relaxed);
            (Some(i.to_string()), ())
        });
        assert_eq!(result.unwrap_err().to_string(), "sink closed");
        assert_eq!(ran.into_inner(), 10, "the stream drains past the error");
        assert_eq!(sink.emitted, 3, "emission stops at the first error");
        assert_eq!(sink.finished, 0);
    }

    #[test]
    fn finish_is_called_once_after_the_last_line() {
        let mut sink = FlakySink::default();
        run_ordered(4, 2, &mut sink, |_, i| (Some(i.to_string()), ())).unwrap();
        assert_eq!(sink.emitted, 4);
        assert_eq!(sink.finished, 1);
    }

    #[test]
    fn worker_counts_zero_one_and_more_than_total() {
        let run = |total, workers| {
            let mut sink = MemorySink::new();
            let done = run_ordered(total, workers, &mut sink, |worker, i| {
                (Some(i.to_string()), worker)
            })
            .unwrap();
            assert_eq!(sink.lines().len(), total);
            assert!(done.results.iter().all(|&w| w < done.workers.max(1)));
            done.workers
        };
        let auto = run(5, 0);
        assert!((1..=5).contains(&auto), "0 selects the parallelism: {auto}");
        assert_eq!(run(5, 1), 1);
        assert_eq!(run(5, 64), 5, "never more threads than instances");
        assert_eq!(run(0, 4), 0, "an empty list spawns nothing");
    }

    #[test]
    fn depth_samples_never_exceed_total_and_end_at_zero() {
        let total = 40;
        let done = run_ordered(total, 4, &mut MemorySink::new(), |_, i| {
            if i % 7 == 0 {
                thread::sleep(Duration::from_millis(2));
            }
            (Some(i.to_string()), ())
        })
        .unwrap();
        assert_eq!(done.depth.len(), 2 * total, "two samples per hand-off");
        assert!(done.depth.iter().all(|&d| d <= total));
        assert!(done.depth.iter().step_by(2).all(|&d| d >= 1), "arrivals");
        assert_eq!(done.depth.last(), Some(&0));
    }
}
