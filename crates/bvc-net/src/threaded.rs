//! Thread-backed runtime for asynchronous protocols.
//!
//! The event-queue simulator in [`crate::asim`] is the reference executor:
//! deterministic, seeded, adversarially scheduled.  This module provides a
//! second executor that runs every process on its own OS thread and carries
//! messages over `std::sync::mpsc` channels — i.e. real concurrency, real
//! non-determinism.  The examples use it to demonstrate that the protocol
//! implementations do not depend on any property of the simulator, and the
//! integration tests run both executors on identical inputs and compare
//! verdicts.
//!
//! Channels are reliable and per-sender FIFO (each sender pushes into the
//! receiver's queue in program order), matching the paper's model.  Every
//! send passes the same admission as in the simulators — the crate's
//! [delivery core](crate#one-delivery-core-three-schedulers) — and only then
//! enters a real channel; here the operating system is the scheduler.

use crate::asim::{AsyncOutcome, AsyncProcess};
use crate::links::Gate;
use crate::process::{Delivery, ExecutionStats, ProcessId};
use bvc_topology::Topology;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Outcome of a threaded execution: the simulator's outcome type, with
/// `completed` read against the deadline and `stats.steps` counting
/// delivered messages.
pub type ThreadedOutcome<O> = AsyncOutcome<O>;

/// Runs the given processes on one thread each until every process listed in
/// `wait_for` has produced an output or `deadline` elapses.
///
/// # Panics
///
/// Panics if `processes` is empty or any index in `wait_for` is out of range.
pub fn run_threaded<M, O>(
    processes: Vec<Box<dyn AsyncProcess<Msg = M, Output = O> + Send>>,
    wait_for: &[usize],
    deadline: Duration,
) -> ThreadedOutcome<O>
where
    M: Clone + Send + 'static,
    O: Clone + Send + 'static,
{
    run_behind(Gate::new(processes.len()), processes, wait_for, deadline)
}

/// [`run_threaded`] restricted to the links of `topology`, with a selectable
/// delivery model: with `local_broadcast` a sender cannot tell different
/// receivers different things in the same dispatch.
///
/// # Panics
///
/// Panics if `processes` is empty, any index in `wait_for` is out of range,
/// or `topology.len()` differs from the process count.
pub fn run_threaded_with<M, O>(
    processes: Vec<Box<dyn AsyncProcess<Msg = M, Output = O> + Send>>,
    topology: Topology,
    local_broadcast: bool,
    wait_for: &[usize],
    deadline: Duration,
) -> ThreadedOutcome<O>
where
    M: Clone + Send + 'static,
    O: Clone + Send + 'static,
{
    let mut gate = Gate::new(processes.len());
    gate.set_topology(Arc::new(topology));
    gate.set_local_broadcast(local_broadcast);
    run_behind(gate, processes, wait_for, deadline)
}

/// The runtime proper: every thread admits its sends through its own copy of
/// `gate` and the copies' books are summed at the end.
fn run_behind<M, O>(
    gate: Gate,
    processes: Vec<Box<dyn AsyncProcess<Msg = M, Output = O> + Send>>,
    wait_for: &[usize],
    deadline: Duration,
) -> ThreadedOutcome<O>
where
    M: Clone + Send + 'static,
    O: Clone + Send + 'static,
{
    let n = processes.len();
    assert!(
        wait_for.iter().all(|&i| i < n),
        "wait_for indices must be valid process indices"
    );

    let mut senders: Vec<Sender<Delivery<M>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Delivery<M>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }

    let outputs: Arc<Mutex<Vec<Option<O>>>> = Arc::new(Mutex::new(vec![None; n]));
    let stop = Arc::new(AtomicBool::new(false));

    // Hand the caller's trace scope (if any) to the worker threads: each
    // process traces into its own slot (index + 1; slot 0 stays with the
    // spawning thread), so a sorted trace groups events per process in a
    // canonical order.  Event *content* still reflects real scheduling and
    // is not byte-deterministic — see the bvc-trace determinism contract.
    let trace_handle = bvc_trace::current_handle();
    let mut handles = Vec::with_capacity(n);
    for ((index, mut process), my_rx) in processes.into_iter().enumerate().zip(receivers) {
        let all_tx = senders.clone();
        let outputs = Arc::clone(&outputs);
        let stop = Arc::clone(&stop);
        let mut gate = gate.clone();
        let trace_handle = trace_handle.clone();
        let handle = thread::spawn(move || {
            let slot = u32::try_from(index + 1).unwrap_or(u32::MAX);
            let _trace_scope = trace_handle.map(|h| bvc_trace::install(h, slot));
            let me = ProcessId::new(index);
            // A send only fails if the receiver hung up, which happens at
            // shutdown; losing the message then is fine.
            let mut post = |to: usize, _due: usize, msg: M| {
                let _ = all_tx[to].send(Delivery::new(me, msg));
            };
            // Local logical clock: deliveries handled by this thread so far.
            let mut local_step = 0usize;
            gate.admit(local_step, 0, index, process.on_start(), &mut post);
            if let Some(out) = process.output() {
                outputs.lock().expect("outputs lock poisoned")[index] = Some(out);
            }
            while !stop.load(Ordering::Relaxed) {
                match my_rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(Delivery { from, msg }) => {
                        local_step += 1;
                        gate.delivered(local_step, from.index(), index);
                        let outgoing = process.on_message(from, msg);
                        gate.admit(local_step, 0, index, outgoing, &mut post);
                        if let Some(out) = process.output() {
                            outputs.lock().expect("outputs lock poisoned")[index] = Some(out);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            gate.finish(local_step)
        });
        handles.push(handle);
    }

    // Supervise: wait until the waited-for processes have all decided or the
    // deadline passes.
    let start = Instant::now();
    let completed = loop {
        {
            let outs = outputs.lock().expect("outputs lock poisoned");
            if wait_for.iter().all(|&i| outs[i].is_some()) {
                break true;
            }
        }
        if start.elapsed() >= deadline {
            break false;
        }
        thread::sleep(Duration::from_millis(2));
    };

    stop.store(true, Ordering::Relaxed);
    drop(senders);
    let mut stats = ExecutionStats::for_processes(n);
    for handle in handles {
        // A process that panicked leaves its output `None` and its books out.
        if let Ok(thread_stats) = handle.join() {
            stats.absorb(&thread_stats);
        }
    }

    let outputs = match Arc::try_unwrap(outputs) {
        Ok(mutex) => mutex.into_inner().expect("outputs lock poisoned"),
        Err(arc) => arc.lock().expect("outputs lock poisoned").clone(),
    };
    ThreadedOutcome {
        outputs,
        completed,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{broadcast_to_all, Outgoing};

    /// Same toy protocol as in the simulator tests: broadcast one value, sum
    /// the first n-1 received values.
    struct Summer {
        id: ProcessId,
        n: usize,
        value: u64,
        received: Vec<u64>,
        result: Option<u64>,
    }

    impl AsyncProcess for Summer {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self) -> Vec<Outgoing<u64>> {
            broadcast_to_all(self.n, Some(self.id), &self.value)
        }

        fn on_message(&mut self, _from: ProcessId, msg: u64) -> Vec<Outgoing<u64>> {
            if self.result.is_none() {
                self.received.push(msg);
                if self.received.len() == self.n - 1 {
                    self.result = Some(self.received.iter().sum::<u64>() + self.value);
                }
            }
            Vec::new()
        }

        fn output(&self) -> Option<u64> {
            self.result
        }
    }

    fn summers(values: &[u64]) -> Vec<Box<dyn AsyncProcess<Msg = u64, Output = u64> + Send>> {
        let n = values.len();
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Box::new(Summer {
                    id: ProcessId::new(i),
                    n,
                    value: v,
                    received: Vec::new(),
                    result: None,
                }) as Box<dyn AsyncProcess<Msg = u64, Output = u64> + Send>
            })
            .collect()
    }

    #[test]
    fn threads_exchange_messages_and_decide() {
        let outcome = run_threaded(
            summers(&[1, 2, 3, 4]),
            &[0, 1, 2, 3],
            Duration::from_secs(5),
        );
        assert!(outcome.completed);
        assert_eq!(
            outcome.outputs,
            vec![Some(10), Some(10), Some(10), Some(10)]
        );
        assert!(outcome.stats.messages_delivered >= 12);
    }

    #[test]
    fn deadline_is_respected_when_processes_cannot_decide() {
        // Two processes each expecting 2 messages but only one peer exists:
        // they can never decide.
        struct Stuck;
        impl AsyncProcess for Stuck {
            type Msg = u64;
            type Output = u64;
            fn on_start(&mut self) -> Vec<Outgoing<u64>> {
                Vec::new()
            }
            fn on_message(&mut self, _f: ProcessId, _m: u64) -> Vec<Outgoing<u64>> {
                Vec::new()
            }
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let procs: Vec<Box<dyn AsyncProcess<Msg = u64, Output = u64> + Send>> =
            vec![Box::new(Stuck), Box::new(Stuck)];
        let outcome = run_threaded(procs, &[0, 1], Duration::from_millis(100));
        assert!(!outcome.completed);
        assert_eq!(outcome.outputs, vec![None, None]);
    }

    #[test]
    fn waiting_for_subset_only() {
        let outcome = run_threaded(summers(&[5, 6, 7]), &[1], Duration::from_secs(5));
        assert!(outcome.completed);
        assert_eq!(outcome.outputs[1], Some(18));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_process_set_panics() {
        let procs: Vec<Box<dyn AsyncProcess<Msg = u64, Output = u64> + Send>> = Vec::new();
        let _ = run_threaded(procs, &[], Duration::from_millis(10));
    }

    #[test]
    fn local_broadcast_mode_still_decides() {
        let outcome = run_threaded_with(
            summers(&[1, 2, 3, 4]),
            Topology::complete(4),
            true,
            &[0, 1, 2, 3],
            Duration::from_secs(5),
        );
        assert!(outcome.completed);
        assert_eq!(
            outcome.outputs,
            vec![Some(10), Some(10), Some(10), Some(10)]
        );
    }

    #[test]
    fn topology_restricts_real_channels_too() {
        // On a 4-ring every Summer receives only its two neighbors' values —
        // one short of the n − 1 it waits for — so the deadline expires.
        let outcome = run_threaded_with(
            summers(&[1, 2, 3, 4]),
            Topology::ring(4),
            false,
            &[0, 1, 2, 3],
            Duration::from_millis(150),
        );
        assert!(!outcome.completed);
        assert!(outcome.outputs.iter().all(|o| o.is_none()));
    }
}
