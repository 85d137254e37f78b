//! Both executors keep the same books: one toy process, one ring, the same
//! sends — on-link, off-topology and out-of-range — counted and traced
//! identically whether lock-step rounds or a seeded scheduler move them.

use bvc_net::{
    AsyncNetwork, AsyncProcess, Delivery, DeliveryPolicy, ExecutionStats, Outgoing, ProcessId,
    SyncNetwork, SyncProcess, Topology,
};
use bvc_trace::{TraceEvent, TraceHandle, Tracer};
use std::sync::{Arc, Mutex};

const N: usize = 4;

/// Sends once — to both ring neighbours, across the ring (no such link) and
/// to a process that does not exist — then decides after hearing from both
/// neighbours.
struct Chatter {
    id: usize,
    heard: usize,
}

impl Chatter {
    fn sends(&self) -> Vec<Outgoing<u8>> {
        [
            (self.id + 1) % N,
            (self.id + N - 1) % N,
            (self.id + 2) % N,
            N + 3,
        ]
        .into_iter()
        .map(|to| Outgoing::new(ProcessId::new(to), 0))
        .collect()
    }

    fn decision(&self) -> Option<usize> {
        (self.heard == 2).then_some(self.heard)
    }
}

impl SyncProcess for Chatter {
    type Msg = u8;
    type Output = usize;
    fn round(&mut self, round: usize, inbox: &[Delivery<u8>]) -> Vec<Outgoing<u8>> {
        self.heard += inbox.len();
        if round == 1 {
            self.sends()
        } else {
            Vec::new()
        }
    }
    fn output(&self) -> Option<usize> {
        self.decision()
    }
}

impl AsyncProcess for Chatter {
    type Msg = u8;
    type Output = usize;
    fn on_start(&mut self) -> Vec<Outgoing<u8>> {
        self.sends()
    }
    fn on_message(&mut self, _from: ProcessId, _msg: u8) -> Vec<Outgoing<u8>> {
        self.heard += 1;
        Vec::new()
    }
    fn output(&self) -> Option<usize> {
        self.decision()
    }
}

/// Tallies `(send, vanish)` events.
struct Tally(Arc<Mutex<(usize, usize)>>);

impl Tracer for Tally {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        let mut tally = self.0.lock().unwrap();
        match event {
            TraceEvent::Send { .. } => tally.0 += 1,
            TraceEvent::Vanish { .. } => tally.1 += 1,
            _ => {}
        }
    }
}

/// Runs `execute` under a tallying tracer; returns its stats and the tally.
fn traced(execute: impl FnOnce() -> ExecutionStats) -> (ExecutionStats, (usize, usize)) {
    let tally = Arc::new(Mutex::new((0, 0)));
    let handle = TraceHandle::new(Box::new(Tally(Arc::clone(&tally))), false);
    let stats = {
        let _scope = bvc_trace::install(handle, 0);
        execute()
    };
    let tally = *tally.lock().unwrap();
    (stats, tally)
}

fn chatter(id: usize) -> Box<Chatter> {
    Box::new(Chatter { id, heard: 0 })
}

#[test]
fn both_executors_keep_the_same_books() {
    let everyone: Vec<usize> = (0..N).collect();
    let runs = [
        (
            "sync",
            traced(|| {
                let processes =
                    (0..N).map(|i| chatter(i) as Box<dyn SyncProcess<Msg = _, Output = _>>);
                SyncNetwork::new(processes.collect(), 5)
                    .with_topology(Topology::ring(N))
                    .run(&everyone)
                    .stats
            }),
        ),
        (
            "async",
            traced(|| {
                let processes =
                    (0..N).map(|i| chatter(i) as Box<dyn AsyncProcess<Msg = _, Output = _>>);
                AsyncNetwork::new(processes.collect(), DeliveryPolicy::RandomFair, 3, 1000)
                    .with_topology(Topology::ring(N))
                    .run(&everyone)
                    .stats
            }),
        ),
    ];
    for (executor, (stats, (sends, vanishes))) in runs {
        assert_eq!(stats.messages_sent, 4 * N, "{executor}: every send counts");
        assert_eq!(stats.messages_delivered, 2 * N, "{executor}");
        assert_eq!(
            stats.messages_dropped, 0,
            "{executor}: vanishing is not a drop"
        );
        assert_eq!(
            stats.per_process.len(),
            N,
            "{executor}: attributes per process"
        );
        for counters in &stats.per_process {
            assert_eq!((counters.sent, counters.delivered), (4, 2), "{executor}");
        }
        assert_eq!(sends, 4 * N, "{executor}: one Send event per message");
        assert_eq!(vanishes, 2 * N, "{executor}: off-topology and out-of-range");
    }
}
