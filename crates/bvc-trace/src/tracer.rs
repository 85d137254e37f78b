//! The [`Tracer`] trait, its two built-in implementations, and the
//! cheap-clone [`TraceHandle`] that threads a tracer through scopes.
//!
//! Determinism: [`JsonlTracer`] buffers events tagged with their logical
//! position `(slot, seq)` and sorts by that key at [`finish`]
//! (stable, so events of one slot keep emission order).  Single-threaded
//! executions emit everything under one slot, so emission order is
//! preserved; the service's worker pool registers one slot per instance,
//! canonicalising whatever physical interleaving occurred into per-instance
//! streams.
//!
//! [`finish`]: TraceHandle::finish

use crate::event::{TraceEvent, SCHEMA};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Receives typed trace events from the scopes a [`TraceHandle`] is
/// installed on.
pub trait Tracer: Send {
    /// Records one event at logical position `(slot, seq)`.
    fn record(&mut self, slot: u32, seq: u64, event: &TraceEvent);

    /// Consumes the buffered stream: returns serialized JSONL lines in the
    /// canonical `(slot, seq)` order.  Tracers that do not buffer (the
    /// no-op) return an empty vector.
    fn take_lines(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Discards every event.  Useful to measure tracing overhead and as the
/// explicit "off" tracer; when no scope is installed at all, `emit` never
/// constructs the event in the first place.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&mut self, _slot: u32, _seq: u64, _event: &TraceEvent) {}
}

/// Buffers events and serializes them to `bvc-trace/v1` JSON lines.
///
/// Events are serialized eagerly (the event is borrowed, not cloned) and
/// sorted by `(slot, seq)` when the lines are taken.
#[derive(Debug, Default)]
pub struct JsonlTracer {
    lines: Vec<(u32, u64, String)>,
}

impl JsonlTracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events buffered so far.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

impl Tracer for JsonlTracer {
    fn record(&mut self, slot: u32, seq: u64, event: &TraceEvent) {
        self.lines.push((slot, seq, event.to_json(slot, seq)));
    }

    fn take_lines(&mut self) -> Vec<String> {
        let mut taken = std::mem::take(&mut self.lines);
        taken.sort_by_key(|&(slot, seq, _)| (slot, seq));
        taken.into_iter().map(|(_, _, line)| line).collect()
    }
}

/// One wall-time measurement on the optional timing channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingEntry {
    /// What was measured (span label, phase name).
    pub label: String,
    /// Wall-clock delta in microseconds.
    pub micros: u128,
}

impl TimingEntry {
    /// Serializes the entry as one timing-channel JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\": \"{}\", \"us\": {}}}",
            crate::event::escape_json(&self.label),
            self.micros
        )
    }
}

struct HandleInner {
    tracer: Mutex<Box<dyn Tracer>>,
    timing: Option<Mutex<Vec<TimingEntry>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Buffered lines are plain data; poisoning is ignorable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheap-clone handle to a shared [`Tracer`], installable on any number
/// of thread scopes (see [`crate::scope::install`]).
#[derive(Clone)]
pub struct TraceHandle {
    inner: Arc<HandleInner>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("timing", &self.inner.timing.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// Wraps a tracer.  `with_timing` opens the optional wall-time channel;
    /// without it, [`record_timing`](Self::record_timing) is a no-op.
    pub fn new(tracer: Box<dyn Tracer>, with_timing: bool) -> Self {
        Self {
            inner: Arc::new(HandleInner {
                tracer: Mutex::new(tracer),
                timing: with_timing.then(|| Mutex::new(Vec::new())),
            }),
        }
    }

    /// A buffered JSONL tracer without a timing channel — the common case.
    pub fn jsonl() -> Self {
        Self::new(Box::new(JsonlTracer::new()), false)
    }

    /// A buffered JSONL tracer with the wall-time channel open.
    pub fn jsonl_with_timing() -> Self {
        Self::new(Box::new(JsonlTracer::new()), true)
    }

    pub(crate) fn record(&self, slot: u32, seq: u64, event: &TraceEvent) {
        lock(&self.inner.tracer).record(slot, seq, event);
    }

    /// Records one wall-time measurement on the timing channel, if open.
    /// Timing entries never enter the deterministic event stream.
    pub fn record_timing(&self, label: impl Into<String>, micros: u128) {
        if let Some(timing) = &self.inner.timing {
            lock(timing).push(TimingEntry {
                label: label.into(),
                micros,
            });
        }
    }

    /// Drains the buffered event stream as canonically ordered JSON lines
    /// (no schema header; see [`render_trace`]).
    pub fn finish(&self) -> Vec<String> {
        lock(&self.inner.tracer).take_lines()
    }

    /// Drains the timing channel (empty when the channel is closed).
    pub fn finish_timing(&self) -> Vec<TimingEntry> {
        match &self.inner.timing {
            Some(timing) => std::mem::take(&mut *lock(timing)),
            None => Vec::new(),
        }
    }
}

/// Runs `f` under a freshly installed JSONL trace scope (slot 0) and writes
/// the complete `bvc-trace/v1` document to `path` — the shared plumbing
/// behind the binaries' `--trace <path>` flag.  With `path = None`, `f`
/// simply runs untraced (and no file is touched).
///
/// # Errors
///
/// Fails only on the final file write; `f` has already run by then.
pub fn run_traced<T>(path: Option<&std::path::Path>, f: impl FnOnce() -> T) -> std::io::Result<T> {
    match path {
        None => Ok(f()),
        Some(path) => {
            let handle = TraceHandle::jsonl();
            let value = {
                let _scope = crate::scope::install(handle.clone(), 0);
                f()
            };
            std::fs::write(path, render_trace(&handle.finish()))?;
            Ok(value)
        }
    }
}

/// Assembles a complete `bvc-trace/v1` document: the schema header line
/// followed by the event lines, each newline-terminated.
pub fn render_trace(lines: &[String]) -> String {
    let mut out = String::with_capacity(32 + lines.iter().map(|l| l.len() + 1).sum::<usize>());
    out.push_str(&format!("{{\"schema\": \"{SCHEMA}\"}}\n"));
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_tracer_sorts_by_slot_then_seq() {
        let mut tracer = JsonlTracer::new();
        tracer.record(1, 0, &TraceEvent::RoundOpen { round: 10 });
        tracer.record(0, 1, &TraceEvent::RoundOpen { round: 2 });
        tracer.record(0, 0, &TraceEvent::RoundOpen { round: 1 });
        let lines = tracer.take_lines();
        assert!(lines[0].contains("\"round\": 1"));
        assert!(lines[1].contains("\"round\": 2"));
        assert!(lines[2].contains("\"round\": 10"));
        assert!(tracer.is_empty());
    }

    #[test]
    fn timing_channel_is_optional() {
        let silent = TraceHandle::jsonl();
        silent.record_timing("span", 123);
        assert!(silent.finish_timing().is_empty());

        let timed = TraceHandle::jsonl_with_timing();
        timed.record_timing("span", 123);
        let entries = timed.finish_timing();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].to_json(), "{\"label\": \"span\", \"us\": 123}");
    }

    #[test]
    fn render_trace_prepends_schema_header() {
        let doc = render_trace(&["{\"ev\": \"round_open\"}".to_string()]);
        assert!(doc.starts_with("{\"schema\": \"bvc-trace/v1\"}\n"));
        assert!(doc.ends_with("}\n"));
    }
}
