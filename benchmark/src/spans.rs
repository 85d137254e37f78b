//! Benchmark-side spans: one per call into a layer's public function.
//!
//! Spans live in memory until the run ends and are then written as JSON
//! lines; nothing is written while a measurement is in flight.  They are
//! recorded from the benchmark's own files only — spans inside the program
//! are a later change.

use bvc_scenario::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`service.run`, `session.new`, `probe.gamma_point`…).
    pub name: &'static str,
    /// The layer (crate) the call enters.
    pub layer: &'static str,
    /// Identifier, unique within the log (index + 1; 0 is "no parent").
    pub id: u64,
    /// The span that caused this one, or 0 at the root.
    pub parent: u64,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
}

/// An in-memory span log for one workload run (single-threaded: every call
/// the benchmark makes into the program is made from its main thread).
#[derive(Debug)]
pub struct SpanLog {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl SpanLog {
    /// An empty log; span times count from now.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; the innermost open span is its parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON lines, one span each, with its self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let line = Json::object()
                .field("name", span.name)
                .field("layer", span.layer)
                .field("workload", self.workload)
                .field("id", span.id)
                .field("parent", span.parent)
                .field("start_ns", span.start_ns)
                .field("end_ns", span.end_ns)
                .field("self_ns", self_ns);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == span.id)
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(start, end)| end > start)
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in children {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: "l",
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_subtracts_sibling_spans() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_siblings_are_covered_once() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn log_assigns_parents_from_the_open_stack() {
        let mut log = SpanLog::new("unit");
        log.span("outer", "a", |log| {
            log.span("inner", "b", |_| ());
            log.span("inner", "b", |_| ());
        });
        log.span("later", "a", |_| ());
        let parents: Vec<u64> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, 1, 1, 0]);
        let outer = &log.spans()[0];
        assert!(log.spans()[1..3]
            .iter()
            .all(|s| s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns));
        assert_eq!(log.to_jsonl().lines().count(), 4);
        assert!(log.to_jsonl().contains("\"workload\": \"unit\""));
    }
}
