//! The `trace-report` analytics: one pass over a `bvc-trace/v1` document,
//! each line decoded once into a [`TraceEvent`] and matched by variant.
//!
//! The report prints, in order: per-round convergence (state spread vs.
//! round), per-process message timelines, the Γ hot-path breakdown (which
//! fast path served what fraction of queries, per protocol × shape), the
//! simplex solve profile, and per-instance span summaries.

use crate::event::{CacheLevel, TraceEvent};
use crate::json::read_trace;
use std::collections::BTreeMap;

/// Upper bound on the rows of the per-round tables (long asynchronous
/// traces are decimated / bucketed down to this).
const MAX_ROWS: usize = 64;

/// Per-(protocol × shape) Γ attribution tallies.
#[derive(Default)]
struct GammaGroup {
    /// cache level name → count (local / parent), plus per-path counts for
    /// misses; the sum over all rows equals the total queries of the group.
    rows: BTreeMap<String, u64>,
    total: u64,
    probe_misses: u64,
}

#[derive(Default)]
struct MessageTotals {
    sent: u64,
    delivered: u64,
    dropped: u64,
    vanished: u64,
}

#[derive(Default)]
struct Report {
    events: usize,
    /// Run context (`protocol n= f= d=`) of the latest `run_open`.
    context: String,
    /// round → (spread values in file order).
    convergence: Vec<(usize, Option<f64>)>,
    per_process: BTreeMap<usize, MessageTotals>,
    per_round_msgs: BTreeMap<usize, MessageTotals>,
    gamma: BTreeMap<String, GammaGroup>,
    simplex_solves: u64,
    simplex_pivots: u64,
    simplex_by_class: BTreeMap<usize, u64>,
    local_broadcasts: u64,
    local_broadcast_slots: usize,
    spans: Vec<(u64, String, bool, bool, Option<usize>)>,
    open_spans: BTreeMap<u64, String>,
    admissions: Vec<(bool, String)>,
    validity_failures: u64,
    validity_checks: u64,
}

/// Renders the report of a trace document.
///
/// # Errors
///
/// The first schema violation, as [`check_trace`](crate::check_trace)
/// names it.
pub fn report(text: &str) -> Result<String, String> {
    let mut report = Report::default();
    read_trace(text, |event| report.ingest(event))?;
    Ok(report.render())
}

impl Report {
    fn ingest(&mut self, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::RunOpen { protocol, n, f, d } => {
                self.context = format!("{protocol} n={n} f={f} d={d}");
            }
            TraceEvent::RoundClose { round, spread } => self.convergence.push((round, spread)),
            TraceEvent::Send { time, from, .. } => self.message(time, from, |t| t.sent += 1),
            TraceEvent::Deliver { time, to, .. } => self.message(time, to, |t| t.delivered += 1),
            TraceEvent::Drop { time, from, .. } => self.message(time, from, |t| t.dropped += 1),
            TraceEvent::Vanish { time, from, .. } => self.message(time, from, |t| t.vanished += 1),
            TraceEvent::LocalBroadcast { slots, .. } => {
                self.local_broadcasts += 1;
                self.local_broadcast_slots += slots;
            }
            TraceEvent::Gamma {
                cache,
                path,
                probe_missed,
                ..
            } => {
                let group = self.gamma.entry(self.context.clone()).or_default();
                group.total += 1;
                group.probe_misses += u64::from(probe_missed);
                let row = match (cache, path) {
                    (CacheLevel::Local, _) => "cache-local",
                    (CacheLevel::Parent, _) => "cache-parent",
                    (CacheLevel::Miss, Some(path)) => path.as_str(),
                    (CacheLevel::Miss, None) => "unattributed",
                };
                *group.rows.entry(row.to_string()).or_default() += 1;
            }
            TraceEvent::Simplex { pivots, class, .. } => {
                self.simplex_solves += 1;
                self.simplex_pivots += pivots;
                *self.simplex_by_class.entry(class).or_default() += 1;
            }
            TraceEvent::SpanOpen { instance, label } => {
                self.open_spans.insert(instance, label);
            }
            TraceEvent::SpanClose {
                instance,
                decided,
                violated,
                rounds,
            } => {
                let label = (self.open_spans.remove(&instance)).unwrap_or_else(|| "?".to_string());
                self.spans
                    .push((instance, label, decided, violated, rounds));
            }
            TraceEvent::Admission { ok, detail } => self.admissions.push((ok, detail)),
            TraceEvent::ValidityCheck { ok, .. } => {
                self.validity_checks += 1;
                self.validity_failures += u64::from(!ok);
            }
            TraceEvent::RoundOpen { .. } | TraceEvent::FaultWindow { .. } => {}
        }
    }

    /// A message event counts once for its process (the recipient of a
    /// delivery, the sender otherwise) and once for its round.
    fn message(&mut self, time: usize, process: usize, count: fn(&mut MessageTotals)) {
        count(self.per_process.entry(process).or_default());
        count(self.per_round_msgs.entry(time).or_default());
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# Trace report ({} event(s))\n", self.events));

        if !self.admissions.is_empty() {
            let admitted = self.admissions.iter().filter(|(ok, _)| *ok).count();
            out.push_str(&format!(
                "\nAdmissions: {admitted}/{} admitted",
                self.admissions.len()
            ));
            if let Some((_, detail)) = self.admissions.iter().find(|(ok, _)| !ok) {
                out.push_str(&format!(" (first rejection: {detail})"));
            }
            out.push('\n');
        }
        if self.validity_checks > 0 {
            out.push_str(&format!(
                "Validity checks: {} run, {} failed\n",
                self.validity_checks, self.validity_failures
            ));
        }

        if !self.convergence.is_empty() {
            out.push_str("\n## Per-round convergence (spread vs. round budget)\n\n");
            out.push_str("| round | spread |\n|---:|---:|\n");
            // Long runs are decimated to ~MAX_ROWS evenly spaced rows; the
            // last round (the converged spread) always survives.
            let stride = self.convergence.len().div_ceil(MAX_ROWS).max(1);
            for (i, (round, spread)) in self.convergence.iter().enumerate() {
                if i % stride != 0 && i + 1 != self.convergence.len() {
                    continue;
                }
                match spread {
                    Some(s) => out.push_str(&format!("| {round} | {s:.6} |\n")),
                    None => out.push_str(&format!("| {round} | - |\n")),
                }
            }
        }

        if !self.per_process.is_empty() {
            out.push_str("\n## Per-process message timeline\n\n");
            out.push_str(
                "| process | sent | delivered | dropped | vanished |\n|---:|---:|---:|---:|---:|\n",
            );
            for (process, t) in &self.per_process {
                out.push_str(&format!(
                    "| {process} | {} | {} | {} | {} |\n",
                    t.sent, t.delivered, t.dropped, t.vanished
                ));
            }
            out.push_str("\n## Per-round messages\n\n");
            out.push_str(
                "| round | sent | delivered | dropped | vanished |\n|---:|---:|---:|---:|---:|\n",
            );
            // Asynchronous traces have one "round" per delivery step, so the
            // table is bucketed into at most MAX_ROWS contiguous ranges with
            // summed counts (totals are preserved exactly).
            let rounds: Vec<_> = self.per_round_msgs.iter().collect();
            for bucket in rounds.chunks(rounds.len().div_ceil(MAX_ROWS).max(1)) {
                let (first, last) = (bucket[0].0, bucket[bucket.len() - 1].0);
                let label = if first == last {
                    first.to_string()
                } else {
                    format!("{first}\u{2013}{last}")
                };
                let mut t = MessageTotals::default();
                for (_, b) in bucket {
                    t.sent += b.sent;
                    t.delivered += b.delivered;
                    t.dropped += b.dropped;
                    t.vanished += b.vanished;
                }
                out.push_str(&format!(
                    "| {label} | {} | {} | {} | {} |\n",
                    t.sent, t.delivered, t.dropped, t.vanished
                ));
            }
        }

        if self.local_broadcasts > 0 {
            out.push_str(&format!(
                "\nLocal broadcast: {} canonicalised batch(es), {} slot(s) \
                 (per-receiver equivocation structurally impossible)\n",
                self.local_broadcasts, self.local_broadcast_slots
            ));
        }

        if !self.gamma.is_empty() {
            out.push_str("\n## Γ hot-path breakdown\n");
            let mut grand_total = 0u64;
            for (context, group) in &self.gamma {
                let label = if context.is_empty() {
                    "(no run context)"
                } else {
                    context
                };
                out.push_str(&format!(
                    "\n### {label} — {} quer(ies), {} probe miss(es)\n\n",
                    group.total, group.probe_misses
                ));
                out.push_str("| path | calls | share |\n|---|---:|---:|\n");
                for (row, count) in &group.rows {
                    out.push_str(&format!(
                        "| {row} | {count} | {:.1}% |\n",
                        100.0 * *count as f64 / group.total.max(1) as f64
                    ));
                }
                let sum: u64 = group.rows.values().sum();
                out.push_str(&format!("| **total** | {sum} | 100.0% |\n"));
                grand_total += sum;
            }
            out.push_str(&format!("\nTotal Γ queries: {grand_total}\n"));
        }

        if self.simplex_solves > 0 {
            out.push_str(&format!(
                "\n## Simplex profile\n\n{} solve(s), {} pivot(s) total ({:.2} per solve)\
                 \n\n| size class | solves |\n|---:|---:|\n",
                self.simplex_solves,
                self.simplex_pivots,
                self.simplex_pivots as f64 / self.simplex_solves as f64,
            ));
            for (class, count) in &self.simplex_by_class {
                out.push_str(&format!("| 2^{class} | {count} |\n"));
            }
        }

        if !self.spans.is_empty() || !self.open_spans.is_empty() {
            out.push_str("\n## Per-instance spans\n\n");
            out.push_str(
                "| instance | label | decided | violated | rounds |\n|---:|---|---|---|---:|\n",
            );
            for (instance, label, decided, violated, rounds) in &self.spans {
                let rounds = rounds.map_or("-".to_string(), |r| r.to_string());
                out.push_str(&format!(
                    "| {instance} | {label} | {decided} | {violated} | {rounds} |\n"
                ));
            }
            for (instance, label) in &self.open_spans {
                out.push_str(&format!(
                    "| {instance} | {label} | (span never closed) | - | - |\n"
                ));
            }
        }
        out
    }
}
