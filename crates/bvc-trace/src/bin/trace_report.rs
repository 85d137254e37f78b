//! `trace-report` — aggregate a `bvc-trace/v1` JSONL trace into tables.
//!
//! ```text
//! trace-report --in trace.jsonl            # full report to stdout
//! trace-report --in trace.jsonl --check    # schema validation only
//! ```
//!
//! The report prints, in order: per-round convergence (state spread vs.
//! round), per-process message timelines, the Γ hot-path breakdown (which
//! fast path served what fraction of queries, per protocol × shape), the
//! simplex solve profile, and per-instance span summaries.  Exit code 0 on
//! success, 1 on a schema violation, 2 on usage or I/O errors.

use bvc_trace::json::{check_trace, parse_flat, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: trace-report --in <trace.jsonl> [--check]");
    std::process::exit(2);
}

/// Upper bound on the rows of the per-round tables (long asynchronous
/// traces are decimated / bucketed down to this).
const MAX_ROWS: usize = 64;

fn field_u(map: &BTreeMap<String, Json>, key: &str) -> u64 {
    map.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn field_s<'a>(map: &'a BTreeMap<String, Json>, key: &str) -> &'a str {
    map.get(key).and_then(Json::as_str).unwrap_or("")
}

fn field_b(map: &BTreeMap<String, Json>, key: &str) -> bool {
    map.get(key).and_then(Json::as_bool).unwrap_or(false)
}

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
    /// round → (spread values in file order).
    convergence: Vec<(u64, Option<f64>)>,
    per_process: BTreeMap<u64, MessageTotals>,
    per_round_msgs: BTreeMap<u64, MessageTotals>,
    gamma: BTreeMap<String, GammaGroup>,
    simplex_solves: u64,
    simplex_pivots: u64,
    simplex_reused: u64,
    simplex_by_class: BTreeMap<u64, u64>,
    local_broadcasts: u64,
    local_broadcast_slots: u64,
    spans: Vec<(u64, String, bool, bool, Option<u64>)>,
    open_spans: BTreeMap<u64, String>,
    admissions: Vec<(bool, String)>,
    validity_failures: u64,
    validity_checks: u64,
}

impl Report {
    fn ingest(&mut self, map: &BTreeMap<String, Json>, context: &mut String) {
        self.events += 1;
        match field_s(map, "ev") {
            "run_open" => {
                *context = format!(
                    "{} n={} f={} d={}",
                    field_s(map, "protocol"),
                    field_u(map, "n"),
                    field_u(map, "f"),
                    field_u(map, "d")
                );
            }
            "round_close" => {
                let spread = map.get("spread").and_then(Json::as_f64);
                self.convergence.push((field_u(map, "round"), spread));
            }
            "send" | "deliver" | "drop" | "vanish" => {
                let ev = field_s(map, "ev").to_string();
                let process = if ev == "deliver" {
                    field_u(map, "to")
                } else {
                    field_u(map, "from")
                };
                let time = field_u(map, "time");
                for totals in [
                    self.per_process.entry(process).or_default(),
                    self.per_round_msgs.entry(time).or_default(),
                ] {
                    match ev.as_str() {
                        "send" => totals.sent += 1,
                        "deliver" => totals.delivered += 1,
                        "drop" => totals.dropped += 1,
                        _ => totals.vanished += 1,
                    }
                }
            }
            "local_broadcast" => {
                self.local_broadcasts += 1;
                self.local_broadcast_slots += field_u(map, "slots");
            }
            "gamma" => {
                let group = self.gamma.entry(context.clone()).or_default();
                group.total += 1;
                if field_b(map, "probe_missed") {
                    group.probe_misses += 1;
                }
                let cache = field_s(map, "cache");
                let row = match cache {
                    "local" => "cache-local".to_string(),
                    "parent" => "cache-parent".to_string(),
                    _ => field_s(map, "path").to_string(),
                };
                let row = if row.is_empty() {
                    "unattributed".to_string()
                } else {
                    row
                };
                *group.rows.entry(row).or_default() += 1;
            }
            "simplex" => {
                self.simplex_solves += 1;
                self.simplex_pivots += field_u(map, "pivots");
                if field_b(map, "reused") {
                    self.simplex_reused += 1;
                }
                *self
                    .simplex_by_class
                    .entry(field_u(map, "class"))
                    .or_default() += 1;
            }
            "span_open" => {
                self.open_spans
                    .insert(field_u(map, "instance"), field_s(map, "label").to_string());
            }
            "span_close" => {
                let instance = field_u(map, "instance");
                let label = self
                    .open_spans
                    .remove(&instance)
                    .unwrap_or_else(|| "?".to_string());
                self.spans.push((
                    instance,
                    label,
                    field_b(map, "decided"),
                    field_b(map, "violated"),
                    map.get("rounds").and_then(Json::as_u64),
                ));
            }
            "admission" => {
                self.admissions
                    .push((field_b(map, "ok"), field_s(map, "detail").to_string()));
            }
            "validity_check" => {
                self.validity_checks += 1;
                if !field_b(map, "ok") {
                    self.validity_failures += 1;
                }
            }
            _ => {}
        }
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
                "\n## Simplex profile\n\n{} solve(s), {} pivot(s) total ({:.2} per solve), \
                 workspace reuse {:.1}%\n\n| size class | solves |\n|---:|---:|\n",
                self.simplex_solves,
                self.simplex_pivots,
                self.simplex_pivots as f64 / self.simplex_solves as f64,
                100.0 * self.simplex_reused as f64 / self.simplex_solves as f64,
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

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut input: Option<String> = None;
    let mut check_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--in" => input = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check_only = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("trace-report: unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(path) = input else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("trace-report: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };

    let events = match check_trace(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("trace-report: `{path}`: {e}");
            return ExitCode::from(1);
        }
    };
    if check_only {
        println!("trace-report: `{path}` is valid bvc-trace/v1 ({events} event(s))");
        return ExitCode::SUCCESS;
    }

    let mut report = Report::default();
    let mut context = String::new();
    for line in text.lines().skip(1) {
        let map = parse_flat(line).expect("check_trace validated every line");
        report.ingest(&map, &mut context);
    }
    print!("{}", report.render());
    ExitCode::SUCCESS
}
