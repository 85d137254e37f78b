//! Typed trace events and their `bvc-trace/v1` JSONL serialization.
//!
//! Every event carries only *logical* time — a round or delivery step plus
//! the per-slot sequence number the scope assigns at emission — never a wall
//! clock, so the stream of a `(scenario, seed)` pair is byte-identical run
//! over run.  Wall-time measurements go to the separate timing channel
//! ([`crate::TraceHandle::record_timing`]), which is explicitly outside the
//! determinism contract.

use std::fmt::Write as _;

/// Schema tag of the trace stream; the first line of every trace file is
/// `{"schema": "bvc-trace/v1"}`.
pub const SCHEMA: &str = "bvc-trace/v1";

/// Which fast path resolved a Γ query (point selection or membership).
///
/// The first five variants attribute point-selection queries, mirroring the
/// engine's escalation ladder; the remaining variants attribute membership
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GammaPath {
    /// `d = 1` closed-form trimmed interval (point: its midpoint).
    D1ClosedForm,
    /// `f = 0`: the single full-hull LP, no intersection needed.
    HullF0,
    /// The trimmed-box centre probe passed the membership stream.
    ProbeHit,
    /// The active-set LP loop over streamed subset hulls.
    ActiveSetLp,
    /// The naive monolithic joint LP the active set falls back to on
    /// numerical disagreement.
    NaiveFallback,
    /// Membership accepted because the query point equals more than `f`
    /// members of the multiset.
    MultiplicityAccept,
    /// Membership rejected by the per-coordinate trimmed bounding box.
    BoxReject,
    /// Membership decided by streaming subset hulls (short-circuits on the
    /// first refuting hull).
    StreamScan,
}

impl GammaPath {
    /// Stable wire name of the path.
    pub fn as_str(self) -> &'static str {
        match self {
            GammaPath::D1ClosedForm => "d1-closed-form",
            GammaPath::HullF0 => "f0-hull",
            GammaPath::ProbeHit => "probe-hit",
            GammaPath::ActiveSetLp => "active-set-lp",
            GammaPath::NaiveFallback => "naive-fallback",
            GammaPath::MultiplicityAccept => "multiplicity-accept",
            GammaPath::BoxReject => "box-reject",
            GammaPath::StreamScan => "stream-scan",
        }
    }

    /// All variants, in wire order (index = [`Self::index`]).
    pub const ALL: [GammaPath; 8] = [
        GammaPath::D1ClosedForm,
        GammaPath::HullF0,
        GammaPath::ProbeHit,
        GammaPath::ActiveSetLp,
        GammaPath::NaiveFallback,
        GammaPath::MultiplicityAccept,
        GammaPath::BoxReject,
        GammaPath::StreamScan,
    ];

    /// Dense index of the variant (for counter arrays).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("ALL covers every variant")
    }
}

/// Which cache layer answered a Γ query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Served from this cache's own map.
    Local,
    /// Missed locally, served by an ancestor in the parent chain.
    Parent,
    /// Missed every layer; the Γ engine computed it.
    Miss,
}

impl CacheLevel {
    /// All variants, in wire order.
    pub const ALL: [CacheLevel; 3] = [CacheLevel::Local, CacheLevel::Parent, CacheLevel::Miss];

    /// Stable wire name of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheLevel::Local => "local",
            CacheLevel::Parent => "parent",
            CacheLevel::Miss => "miss",
        }
    }
}

/// The query kind of a Γ trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GammaQueryKind {
    /// Deterministic point selection (`find_point`).
    Point,
    /// Relaxed-validity decision point (`decision_point`, non-strict mode).
    Decision,
}

impl GammaQueryKind {
    /// All variants, in wire order.
    pub const ALL: [GammaQueryKind; 2] = [GammaQueryKind::Point, GammaQueryKind::Decision];

    /// Stable wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            GammaQueryKind::Point => "point",
            GammaQueryKind::Decision => "decision",
        }
    }
}

/// One structured trace event.
///
/// `round` is the synchronous round (or the asynchronous executor's delivery
/// step for message events from `AsyncNetwork`, where rounds do not exist);
/// message events identify link endpoints by process index.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run (one consensus instance) starts; names the protocol and shape.
    RunOpen {
        /// Protocol wire name (e.g. `restricted-sync`).
        protocol: String,
        /// Number of processes.
        n: usize,
        /// Fault bound.
        f: usize,
        /// Input dimension.
        d: usize,
    },
    /// Result of the single admission point (`RunConfig::validate`).
    Admission {
        /// Whether the configuration was admitted.
        ok: bool,
        /// Resource-bound detail, or the rejection reason.
        detail: String,
    },
    /// A validity check of a decision value against the honest inputs.
    ValidityCheck {
        /// Whether the check held.
        ok: bool,
        /// Which predicate / value was checked.
        detail: String,
    },
    /// A synchronous round begins.
    RoundOpen {
        /// Round number (1-based, matching the executors).
        round: usize,
    },
    /// A synchronous round ended; `spread` is the L∞ diameter of the honest
    /// process states that opted into state reporting (`None` when fewer
    /// than two processes report).
    RoundClose {
        /// Round number.
        round: usize,
        /// Max per-coordinate spread of reported honest states.
        spread: Option<f64>,
    },
    /// A fault-plan window is active this round.
    FaultWindow {
        /// Round the window covers.
        round: usize,
        /// Fault kind (`drop`, `latency`, `partition`).
        kind: String,
        /// Window parameters.
        detail: String,
    },
    /// A message was handed to the network layer.
    Send {
        /// Round (sync executor) or delivery step (async executors).
        time: usize,
        /// Sender index.
        from: usize,
        /// Recipient index.
        to: usize,
    },
    /// A message reached its recipient.
    Deliver {
        /// Round or delivery step at delivery time.
        time: usize,
        /// Sender index.
        from: usize,
        /// Recipient index.
        to: usize,
    },
    /// A message was dropped by fault injection.
    Drop {
        /// Round or delivery step.
        time: usize,
        /// Sender index.
        from: usize,
        /// Recipient index.
        to: usize,
    },
    /// A message addressed across a missing topology link vanished (counted
    /// as sent, never delivered or dropped).
    Vanish {
        /// Round or delivery step.
        time: usize,
        /// Sender index.
        from: usize,
        /// Recipient index.
        to: usize,
    },
    /// A sender's per-step outgoing batch was canonicalised under the
    /// local-broadcast delivery guarantee: every receiver in `receivers`
    /// observes the same `slots` messages, so per-receiver equivocation is
    /// structurally impossible.  Emitted before per-link faults apply.
    LocalBroadcast {
        /// Round or delivery step of the send.
        time: usize,
        /// Sender index.
        from: usize,
        /// Sorted receiver set of the canonicalised batch.
        receivers: Vec<usize>,
        /// Number of broadcast slots (messages every receiver observes).
        slots: usize,
    },
    /// One Γ query through a [`GammaCache`](../bvc_geometry/struct.GammaCache.html)-style
    /// front end, with outcome attribution.
    Gamma {
        /// Point selection or relaxed decision.
        kind: GammaQueryKind,
        /// Which cache layer answered.
        cache: CacheLevel,
        /// Which engine path computed the value (misses only).
        path: Option<GammaPath>,
        /// Whether the trimmed-box probe was tried and missed before the
        /// answering path ran.
        probe_missed: bool,
        /// Multiset size |Y|.
        len: usize,
        /// Fault bound of the query.
        f: usize,
        /// Dimension of the multiset.
        d: usize,
        /// Whether a point was found (`false`: the region is empty).
        found: bool,
    },
    /// One two-phase simplex solve.
    Simplex {
        /// Constraint rows.
        rows: usize,
        /// Tableau columns (structural + artificial).
        cols: usize,
        /// Pivot count across both phases.
        pivots: u64,
        /// Power-of-two size class of the tableau buffer.
        class: usize,
        /// Whether the tableau buffer was reused from the workspace pool.
        reused: bool,
        /// Solve status wire name (`optimal`, `infeasible`, ...).
        status: String,
    },
    /// A per-instance span opens (service / scenario instance).
    SpanOpen {
        /// Admission sequence number of the instance.
        instance: u64,
        /// Human label (scenario name, protocol, shape).
        label: String,
    },
    /// A per-instance span closes.
    SpanClose {
        /// Admission sequence number of the instance.
        instance: u64,
        /// Whether every waited-for process decided.
        decided: bool,
        /// Whether a verdict check was violated.
        violated: bool,
        /// Rounds (or async steps) the instance took, when known.
        rounds: Option<usize>,
    },
}

/// Appends `s` to `out` escaped for a JSON string literal (no surrounding
/// quotes).  The workspace's one escape table: the scenario verdict writer
/// calls this form so a verdict allocates nothing per string.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escapes a string for a JSON string literal (no surrounding quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

/// Formats an `f64` deterministically for the trace stream: shortest
/// round-trip representation, `null` for non-finite values.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl TraceEvent {
    /// Stable wire name of the event kind (the `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunOpen { .. } => "run_open",
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::ValidityCheck { .. } => "validity_check",
            TraceEvent::RoundOpen { .. } => "round_open",
            TraceEvent::RoundClose { .. } => "round_close",
            TraceEvent::FaultWindow { .. } => "fault_window",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Vanish { .. } => "vanish",
            TraceEvent::LocalBroadcast { .. } => "local_broadcast",
            TraceEvent::Gamma { .. } => "gamma",
            TraceEvent::Simplex { .. } => "simplex",
            TraceEvent::SpanOpen { .. } => "span_open",
            TraceEvent::SpanClose { .. } => "span_close",
        }
    }

    /// Serializes the event as one `bvc-trace/v1` JSON line (no trailing
    /// newline), tagged with its logical position `(slot, seq)`.
    pub fn to_json(&self, slot: u32, seq: u64) -> String {
        let mut out = format!(
            "{{\"ev\": \"{}\", \"slot\": {slot}, \"seq\": {seq}",
            self.kind()
        );
        match self {
            TraceEvent::RunOpen { protocol, n, f, d } => {
                out.push_str(&format!(
                    ", \"protocol\": \"{}\", \"n\": {n}, \"f\": {f}, \"d\": {d}",
                    escape_json(protocol)
                ));
            }
            TraceEvent::Admission { ok, detail } => {
                out.push_str(&format!(
                    ", \"ok\": {ok}, \"detail\": \"{}\"",
                    escape_json(detail)
                ));
            }
            TraceEvent::ValidityCheck { ok, detail } => {
                out.push_str(&format!(
                    ", \"ok\": {ok}, \"detail\": \"{}\"",
                    escape_json(detail)
                ));
            }
            TraceEvent::RoundOpen { round } => {
                out.push_str(&format!(", \"round\": {round}"));
            }
            TraceEvent::RoundClose { round, spread } => {
                let spread = match spread {
                    Some(v) => fmt_f64(*v),
                    None => "null".to_string(),
                };
                out.push_str(&format!(", \"round\": {round}, \"spread\": {spread}"));
            }
            TraceEvent::FaultWindow {
                round,
                kind,
                detail,
            } => {
                out.push_str(&format!(
                    ", \"round\": {round}, \"kind\": \"{}\", \"detail\": \"{}\"",
                    escape_json(kind),
                    escape_json(detail)
                ));
            }
            TraceEvent::Send { time, from, to }
            | TraceEvent::Deliver { time, from, to }
            | TraceEvent::Drop { time, from, to }
            | TraceEvent::Vanish { time, from, to } => {
                out.push_str(&format!(
                    ", \"time\": {time}, \"from\": {from}, \"to\": {to}"
                ));
            }
            TraceEvent::LocalBroadcast {
                time,
                from,
                receivers,
                slots,
            } => {
                // Flat-line schema: the receiver set is one comma-joined
                // string field, not a JSON array (the v1 parser is
                // deliberately flat — see `json::parse_flat`).
                let receivers = receivers
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!(
                    ", \"time\": {time}, \"from\": {from}, \
                     \"receivers\": \"{receivers}\", \"slots\": {slots}"
                ));
            }
            TraceEvent::Gamma {
                kind,
                cache,
                path,
                probe_missed,
                len,
                f,
                d,
                found,
            } => {
                let path = match path {
                    Some(p) => format!("\"{}\"", p.as_str()),
                    None => "null".to_string(),
                };
                out.push_str(&format!(
                    ", \"kind\": \"{}\", \"cache\": \"{}\", \"path\": {path}, \
                     \"probe_missed\": {probe_missed}, \"len\": {len}, \"f\": {f}, \
                     \"d\": {d}, \"found\": {found}",
                    kind.as_str(),
                    cache.as_str()
                ));
            }
            TraceEvent::Simplex {
                rows,
                cols,
                pivots,
                class,
                reused,
                status,
            } => {
                out.push_str(&format!(
                    ", \"rows\": {rows}, \"cols\": {cols}, \"pivots\": {pivots}, \
                     \"class\": {class}, \"reused\": {reused}, \"status\": \"{}\"",
                    escape_json(status)
                ));
            }
            TraceEvent::SpanOpen { instance, label } => {
                out.push_str(&format!(
                    ", \"instance\": {instance}, \"label\": \"{}\"",
                    escape_json(label)
                ));
            }
            TraceEvent::SpanClose {
                instance,
                decided,
                violated,
                rounds,
            } => {
                let rounds = match rounds {
                    Some(r) => r.to_string(),
                    None => "null".to_string(),
                };
                out.push_str(&format!(
                    ", \"instance\": {instance}, \"decided\": {decided}, \
                     \"violated\": {violated}, \"rounds\": {rounds}"
                ));
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_flat_stable_json() {
        let ev = TraceEvent::Gamma {
            kind: GammaQueryKind::Point,
            cache: CacheLevel::Miss,
            path: Some(GammaPath::ProbeHit),
            probe_missed: false,
            len: 9,
            f: 2,
            d: 2,
            found: true,
        };
        assert_eq!(
            ev.to_json(0, 7),
            "{\"ev\": \"gamma\", \"slot\": 0, \"seq\": 7, \"kind\": \"point\", \
             \"cache\": \"miss\", \"path\": \"probe-hit\", \"probe_missed\": false, \
             \"len\": 9, \"f\": 2, \"d\": 2, \"found\": true}"
        );
    }

    #[test]
    fn local_broadcast_serializes_receiver_set() {
        let ev = TraceEvent::LocalBroadcast {
            time: 2,
            from: 1,
            receivers: vec![0, 2, 3],
            slots: 1,
        };
        assert_eq!(
            ev.to_json(1, 4),
            "{\"ev\": \"local_broadcast\", \"slot\": 1, \"seq\": 4, \"time\": 2, \
             \"from\": 1, \"receivers\": \"0,2,3\", \"slots\": 1}"
        );
    }

    #[test]
    fn spread_none_serializes_as_null() {
        let ev = TraceEvent::RoundClose {
            round: 3,
            spread: None,
        };
        assert!(ev.to_json(0, 0).contains("\"spread\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        let ev = TraceEvent::Admission {
            ok: false,
            detail: "bad \"quote\"\nline".into(),
        };
        assert!(ev.to_json(0, 0).contains("bad \\\"quote\\\"\\nline"));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn path_indices_are_dense_and_stable() {
        for (i, p) in GammaPath::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
