//! Typed trace events and their `bvc-trace/v1` JSONL serialization.
//!
//! Every event carries only *logical* time — a round or delivery step plus
//! the per-slot sequence number the scope assigns at emission — never a wall
//! clock, so the stream of a `(scenario, seed)` pair is byte-identical run
//! over run.  Wall-time measurements go to the separate timing channel
//! ([`crate::TraceHandle::record_timing`]), which is explicitly outside the
//! determinism contract.

use crate::json::{parse_flat, write_string, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the trace stream; the first line of every trace file is
/// `{"schema": "bvc-trace/v1"}`.
pub const SCHEMA: &str = "bvc-trace/v1";

/// Which engine path resolved a Γ point query: the `path` field of its
/// `gamma` event, mirroring the engine's escalation ladder.  Membership
/// tests answer a `bool` and name no path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GammaPath {
    /// `d = 1` closed-form trimmed interval (point: its midpoint).
    D1ClosedForm,
    /// The trimmed-box centre probe passed the membership stream.
    ProbeHit,
    /// `d = 2` or `d = 3` after a probe miss: a point of the depth region
    /// cut out by member-pair lines or member-triple planes (no simplex in
    /// the plane, at most the centre LP in space).
    DepthRegion,
    /// The active-set LP loop over streamed subset hulls.
    ActiveSetLp,
    /// The naive monolithic joint LP the active set falls back to on
    /// numerical disagreement.
    NaiveFallback,
    /// Written by no emitter: kept only because the benchmark of record
    /// names it among the engine paths; it goes with that benchmark's next
    /// change.
    StreamScan,
}

impl GammaPath {
    /// Stable wire name of the path.
    pub fn as_str(self) -> &'static str {
        match self {
            GammaPath::D1ClosedForm => "d1-closed-form",
            GammaPath::ProbeHit => "probe-hit",
            GammaPath::DepthRegion => "depth-region",
            GammaPath::ActiveSetLp => "active-set-lp",
            GammaPath::NaiveFallback => "naive-fallback",
            GammaPath::StreamScan => "stream-scan",
        }
    }

    /// All variants, in wire order.
    pub const ALL: [GammaPath; 6] = [
        GammaPath::D1ClosedForm,
        GammaPath::ProbeHit,
        GammaPath::DepthRegion,
        GammaPath::ActiveSetLp,
        GammaPath::NaiveFallback,
        GammaPath::StreamScan,
    ];
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

/// One field value's `bvc-trace/v1` format, in both directions: the writer
/// ([`TraceEvent::to_json`]) and the reader ([`TraceEvent::from_json`]) go
/// through the same impl, so each format is written once.
trait Wire: Sized {
    /// Appends the value as JSON.
    fn put(&self, out: &mut String);
    /// Reads the value back (`None`: the wrong type, or out of range).
    fn take(value: &Json) -> Option<Self>;
}

/// Non-negative integers, range-checked on the way in (a `slot` is a `u32`).
macro_rules! wire_integer {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn take(value: &Json) -> Option<Self> {
                value.as_u64().and_then(|v| v.try_into().ok())
            }
        }
    )*};
}
wire_integer!(u32, u64, usize);

/// Enums, as the wire name their own `as_str` writes.
macro_rules! wire_name {
    ($($name:ty),*) => {$(
        impl Wire for $name {
            fn put(&self, out: &mut String) {
                write_string(out, self.as_str());
            }

            fn take(value: &Json) -> Option<Self> {
                let name = value.as_str()?;
                Self::ALL.into_iter().find(|v| v.as_str() == name)
            }
        }
    )*};
}
wire_name!(GammaQueryKind, CacheLevel, GammaPath);

impl Wire for String {
    fn put(&self, out: &mut String) {
        write_string(out, self);
    }

    fn take(value: &Json) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn take(value: &Json) -> Option<Self> {
        value.as_bool()
    }
}

/// The shortest round-trip form, and `null` for a non-finite value (JSON
/// has no `Infinity`).
impl Wire for f64 {
    fn put(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }

    fn take(value: &Json) -> Option<Self> {
        value.as_f64()
    }
}

/// `null` for `None`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(value) => value.put(out),
            None => out.push_str("null"),
        }
    }

    fn take(value: &Json) -> Option<Self> {
        match value {
            Json::Null => Some(None),
            value => T::take(value).map(Some),
        }
    }
}

/// The `receivers` set: one string of comma-joined process indices, not a
/// JSON array, so a trace line stays flat (see `json::parse_flat`).
impl Wire for Vec<usize> {
    fn put(&self, out: &mut String) {
        let list: Vec<String> = self.iter().map(usize::to_string).collect();
        write_string(out, &list.join(","));
    }

    fn take(value: &Json) -> Option<Self> {
        let digits = |index: &str| index.bytes().all(|b| b.is_ascii_digit());
        (value.as_str()?.split(','))
            .map(|index| index.parse().ok().filter(|_| digits(index)))
            .collect()
    }
}

/// Appends `, "key": value`.
fn put(out: &mut String, key: &str, value: &impl Wire) {
    let _ = write!(out, ", \"{key}\": ");
    value.put(out);
}

/// Reads field `key` of an `ev` line.
fn take<T: Wire>(fields: &BTreeMap<String, Json>, ev: &str, key: &str) -> Result<T, String> {
    let value = (fields.get(key)).ok_or_else(|| format!("`{ev}` is missing field `{key}`"))?;
    T::take(value).ok_or_else(|| format!("field `{key}` of `{ev}` has the wrong type or value"))
}

/// The `slot` or `seq` of a line, in range for its type.
fn position<T: Wire>(fields: &BTreeMap<String, Json>, key: &str) -> Result<T, String> {
    (fields.get(key).and_then(T::take)).ok_or_else(|| format!("missing or out-of-range `{key}`"))
}

/// The `bvc-trace/v1` schema, written once: each variant's `ev` name and
/// its payload fields in wire order (a field's JSON key is its name).  It
/// expands to [`TraceEvent::kind`], [`TraceEvent::to_json`] and
/// [`TraceEvent::from_json`]; a variant pattern and a struct literal name
/// every field, so a field missing here does not compile.
macro_rules! schema {
    ($($variant:ident = $ev:literal { $($field:ident),* })*) => {
        impl TraceEvent {
            /// Stable wire name of the event kind (the `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $ev,)*
                }
            }

            /// Serializes the event as one `bvc-trace/v1` JSON line (no
            /// trailing newline), tagged with its logical position
            /// `(slot, seq)`.
            pub fn to_json(&self, slot: u32, seq: u64) -> String {
                let mut out = String::from("{\"ev\": ");
                write_string(&mut out, self.kind());
                put(&mut out, "slot", &slot);
                put(&mut out, "seq", &seq);
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(put(&mut out, stringify!($field), $field);)*
                    })*
                }
                out.push('}');
                out
            }

            /// Decodes one `bvc-trace/v1` line back into its `(slot, seq,
            /// event)`: the inverse of [`TraceEvent::to_json`].  Numbers
            /// may be spelt any way JSON allows, and fields the event does
            /// not have are ignored.
            ///
            /// # Errors
            ///
            /// Returns a message naming the first violation: malformed or
            /// nested JSON, a missing or unknown `ev`, an out-of-range
            /// `slot` / `seq`, or a missing or ill-typed payload field.
            pub fn from_json(line: &str) -> Result<(u32, u64, TraceEvent), String> {
                let fields = parse_flat(line)?;
                let ev = fields.get("ev").and_then(Json::as_str).ok_or("missing `ev`")?;
                let (slot, seq) = (position(&fields, "slot")?, position(&fields, "seq")?);
                let event = match ev {
                    $($ev => TraceEvent::$variant {
                        $($field: take(&fields, ev, stringify!($field))?,)*
                    },)*
                    other => return Err(format!("unknown event kind `{other}`")),
                };
                Ok((slot, seq, event))
            }
        }
    };
}

schema! {
    RunOpen = "run_open" { protocol, n, f, d }
    Admission = "admission" { ok, detail }
    ValidityCheck = "validity_check" { ok, detail }
    RoundOpen = "round_open" { round }
    RoundClose = "round_close" { round, spread }
    FaultWindow = "fault_window" { round, kind, detail }
    Send = "send" { time, from, to }
    Deliver = "deliver" { time, from, to }
    Drop = "drop" { time, from, to }
    Vanish = "vanish" { time, from, to }
    LocalBroadcast = "local_broadcast" { time, from, receivers, slots }
    Gamma = "gamma" { kind, cache, path, probe_missed, len, f, d, found }
    Simplex = "simplex" { rows, cols, pivots, class, reused, status }
    SpanOpen = "span_open" { instance, label }
    SpanClose = "span_close" { instance, decided, violated, rounds }
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
    /// One event of every variant, at edge positions and with every value
    /// format's corner: escapes, `null`s, a non-round float.
    #[test]
    fn from_json_inverts_to_json_for_every_variant() {
        let awkward = "tab\t \"quote\" back\\slash \u{1} é\nline".to_string();
        let events = [
            TraceEvent::RunOpen {
                protocol: awkward.clone(),
                n: 9,
                f: 2,
                d: 2,
            },
            TraceEvent::Admission {
                ok: false,
                detail: awkward.clone(),
            },
            TraceEvent::ValidityCheck {
                ok: true,
                detail: String::new(),
            },
            TraceEvent::RoundOpen { round: usize::MAX },
            TraceEvent::RoundClose {
                round: 3,
                spread: None,
            },
            TraceEvent::RoundClose {
                round: 4,
                spread: Some(0.1 + 0.2),
            },
            TraceEvent::RoundClose {
                round: 5,
                spread: Some(1e-300),
            },
            TraceEvent::FaultWindow {
                round: 1,
                kind: "partition".into(),
                detail: awkward.clone(),
            },
            TraceEvent::Send {
                time: 0,
                from: 1,
                to: 2,
            },
            TraceEvent::Deliver {
                time: 1,
                from: 2,
                to: 0,
            },
            TraceEvent::Drop {
                time: 2,
                from: 0,
                to: 1,
            },
            TraceEvent::Vanish {
                time: 3,
                from: 4,
                to: 3,
            },
            TraceEvent::LocalBroadcast {
                time: 2,
                from: 1,
                receivers: vec![7],
                slots: 1,
            },
            TraceEvent::LocalBroadcast {
                time: 2,
                from: 1,
                receivers: vec![0, 2, 3, usize::MAX],
                slots: 2,
            },
            TraceEvent::Gamma {
                kind: GammaQueryKind::Decision,
                cache: CacheLevel::Local,
                path: None,
                probe_missed: false,
                len: 9,
                f: 2,
                d: 2,
                found: false,
            },
            TraceEvent::Simplex {
                rows: 4,
                cols: 12,
                pivots: u64::MAX,
                class: 6,
                reused: true,
                status: awkward.clone(),
            },
            TraceEvent::SpanOpen {
                instance: u64::MAX,
                label: awkward,
            },
            TraceEvent::SpanClose {
                instance: 0,
                decided: true,
                violated: false,
                rounds: None,
            },
            TraceEvent::SpanClose {
                instance: 1,
                decided: false,
                violated: true,
                rounds: Some(17),
            },
        ];
        let gammas = (GammaQueryKind::ALL.iter()).flat_map(|&kind| {
            CacheLevel::ALL.iter().flat_map(move |&cache| {
                (GammaPath::ALL.iter().map(Some).chain([None])).map(move |path| TraceEvent::Gamma {
                    kind,
                    cache,
                    path: path.copied(),
                    probe_missed: true,
                    len: 7,
                    f: 1,
                    d: 3,
                    found: true,
                })
            })
        });
        let positions = [(0, 0), (u32::MAX, u64::MAX), (7, 1 << 53)];
        for (i, event) in events.into_iter().chain(gammas).enumerate() {
            let (slot, seq) = positions[i % positions.len()];
            let line = event.to_json(slot, seq);
            assert_eq!(
                TraceEvent::from_json(&line),
                Ok((slot, seq, event)),
                "{line}"
            );
        }
    }

    #[test]
    fn every_golden_trace_line_decodes_and_re_encodes_to_itself() {
        let golden = include_str!("../../../scenarios/trace/trace_smoke.golden.jsonl");
        let mut lines = golden.lines();
        assert_eq!(lines.next(), Some("{\"schema\": \"bvc-trace/v1\"}"));
        for line in lines {
            let (slot, seq, event) = TraceEvent::from_json(line).unwrap();
            assert_eq!(event.to_json(slot, seq), line);
        }
    }

    #[test]
    fn from_json_names_the_first_violation() {
        let line = TraceEvent::RoundOpen { round: 1 }.to_json(0, 0);
        for (bad, error) in [
            (
                line.replace("\"round\": 1", "\"round\": true"),
                "field `round` of `round_open` has the wrong type or value",
            ),
            (
                line.replace(", \"round\": 1", ""),
                "`round_open` is missing field `round`",
            ),
            (
                line.replace("round_open", "round_opened"),
                "unknown event kind `round_opened`",
            ),
            (line.replace("\"ev\": \"round_open\", ", ""), "missing `ev`"),
            (
                line.replace("\"seq\": 0", "\"seq\": -1"),
                "missing or out-of-range `seq`",
            ),
        ] {
            assert_eq!(TraceEvent::from_json(&bad), Err(error.to_string()), "{bad}");
        }
    }
}
