//! The workspace's one JSON value — a deterministic writer and a reader —
//! and the `bvc-trace/v1` schema validator built on it.
//!
//! Verdicts must be **byte-identical** for identical scenario + seed (the
//! determinism property tests pin this), so the writer keeps insertion order,
//! formats floats with Rust's shortest-round-trip `Display`, and maps
//! non-finite floats to `null` (JSON has no `Infinity`).
//!
//! The reader ([`Json::parse`]) serves the analytics side — `campaign-report`
//! over verdict JSONL, `trace-report` over trace lines.  It is a
//! straightforward recursive-descent parser over the JSON grammar (objects
//! keep field order, numbers map back to `Int`/`UInt`/`Float`).  Trace lines
//! are flat objects, so [`parse_flat`] is that reader plus three conditions,
//! which doubles as a schema guard for `trace-report --check`.

use std::fmt::Write as _;

use crate::event::{escape_json_into, CacheLevel, GammaPath, GammaQueryKind};
use std::collections::BTreeMap;

/// A JSON value being assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (64-bit seeds exceed `i64`).
    UInt(u64),
    /// A float (`null` when not finite).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object preserving insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends a field to an object (panics if `self` is not an object —
    /// builder misuse, not input-dependent).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::field called on a non-object"),
        }
        self
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let mut s = String::new();
                    let _ = write!(s, "{x}");
                    // Keep round floats visibly floats ("1" → "1.0").
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A quoted string literal, escaped by the workspace's one escape table.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_json_into(out, s);
    out.push('"');
}

impl Json {
    /// Parses one JSON value from `text` (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers widen), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer
    /// (however it was spelt: `3`, `3.0` and `3e0` are one JSON number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            Json::Float(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", byte as char))
    }
}

/// Containers may nest this deep (verdict lines nest 3).  The parser
/// recurses per level and reads files from outside the program, so without a
/// bound a long run of `[` overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// `depth` is the number of containers enclosing the value at `pos`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-ascii \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multibyte sequences pass through).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let c = rest.chars().next().expect("non-empty by the guard above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

/// Serialises compactly on a single line (`to_string()` comes with it);
/// identical values always produce identical bytes.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Self {
        Json::Int(i as i64)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Self {
        Json::UInt(i)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Parses one trace line: a JSON object whose values are all scalars (the
/// schema is deliberately flat) and whose keys are distinct.
pub fn parse_flat(line: &str) -> Result<BTreeMap<String, Json>, String> {
    let Json::Object(fields) = Json::parse(line)? else {
        return Err("a trace line is one JSON object".into());
    };
    let mut map = BTreeMap::new();
    for (key, value) in fields {
        if matches!(value, Json::Array(_) | Json::Object(_)) {
            return Err(format!("`{key}`: nested values are not part of the schema"));
        }
        if map.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
    }
    Ok(map)
}

/// Required fields (beyond `ev`/`slot`/`seq`) per event kind, with a type
/// letter: `u` unsigned int, `n` number-or-null, `b` bool, `s` string, `U`
/// unsigned-int-or-null, `r` comma-separated process indices, and the wire
/// names of an enum — `k` a [`GammaQueryKind`], `c` a [`CacheLevel`], `p` a
/// [`GammaPath`] or null.
const EVENT_FIELDS: &[(&str, &[(&str, char)])] = &[
    (
        "run_open",
        &[("protocol", 's'), ("n", 'u'), ("f", 'u'), ("d", 'u')],
    ),
    ("admission", &[("ok", 'b'), ("detail", 's')]),
    ("validity_check", &[("ok", 'b'), ("detail", 's')]),
    ("round_open", &[("round", 'u')]),
    ("round_close", &[("round", 'u'), ("spread", 'n')]),
    (
        "fault_window",
        &[("round", 'u'), ("kind", 's'), ("detail", 's')],
    ),
    ("send", &[("time", 'u'), ("from", 'u'), ("to", 'u')]),
    ("deliver", &[("time", 'u'), ("from", 'u'), ("to", 'u')]),
    ("drop", &[("time", 'u'), ("from", 'u'), ("to", 'u')]),
    ("vanish", &[("time", 'u'), ("from", 'u'), ("to", 'u')]),
    (
        "local_broadcast",
        &[
            ("time", 'u'),
            ("from", 'u'),
            ("receivers", 'r'),
            ("slots", 'u'),
        ],
    ),
    (
        "gamma",
        &[
            ("kind", 'k'),
            ("cache", 'c'),
            ("path", 'p'),
            ("probe_missed", 'b'),
            ("len", 'u'),
            ("f", 'u'),
            ("d", 'u'),
            ("found", 'b'),
        ],
    ),
    (
        "simplex",
        &[
            ("rows", 'u'),
            ("cols", 'u'),
            ("pivots", 'u'),
            ("class", 'u'),
            ("reused", 'b'),
            ("status", 's'),
        ],
    ),
    ("span_open", &[("instance", 'u'), ("label", 's')]),
    (
        "span_close",
        &[
            ("instance", 'u'),
            ("decided", 'b'),
            ("violated", 'b'),
            ("rounds", 'U'),
        ],
    ),
];

fn type_ok(value: &Json, ty: char) -> bool {
    // A wire name some variant's own `as_str` writes.
    fn named<T: Copy>(value: &Json, all: &[T], as_str: fn(T) -> &'static str) -> bool {
        value
            .as_str()
            .is_some_and(|name| all.iter().any(|&v| as_str(v) == name))
    }
    match ty {
        'u' => value.as_u64().is_some(),
        'n' => *value == Json::Null || value.as_f64().is_some(),
        'b' => value.as_bool().is_some(),
        's' => value.as_str().is_some(),
        'U' => *value == Json::Null || value.as_u64().is_some(),
        'r' => value.as_str().is_some_and(|list| {
            list.split(',')
                .all(|index| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
        }),
        'k' => named(value, &GammaQueryKind::ALL, GammaQueryKind::as_str),
        'c' => named(value, &CacheLevel::ALL, CacheLevel::as_str),
        'p' => *value == Json::Null || named(value, &GammaPath::ALL, GammaPath::as_str),
        _ => unreachable!("unknown type letter"),
    }
}

/// Validates a full trace document (header + event lines) against the
/// `bvc-trace/v1` schema.  Returns the number of event lines.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based).
pub fn check_trace(text: &str) -> Result<usize, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err("empty trace: missing schema header".into());
    };
    let header = parse_flat(header).map_err(|e| format!("line 1: {e}"))?;
    match header.get("schema").and_then(Json::as_str) {
        Some(schema) if schema == crate::event::SCHEMA => {}
        Some(other) => return Err(format!("line 1: unknown schema `{other}`")),
        None => return Err("line 1: missing `schema` field".into()),
    }
    let mut count = 0usize;
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.is_empty() {
            return Err(format!("line {lineno}: empty line"));
        }
        let fields = parse_flat(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ev = fields
            .get("ev")
            .and_then(Json::as_str)
            .ok_or(format!("line {lineno}: missing `ev`"))?;
        let spec = EVENT_FIELDS
            .iter()
            .find(|(kind, _)| *kind == ev)
            .ok_or(format!("line {lineno}: unknown event kind `{ev}`"))?;
        // A slot is a `u32` (`TraceEvent::to_json`), a seq a `u64`.
        for (key, max) in [("slot", u64::from(u32::MAX)), ("seq", u64::MAX)] {
            if fields
                .get(key)
                .and_then(Json::as_u64)
                .filter(|&v| v <= max)
                .is_none()
            {
                return Err(format!("line {lineno}: missing or out-of-range `{key}`"));
            }
        }
        for (field, ty) in spec.1 {
            match fields.get(*field) {
                Some(value) if type_ok(value, *ty) => {}
                Some(_) => {
                    return Err(format!(
                        "line {lineno}: field `{field}` of `{ev}` has the wrong type or value"
                    ))
                }
                None => return Err(format!("line {lineno}: `{ev}` is missing field `{field}`")),
            }
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheLevel, GammaPath, GammaQueryKind, TraceEvent};
    use crate::tracer::render_trace;

    #[test]
    fn objects_keep_insertion_order() {
        let json = Json::object()
            .field("b", 1usize)
            .field("a", "x")
            .field("c", true);
        assert_eq!(json.to_string(), r#"{"b": 1, "a": "x", "c": true}"#);
    }

    #[test]
    fn floats_round_trip_and_infinities_are_null() {
        assert_eq!(Json::Float(0.05).to_string(), "0.05");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(1.0).to_string(), "1.0");
        assert_eq!(Json::Float(-2.0).to_string(), "-2.0");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).to_string(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn u64_seeds_above_i64_max_survive() {
        assert_eq!(
            Json::from(u64::MAX).to_string(),
            u64::MAX.to_string(),
            "seeds must round-trip so recorded verdicts stay replayable"
        );
    }

    #[test]
    fn arrays_nest() {
        let json = Json::Array(vec![Json::Int(1), Json::Array(vec![Json::Null])]);
        assert_eq!(json.to_string(), "[1, [null]]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let json = Json::object()
            .field("name", "a \"quoted\" name\n")
            .field("count", 3usize)
            .field("rate", 0.25)
            .field("seed", u64::MAX)
            .field("ok", true)
            .field("missing", Json::Null)
            .field("items", Json::Array(vec![Json::Int(-1), Json::Float(2.5)]));
        let text = json.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, json);
        assert_eq!(parsed.to_string(), text, "byte-identical round trip");
    }

    #[test]
    fn parser_accessors_navigate_objects() {
        let parsed =
            Json::parse(r#"{"verdict": {"agreement": true}, "faults": ["drop"]}"#).unwrap();
        let verdict = parsed.get("verdict").unwrap();
        assert_eq!(verdict.get("agreement").and_then(Json::as_bool), Some(true));
        let faults = parsed.get("faults").and_then(Json::as_array).unwrap();
        assert_eq!(faults[0].as_str(), Some("drop"));
        assert!(parsed.get("absent").is_none());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must not parse");
        }
        // 100 KB of openers used to overflow the stack and abort the process.
        for opener in ["[", "{\"a\":"] {
            let error = Json::parse(&opener.repeat(100_000)).unwrap_err();
            let at = opener.len() * MAX_DEPTH;
            assert_eq!(error, format!("nesting deeper than 128 at byte {at}"));
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok(), "the limit itself parses");
        assert!(Json::parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn parser_handles_unicode_escapes_and_numbers() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn parse_flat_round_trips_an_event() {
        let ev = TraceEvent::Simplex {
            rows: 4,
            cols: 12,
            pivots: 7,
            class: 6,
            reused: true,
            status: "optimal".into(),
        };
        let map = parse_flat(&ev.to_json(0, 3)).unwrap();
        assert_eq!(map.get("ev").unwrap().as_str(), Some("simplex"));
        assert_eq!(map.get("pivots").unwrap().as_u64(), Some(7));
        assert_eq!(map.get("reused").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn check_trace_accepts_generated_events() {
        let events = [
            TraceEvent::RunOpen {
                protocol: "restricted-sync".into(),
                n: 9,
                f: 2,
                d: 2,
            },
            TraceEvent::RoundOpen { round: 1 },
            TraceEvent::Gamma {
                kind: GammaQueryKind::Point,
                cache: CacheLevel::Miss,
                path: Some(GammaPath::ActiveSetLp),
                probe_missed: true,
                len: 7,
                f: 2,
                d: 2,
                found: true,
            },
            TraceEvent::LocalBroadcast {
                time: 1,
                from: 0,
                receivers: vec![1, 2],
                slots: 1,
            },
            TraceEvent::RoundClose {
                round: 1,
                spread: None,
            },
        ];
        let lines: Vec<String> = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json(0, i as u64))
            .collect();
        let doc = render_trace(&lines);
        assert_eq!(check_trace(&doc), Ok(5));
    }

    #[test]
    fn check_trace_rejects_missing_header_and_bad_fields() {
        assert!(check_trace("{\"ev\": \"round_open\"}\n").is_err());
        let doc =
            "{\"schema\": \"bvc-trace/v1\"}\n{\"ev\": \"round_open\", \"slot\": 0, \"seq\": 0}\n";
        let err = check_trace(doc).unwrap_err();
        assert!(err.contains("round"), "missing field named: {err}");
    }

    #[test]
    fn nested_json_is_rejected() {
        assert!(parse_flat("{\"a\": {\"b\": 1}}").is_err());
        assert!(parse_flat("{\"a\": [1]}").is_err());
    }

    #[test]
    fn check_trace_rejects_nested_values_duplicate_keys_and_non_objects() {
        let header = "{\"schema\": \"bvc-trace/v1\"}\n";
        let good = "{\"ev\": \"round_open\", \"slot\": 0, \"seq\": 0, \"round\": 1}\n";
        assert_eq!(check_trace(&format!("{header}{good}")), Ok(1));
        for (bad, why) in [
            (good.replace("\"round\": 1", "\"round\": [1]"), "nested"),
            (
                good.replace("\"round\": 1", "\"round\": {\"at\": 1}"),
                "nested",
            ),
            (
                good.replace("\"round\": 1", "\"round\": 1, \"seq\": 0"),
                "duplicate key `seq`",
            ),
            ("[1, 2]\n".to_string(), "one JSON object"),
            (good.replace("}\n", "} trailing\n"), "trailing"),
            (good.replace("\"round\": 1", "\"round\": 1.5"), "wrong type"),
            (good.replace("\"round\": 1", "\"round\": -1"), "wrong type"),
            (
                good.replace("\"slot\": 0", "\"slot\": 99999999999"),
                "`slot`",
            ),
            (
                good.replace("\"slot\": 0", "\"slot\": 4294967296"),
                "`slot`",
            ),
        ] {
            let error = check_trace(&format!("{header}{bad}")).unwrap_err();
            assert!(error.starts_with("line 2: "), "{bad:?} gave: {error}");
            assert!(error.contains(why), "{bad:?} gave: {error}");
        }
        // One JSON number however it is spelt: numbers still go through
        // `str::parse`, so every spelling the old reader took still passes.
        for spelling in ["1.0", "+1", "1.", "1e0", "01"] {
            let spelt = good.replace("\"round\": 1", &format!("\"round\": {spelling}"));
            assert_eq!(check_trace(&format!("{header}{spelt}")), Ok(1), "{spelt}");
        }
        for spelling in [".5", "5.", "+5", "null"] {
            let close = format!(
                "{{\"ev\": \"round_close\", \"slot\": 0, \"seq\": 0, \"round\": 1, \
                 \"spread\": {spelling}}}\n"
            );
            assert_eq!(check_trace(&format!("{header}{close}")), Ok(1), "{close}");
        }
        for bad in ["1e", "--1", "0x1", "1_0", "NaN"] {
            let spelt = good.replace("\"round\": 1", &format!("\"round\": {bad}"));
            assert!(check_trace(&format!("{header}{spelt}")).is_err(), "{spelt}");
        }
        let top_slot = good.replace("\"slot\": 0", &format!("\"slot\": {}", u32::MAX));
        assert_eq!(check_trace(&format!("{header}{top_slot}")), Ok(1));
        // Enum-valued and list-valued fields take exactly what an emitter
        // can write: the variants' own wire names, and process indices.
        let gamma = "{\"ev\": \"gamma\", \"slot\": 0, \"seq\": 0, \"kind\": \"point\", \
                     \"cache\": \"miss\", \"path\": \"probe-hit\", \"probe_missed\": false, \
                     \"len\": 9, \"f\": 2, \"d\": 2, \"found\": true}\n";
        let broadcast = "{\"ev\": \"local_broadcast\", \"slot\": 1, \"seq\": 4, \"time\": 2, \
                         \"from\": 1, \"receivers\": \"0,2,3\", \"slots\": 1}\n";
        assert_eq!(check_trace(&format!("{header}{gamma}{broadcast}")), Ok(2));
        let null_path = gamma.replace("\"probe-hit\"", "null");
        assert_eq!(check_trace(&format!("{header}{null_path}")), Ok(1));
        for bad in [
            gamma.replace("\"miss\"", "\"bogus\""),
            gamma.replace("\"probe-hit\"", "\"bogus\""),
            gamma.replace("\"point\"", "\"bogus\""),
            gamma.replace("\"miss\"", "null"),
            broadcast.replace("\"0,2,3\"", "\"a,b\""),
            broadcast.replace("\"0,2,3\"", "\"\""),
            broadcast.replace("\"0,2,3\"", "\"0,,3\""),
            broadcast.replace("\"0,2,3\"", "\"0, 2\""),
            broadcast.replace("\"0,2,3\"", "\"-1\""),
        ] {
            let error = check_trace(&format!("{header}{bad}")).unwrap_err();
            assert!(error.contains("wrong type"), "{bad:?} gave: {error}");
        }
    }

    /// What the full grammar admits beyond a strictly flat one-line reader:
    /// the `\b` / `\f` escapes and CR / LF between tokens.  No emitter
    /// writes either; `--check` tolerates both.
    #[test]
    fn parse_flat_takes_the_full_escape_set_and_line_breaks_between_tokens() {
        let map = parse_flat("{\"detail\": \"\\b\\f\"}").unwrap();
        assert_eq!(map["detail"].as_str(), Some("\u{8}\u{c}"));
        let map = parse_flat("{\"a\":\r1,\n\"b\": 2}").unwrap();
        assert_eq!(map["a"].as_u64(), Some(1));
        assert_eq!(map["b"].as_u64(), Some(2));
        // Nothing else malformed gets through.
        for bad in [
            "{\"a\": \"\\q\"}",
            "{\"a\": 1,}",
            "{a: 1}",
            "{\"a\": 1}\u{b}",
        ] {
            assert!(parse_flat(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
