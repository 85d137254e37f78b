//! A minimal TOML-subset parser for scenario files.
//!
//! The build environment has no crates.io access, so scenario files are read
//! with this small hand-rolled parser instead of the `toml` crate.  The
//! supported subset is exactly what the scenario schema needs:
//!
//! * `#` comments, blank lines;
//! * `[table]` and dotted `[table.subtable]` headers;
//! * `[[array-of-tables]]` headers;
//! * `key = value` pairs with bare keys;
//! * values: basic `"strings"` (with `\" \\ \n \t` escapes), integers,
//!   floats, booleans, and (possibly nested, possibly multi-line) arrays,
//!   at most [`MAX_DEPTH`] deep.
//!
//! Inline tables, literal strings, dates and dotted keys on the left-hand
//! side are intentionally out of scope and produce a parse error.

use bvc_trace::json::MAX_DEPTH;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    String(String),
    /// An integer.
    Integer(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Boolean(bool),
    /// An array of values.
    Array(Vec<TomlValue>),
    /// A table (sorted by key for deterministic iteration).
    Table(BTreeMap<String, TomlValue>),
}

impl TomlValue {
    /// The table contents, if this is a table.
    pub fn as_table(&self) -> Option<&BTreeMap<String, TomlValue>> {
        match self {
            TomlValue::Table(map) => Some(map),
            _ => None,
        }
    }

    /// The array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            TomlValue::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            TomlValue::Float(x) => Some(*x),
            TomlValue::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure with its (1-based) line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TOML parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TomlError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        message: message.into(),
    })
}

/// Strips a `#` comment that is outside any string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Net `[`/`]` balance outside strings, used to join multi-line arrays.
fn bracket_balance(text: &str) -> i64 {
    let mut balance = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => balance += 1,
            ']' if !in_string => balance -= 1,
            _ => {}
        }
        escaped = false;
    }
    balance
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// Returns a [`TomlError`] naming the offending line for any construct
/// outside the supported subset.
pub fn parse(text: &str) -> Result<BTreeMap<String, TomlValue>, TomlError> {
    let mut root: BTreeMap<String, TomlValue> = BTreeMap::new();
    let mut current_path: Vec<String> = Vec::new();

    let mut lines = text.lines().enumerate().peekable();
    while let Some((index, raw)) = lines.next() {
        let line_no = index + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }

        if let Some(header) = line.strip_prefix("[[") {
            let Some(name) = header.strip_suffix("]]") else {
                return err(line_no, "unterminated [[array-of-tables]] header");
            };
            let path = parse_key_path(name.trim(), line_no)?;
            open_array_table(&mut root, &path, line_no)?;
            current_path = path;
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(name) = header.strip_suffix(']') else {
                return err(line_no, "unterminated [table] header");
            };
            let path = parse_key_path(name.trim(), line_no)?;
            let table = navigate(&mut root, &path, line_no)?;
            let _ = table;
            current_path = path;
            continue;
        }

        let Some(eq) = line.find('=') else {
            return err(line_no, format!("expected `key = value`, got `{line}`"));
        };
        let key = line[..eq].trim();
        if key.is_empty() || !is_bare_key(key) {
            return err(
                line_no,
                format!("unsupported key `{key}` (bare keys only: A-Z a-z 0-9 _ -)"),
            );
        }
        // Join continuation lines while an array is unterminated.
        let mut value_text = line[eq + 1..].trim().to_string();
        while bracket_balance(&value_text) > 0 {
            let Some((_, next_raw)) = lines.next() else {
                return err(line_no, "unterminated array");
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next_raw).trim());
        }
        let mut cursor = Cursor::new(&value_text, line_no);
        let value = cursor.parse_value(0)?;
        cursor.skip_whitespace();
        if !cursor.at_end() {
            return err(
                line_no,
                format!("trailing characters after value: `{}`", cursor.rest()),
            );
        }

        let table = navigate(&mut root, &current_path, line_no)?;
        if table.insert(key.to_string(), value).is_some() {
            return err(line_no, format!("duplicate key `{key}`"));
        }
    }
    Ok(root)
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_key_path(name: &str, line_no: usize) -> Result<Vec<String>, TomlError> {
    let parts: Vec<String> = name.split('.').map(|p| p.trim().to_string()).collect();
    if parts.iter().any(|p| !is_bare_key(p)) {
        return err(line_no, format!("unsupported table name `{name}`"));
    }
    Ok(parts)
}

/// Walks (creating as needed) to the table at `path`; a path segment that is
/// an array-of-tables resolves to its last element, per TOML semantics.
fn navigate<'a>(
    root: &'a mut BTreeMap<String, TomlValue>,
    path: &[String],
    line_no: usize,
) -> Result<&'a mut BTreeMap<String, TomlValue>, TomlError> {
    let mut table = root;
    for segment in path {
        let entry = table
            .entry(segment.clone())
            .or_insert_with(|| TomlValue::Table(BTreeMap::new()));
        table = match entry {
            TomlValue::Table(map) => map,
            TomlValue::Array(items) => match items.last_mut() {
                Some(TomlValue::Table(map)) => map,
                _ => return err(line_no, format!("`{segment}` is not a table")),
            },
            _ => return err(line_no, format!("`{segment}` is not a table")),
        };
    }
    Ok(table)
}

fn open_array_table(
    root: &mut BTreeMap<String, TomlValue>,
    path: &[String],
    line_no: usize,
) -> Result<(), TomlError> {
    let (last, parents) = path.split_last().ok_or(TomlError {
        line: line_no,
        message: "empty [[array-of-tables]] name".into(),
    })?;
    let parent = navigate(root, parents, line_no)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| TomlValue::Array(Vec::new()));
    match entry {
        TomlValue::Array(items) => {
            items.push(TomlValue::Table(BTreeMap::new()));
            Ok(())
        }
        _ => err(line_no, format!("`{last}` is not an array of tables")),
    }
}

struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line_no: usize,
    _text: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line_no: usize) -> Self {
        Self {
            chars: text.chars().collect(),
            pos: 0,
            line_no,
            _text: text,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn rest(&self) -> String {
        self.chars[self.pos.min(self.chars.len())..]
            .iter()
            .collect()
    }

    /// `depth` is the number of arrays enclosing the value.  Arrays nest at
    /// most [`MAX_DEPTH`] deep: the parser recurses per level, so a long run
    /// of `[` would otherwise overflow the stack and abort the process.
    fn parse_value(&mut self, depth: usize) -> Result<TomlValue, TomlError> {
        self.skip_whitespace();
        match self.peek() {
            Some('"') => self.parse_string(),
            Some('[') if depth == MAX_DEPTH => err(
                self.line_no,
                format!("arrays nested deeper than {MAX_DEPTH}"),
            ),
            Some('[') => self.parse_array(depth + 1),
            Some('{') => err(self.line_no, "inline tables are not supported"),
            Some(c) if c == 't' || c == 'f' => self.parse_bool(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                self.parse_number()
            }
            Some(c) => err(self.line_no, format!("unexpected character `{c}` in value")),
            None => err(self.line_no, "missing value"),
        }
    }

    fn parse_string(&mut self) -> Result<TomlValue, TomlError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(TomlValue::String(out)),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(other) => {
                        return err(self.line_no, format!("unsupported escape `\\{other}`"))
                    }
                    None => return err(self.line_no, "unterminated string"),
                },
                Some(c) => out.push(c),
                None => return err(self.line_no, "unterminated string"),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<TomlValue, TomlError> {
        self.bump(); // opening bracket
        let mut items = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(']') => {
                    self.bump();
                    return Ok(TomlValue::Array(items));
                }
                None => return err(self.line_no, "unterminated array"),
                _ => {}
            }
            items.push(self.parse_value(depth)?);
            self.skip_whitespace();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                Some(c) => {
                    return err(
                        self.line_no,
                        format!("expected `,` or `]` in array, got `{c}`"),
                    )
                }
                None => return err(self.line_no, "unterminated array"),
            }
        }
    }

    fn parse_bool(&mut self) -> Result<TomlValue, TomlError> {
        let word: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_ascii_alphabetic())
            .collect();
        self.pos += word.len();
        match word.as_str() {
            "true" => Ok(TomlValue::Boolean(true)),
            "false" => Ok(TomlValue::Boolean(false)),
            other => err(self.line_no, format!("unexpected value `{other}`")),
        }
    }

    fn parse_number(&mut self) -> Result<TomlValue, TomlError> {
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | '_' | 'e' | 'E') {
                word.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        let cleaned: String = word.chars().filter(|&c| c != '_').collect();
        if cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E') {
            cleaned
                .parse::<f64>()
                .map(TomlValue::Float)
                .or_else(|_| err(self.line_no, format!("invalid float `{word}`")))
        } else {
            cleaned
                .parse::<i64>()
                .map(TomlValue::Integer)
                .or_else(|_| err(self.line_no, format!("invalid integer `{word}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_comments() {
        let doc = r#"
# a scenario
[scenario]
name = "partition-heal"   # trailing comment
n = 5
epsilon = 0.05
sync = true
ratio = -1.5e-2
big = 1_000
"#;
        let root = parse(doc).unwrap();
        let scenario = root["scenario"].as_table().unwrap();
        assert_eq!(scenario["name"].as_str(), Some("partition-heal"));
        assert_eq!(scenario["n"].as_integer(), Some(5));
        assert_eq!(scenario["epsilon"].as_float(), Some(0.05));
        assert_eq!(scenario["sync"].as_bool(), Some(true));
        assert_eq!(scenario["ratio"].as_float(), Some(-0.015));
        assert_eq!(scenario["big"].as_integer(), Some(1000));
    }

    #[test]
    fn parses_arrays_nested_and_multiline() {
        let doc = "
groups = [[0, 1], [2, 3, 4]]
seeds = [
  1, 2, # comment inside
  3,
]
mixed = [\"a\", \"b\"]
";
        let root = parse(doc).unwrap();
        let groups = root["groups"].as_array().unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[1].as_array().unwrap().len(), 3);
        let seeds: Vec<i64> = root["seeds"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_integer().unwrap())
            .collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        assert_eq!(root["mixed"].as_array().unwrap()[0].as_str(), Some("a"));
    }

    #[test]
    fn parses_arrays_of_tables() {
        let doc = r#"
[[faults]]
kind = "drop"
rate = 0.5

[[faults]]
kind = "partition"
"#;
        let root = parse(doc).unwrap();
        let faults = root["faults"].as_array().unwrap();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].as_table().unwrap()["kind"].as_str(), Some("drop"));
        assert_eq!(
            faults[1].as_table().unwrap()["kind"].as_str(),
            Some("partition")
        );
    }

    #[test]
    fn parses_dotted_table_headers() {
        let doc = "
[a.b]
x = 1
";
        let root = parse(doc).unwrap();
        let a = root["a"].as_table().unwrap();
        let b = a["b"].as_table().unwrap();
        assert_eq!(b["x"].as_integer(), Some(1));
    }

    #[test]
    fn string_escapes_and_hash_inside_strings() {
        let root = parse("s = \"a # not a comment \\\"q\\\" \\n\"").unwrap();
        assert_eq!(root["s"].as_str(), Some("a # not a comment \"q\" \n"));
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse("t = { a = 1 }").is_err());
        assert!(parse("bad").is_err());
        assert!(parse("x = [1, 2").is_err());
        assert!(parse("x = 1\nx = 2").is_err());
        assert!(parse("[unclosed").is_err());
        let error = parse("\n\nboom").unwrap_err();
        assert_eq!(error.line, 3);
    }

    #[test]
    fn array_nesting_is_capped() {
        // 400 KB of brackets used to overflow the stack and abort the process.
        let deep = 200_000;
        let doc = format!("name = {}{}", "[".repeat(deep), "]".repeat(deep));
        let error = parse(&doc).unwrap_err();
        assert_eq!(error.message, "arrays nested deeper than 128");
        let error = crate::ScenarioSpec::from_toml(&doc).unwrap_err();
        assert!(error.to_string().contains("nested deeper"), "{error}");
        let deepest = format!("x = {}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok(), "the limit itself parses");
        assert!(parse(&format!("x = [{}]", &deepest[4..])).is_err());
    }
}
