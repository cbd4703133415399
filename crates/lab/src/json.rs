//! Minimal JSON support for the lab's report records.
//!
//! The build environment is offline, so instead of `serde`/`serde_json`
//! the lab ships its own small JSON tree ([`Value`]), writer and parser.
//! The surface is intentionally tiny: everything the reports need
//! (objects, arrays, strings, numbers, booleans, null), plus indexing
//! sugar mirroring `serde_json::Value` so tests read naturally.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the lab's counters fit exactly).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys, so output is canonical).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object (or [`Value::Null`] if absent/not an object).
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(map) => map.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Element of an array (or [`Value::Null`] if out of range).
    pub fn at(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Serializes without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(x) => write_number(out, *x),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        self.at(index)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Number(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Number(x as f64)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON numbers must be finite, got {x}");
    if x.fract() == 0.0 && x.abs() < 1e15 {
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenient object construction.
#[derive(Default)]
pub struct ObjectBuilder(BTreeMap<String, Value>);

impl ObjectBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one member.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.insert(key.to_string(), value.into());
        self
    }

    /// Adds one member if `value` is `Some`.
    pub fn opt_field(self, key: &str, value: Option<impl Into<Value>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Whether the baseline gate ignores `key`: wall clock and the rates and
/// speedups derived from it, plus the runner-dependent fields.
fn gate_ignores(key: &str) -> bool {
    matches!(key, "wall_ms" | "frontier_regressed" | "peak_rss_kb" | "workers" | "threads")
        || key.ends_with("_per_sec")
        || key.ends_with("speedup")
}

/// The path (`$.cells[3].live`) of the first difference between a
/// committed bench `baseline` and a `fresh` run, or `None` if they agree.
/// Wall-clock and runner-dependent keys are skipped at every depth; a key present on one
/// side only is a difference. `lab gate` and the tier-1 baseline tests
/// share this comparison.
pub fn first_difference(baseline: &Value, fresh: &Value) -> Option<String> {
    fn walk(a: &Value, b: &Value, path: String) -> Option<String> {
        match (a, b) {
            (Value::Object(x), Value::Object(y)) => {
                let keys: std::collections::BTreeSet<&String> =
                    x.keys().chain(y.keys()).filter(|k| !gate_ignores(k)).collect();
                keys.into_iter().find_map(|k| match (x.get(k), y.get(k)) {
                    (Some(u), Some(v)) => walk(u, v, format!("{path}.{k}")),
                    _ => Some(format!("{path}.{k}")),
                })
            }
            (Value::Array(x), Value::Array(y)) => {
                (0..x.len().max(y.len())).find_map(|i| match (x.get(i), y.get(i)) {
                    (Some(u), Some(v)) => walk(u, v, format!("{path}[{i}]")),
                    _ => Some(format!("{path}[{i}]")),
                })
            }
            _ => (a != b).then_some(path),
        }
    }
    walk(baseline, fresh, "$".to_string())
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hi = hex4(self.bytes.get(self.pos + 1..self.pos + 5))?;
                            self.pos += 4;
                            let c = match hi {
                                // High surrogate: a \uDC00–\uDFFF low half
                                // must follow; together they name one
                                // supplementary-plane scalar (RFC 8259 §7).
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                        return Err(format!(
                                            "high surrogate \\u{hi:04x} not followed by a \\u escape"
                                        ));
                                    }
                                    let lo = hex4(self.bytes.get(self.pos + 3..self.pos + 7))?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!(
                                            "high surrogate \\u{hi:04x} followed by \\u{lo:04x}, not a low surrogate"
                                        ));
                                    }
                                    self.pos += 6;
                                    let code = 0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .expect("invariant: a surrogate pair always names a scalar")
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!("lone low surrogate \\u{hi:04x}"))
                                }
                                _ => char::from_u32(hi)
                                    .expect("invariant: non-surrogate BMP code points are scalars"),
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Decodes exactly four hex digits of a `\u` escape. Strict: every byte
/// must be a hex digit (`u32::from_str_radix` alone would accept `+1f3`).
fn hex4(bytes: Option<&[u8]>) -> Result<u32, String> {
    let bytes = bytes.ok_or("truncated \\u escape")?;
    if !bytes.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape {:?}", String::from_utf8_lossy(bytes)));
    }
    let text = std::str::from_utf8(bytes).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = ObjectBuilder::new()
            .field("id", "e1")
            .field("ok", true)
            .field("count", 42u64)
            .field("mean", 1.5f64)
            .field("details", vec!["a", "b\"quoted\""])
            .build();
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn indexing_mirrors_serde_json() {
        let v = parse(r#"[{"id": "e14", "ok": true, "n": 6}]"#).unwrap();
        assert_eq!(v[0]["id"], "e14");
        assert_eq!(v[0]["ok"], true);
        assert_eq!(v[0]["n"].as_u64(), Some(6));
        assert_eq!(v[0]["missing"], Value::Null);
        assert_eq!(v[9]["id"], Value::Null);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Value::String("tab\there \u{1F980} \"q\"".into());
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(r#""A\n""#).unwrap(), Value::String("A\n".into()));
    }

    #[test]
    fn control_characters_roundtrip() {
        // Every C0 control character (the ones JSON must escape).
        let all: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Value::String(all.clone());
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        // Escaped forms parse to the controls too (incl. \b and \f).
        let escaped = concat!('"', "\\u0000", "\\b", "\\f", "\\u001f", '"');
        assert_eq!(parse(escaped).unwrap(), Value::String("\0\u{8}\u{c}\u{1f}".into()));
    }

    #[test]
    fn non_bmp_roundtrips_raw_and_as_surrogate_pair() {
        // Raw (unescaped) supplementary-plane scalars round-trip.
        let v = Value::String("\u{1D49C} \u{1F980} \u{10FFFF}".into());
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        // The escaped surrogate-pair spelling other emitters produce.
        let pair = |hi: &str, lo: &str| format!("\"\\u{hi}\\u{lo}\"");
        assert_eq!(parse(&pair("d835", "dc9c")).unwrap(), Value::String("\u{1D49C}".into()));
        assert_eq!(parse(&pair("d83e", "dd80")).unwrap(), Value::String("\u{1F980}".into()));
        assert_eq!(parse(&pair("dbff", "dfff")).unwrap(), Value::String("\u{10FFFF}".into()));
    }

    #[test]
    fn lone_and_malformed_surrogates_are_rejected() {
        assert!(parse(r#""\ud835""#).is_err()); // lone high
        assert!(parse(r#""\ud835x""#).is_err()); // high not followed by \u
        assert!(parse(r#""\udc9c""#).is_err()); // lone low
        assert!(parse(r#""\ud835\ud835""#).is_err()); // high + high
    }

    #[test]
    fn u_escapes_require_exactly_four_hex_digits() {
        assert!(parse(r#""\u+123""#).is_err()); // from_str_radix would take "+123"
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u12g4""#).is_err());
        let a = concat!('"', "\\u0041", '"');
        assert_eq!(parse(a).unwrap(), Value::String("A".into()));
    }

    #[test]
    fn numbers_integer_and_float() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("-2.5").unwrap().as_f64(), Some(-2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert!(parse("01x").is_err());
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("true false").is_err());
    }

    #[test]
    fn null_and_empty_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
        assert_eq!(Value::Null.to_string_compact(), "null");
    }

    #[test]
    fn gate_names_the_first_difference_and_ignores_wall_clock() {
        let base = parse(r#"{"a": 1, "cells": [{"x": 2, "wall_ms": 3}], "workers": 4}"#).unwrap();
        let same = parse(r#"{"a": 1, "cells": [{"x": 2, "wall_ms": 9}], "workers": 1}"#).unwrap();
        assert_eq!(first_difference(&base, &same), None);
        let moved = parse(r#"{"a": 1, "cells": [{"x": 5, "wall_ms": 3}], "workers": 4}"#).unwrap();
        assert_eq!(first_difference(&base, &moved).as_deref(), Some("$.cells[0].x"));
        let extra = parse(r#"{"a": 1, "b": 0, "cells": [{"x": 2}]}"#).unwrap();
        assert_eq!(first_difference(&base, &extra).as_deref(), Some("$.b"));
        let short = parse(r#"{"a": 1, "cells": []}"#).unwrap();
        assert_eq!(first_difference(&base, &short).as_deref(), Some("$.cells[0]"));
        let rates = parse(r#"{"runs_per_sec": 1, "speedup": 2, "peak_rss_kb": 3}"#).unwrap();
        assert_eq!(first_difference(&rates, &parse("{}").unwrap()), None);
    }
}
