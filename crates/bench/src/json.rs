//! Minimal JSON document model: pretty printing and parsing.
//!
//! The build environment cannot fetch `serde`/`serde_json`, so the benchmark
//! harness carries its own document model for its one serialization need —
//! exporting experiment rows ([`crate::report::to_json`]) and reading them
//! back in tests and tooling. The subset is complete for that purpose:
//! objects, arrays, strings (with escapes), numbers, booleans and null.

use std::fmt;
use std::ops::Index;

/// A JSON value.
///
/// Numbers are stored integer-aware: non-negative integers as [`Value::Uint`]
/// (the paper's cost counters — messages, node updates — are `u64` and can
/// legitimately exceed 2^53, where an `f64` starts dropping low bits),
/// negative integers as [`Value::Int`], and everything else as
/// [`Value::Number`]. The parser mirrors this, so any `u64` round-trips
/// losslessly through the text form. Equality compares numbers numerically
/// across the three variants.
#[derive(Clone, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integral (or out-of-integer-range) JSON number.
    Number(f64),
    /// A non-negative integer, stored exactly.
    Uint(u64),
    /// A negative integer, stored exactly.
    Int(i64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member lookup; returns [`Value::Null`] when absent.
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(members) => {
                members.iter().find_map(|(k, v)| (k == key).then_some(v)).unwrap_or(&NULL)
            }
            _ => &NULL,
        }
    }

    /// Element lookup; returns [`Value::Null`] when out of bounds.
    pub fn at(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (lossy above 2^53 for the
    /// integer variants — use [`Value::as_u64`] / [`Value::as_i64`] for exact
    /// counters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Uint(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            Value::Uint(n) => i64::try_from(*n).ok(),
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    /// Lossless for the full `u64` range (cost counters above 2^53 included).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && n.abs() < 9.0e15 => {
                Some(*n as u64)
            }
            Value::Uint(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Exact cross-variant numeric equality: `Uint(2)`, `Int(…)` holding 2 (never
/// produced, but tolerated) and `Number(2.0)` all compare equal, while
/// counters above 2^53 only ever equal their exact integer twins.
fn numbers_equal(a: &Value, b: &Value) -> bool {
    // A float equals an integer iff it is integral, inside the range where
    // the comparison cast is exact, and cast-equal. 2^63/2^64 themselves are
    // excluded: they are representable as f64 but their casts saturate.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    const TWO_64: f64 = 18_446_744_073_709_551_616.0;
    let float_eq_uint =
        |n: f64, u: u64| n.fract() == 0.0 && (0.0..TWO_64).contains(&n) && n as u64 == u;
    let float_eq_int =
        |n: f64, i: i64| n.fract() == 0.0 && (-TWO_63..TWO_63).contains(&n) && n as i64 == i;
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y,
        (Value::Uint(x), Value::Uint(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Uint(u), Value::Int(i)) | (Value::Int(i), Value::Uint(u)) => {
            u64::try_from(*i).map(|i| i == *u).unwrap_or(false)
        }
        (Value::Number(n), Value::Uint(u)) | (Value::Uint(u), Value::Number(n)) => {
            float_eq_uint(*n, *u)
        }
        (Value::Number(n), Value::Int(i)) | (Value::Int(i), Value::Number(n)) => {
            float_eq_int(*n, *i)
        }
        _ => false,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            (
                a @ (Value::Number(_) | Value::Uint(_) | Value::Int(_)),
                b @ (Value::Number(_) | Value::Uint(_) | Value::Int(_)),
            ) => numbers_equal(a, b),
            _ => false,
        }
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        self.at(index)
    }
}

impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Uint(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Uint(u64::from(n))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Uint(n as u64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        // Canonical form: non-negative integers are always `Uint`, so values
        // built from different integer types still compare with derived-like
        // semantics and serialize identically.
        match u64::try_from(n) {
            Ok(u) => Value::Uint(u),
            Err(_) => Value::Int(n),
        }
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builder sugar for objects: `object([("k", v.into()), …])`.
pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn escape_into(out: &mut String, s: &str) {
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

fn write_number(out: &mut String, n: f64) {
    // JSON has no representation for non-finite numbers; emit null rather
    // than an `inf`/`NaN` token no parser would accept (approximation ratios
    // are INFINITY when the lower bound of a degenerate instance is 0).
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_value_scalar(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::Uint(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(_) | Value::Object(_) => unreachable!("containers handled by write_pretty"),
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner_pad = "  ".repeat(indent + 1);
    match value {
        Value::Null
        | Value::Bool(_)
        | Value::Number(_)
        | Value::Uint(_)
        | Value::Int(_)
        | Value::String(_) => write_value_scalar(out, value),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner_pad);
                write_pretty(out, item, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(members) if members.is_empty() => out.push_str("{}"),
        Value::Object(members) => {
            out.push_str("{\n");
            for (i, (k, v)) in members.iter().enumerate() {
                out.push_str(&inner_pad);
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, v, indent + 1);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string_pretty(self))
    }
}

/// Pretty-prints `value` with two-space indentation (the `serde_json` layout).
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    out
}

/// Parses a JSON document.
// lint:allow(dead-pub): the CLI test suites parse the reports the binaries
// print through it; the binaries themselves only write JSON.
pub fn from_str(input: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn parse_literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut integral = true;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                integral &= matches!(b, b'-' | b'0'..=b'9');
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        // Integer tokens are kept exact (a `u64` cost counter above 2^53
        // would lose low bits through an f64); fractional/exponent tokens and
        // integers too large for 64 bits fall back to f64.
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Uint(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::from(i));
            }
        }
        text.parse::<f64>().map(Value::Number).map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Advance over the raw (unescaped) run first so multi-byte UTF-8
            // passes through untouched.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.peek() {
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("loop exits only on quote or backslash"),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = object([
            ("name", "Δ-stepping".into()),
            ("rounds", 900u64.into()),
            ("ratio", 1.25.into()),
            ("tags", vec!["a", "b"].into()),
            ("nested", object([("ok", Value::Bool(true)), ("none", Value::Null)])),
        ]);
        let text = to_string_pretty(&doc);
        let parsed = from_str(&text).expect("parses its own output");
        assert_eq!(parsed, doc);
        assert_eq!(parsed["name"], "Δ-stepping");
        assert_eq!(parsed["rounds"], 900i64);
        assert_eq!(parsed["ratio"], 1.25f64);
        assert_eq!(parsed["tags"][1], "b");
        assert_eq!(parsed["nested"]["ok"], Value::Bool(true));
    }

    #[test]
    fn large_counters_round_trip_losslessly() {
        // u64 cost counters above 2^53 must survive text round-trips exactly;
        // the old f64-backed storage returned u64::MAX as 18446744073709551616.
        let counters =
            [u64::MAX, u64::MAX - 1, (1u64 << 53) + 1, 1u64 << 53, 9_007_199_254_740_993];
        for &c in &counters {
            let doc = object([("work", c.into())]);
            let parsed = from_str(&to_string_pretty(&doc)).unwrap();
            assert_eq!(parsed["work"].as_u64(), Some(c), "counter {c}");
            assert_eq!(parsed, doc);
        }
        let text = to_string_pretty(&object([("work", u64::MAX.into())]));
        assert!(text.contains("18446744073709551615"), "{text}");
    }

    #[test]
    fn negative_integers_round_trip_exactly() {
        for &i in &[i64::MIN, i64::MIN + 1, -1i64, -(1i64 << 53) - 1] {
            let doc = object([("v", i.into())]);
            let parsed = from_str(&to_string_pretty(&doc)).unwrap();
            assert_eq!(parsed["v"].as_i64(), Some(i), "value {i}");
            assert_eq!(parsed, doc);
        }
    }

    #[test]
    fn numeric_equality_spans_variants() {
        assert_eq!(Value::Uint(2), Value::Number(2.0));
        assert_eq!(Value::Number(-3.0), Value::from(-3i64));
        assert_ne!(Value::Uint(u64::MAX), Value::Number(u64::MAX as f64));
        assert_ne!(Value::Uint(2), Value::Number(2.5));
        assert_ne!(Value::Uint(0), Value::Null);
        // 2^63 and 2^64 are exactly representable as f64 but their integer
        // casts saturate; they must not alias the saturated values.
        assert_ne!(Value::Number(9_223_372_036_854_775_808.0f64 * 2.0), Value::Uint(u64::MAX));
        assert_ne!(Value::Number(-9_223_372_036_854_775_808.0f64 * 2.0), Value::Int(i64::MIN));
    }

    #[test]
    fn integer_typed_comparisons() {
        let doc = object([("big", u64::MAX.into()), ("neg", (-7i64).into())]);
        assert_eq!(doc["big"], u64::MAX);
        assert_eq!(doc["neg"], -7i64);
        assert_eq!(doc["big"].as_i64(), None);
        assert_eq!(doc["neg"].as_u64(), None);
    }

    #[test]
    fn escapes_and_unescapes() {
        let doc = Value::String("line\nquote\" tab\t back\\".to_string());
        let text = to_string_pretty(&doc);
        assert_eq!(from_str(&text).unwrap(), doc);
    }

    #[test]
    fn missing_members_index_as_null() {
        let doc = object([("a", 1u64.into())]);
        assert_eq!(doc["b"], Value::Null);
        assert_eq!(doc["a"][0], Value::Null);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let doc = object([
            ("inf", f64::INFINITY.into()),
            ("neg_inf", f64::NEG_INFINITY.into()),
            ("nan", f64::NAN.into()),
        ]);
        let text = to_string_pretty(&doc);
        let parsed = from_str(&text).expect("null placeholders keep the document valid");
        assert_eq!(parsed["inf"], Value::Null);
        assert_eq!(parsed["neg_inf"], Value::Null);
        assert_eq!(parsed["nan"], Value::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("\"unterminated").is_err());
    }
}
