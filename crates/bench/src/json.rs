//! Write-only JSON: the document model of the `cldiam` report and its pretty
//! printer.
//!
//! The build environment cannot fetch `serde`/`serde_json`, so the report
//! ([`crate::report::to_json`]) is built from this small model: objects,
//! arrays, strings (with escapes), numbers, booleans and null. The CLI only
//! writes JSON; the test suites read reports back with their own parser,
//! `tests/support/json.rs`.

/// A JSON value.
///
/// Non-negative integers are stored as [`Value::Uint`], so they print
/// exactly: the paper's cost counters (messages, node updates) are `u64` and
/// can exceed 2^53, where an `f64` starts dropping low bits.
pub(crate) enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any other number; a non-finite one prints as `null`.
    Number(f64),
    /// A non-negative integer, printed exactly.
    Uint(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members print in insertion order.
    Object(Vec<(&'static str, Value)>),
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

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // JSON has no token for a non-finite number; emit null rather than an
        // `inf`/`NaN` no parser would accept (approximation ratios are
        // INFINITY when a row has no upper bound).
        Value::Number(n) if !n.is_finite() => out.push_str("null"),
        Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
            out.push_str(&(*n as i64).to_string())
        }
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::Uint(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            write_container(out, ('[', ']'), items.iter().map(|item| (None, item)), indent)
        }
        Value::Object(members) => {
            write_container(out, ('{', '}'), members.iter().map(|(k, v)| (Some(*k), v)), indent)
        }
    }
}

/// Writes an array's items (with no key) or an object's members between
/// `open` and `close`, one per line.
fn write_container<'a>(
    out: &mut String,
    (open, close): (char, char),
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
    indent: usize,
) {
    out.push(open);
    if entries.len() == 0 {
        out.push(close);
        return;
    }
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        write_pretty(out, value, indent + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push(close);
}

/// Pretty-prints `value` with two-space indentation (the `serde_json` layout).
pub(crate) fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_reader::{from_str, Value as Parsed};

    /// Prints `value` and parses the text back with the test suites' reader.
    fn round_trip(value: &Value) -> Parsed {
        from_str(&to_string_pretty(value)).expect("parses the printer's output")
    }

    #[test]
    fn round_trips_nested_document() {
        let doc = Value::Object(vec![
            ("name", "Δ-stepping".into()),
            ("rounds", 900u64.into()),
            ("ratio", 1.25.into()),
            ("tags", Value::Array(vec!["a".into(), "b".into()])),
            ("nested", Value::Object(vec![("ok", true.into()), ("none", Value::Null)])),
            ("empty", Value::Array(Vec::new())),
        ]);
        let parsed = round_trip(&doc);
        assert_eq!(parsed.get("name").as_str(), Some("Δ-stepping"));
        assert_eq!(parsed.get("rounds").as_u64(), Some(900));
        assert_eq!(parsed.get("ratio").as_f64(), Some(1.25));
        assert_eq!(parsed.get("tags").at(1).as_str(), Some("b"));
        assert!(matches!(parsed.get("nested").get("ok"), Parsed::Bool));
        assert!(matches!(parsed.get("nested").get("none"), Parsed::Null));
        assert!(matches!(parsed.get("empty"), Parsed::Array(items) if items.is_empty()));
        assert_eq!(
            to_string_pretty(&doc),
            "{\n  \"name\": \"Δ-stepping\",\n  \"rounds\": 900,\n  \"ratio\": 1.25,\n  \
             \"tags\": [\n    \"a\",\n    \"b\"\n  ],\n  \"nested\": {\n    \"ok\": true,\n    \
             \"none\": null\n  },\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn large_counters_round_trip_losslessly() {
        // u64 cost counters above 2^53 must survive text round-trips exactly;
        // an f64-backed store once printed u64::MAX as 18446744073709551616.
        let counters =
            [u64::MAX, u64::MAX - 1, (1u64 << 53) + 1, 1u64 << 53, 9_007_199_254_740_993];
        for &c in &counters {
            let doc = Value::Object(vec![("work", c.into())]);
            assert_eq!(round_trip(&doc).get("work").as_u64(), Some(c), "counter {c}");
        }
        assert_eq!(to_string_pretty(&u64::MAX.into()), "18446744073709551615");
    }

    #[test]
    fn escapes_and_unescapes() {
        let text = "line\nquote\" tab\t back\\ bell\u{7}";
        let printed = to_string_pretty(&text.into());
        assert_eq!(printed, "\"line\\nquote\\\" tab\\t back\\\\ bell\\u0007\"");
        assert_eq!(round_trip(&text.into()).as_str(), Some(text));
    }

    #[test]
    fn missing_members_index_as_null() {
        let parsed = round_trip(&Value::Object(vec![("a", 1u64.into())]));
        assert!(matches!(parsed.get("b"), Parsed::Null));
        assert!(matches!(parsed.get("a").at(0), Parsed::Null));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let doc = Value::Object(vec![
            ("inf", f64::INFINITY.into()),
            ("neg_inf", f64::NEG_INFINITY.into()),
            ("nan", f64::NAN.into()),
            ("whole", 2.0.into()),
        ]);
        let parsed = round_trip(&doc);
        for key in ["inf", "neg_inf", "nan"] {
            assert!(matches!(parsed.get(key), Parsed::Null), "{key}");
        }
        assert_eq!(parsed.get("whole").as_u64(), Some(2), "an integral f64 prints as an integer");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("\"unterminated").is_err());
    }
}
