//! A JSON reader for the tests: parses the reports `cldiam --json` writes
//! back into a document. The CLI itself only writes JSON (`src/json.rs`).
//!
//! The subset is what the reports hold: objects, arrays, strings (with
//! escapes), numbers, booleans and null. Integer tokens that fit a `u64`
//! stay exact, so cost counters above 2^53 read back unchanged.

/// A parsed JSON value.
#[derive(Clone, Debug)]
pub enum Value {
    /// `null`, and what a lookup of a missing member or element returns.
    Null,
    /// `true` or `false`: no test reads which.
    Bool,
    /// A number that is not a `u64`.
    Number(f64),
    /// A non-negative integer, exact over the whole `u64` range.
    Uint(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member lookup; [`Value::Null`] when absent.
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(members) => {
                members.iter().find(|(k, _)| k == key).map_or(&NULL, |(_, v)| v)
            }
            _ => &NULL,
        }
    }

    /// Element lookup; [`Value::Null`] when out of bounds.
    pub fn at(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is one (lossy above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }
}

/// Parses a JSON document.
pub fn from_str(input: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
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
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
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
            Some(b't') => self.parse_literal("true", Value::Bool),
            Some(b'f') => self.parse_literal("false", Value::Bool),
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
        while self.bytes.get(self.pos).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        match text.parse::<u64>() {
            Ok(n) => Ok(Value::Uint(n)),
            Err(_) => {
                text.parse().map(Value::Number).map_err(|e| format!("bad number {text:?}: {e}"))
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run whole, so multi-byte UTF-8 passes through.
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
            );
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let escape = self.bytes.get(self.pos).copied();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex =
                        self.bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32);
                    code.ok_or("bad \\u escape")?
                }
                other => return Err(format!("bad escape {other:?}")),
            });
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
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
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            members.push((key, self.parse_value()?));
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
