//! Minimal JSON value model, parser, and writer for the wire protocol.
//!
//! The workspace builds offline with no serialization crate, so the
//! serving protocol carries its own JSON support: a small value
//! enum, a recursive-descent parser with byte-offset error positions, and
//! a deterministic writer (object keys keep insertion order, so encoding
//! the same value always yields the same bytes — the CI smoke job and the
//! protocol property tests rely on that).
//!
//! Integers and floats are distinct variants: request ids and workload
//! seeds are `u64` and must survive a round trip exactly, which `f64`
//! cannot guarantee above 2^53.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, written without a decimal
    /// point (ids, seeds, counters).
    Int(u64),
    /// Any other number (negative, fractional, or exponent-formed).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and used when writing.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`], carrying the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as `u64`, accepting `Int` and integral non-negative
    /// `Float`s.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64` (from either number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError {
                at: p.pos,
                what: "trailing garbage after document",
            });
        }
        Ok(value)
    }

    /// Writes the value as compact JSON.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{}` on f64 is shortest-roundtrip; integral floats
                    // gain a ".0" so they re-parse as Float.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        out.push_str(&format!("{v:.1}"));
                    } else {
                        out.push_str(&v.to_string());
                    }
                } else {
                    // NaN/inf are not JSON; degrade to null rather than
                    // emit an unparsable document.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth cap; hostile inputs must not blow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, what: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", "expected null").map(|()| Json::Null),
            Some(b't') => self
                .literal("true", "expected true")
                .map(|()| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected false")
                .map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.literal("\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at the byte we
                    // just consumed (input is &str, so it is valid UTF-8).
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut simple_int = true;
        if self.peek() == Some(b'-') {
            simple_int = false;
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            simple_int = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            simple_int = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if simple_int {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            at: start,
            what: "unparsable number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("reparse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(u64::MAX),
            Json::Float(-1.5),
            Json::Float(3.0),
            Json::Str("hë\"llo\n\\ \u{1}".to_owned()),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Json::Obj(vec![
            ("a".to_owned(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("b".to_owned(), Json::Obj(vec![])),
            ("τ".to_owned(), Json::Str("δ".to_owned())),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn u64_ids_survive_exactly() {
        let big = u64::MAX - 1;
        let v = roundtrip(&Json::Int(big));
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("é😀".to_owned())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"abc", "{} x", "01x", "-", "1e", "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn deep_nesting_rejected_not_crashed() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }
}
