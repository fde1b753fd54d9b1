//! Workspace-local stand-in for `serde_json`.
//!
//! Converts between JSON text and the vendored `serde` stand-in's
//! [`Value`] model. Floats are written with Rust's shortest
//! round-trippable `{}` formatting, so `to_string` → `from_str` is
//! lossless for every finite `f64`.

#![forbid(unsafe_code)]

use serde::{de::DeserializeOwned, Serialize};
use std::fmt;

pub use serde::Value;

/// A JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Self::new(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parses a value of type `T` from JSON text.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_value(
    value: &Value,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::UInt(v) => out.push_str(&v.to_string()),
        Value::Float(v) => {
            if !v.is_finite() {
                return Err(Error::new("cannot serialize non-finite float"));
            }
            out.push_str(&v.to_string());
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
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
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
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
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<i32>("-42").unwrap(), -42);
        assert_eq!(from_str::<f64>("0.1").unwrap(), 0.1);
        let x: f64 = from_str(&to_string(&0.30000000000000004f64).unwrap()).unwrap();
        assert_eq!(x, 0.30000000000000004);
    }

    #[test]
    fn collection_roundtrips() {
        let v = vec![(1usize, -2i64), (3, 4)];
        let back: Vec<(usize, i64)> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{1}f 💧".to_owned();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        let surrogate: String = from_str(r#""💧""#).unwrap();
        assert_eq!(surrogate, "💧");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<bool>("true false").is_err());
        assert!(from_str::<Vec<u8>>("[1, 2").is_err());
    }

    #[test]
    fn duration_object_roundtrip() {
        use std::time::Duration;
        let d = Duration::new(3, 500);
        let json = to_string(&d).unwrap();
        assert_eq!(json, r#"{"secs":3,"nanos":500}"#);
        let back: Duration = from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
