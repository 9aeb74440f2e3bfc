//! # serde_json (offline shim)
//!
//! JSON text rendering and parsing over the vendored `serde` facade's
//! [`Value`] tree. Covers what the workspace uses: `to_string`,
//! `to_string_pretty`, and `from_str`, with full string escaping and
//! integer-exact round-trips for 64-bit values.

use serde::{Deserialize, Serialize};

pub use serde::Value;

/// Error raised on malformed JSON text or a shape mismatch while
/// rebuilding a typed value.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn msg(text: impl Into<String>) -> Self {
        Error(text.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize a value to human-readable JSON with two-space indentation.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_str(text)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            write_newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; mirror upstream's lossy `null`.
        out.push_str("null");
        return;
    }
    let rendered = format!("{f}");
    out.push_str(&rendered);
    // Keep a float-looking token so readers see 2.0, not 2.
    if !rendered.contains('.') && !rendered.contains('e') && !rendered.contains('E') {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing data at byte {}", p.pos)));
    }
    Ok(value)
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
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::msg(format!("unterminated array at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
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
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::msg(format!("unterminated object at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(Error::msg("lone high surrogate"));
                                }
                                let second = self.parse_hex4()?;
                                let combined = 0x10000
                                    + ((first - 0xD800) << 10)
                                    + (second.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::msg("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| Error::msg("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape in
                    // one validated slice. Both delimiters are ASCII, so the
                    // run ends on a character boundary of the input `&str`.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::msg("invalid utf-8"))?;
                    out.push_str(text);
                }
                None => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::msg("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::msg("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| Error::msg(format!("invalid unicode escape `{hex}`")))?;
        self.pos = end;
        Ok(v)
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
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Some(digits) = text.strip_prefix('-') {
                if let Ok(i) = text.parse::<i64>() {
                    let _ = digits;
                    return Ok(Value::I64(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Value::Map(vec![
            ("name".into(), Value::Str("mpass \"q\"\n".into())),
            ("hash".into(), Value::U64(u64::MAX - 5)),
            ("delta".into(), Value::I64(-42)),
            ("asr".into(), Value::F64(0.375)),
            ("whole".into(), Value::F64(2.0)),
            ("flags".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("empty_map".into(), Value::Map(vec![])),
        ]);
        for text in [to_string(&value).unwrap(), to_string_pretty(&value).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, value);
        }
    }

    #[test]
    fn pretty_output_is_indented() {
        let value = Value::Map(vec![("k".into(), Value::Seq(vec![Value::U64(1)]))]);
        let text = to_string_pretty(&value).unwrap();
        assert_eq!(text, "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn typed_round_trip() {
        let samples: Vec<(String, f64)> =
            vec![("a".into(), 1.25), ("b".into(), -0.5)];
        let text = to_string_pretty(&samples).unwrap();
        let back: Vec<(String, f64)> = from_str(&text).unwrap();
        assert_eq!(back, samples);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: Value = from_str("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Value::Str("Aé😀".into()));
    }

    #[test]
    fn every_escape_parses_to_its_character() {
        let v: Value =
            from_str(r#""\"\\\/\b\f\n\r\t\u0000\u001f\u00e9\u20ac\ud83d\ude00\udbff\udfff""#)
                .unwrap();
        let want = "\"\\/\u{8}\u{c}\n\r\t\u{0}\u{1f}é€😀\u{10ffff}";
        assert_eq!(v, Value::Str(want.into()));
    }

    #[test]
    fn strings_round_trip_unchanged() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            String::new(),
            controls,
            "quote \" backslash \\ slash / del \u{7f}".to_string(),
            "ascii, é, € and 😀 mixed: aé€😀".to_string(),
            "😀".repeat(3) + "\\\"" + &"é".repeat(3),
        ];
        for s in cases {
            let text = to_string(&Value::Str(s.clone())).unwrap();
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, Value::Str(s));
        }
    }

    #[test]
    fn megabyte_strings_round_trip() {
        // Long escape-free runs with multi-byte characters and sparse
        // escapes; a per-character parse would be quadratic here.
        let mut s = String::new();
        while s.len() < (1 << 20) {
            s.push_str("MZ\u{90}payload-é€😀-");
            s.push_str(&"x".repeat(4093));
            s.push_str("\"\\\n");
        }
        let text = to_string(&Value::Map(vec![("bytes".into(), Value::Str(s.clone()))])).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::Map(vec![("bytes".into(), Value::Str(s))]));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("\"unterminated").is_err());
        assert!(from_str::<Value>("\"bad \\q escape\"").is_err());
        assert!(from_str::<Value>("\"lone \\ud83d\"").is_err());
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }
}
