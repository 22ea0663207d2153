//! Offline stand-in for `serde_json`.
//!
//! Renders the `serde` shim's [`serde::Value`] tree as JSON text. Output is
//! deterministic: map entries keep declaration order and floats use Rust's
//! shortest round-trip formatting.

pub use serde::Value;

use std::fmt;

/// Serialization error. The shim renderer is total, so this is only ever
/// constructed for non-finite floats if strictness is ever added; it exists
/// so call sites written against real serde_json (`Result`-returning API)
/// compile unchanged.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}
impl std::error::Error for Error {}

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

fn escape_into(s: &str, out: &mut String) {
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

fn push_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `{}` prints integral floats without a decimal point; keep the
        // value typed as a float in the JSON text.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
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

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => push_f64(*x, out),
        Value::Str(s) => escape_into(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space
                    }
                }
                newline_indent(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

/// Parse JSON text back into a [`Value`] tree.
///
/// Recursive-descent parser covering exactly the grammar [`to_string`]
/// emits (objects, arrays, strings with the shim's escapes, numbers,
/// booleans, null) — enough for checkpoint files and re-reading our own
/// exports. Numbers parse as `U64` when integral and non-negative,
/// `I64` when integral and negative, `F64` otherwise, matching the
/// renderer's typing.
///
/// Containers nest at most [`MAX_DEPTH`] deep: the text may come from
/// outside the program (a request body, a store file, a worker's frame)
/// and the parser recurses once per level.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(value)
}

/// Deepest container nesting [`from_str`] accepts; the renderer's own
/// output stays under 10 levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_map),
            Some(b'[') => self.nested(Self::parse_seq),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(Error(format!(
                "unexpected byte '{}' at {}",
                b as char, self.pos
            ))),
            None => Err(Error("unexpected end of input".into())),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".into()))?,
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u codepoint".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
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
            .map_err(|_| Error("invalid number".into()))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("cg".into())),
            ("cycles".into(), Value::U64(42)),
            ("rate".into(), Value::F64(1.5)),
            (
                "tags".into(),
                Value::Seq(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"name":"cg","cycles":42,"rate":1.5,"tags":[true,null]}"#
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"name\": \"cg\""));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&Value::F64(2.0)).unwrap(), "2.0");
    }

    #[test]
    fn escapes_control_and_quote_chars() {
        assert_eq!(
            to_string(&Value::Str("a\"b\n".into())).unwrap(),
            r#""a\"b\n""#
        );
    }

    #[test]
    fn from_str_roundtrips_rendered_values() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("cg \"B\"\n".into())),
            ("cycles".into(), Value::U64(u64::MAX)),
            ("delta".into(), Value::I64(-7)),
            ("rate".into(), Value::F64(1.5)),
            ("flag".into(), Value::Bool(false)),
            ("none".into(), Value::Null),
            (
                "grid".into(),
                Value::Seq(vec![Value::Seq(vec![]), Value::Map(vec![])]),
            ),
        ]);
        let compact = from_str(&to_string(&v).unwrap()).unwrap();
        let pretty = from_str(&to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(compact, v);
        assert_eq!(pretty, v);
        // Integral floats keep their float typing through the roundtrip.
        assert_eq!(from_str("2.0").unwrap(), Value::F64(2.0));
        assert_eq!(from_str("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let ok = nest(open, close, MAX_DEPTH).replace(":}", ":0}");
            assert!(from_str(&ok).is_ok(), "{MAX_DEPTH} levels of {open:?} fit");
            let deep = nest(open, close, MAX_DEPTH + 1).replace(":}", ":0}");
            let err = from_str(&deep).expect_err("one level too many");
            assert!(
                err.to_string().contains("nesting deeper than 128 at byte"),
                "{err}"
            );
        }
        // Unclosed and far past the bound: an error, not a stack overflow.
        assert!(from_str(&"[".repeat(200_000)).is_err());
        assert!(from_str(&"{\"a\":".repeat(200_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(from_str(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn from_str_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "truth", "{\"a\" 1}", "1 2"] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }
}
