//! A minimal, dependency-free JSON implementation.
//!
//! The StencilFlow program description format (paper Lst. 1) is plain JSON.
//! This crate provides exactly what the `stencilflow-program` crate needs to
//! read and write that format — a [`Json`] value type, a strict recursive-
//! descent parser, and compact / pretty printers — without pulling in an
//! external serialization stack. Object member order is preserved on parse
//! and emit, so descriptions round-trip stably.

#![forbid(unsafe_code)]

pub mod binary;

pub use binary::{
    decode_grid_set, decode_grid_set_auto, detect, encode_grid_set, Encoding, FrameError, GridFrame,
};

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like ECMA-404 interchange).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; member order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object member list, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Look up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Short type name used in error messages (`"string"`, `"object"`, ...).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => out.push_str(&format_number(*n)),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, idx| {
                    items[idx].write(out, indent, level + 1);
                });
            }
            Json::Object(members) => {
                write_seq(out, indent, level, '{', '}', members.len(), |out, idx| {
                    let (key, value) = &members[idx];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for idx in 0..len {
        if idx > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        item(out, idx);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * level));
    }
    out.push(close);
}

fn format_number(n: f64) -> String {
    if n.is_nan() || n.is_infinite() {
        // JSON has no non-finite numbers; emit null like lenient encoders do.
        return "null".to_string();
    }
    if n == 0.0 && n.is_sign_negative() {
        // `n as i64` would drop the sign; -0.0 must survive a round trip.
        "-0.0".to_string()
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input at which the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte offset {}", self.message, self.position)
    }
}

impl std::error::Error for JsonError {}

/// Parse a JSON document. Trailing non-whitespace input is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    Ok(value)
}

/// Maximum container nesting depth accepted by [`parse`].
///
/// The parser is recursive-descent, so every `[` or `{` consumes stack; a
/// bound turns pathological inputs like `[[[[…` into a normal [`JsonError`]
/// instead of a stack overflow. 128 is far beyond any document this crate's
/// consumers produce.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("expected a JSON value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!(
                "nesting deeper than {MAX_DEPTH} levels is not supported"
            )));
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let combined =
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        // High surrogate followed by a
                                        // non-low-surrogate escape.
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                }
                Some(_) => out.push_str(self.plain_run()?),
            }
        }
    }

    /// The run of a string's bytes up to the next quote or backslash (or
    /// the end of input), consumed: `string` copies it in one piece, so a
    /// string without escapes is one allocation. The input is a `&str` and
    /// both stops are ASCII, so a run is valid UTF-8.
    fn plain_run(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        let bytes: &'a [u8] = self.bytes;
        let len = bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - start);
        self.pos += len;
        std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|_| self.error("invalid UTF-8 in string"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.error("expected four hex digits"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("3.5").unwrap(), Json::Number(3.5));
        assert_eq!(parse("-2e3").unwrap(), Json::Number(-2000.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // Regression: the recursive-descent parser used to recurse once per
        // `[`/`{`, so a few hundred kilobytes of brackets overflowed the
        // stack. Depth is now bounded by MAX_DEPTH.
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"));
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
        // Depth right at the limit still parses.
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::String("a\"b\\c\nd\te\u{1F600}".into());
        let text = original.to_string_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::String("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::String("\u{1F600}".into()));
        // Surrogate pair escapes combine...
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::String("\u{1F600}".into())
        );
        // ...but a high surrogate needs a valid low surrogate after it.
        assert!(parse(r#""\uD834A""#).is_err());
        assert!(parse(r#""\uD834x""#).is_err());
        // Lone low surrogate is invalid too.
        assert!(parse(r#""\uDC00""#).is_err());
    }

    #[test]
    fn negative_zero_round_trips() {
        let v = Json::Number(-0.0);
        let text = v.to_string_compact();
        assert_eq!(text, "-0.0");
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(back, 0.0);
        assert!(back.is_sign_negative());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn pretty_printing_round_trips() {
        let v =
            parse(r#"{"outputs": ["b4"], "shape": [32, 32, 32], "empty": {}, "n": 1.25}"#).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn member_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Number(32.0).to_string_compact(), "32");
        assert_eq!(Json::Number(1.5).to_string_compact(), "1.5");
    }
}
