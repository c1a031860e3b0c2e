//! A minimal, dependency-free JSON layer shared by the report schema
//! and the worker pipe protocol.
//!
//! The workspace builds fully offline, so this crate hand-rolls the
//! small slice of JSON it needs instead of pulling `serde_json`:
//!
//! * [`Value`] — an order-preserving document model. Objects keep their
//!   fields in insertion order, so emission is deterministic and
//!   emit → parse → emit is byte-identical;
//! * [`Value::render`] — pretty emission with two-space indentation.
//!   Floats are written with Rust's shortest round-trip formatting,
//!   which is stable under re-parsing (the shortest representation of
//!   the parsed value is the string it was parsed from);
//! * [`Value::render_compact`] — the same document on a single line,
//!   used for the line-delimited supervisor/worker pipe protocol;
//! * [`parse`] — a strict recursive-descent parser reporting byte
//!   offsets on malformed input. It runs in time linear in the input and
//!   rejects nesting deeper than 128 levels, so a hostile line on a pipe
//!   or socket cannot exhaust the stack;
//! * [`req`], [`opt`] and `nullable` — the one set of typed field
//!   readers every canonical-JSON decoder in the workspace uses. The
//!   field's type comes from the caller through `TryFrom<&Value>`, which
//!   this module implements for the scalar, string, array, object and
//!   [`Scale`] shapes the documents carry.
//!
//! Integers and floats are kept distinct: `u64` quantities (checksums,
//! retired-op counts) do not round-trip through `f64`, which would lose
//! precision above 2^53.

use alberta_workloads::Scale;
use std::fmt::{self, Write as _};

/// An order-preserving JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without a decimal point. Covers
    /// the full `u64` range exactly.
    UInt(u64),
    /// Any other number. Always finite: JSON has no NaN or infinities.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64`. Integers convert (with the usual
    /// `u64 as f64` rounding above 2^53 — callers that need exactness
    /// use [`Value::as_u64`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty-renders the document with two-space indentation and a
    /// trailing newline — the canonical serialization every report
    /// artifact uses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the document on a single line with no whitespace — the
    /// framing for the line-delimited worker pipe protocol. String
    /// escaping guarantees the output itself contains no raw newline.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The content fingerprint of this document: [`fingerprint`] over
    /// the compact rendering. Two documents fingerprint identically iff
    /// their canonical serializations are byte-identical, which (because
    /// emission is deterministic) means they are the same document.
    pub fn fingerprint(&self) -> String {
        fingerprint(self.render_compact().as_bytes())
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_string(out, s),
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
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a finite float in Rust's shortest round-trip decimal form.
/// Integral values render without a fractional part (`3` rather than
/// `3.0`), which re-parses as [`Value::UInt`] and re-emits identically.
///
/// # Panics
///
/// Panics on NaN or infinities — the schema layer only admits finite
/// measurements, so a non-finite value here is a bug, not bad input.
fn write_f64(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    let _ = write!(out, "{x}");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed JSON at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem,
/// including arrays and objects nested more than 128 deep.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_whitespace();
    let value = p.value()?;
    p.skip_whitespace();
    if p.pos != p.text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

/// A 128-bit FNV-1a content fingerprint, rendered as 32 lowercase hex
/// characters. Dependency-free and deterministic across platforms; used
/// as the content address of the characterization result cache, where
/// the keyed space is tiny (thousands of configuration documents, not
/// adversarial input), so 128 bits of a well-mixed non-cryptographic
/// hash are collision-safe by a comfortable margin.
pub fn fingerprint(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for byte in bytes {
        hash ^= u128::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:032x}")
}

/// A decode failure: plain text naming the field at fault. A supervisor
/// logs it and redispatches; a document parser wraps it in its own
/// error type.
pub type DecodeError = String;

/// Reads the required field `key` of an object as a `T`.
///
/// # Errors
///
/// A [`DecodeError`] naming `key` when the field is absent or is not a
/// `T`.
pub fn req<'v, T>(value: &'v Value, key: &str) -> Result<T, DecodeError>
where
    T: TryFrom<&'v Value>,
    T::Error: fmt::Display,
{
    let field = value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    convert(field, key)
}

/// Reads the optional field `key`: an absent field is `None`, a present
/// one (`null` included) must be a `T`. Reports omit optional fields.
///
/// # Errors
///
/// A [`DecodeError`] naming `key` when the field is present but is not
/// a `T`.
pub fn opt<'v, T>(value: &'v Value, key: &str) -> Result<Option<T>, DecodeError>
where
    T: TryFrom<&'v Value>,
    T::Error: fmt::Display,
{
    value.get(key).map(|field| convert(field, key)).transpose()
}

/// Reads the nullable field `key`: the field must be present, and
/// `null` is `None`. The worker pipe writes absent values as `null`.
///
/// # Errors
///
/// A [`DecodeError`] naming `key` when the field is absent, or is
/// neither `null` nor a `T`.
pub(crate) fn nullable<'v, T>(value: &'v Value, key: &str) -> Result<Option<T>, DecodeError>
where
    T: TryFrom<&'v Value>,
    T::Error: fmt::Display,
{
    match req::<&Value>(value, key)? {
        Value::Null => Ok(None),
        field => convert(field, key).map(Some),
    }
}

fn convert<'v, T>(field: &'v Value, key: &str) -> Result<T, DecodeError>
where
    T: TryFrom<&'v Value>,
    T::Error: fmt::Display,
{
    T::try_from(field).map_err(|expected| format!("field {key:?} must be {expected}"))
}

// The conversions behind the readers. Each error names the expected
// shape, which the readers prefix with the field name.

impl TryFrom<&Value> for u64 {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        value.as_u64().ok_or("an unsigned integer")
    }
}

impl TryFrom<&Value> for u32 {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        value
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("an unsigned 32-bit integer")
    }
}

impl TryFrom<&Value> for usize {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        value
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("an unsigned integer within usize")
    }
}

impl TryFrom<&Value> for f64 {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        value.as_f64().ok_or("a number")
    }
}

impl TryFrom<&Value> for bool {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err("a boolean"),
        }
    }
}

impl<'v> TryFrom<&'v Value> for &'v str {
    type Error = &'static str;
    fn try_from(value: &'v Value) -> Result<Self, Self::Error> {
        value.as_str().ok_or("a string")
    }
}

impl TryFrom<&Value> for String {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        value.as_str().map(str::to_owned).ok_or("a string")
    }
}

impl<'v> TryFrom<&'v Value> for &'v [Value] {
    type Error = &'static str;
    fn try_from(value: &'v Value) -> Result<Self, Self::Error> {
        value.as_array().ok_or("an array")
    }
}

impl<'v> TryFrom<&'v Value> for &'v [(String, Value)] {
    type Error = &'static str;
    fn try_from(value: &'v Value) -> Result<Self, Self::Error> {
        value.as_object().ok_or("an object")
    }
}

impl TryFrom<&Value> for Scale {
    type Error = &'static str;
    fn try_from(value: &Value) -> Result<Self, Self::Error> {
        value
            .as_str()
            .and_then(Scale::from_name)
            .ok_or("one of test, train, ref")
    }
}

/// Containers nested deeper than this are rejected: the parser recurses
/// once per level. The deepest document the workspace emits, a sweep
/// report, nests nine levels, and a wire message wraps it in one more.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate object key {key:?}")));
            }
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The schema never emits non-BMP text, so
                            // lone surrogates are rejected rather than
                            // paired.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => {
                                    self.pos = start;
                                    return Err(self.error("unsupported \\u surrogate escape"));
                                }
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the run up to the next byte that needs a look
                    // of its own. Those bytes are all ASCII, so `pos`
                    // stays on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .find(|c: char| c == '"' || c == '\\' || c < '\u{20}')
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_fraction_or_exponent = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    saw_fraction_or_exponent = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !saw_fraction_or_exponent && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => {
                self.pos = start;
                Err(self.error(format!("invalid number {text:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let doc = obj(vec![
            ("version", Value::UInt(1)),
            ("pi", Value::Float(std::f64::consts::PI)),
            ("tiny", Value::Float(1e-12)),
            ("big", Value::UInt(u64::MAX)),
            ("name", Value::Str("alberta \"report\"\n".to_owned())),
            ("empty", Value::Array(Vec::new())),
            (
                "runs",
                Value::Array(vec![obj(vec![("ok", Value::Bool(true))]), Value::Null]),
            ),
        ]);
        let first = doc.render();
        let reparsed = parse(&first).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn u64_payloads_round_trip_exactly() {
        let checksum = 0xDEAD_BEEF_CAFE_F00Du64;
        let doc = obj(vec![("checksum", Value::UInt(checksum))]);
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("checksum").unwrap().as_u64(), Some(checksum));
    }

    #[test]
    fn integral_floats_collapse_to_integers_stably() {
        let doc = obj(vec![("cycles", Value::Float(1234.0))]);
        let first = doc.render();
        assert!(first.contains("\"cycles\": 1234"));
        let reparsed = parse(&first).unwrap();
        assert_eq!(reparsed.get("cycles").unwrap().as_f64(), Some(1234.0));
        assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn parser_reports_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn readers_distinguish_absent_null_and_mistyped() {
        let doc = parse(r#"{"n": 7, "z": null, "s": "ref", "big": 4294967296}"#).unwrap();
        assert_eq!(req::<u64>(&doc, "n"), Ok(7));
        assert_eq!(req::<Scale>(&doc, "s"), Ok(Scale::Ref));
        assert!(req::<u64>(&doc, "absent")
            .unwrap_err()
            .contains("\"absent\""));
        assert!(req::<u32>(&doc, "big").unwrap_err().contains("\"big\""));
        assert_eq!(opt::<u64>(&doc, "absent"), Ok(None));
        assert!(
            opt::<u64>(&doc, "z").is_err(),
            "optional fields are omitted, never null"
        );
        assert_eq!(nullable::<u64>(&doc, "z"), Ok(None));
        assert_eq!(nullable::<u64>(&doc, "n"), Ok(Some(7)));
        assert!(
            nullable::<u64>(&doc, "absent").is_err(),
            "nullable fields are present"
        );
    }

    #[test]
    fn numbers_parse_by_shape() {
        assert_eq!(parse("7").unwrap(), Value::UInt(7));
        assert_eq!(parse("-7").unwrap(), Value::Float(-7.0));
        assert_eq!(parse("7.5").unwrap(), Value::Float(7.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert!(parse("1e999").is_err(), "overflow to infinity rejected");
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let doc = obj(vec![
            ("type", Value::Str("result".into())),
            ("id", Value::UInt(3)),
            ("text", Value::Str("line one\nline two".into())),
            ("items", Value::Array(vec![Value::UInt(1), Value::Null])),
            ("empty", Value::Object(Vec::new())),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact form must stay on one line");
        assert_eq!(parse(&line).unwrap(), doc);
        assert_eq!(parse(&line).unwrap().render(), doc.render());
    }

    #[test]
    fn escapes_round_trip() {
        let doc = obj(vec![("s", Value::Str("tab\t quote\" back\\ \u{1}".into()))]);
        let text = doc.render();
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        // FNV-1a reference vectors (the 128-bit variant).
        assert_eq!(fingerprint(b""), "6c62272e07bb014262b821756295c58d");
        let doc = obj(vec![("benchmark", Value::Str("mcf".into()))]);
        assert_eq!(doc.fingerprint(), doc.clone().fingerprint());
        let other = obj(vec![("benchmark", Value::Str("xz".into()))]);
        assert_ne!(doc.fingerprint(), other.fingerprint());
        assert_eq!(doc.fingerprint().len(), 32);
        assert!(doc.fingerprint().bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
