//! A small JSON value type with parser, serializers, and the [`ToJson`]
//! conversion trait.
//!
//! This replaces `serde_json` for the bench harness's report emission.
//! The design goals, in order: (1) the serializer output is a fixpoint
//! under `parse` (serialize → parse → serialize is byte-identical);
//! (2) object key order is preserved, so reports are stable across
//! runs; (3) numbers that are mathematically integers print without a
//! fractional part, matching what `serde_json::json!` produced for
//! integer literals.
//!
//! Numbers are stored as `f64`. Non-finite values (NaN, ±inf) serialize
//! as `null`, mirroring `serde_json`'s lossy float handling.

use std::fmt;

/// A JSON document: null, boolean, number, string, array, or object.
///
/// Objects are backed by a `Vec` of key/value pairs rather than a map so
/// that insertion order survives serialization — bench reports list
/// their fields in a deliberate order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number; integers are representable exactly up to 2^53.
    Number(f64),
    /// A string value.
    String(String),
    /// An ordered list of values.
    Array(Vec<Json>),
    /// An ordered list of key/value pairs. Duplicate keys are not
    /// rejected; `get` returns the first match.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an empty object; chain [`Json::insert`] to populate it.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair to an object; panics on other variants.
    pub fn insert(mut self, key: &str, value: impl ToJson) -> Json {
        match &mut self {
            Json::Object(pairs) => pairs.push((key.to_string(), value.to_json())),
            other => panic!("Json::insert on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object; `None` on other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline-free
    /// layout, like `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            // Scalars and empty containers render exactly as in compact
            // form.
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact serialization: no whitespace, keys in insertion order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Number(x) => f.write_str(&format_number(*x)),
            Json::String(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, key);
                    f.write_str(&buf)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Renders a number so that whole values within the exact-integer range
/// of f64 print without a fractional part (`3` not `3.0`), and
/// everything else uses Rust's shortest round-trip `Display`. Non-finite
/// values degrade to `null`.
fn format_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x.fract() == 0.0 && x.abs() <= EXACT {
        format!("{}", x as i64)
    } else {
        format!("{x}")
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
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar; input is a &str so
                    // boundaries are valid.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let unit =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0 or a nonzero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans ASCII");
        let x: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        Ok(Json::Number(x))
    }
}

/// Conversion into a [`Json`] value — the derive-free stand-in for
/// `serde::Serialize`. Report structs in `crates/bench` implement this
/// by hand, listing fields in display order.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::String((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

macro_rules! number_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }
    )*};
}

number_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

macro_rules! tuple_to_json {
    ($(($($t:ident / $idx:tt),+))*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
    )*};
}

tuple_to_json! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// A typed field read that failed. The message names the field and
/// what was wrong with it; decoders convert it into their own error
/// type (a checkpoint schema error, a wire protocol error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub String);

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

/// The string at `key` of object `j`.
pub fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, FieldError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| FieldError(format!("missing or non-string field {key:?}")))
}

/// The number at `key` of object `j`.
pub fn get_f64(j: &Json, key: &str) -> Result<f64, FieldError> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| FieldError(format!("missing or non-numeric field {key:?}")))
}

/// The non-negative integer at `key` of object `j`.
pub fn get_usize(j: &Json, key: &str) -> Result<usize, FieldError> {
    let v = get_f64(j, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(FieldError(format!(
            "field {key:?} is not a non-negative integer"
        )));
    }
    Ok(v as usize)
}

/// The boolean at `key` of object `j`.
pub fn get_bool(j: &Json, key: &str) -> Result<bool, FieldError> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| FieldError(format!("missing or non-boolean field {key:?}")))
}

/// The array at `key` of object `j`.
pub fn get_array<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], FieldError> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| FieldError(format!("missing or non-array field {key:?}")))
}

/// A 64-bit integer stored as a hex string at `key` (JSON numbers lose
/// integers above 2^53).
pub fn get_hex_u64(j: &Json, key: &str) -> Result<u64, FieldError> {
    u64::from_str_radix(get_str(j, key)?, 16)
        .map_err(|_| FieldError(format!("field {key:?} is not a 64-bit hex string")))
}

/// A 128-bit integer stored as a hex string at `key`.
pub fn get_hex_u128(j: &Json, key: &str) -> Result<u128, FieldError> {
    u128::from_str_radix(get_str(j, key)?, 16)
        .map_err(|_| FieldError(format!("field {key:?} is not a 128-bit hex string")))
}

#[cfg(test)]
mod tests {
    use super::{Json, ToJson};

    #[test]
    fn field_readers_name_the_field() {
        let j = Json::parse(r#"{"n": 3, "f": 1.5, "s": "ff", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(super::get_usize(&j, "n"), Ok(3));
        assert_eq!(super::get_f64(&j, "f"), Ok(1.5));
        assert_eq!(super::get_str(&j, "s"), Ok("ff"));
        assert_eq!(super::get_hex_u64(&j, "s"), Ok(255));
        assert_eq!(super::get_hex_u128(&j, "s"), Ok(255));
        assert_eq!(super::get_bool(&j, "b"), Ok(true));
        assert_eq!(super::get_array(&j, "a").map(<[Json]>::len), Ok(1));
        let err = |r: Result<(), super::FieldError>| r.unwrap_err().to_string();
        assert_eq!(
            err(super::get_usize(&j, "f").map(drop)),
            "field \"f\" is not a non-negative integer"
        );
        assert_eq!(
            err(super::get_str(&j, "n").map(drop)),
            "missing or non-string field \"n\""
        );
        assert_eq!(
            err(super::get_hex_u64(&j, "b").map(drop)),
            "missing or non-string field \"b\""
        );
        assert_eq!(
            err(super::get_bool(&j, "missing").map(drop)),
            "missing or non-boolean field \"missing\""
        );
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn whole_numbers_print_without_fraction() {
        assert_eq!(Json::Number(3.0).to_string(), "3");
        assert_eq!(Json::Number(-2.0).to_string(), "-2");
        assert_eq!(Json::Number(0.25).to_string(), "0.25");
        // Above 2^53 the float's own Display is used (a long decimal
        // expansion for 1e300 — Rust never emits scientific notation);
        // what matters is that it parses back to the same value.
        let big = Json::Number(1e300).to_string();
        assert_eq!(Json::parse(&big).unwrap(), Json::Number(1e300));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::object()
            .insert("zebra", 1)
            .insert("apple", 2)
            .insert("mango", 3);
        assert_eq!(v.to_string(), r#"{"zebra":1,"apple":2,"mango":3}"#);
    }

    #[test]
    fn get_finds_first_match() {
        let v = Json::object().insert("a", 1).insert("b", 2);
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(2.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\"\\slash\u{1}snowman\u{2603}";
        let v = Json::String(original.to_string());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""\u2603""#).unwrap(),
            Json::String("\u{2603}".to_string())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::String("\u{1f600}".to_string())
        );
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"name":"ecad","tables":[{"id":1,"acc":0.8525},{"id":2,"acc":0.91}],"ok":true,"note":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn pretty_output_reparses_to_same_value() {
        let v = Json::object()
            .insert("rows", vec![1, 2, 3])
            .insert("label", "x")
            .insert("empty_list", Json::Array(vec![]))
            .insert("empty_obj", Json::object());
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"rows\": [\n    1,"));
        assert!(pretty.contains("\"empty_list\": []"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "01", "1.", "1e", "\"unterminated",
            "nul", "true false", "{\"a\" 1}", "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn tojson_primitives() {
        assert_eq!(42u32.to_json().to_string(), "42");
        assert_eq!((-3i64).to_json().to_string(), "-3");
        assert_eq!(0.5f32.to_json().to_string(), "0.5");
        assert_eq!("s".to_json().to_string(), "\"s\"");
        assert_eq!(true.to_json().to_string(), "true");
        assert_eq!(None::<u8>.to_json(), Json::Null);
        assert_eq!(vec![1u8, 2].to_json().to_string(), "[1,2]");
    }
}
