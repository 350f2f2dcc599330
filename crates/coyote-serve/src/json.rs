//! The workspace's JSON reader: the daemon's request bodies, and the test
//! suites that check what the exporters write.
//!
//! The workspace's vendored `serde_json` stand-in is serialize-only, so this
//! is a recursive-descent parser of RFC 8259: objects, arrays, strings with
//! the standard escapes (no raw control bytes; `\u` takes exactly four hex
//! digits), numbers of the form `-?digits(.digits)?([eE][+-]?digits)?`,
//! booleans and null. Depth-limited; no trailing garbage, no duplicate
//! object keys. Decoding is linear in the input size.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with deterministic key order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (RFC 8259); rejects trailing
/// non-whitespace and duplicate object keys.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(text, pos, depth),
        Some(b'[') => parse_array(text, pos, depth),
        Some(b'"') => parse_string(text, pos).map(JsonValue::String),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Advances over one or more ASCII digits.
fn digits(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected a digit at byte {start}"));
    }
    Ok(())
}

/// `-?digits(.digits)?([eE][+-]?digits)?`
fn parse_number(text: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes[*pos] == b'-' {
        *pos += 1;
    }
    digits(bytes, pos)?;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(bytes, pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(bytes, pos)?;
    }
    let number = &text[start..*pos];
    number
        .parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number {number:?} at byte {start}"))
}

/// Decodes a string literal. Runs of ordinary characters are copied as one
/// slice of the input, so each character costs O(1) whatever its width.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0x00..=0x1f) {
            *pos += 1;
        }
        // The run stops at an ASCII byte or the end: both are char boundaries.
        out.push_str(&text[run..*pos]);
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("\\u needs four hex digits at byte {pos}"))?;
                        // Every byte is a hex digit (checked above), so
                        // `to_digit` cannot fail; a lone surrogate has no
                        // `char` and decodes to U+FFFD.
                        let code = hex.iter().fold(0, |code, &h| {
                            code * 16 + (h as char).to_digit(16).unwrap_or(0)
                        });
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => return Err(format!("raw control byte in string at byte {pos}")),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(text, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth + 1)?;
        match map.entry(key) {
            Entry::Occupied(e) => return Err(format!("duplicate key {:?}", e.key())),
            Entry::Vacant(e) => e.insert(value),
        };
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn round_trips_with_the_vendored_serializer() {
        // What our serializer emits, our parser must read back.
        #[derive(serde::Serialize)]
        struct Probe {
            name: String,
            values: Vec<f64>,
            flag: bool,
        }
        let text = serde_json::to_string(&Probe {
            name: "αβ \"quoted\"".to_string(),
            values: vec![1.0, 0.25],
            flag: false,
        })
        .unwrap();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("αβ \"quoted\""));
        assert_eq!(v.get("values").unwrap().as_array().unwrap()[1].as_f64(), Some(0.25));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn accepts_the_rfc_8259_grammar() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\n\u00e9", true, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\né"));
        for (text, n) in [("0", 0.0), ("-0.5", -0.5), ("1E+2", 100.0), ("2e-1", 0.2)] {
            assert_eq!(parse(text).unwrap().as_f64(), Some(n), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "\"unterminated",
            "123 456",
            "{\"a\": 1,}",
            "nul",
            "[1,]",
            "\"\\q\"",
            "01x",
            "{\"a\" 1}",
            "[] []",
            "+1",
            ".5",
            "1.",
            "1e",
            "-",
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\u12G4\"",
            "{\"a\": 1, \"a\": 2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn multi_byte_strings_decode_in_linear_time() {
        // 1 MiB of two-byte characters; a per-character rescan of the
        // remaining input would take minutes here.
        let n = 512 * 1024;
        let body = format!("{{\"a\": \"{}\"}}", "é".repeat(n));
        let start = std::time::Instant::now();
        let v = parse(&body).unwrap();
        let s = v.get("a").unwrap().as_str().unwrap();
        assert_eq!(s.chars().count(), n);
        assert_eq!(s.len(), 2 * n);
        // Generous for debug builds and loaded hosts; release takes ~ms.
        assert!(start.elapsed().as_secs_f64() < 5.0, "{:?}", start.elapsed());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
