//! A minimal JSON value type with a recursive-descent parser and a
//! deterministic renderer.
//!
//! The workspace is network-less, so there is no serde; every layer that
//! speaks JSON — the `gdx-server` wire protocol, the observability
//! dumps — would otherwise hand-roll the same ~150 lines. This module is
//! the single shared copy. Three design points keep it honest for all of
//! them:
//!
//! * **Objects preserve insertion order** (`Vec<(String, Json)>`, not a
//!   hash map), so parse → render round-trips are byte-stable and the
//!   renderer never leaks nondeterministic ordering into wire bytes or
//!   committed reports.
//! * **Escapes are supported** (`\" \\ \/ \n \r \t \b \f \uXXXX`): server
//!   clients ship multi-line setting/instance texts inside strings.
//! * **Numbers are `f64`** — plenty for latencies, counters and sizes;
//!   [`Json::render`] prints integers without a trailing `.0` so reports
//!   stay readable.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep their source/insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    /// Field `key` of an object (`None` for other variants or a missing
    /// key; first occurrence wins on duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind a `Number` variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string behind a `String` variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The bool behind a `Bool` variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items behind an `Array` variant.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A non-negative integer field (`None` when absent, not a number,
    /// negative, or fractional) — the common shape of caps and counts.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        let n = self.get(key)?.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// Compact single-line rendering (no added whitespace). Object
    /// fields render in their stored order, so the output is a pure
    /// function of the value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parses `text` as a single JSON value (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any gdx
                            // format; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unsupported escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 encoded char (multi-byte safe).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("malformed number"))
    }
}

/// Builder helpers for the common "object with known fields" shape.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A `Json::String` from anything stringy.
pub fn s(value: impl Into<String>) -> Json {
    Json::String(value.into())
}

/// A `Json::Number` from an unsigned integer.
pub fn n(value: u64) -> Json {
    Json::Number(value as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, -2.5, "x", true, false, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4].as_bool(), Some(false));
        assert_eq!(a[5], Json::Null);
        assert_eq!(v.get("b"), Some(&Json::Object(Vec::new())));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash\u{0001}é";
        let rendered = Json::String(original.to_owned()).render();
        let back = parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(parse(r#""éA""#).unwrap().as_str(), Some("éA"));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate rejected");
        assert!(parse(r#""\uZZZZ""#).is_err());
    }

    #[test]
    fn render_is_stable_and_order_preserving() {
        let v = obj(vec![("z", n(1)), ("a", s("x")), ("m", Json::Bool(true))]);
        assert_eq!(v.render(), r#"{"z":1,"a":"x","m":true}"#);
        let reparsed = parse(&v.render()).unwrap();
        assert_eq!(reparsed.render(), v.render());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(n(1500).render(), "1500");
        assert_eq!(Json::Number(1.25).render(), "1.25");
    }

    #[test]
    fn get_u64_guards_shape() {
        let v = parse(r#"{"ok": 7, "neg": -1, "frac": 1.5, "str": "7"}"#).unwrap();
        assert_eq!(v.get_u64("ok"), Some(7));
        assert_eq!(v.get_u64("neg"), None);
        assert_eq!(v.get_u64("frac"), None);
        assert_eq!(v.get_u64("str"), None);
        assert_eq!(v.get_u64("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "tru", "{\"a\" 1}", "1 2", "{'a': 1}"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
