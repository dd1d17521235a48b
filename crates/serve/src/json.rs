//! A small, dependency-free JSON parser and emitter.
//!
//! The serving protocol is JSON-lines, and the workspace builds fully
//! offline (no serde), so `skild` hand-rolls the little JSON it needs —
//! the same stance the exporters in `skil-runtime` take for output-only
//! JSON. The parser here accepts any standard JSON value (objects,
//! arrays, strings with escapes, numbers, booleans, null) and rejects
//! trailing garbage, which is all a request line may contain.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the protocol only uses small
    /// integers, all exactly representable).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps emission order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// A member of this object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Parse one JSON value from `src`, requiring it to span the whole
/// input (modulo whitespace). Errors carry a byte offset and message.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so an unbounded `[[[[…` would overflow the stack of the thread
/// that reads it; no request `skild` understands nests deeper than three.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// An array or object, one level further in.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("bad \\u escape")?
                            };
                            out.push(ch);
                        }
                        _ => return Err(format!("bad escape '\\{}'", esc as char)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                Some(_) => {
                    // Copy a run of plain bytes (UTF-8 passes through).
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|_| "bad \\u escape")?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Escape `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_escaped(&mut out, s);
    out
}

/// Write `s` escaped as the contents of a JSON string.
pub fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Write `n` the way a [`Json::Num`] prints: integral values below
/// 9e15 without a fraction, everything else as Rust prints an `f64`.
pub fn write_num<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        // integral: digits into a stack buffer, not through `core::fmt`
        let v = n as i64;
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut m = v.unsigned_abs();
        loop {
            at -= 1;
            buf[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if v < 0 {
            at -= 1;
            buf[at] = b'-';
        }
        out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
    } else {
        write!(out, "{n}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => {
                write!(f, "\"")?;
                write_escaped(f, s)?;
                write!(f, "\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"")?;
                    write_escaped(f, k)?;
                    write!(f, "\":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes one JSON object straight into a string, member by member,
/// without building a [`Json`] tree. Members must come in ascending key
/// order — the order a [`Json::Obj`] prints them in — so that both
/// encoders produce the same bytes; debug builds check it.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    last: &'static str,
}

impl<'a> ObjWriter<'a> {
    /// Open an object at the end of `out`.
    pub fn begin(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, last: "" }
    }

    /// Write `"key":` and hand back the string for the value. Keys are
    /// the protocol's own field names: plain ASCII, nothing to escape.
    pub fn value(&mut self, key: &'static str) -> &mut String {
        debug_assert!(self.last < key, "`{key}` after `{}`", self.last);
        debug_assert!(key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        if !self.last.is_empty() {
            self.out.push(',');
        }
        self.last = key;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A number member.
    pub fn num(&mut self, key: &'static str, n: f64) {
        let _ = write_num(self.value(key), n);
    }

    /// A string member.
    pub fn str(&mut self, key: &'static str, s: &str) {
        write_str(self.value(key), s);
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &'static str, b: bool) {
        self.value(key).push_str(if b { "true" } else { "false" });
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Append `s` as a JSON string, quoted and escaped.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let _ = write_escaped(out, s);
    out.push('"');
}

/// Build a `Json::Obj` from key/value pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_print_as_rust_prints_them() {
        let mut cases = vec![0i64, 1, -1, 9_000_000_000_000_000 - 1];
        let mut p = 1i64;
        for _ in 0..16 {
            p *= 10;
            cases.extend([p, p - 1]);
        }
        for i in cases.clone() {
            cases.push(-i);
        }
        for i in cases {
            if (i as f64).abs() >= 9e15 {
                continue; // printed as an f64: not this branch
            }
            let mut out = String::new();
            write_num(&mut out, i as f64).unwrap();
            assert_eq!(out, format!("{i}"));
        }
        let mut out = String::new();
        write_num(&mut out, -0.0).unwrap();
        assert_eq!(out, "0");
    }

    #[test]
    fn roundtrips_the_request_shape() {
        let line = r#"{"id":"r1","program":"void main() { print(1/0); }","mesh":"2x2","engine":"vm","opt_level":2}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(v.get("opt_level").and_then(Json::as_u64), Some(2));
        let emitted = v.to_string();
        assert_eq!(parse(&emitted).unwrap(), v);
    }

    #[test]
    fn escapes_survive_a_roundtrip() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\ slash \u{0001}".to_string());
        let emitted = original.to_string();
        assert_eq!(parse(&emitted).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""A😀""#).unwrap(), Json::Str("A\u{1F600}".to_string()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "\"unterminated", "1 2", "nul", "{\"a\":1}x"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper than 64 levels"), "{err}");
        // unbalanced and far past any stack: an error, not an overflow
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_parse_including_negatives_and_exponents() {
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("2.5e2").unwrap(), Json::Num(250.0));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
