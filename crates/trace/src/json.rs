//! Minimal JSON (de)serialization for records, checkpoints, trace events
//! and run manifests.
//!
//! Hand-rolled because the build environment has no registry access (the
//! DESIGN §7 `serde`/`serde_json` plan needs the network). Scope is exactly
//! what the experiment stack needs: a value tree, a writer with stable key
//! order, and a strict recursive-descent parser. Integers keep full
//! `u64`/`i64` precision (chip seeds do not survive an `f64` round-trip).
//!
//! Grew up in `uvf-characterize` (which still re-exports it as
//! `uvf_characterize::json`); it lives here so the event log, the sweep
//! records and the manifests all serialize with the same byte-stable
//! conventions without a dependency cycle.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers, full 64-bit range (chip seeds live here).
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object: serialization is byte-stable, which lets
    /// the resume tests compare whole records as strings.
    Obj(Vec<(String, Json)>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl Error for JsonError {}

impl Json {
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float form.
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null"); // non-finite has no JSON spelling
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(value)
    }
}

/// Serialization without insignificant whitespace, keys in insertion order
/// — byte-stable, so equal values always render to equal strings.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Save `text` at `path` atomically: write `<path>.tmp`, **fsync it**,
/// then rename it over `path`. Neither a process crash mid-write nor a
/// host crash right after the rename (which could otherwise land before
/// the data blocks) leaves a torn document at `path`. Every checkpoint,
/// record, manifest and bench suite is saved through here.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a hostile document
/// (a frame of 100 000 `[`) overflow the stack; the deepest document the
/// workspace writes (a sweep checkpoint) nests 6 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes. `pos` stays on a char boundary: the parser steps
    /// over single bytes only when they are ASCII, or just before failing.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => self.nested(open),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, open: u8) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = if open == b'[' {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            let cp = self.hex4()?;
                            // Records are ASCII in practice; accept BMP
                            // scalars and reject surrogates outright.
                            match char::from_u32(u32::from(cp)) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("surrogate escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the whole unescaped run up to the next quote or
                    // backslash in one step. Both are ASCII, so the run
                    // ends on a char boundary and slicing `text` is O(1).
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = (v << 4) | digit as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            return text
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad float"));
        }
        if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<i64>()
                .map(|v| Json::Int(-v))
                .map_err(|_| self.err("bad int"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("bad uint"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_u64_precision() {
        let v = Json::obj(vec![
            ("seed", Json::UInt(u64::MAX - 3)),
            ("neg", Json::Int(-42)),
            ("rate", Json::Float(652.125)),
            ("name", Json::Str("vc707 \"quoted\"\n".to_string())),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("levels", Json::Arr(vec![Json::UInt(1000), Json::UInt(990)])),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX - 3));
    }

    #[test]
    fn serialization_is_byte_stable() {
        let v = Json::obj(vec![("b", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(v.to_string(), v.to_string());
        assert_eq!(v.to_string(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        let ok = Json::parse(" { \"a\" : [ 1 , 2.5 , null ] } ").unwrap();
        assert_eq!(ok.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let parsed = Json::parse(r#""aA\n""#).unwrap();
        assert_eq!(parsed.as_str(), Some("aA\n"));
        let hex = Json::parse("\"\\u0041\"").unwrap();
        assert_eq!(hex.as_str(), Some("A"));
        assert!(Json::parse("\"\\ud800\"").is_err(), "surrogates rejected");
        let control = Json::Str("\u{1}".to_string()).to_string();
        assert_eq!(control, "\"\\u0001\"");
        assert_eq!(Json::parse(&control).unwrap().as_str(), Some("\u{1}"));
    }

    #[test]
    fn multibyte_runs_survive_the_run_scan() {
        for s in [
            "µ",
            "日本語",
            "🦀",
            "µs at 540 mV, 日本語 🦀🦀 done",
            "a🦀b",
        ] {
            let text = Json::Str(s.to_string()).to_string();
            assert_eq!(text, format!("\"{s}\""), "multibyte text is written raw");
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn escapes_next_to_multibyte_characters() {
        let s = "日\n本\"語\\🦀\tµ\u{1}é";
        let text = Json::Str(s.to_string()).to_string();
        assert_eq!(text, "\"日\\n本\\\"語\\\\🦀\\tµ\\u0001é\"");
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
        // `\u` escapes between multibyte runs, and a `\/` the writer never
        // emits.
        let parsed = Json::parse(r#""µA日本é🦀\/語""#).unwrap();
        assert_eq!(parsed.as_str(), Some("µA日本é🦀/語"));
        // A run that ends the document is unterminated at its very end,
        // and a lone trailing backslash is a bad escape there too.
        for bad in ["\"日本語", "\"🦀\\", "\"µ\\u00", "\"日\\x\""] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad:?}: {err}");
        }
        assert_eq!(
            Json::parse("\"日本語").unwrap_err().offset,
            "\"日本語".len()
        );
        assert_eq!(Json::parse("\"🦀\\").unwrap_err().msg, "bad escape");
    }

    #[test]
    fn megabyte_string_round_trips() {
        let unit = "540 mV µ 日本語 🦀 \"q\" \\ \n";
        let s = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(s.len() >= 1 << 20);
        let v = Json::obj(vec![("line", Json::Str(s.clone())), ("n", Json::UInt(7))]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("line").and_then(Json::as_str), Some(s.as_str()));
        assert_eq!(back.to_string(), text, "byte-stable");
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deep = |n: usize| open.repeat(n) + "0" + &close.repeat(n);
            assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
            assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
            assert!(Json::parse(&open.repeat(100_000)).is_err());
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
