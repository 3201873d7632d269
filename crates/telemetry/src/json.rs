//! A minimal JSON value: build, render, parse.
//!
//! Mirrors the workspace's no-dependency idiom (`origin-trace` hand-rolls
//! its CSV I/O the same way). Only what the telemetry sinks need: objects
//! preserve insertion order, numbers are `f64`, rendering is
//! deterministic, and the parser accepts exactly RFC 8259 documents
//! (sufficient for round-tripping our own output in tests and tools).

use std::fmt;

/// A JSON document node.
///
/// ```
/// use origin_telemetry::JsonValue;
///
/// let doc = JsonValue::Object(vec![
///     ("name".into(), JsonValue::Str("origin".into())),
///     ("cells".into(), JsonValue::Num(24.0)),
/// ]);
/// let text = doc.render();
/// assert_eq!(JsonValue::parse(&text).unwrap(), doc);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved when rendering.
    Object(Vec<(String, JsonValue)>),
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected.
    pub expected: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.offset, self.expected
        )
    }
}

impl std::error::Error for JsonError {}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

/// The deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so a cap keeps hostile input from
/// overflowing the stack; no document this workspace writes comes close.
const MAX_DEPTH: usize = 128;

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field slice, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the document on one line (JSONL-safe: no raw newlines).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document indented for human eyes.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(v) => write_number(out, *v),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Array(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '[',
                    ']',
                    items.len(),
                    |out, i, depth| {
                        items[i].write(out, indent, depth);
                    },
                );
            }
            JsonValue::Object(fields) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    fields.len(),
                    |out, i, depth| {
                        let (key, value) = &fields[i];
                        write_string(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        value.write(out, indent, depth);
                    },
                );
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the failing byte offset when `input` is
    /// not a single valid JSON document (trailing junk included), or
    /// nests arrays and objects more than 128 levels deep.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("end of input"));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// 2^53: below it every integral `f64` is an exact `i64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Renders `v` as a JSON number: integral values below 2^53 in
/// magnitude print as integers (`-0.0` as `0`), other finite values as
/// Rust's shortest round-trip `{}`, and NaN/±∞ as `null`.
pub(crate) fn write_number(out: &mut String, v: f64) {
    use fmt::Write as _;
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < EXACT_INT {
        if v < 0.0 {
            out.push('-');
        }
        write_uint(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `v` — what `write!(out, "{v}")` prints,
/// without the `core::fmt` machinery (the JSONL sink writes about two
/// integers per event).
pub(crate) fn write_uint(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    // Only ASCII digits were written, so the check always passes.
    if let Ok(digits) = std::str::from_utf8(&buf[at..]) {
        out.push_str(digits);
    }
}

/// Whether byte `b` needs an escape inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

pub(crate) fn write_string(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        out.push('"');
        return;
    }
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            expected,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("at most 128 nested arrays or objects"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("a closing '\"'"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("an escape character"));
                    };
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("four hex digits"))?;
                            self.pos += 4;
                            // Surrogate pairs are not reconstructed; the
                            // writer never emits them (it escapes only
                            // control characters).
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("a scalar code point"))?,
                            );
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("valid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("a character"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("a number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_check::{Draw, Rng};

    #[test]
    fn renders_scalars() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::from(true).render(), "true");
        assert_eq!(JsonValue::from(3.0).render(), "3");
        assert_eq!(JsonValue::from(3.5).render(), "3.5");
        assert_eq!(JsonValue::from("hi").render(), "\"hi\"");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        let back = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrips_nested_documents() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::from("run")),
            ("seed".into(), JsonValue::from(77u64)),
            (
                "values".into(),
                JsonValue::Array(vec![
                    JsonValue::from(1u64),
                    JsonValue::from(2.25),
                    JsonValue::Null,
                    JsonValue::from(false),
                ]),
            ),
            ("empty".into(), JsonValue::Object(vec![])),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            assert_eq!(JsonValue::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn single_line_render_has_no_newlines() {
        let doc = JsonValue::Object(vec![("text".into(), JsonValue::from("line1\nline2"))]);
        assert!(!doc.render().contains('\n'));
    }

    #[test]
    fn accessors_narrow_types() {
        let doc = JsonValue::parse(r#"{"a": 7, "b": "x", "c": [1], "d": true, "e": 1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("d").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("e").and_then(JsonValue::as_u64), None);
        assert_eq!(doc.get("e").and_then(JsonValue::as_f64), Some(1.5));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "1 2",
            "\"unterminated",
            "{a: 1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
    }

    /// A hostile document that would overflow the stack of an unbounded
    /// recursive parser is an ordinary error.
    #[test]
    fn a_million_open_brackets_is_an_error_not_an_abort() {
        let hostile = "[".repeat(1_000_000);
        assert!(JsonValue::parse(&hostile).is_err());
        let mixed = "[{\"k\":".repeat(500_000);
        assert!(JsonValue::parse(&mixed).is_err());
    }

    /// The number rule spelled through `core::fmt`: the oracle the
    /// digit writer must match byte for byte.
    fn fmt_number(v: f64) -> String {
        if !v.is_finite() {
            "null".to_owned()
        } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }

    fn written(v: f64) -> String {
        let mut out = String::from("~");
        write_number(&mut out, v);
        out.split_off(1)
    }

    #[test]
    fn write_number_matches_the_fmt_rule_at_the_edges() {
        let exact = 2f64.powi(53);
        let mut edges = vec![
            0.0,
            -0.0,
            exact - 1.0,
            -(exact - 1.0),
            exact,
            -exact,
            exact + 2.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            -0.5,
            0.25,
            0.8,
            498.95,
        ];
        // Every digit-count boundary of the integer path, both signs.
        let mut p = 1.0;
        while p < exact {
            edges.extend([p - 1.0, p, p + 1.0, -p, -(p - 1.0)]);
            p *= 10.0;
        }
        for v in edges {
            assert_eq!(written(v), fmt_number(v), "{v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn write_number_matches_the_fmt_rule_on_random_bits() {
        origin_check::check(256, |rng| {
            for _ in 0..64 {
                // Any bit pattern: mostly non-integral floats, NaNs, ±∞.
                let v = f64::from_bits(rng.u64_in(0..u64::MAX));
                assert_eq!(written(v), fmt_number(v), "{:#x}", v.to_bits());
                // An integer of random magnitude, so the digit path sees
                // every length from 1 to 20 digits.
                let n = rng.u64_in(0..u64::MAX) >> rng.gen_range(0u32..64);
                let v = if rng.coin() { n as f64 } else { -(n as f64) };
                assert_eq!(written(v), fmt_number(v), "{v:e}");
                let mut out = String::new();
                write_uint(&mut out, n);
                assert_eq!(out, n.to_string());
            }
        });
    }

    #[test]
    fn write_uint_covers_the_u64_range() {
        for n in [0, 9, 10, 99, 100, 101, 999, 1000, u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            write_uint(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn parses_numbers_with_exponents() {
        let v = JsonValue::parse("[-1.5e3, 2E-2, 0]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(-1500.0));
        assert_eq!(items[1].as_f64(), Some(0.02));
        assert_eq!(items[2].as_u64(), Some(0));
    }
}
