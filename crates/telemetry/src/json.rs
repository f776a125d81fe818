//! The workspace's JSON: one value type, one writer, one reader.
//!
//! Every exported document — the `BENCH_server.json` report, the STATS
//! document, the flight-recorder dump, the Perfetto trace —
//! is built as a [`Json`] value and rendered by its `Display`, so there is
//! exactly one string-escape routine and one float rule. [`Json::parse`]
//! is the matching reader: the figure bins read reports back through it
//! and scrapers feed it STATS bodies a peer produced, so it is strict
//! (RFC 8259, no extensions), depth-bounded, and returns `Err` on
//! anything malformed — it never panics.
//!
//! The text format is compact (no insignificant whitespace). Numbers come
//! in three kinds so counters survive a round trip exactly: [`Json::UInt`]
//! and [`Json::Int`] print as integers; [`Json::Num`] prints Rust's
//! shortest round-tripping form, which always carries a `.` or an
//! exponent, and a non-finite value prints as `null`.

use std::fmt::{self, Write};

/// Deepest array/object nesting [`Json::parse`] accepts. Emitted
/// documents nest six deep; the bound keeps a hostile peer from
/// overflowing the reader's stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer (use `Json::from(i64)`; the reader yields
    /// [`Json::UInt`] for anything non-negative).
    Int(i64),
    /// A floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

macro_rules! impl_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
impl_from! {
    u32 => |v| Json::UInt(v.into());
    u64 => |v| Json::UInt(v);
    usize => |v| Json::UInt(v as u64);
    i64 => |v| u64::try_from(v).map_or(Json::Int(v), Json::UInt);
    f64 => |v| Json::Num(v);
    bool => |v| Json::Bool(v);
    &str => |v| Json::Str(v.to_string());
}

/// `obj! { "key": value, ... }`: a [`Json::Obj`] with the members in the
/// order written. A value is anything `Json::from` accepts, a nested
/// [`Json`] included.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to a value.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Member `key` of an object (the first, if a peer sent duplicates);
    /// `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follow `path` through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The elements of an array (empty for a non-array).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Any number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Parse one JSON document. Trailing non-whitespace, nesting beyond
    /// [`MAX_DEPTH`], and numbers no `f64` can hold are errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// The one writer: compact text, the float rule, the escape routine.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            // `{:?}` is the shortest text that parses back to the same
            // f64 and always has a `.` or an exponent, so the reader can
            // tell it from an integer.
            Json::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(s, f),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(key, f)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// The one string-escape routine: `"` and `\` escaped, the short forms
/// for `\n` `\r` `\t`, `\u00XX` for every other control character,
/// everything else (including non-ASCII) verbatim.
fn write_str(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Why and where [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the reader stopped at.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume the next byte if it is `byte`.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The text consumed since `start`. Callers stop only on ASCII
    /// bytes, so both ends are char boundaries.
    fn since(&self, start: usize) -> &str {
        self.text.get(start..self.pos).unwrap_or_default()
    }

    /// Consume `literal` or fail with `reason`.
    fn expect(&mut self, literal: &str, reason: &'static str) -> Result<(), JsonError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if !rest.starts_with(literal.as_bytes()) {
            return Err(self.err(reason));
        }
        self.pos += literal.len();
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect("null", "expected null").map(|()| Json::Null),
            Some(b't') => self.expect("true", "expected true").map(|()| true.into()),
            Some(b'f') => self
                .expect("false", "expected false")
                .map(|()| false.into()),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self
                .list(depth, b']', |p| p.value(depth + 1))
                .map(Json::Arr),
            Some(b'{') => self
                .list(depth, b'}', |p| p.member(depth + 1))
                .map(Json::Obj),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated elements of an array or object, from its
    /// opening bracket through `close`.
    fn list<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        let mut elements = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(elements);
        }
        loop {
            elements.push(element(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(elements);
            }
            if !self.eat(b',') {
                return Err(self.err("expected , or the closing bracket"));
            }
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Json), JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(":", "expected : after key")?;
        Ok((key, self.value(depth)?))
    }

    /// Consume a run of ASCII digits, returning how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.err("malformed number"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("digits must follow the decimal point"));
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _signed = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("digits must follow the exponent"));
            }
        }
        let token = self.since(start);
        // Integers beyond 64 bits (and `-0`) fall through to f64.
        if integral && negative {
            if let Some(n) = token.parse::<i64>().ok().filter(|&n| n < 0) {
                return Ok(Json::Int(n));
            }
        } else if integral {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.since(run));
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.err("unterminated string or raw control character"));
            }
            let escape = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            self.expect("\\u", "high surrogate without a low one")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("high surrogate without a low one"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn writes_compact_text_in_insertion_order() {
        let v = Json::obj([
            ("b", Json::from(2u64)),
            ("a", Json::arr([1.5, -0.25])),
            ("s", Json::from("x\"y\\z\n\u{1}é")),
            ("neg", Json::from(-7i64)),
            ("t", Json::from(true)),
            ("n", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"b":2,"a":[1.5,-0.25],"s":"x\"y\\z\n\u0001é","neg":-7,"t":true,"n":null}"#
        );
    }

    #[test]
    fn one_float_rule_and_non_finite_is_null() {
        assert_eq!(Json::Num(1.0).to_string(), "1.0");
        assert_eq!(Json::Num(1.5e-8).to_string(), "1.5e-8");
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::parse("1.0"), Ok(Json::Num(1.0)));
        assert_eq!(Json::parse("1"), Ok(Json::UInt(1)));
        assert_eq!(Json::parse("-1"), Ok(Json::Int(-1)));
        assert_eq!(Json::parse("1E+2"), Ok(Json::Num(100.0)));
        assert_eq!(Json::from(5i64), Json::UInt(5));
        // Integers no 64-bit type holds degrade to f64, not to an error.
        let big = Json::parse("18446744073709551616");
        assert_eq!(big, Ok(Json::Num(18446744073709551616.0)));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj([("rate", Json::Num(v))]).to_string();
            assert_eq!(Json::parse(&doc), Ok(Json::obj([("rate", Json::Null)])));
        }
    }

    #[test]
    fn lookups_navigate_objects_and_arrays() {
        let text = r#" {"a": {"b": [10, "x\u0041\/\b\f\ud83d\ude00", true]}, "a": 0} "#;
        let v = Json::parse(text).unwrap();
        let b = v.at(&["a", "b"]).unwrap().items();
        assert_eq!(b[0].as_u64(), Some(10));
        assert_eq!(b[0].as_f64(), Some(10.0));
        assert_eq!(b[1].as_str(), Some("xA/\u{8}\u{c}😀"));
        assert_eq!(b[2].as_bool(), Some(true));
        assert!(v.at(&["a", "missing"]).is_none());
        assert!(b[0].get("k").is_none() && v.items().is_empty());
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        #[rustfmt::skip]
        let bad = [
            "", " ", "{", "[1,", "[1,]", "[1}", "{\"a\":}", "{\"a\" 1}", "{a:1}", "{\"a\":1,}",
            "nul", "tru", "True", "01", "-", "1.", ".5", "1e", "1e+", "+1", "1e999", "NaN",
            "\"abc", "\"a\\", "\"\\x\"", "\"\\u12\"", "\"\\u12é4\"", "\"\\ud800\"",
            "\"\\ud800\\u0041\"", "\"\\udc00\"", "\"raw\ncontrol\"", "1 2", "[] x", "'single'",
            "{\"a\":1}}",
        ];
        for text in bad {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
        assert_eq!(Json::parse("[1, ?]").unwrap_err().offset, 4);
        // Every truncation of a valid document is rejected too.
        let doc = Json::obj([
            (
                "k",
                Json::arr([Json::from("a\u{1}\"é"), Json::Num(-2.5e-3)]),
            ),
            ("m", Json::obj([("t", Json::from(true))])),
        ])
        .to_string();
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            let prefix = &doc[..cut];
            assert!(Json::parse(prefix).is_err(), "accepted {prefix:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Far past the bound: rejected before the stack is at risk.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    /// Characters that stress the escape routine: every control
    /// character, the two that must be escaped, `/`, plain ASCII, and
    /// non-ASCII up to the astral planes.
    fn hostile_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            Just('"'),
            Just('\\'),
            Just('/'),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0xe000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
        ]
    }

    fn hostile_string() -> impl Strategy<Value = String> {
        vec(hostile_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
    }

    fn json_value(depth: u32) -> BoxedStrategy<Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<u64>().prop_map(Json::UInt),
            any::<i64>().prop_map(Json::from),
            any::<u64>()
                .prop_map(f64::from_bits)
                .prop_filter("finite", |v| v.is_finite())
                .prop_map(Json::Num),
            hostile_string().prop_map(Json::Str),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            leaf,
            vec(json_value(depth - 1), 0..4).prop_map(Json::Arr),
            vec((hostile_string(), json_value(depth - 1)), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn parse_inverts_write(v in json_value(3)) {
            let text = v.to_string();
            prop_assert!(text.bytes().all(|b| b >= 0x20), "raw control byte in {text:?}");
            prop_assert_eq!(Json::parse(&text), Ok(v.clone()));
        }

        #[test]
        fn garbage_and_damaged_documents_never_panic(
            bytes in vec(any::<u8>(), 0..64),
            v in json_value(2),
            at in any::<usize>(),
            c in hostile_char(),
        ) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            let mut chars: Vec<char> = v.to_string().chars().collect();
            let at = at % chars.len();
            chars[at] = c;
            let _ = Json::parse(&chars.into_iter().collect::<String>());
        }
    }
}
