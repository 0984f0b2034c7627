//! A minimal, dependency-free JSON reader and string escaper, shared by
//! the wire codec ([`crate::wire`], `saris-serve`'s `net` envelope) and
//! the calibration store ([`CalibrationStore::from_json`]).
//!
//! # The reader first
//!
//! [`Reader`] is the one tokenizer: a pull reader over a `&str` that a
//! decoder drives field by field ([`Reader::begin_object`] /
//! [`Reader::next_key`], [`Reader::begin_array`] /
//! [`Reader::next_element`], then a typed read of the value). It
//! allocates nothing per token: a number comes back as the `&str` slice
//! of the document it occupies, a string as a [`Cow`] that borrows from
//! the document unless it contains an escape, and a value nobody wants
//! is validated and passed over by [`Reader::skip_value`] — or handed
//! on whole, still unparsed, by [`Reader::raw_value`], which is how an
//! envelope gives an embedded document to its decoder whatever the key
//! order. It covers exactly what this workspace's writers emit:
//! objects, arrays, strings (with the standard escapes), numbers,
//! booleans and `null`.
//!
//! Containers nest at most [`MAX_DEPTH`] deep. The documents this
//! workspace writes nest 8 deep at most; the bound is what makes every
//! consumer — [`Reader::skip_value`], the tree builder below, a
//! hand-written decoder — safe to write recursively against input from
//! a socket: a frame of 100,000 `[` is a [`JsonError`], not a stack
//! overflow that takes the process with it.
//!
//! # The tree on top
//!
//! [`parse`] builds the owned [`Value`] tree by driving a [`Reader`],
//! for callers that want random access to a small document (the
//! benchmark harness, tests). Neither the wire decoders nor
//! calibration import build it.
//!
//! # Bit-exact `f64`
//!
//! Numbers are never converted by the reader: they stay their source
//! slices and are parsed on demand, so `f64` values written in Rust's
//! shortest round-trip decimal form (`{v:?}`) survive **bit-for-bit**
//! through Rust's correctly-rounded `str::parse` — the property both
//! the calibration export and the wire codec's bit-identity guarantees
//! rest on.
//!
//! Errors are the module-local [`JsonError`]; callers map it into their
//! own vocabulary at the boundary ([`CodegenError::Calibration`] for
//! calibration documents, [`CodegenError::Wire`] for wire frames).
//!
//! [`CalibrationStore::from_json`]: crate::CalibrationStore::from_json
//! [`CodegenError::Calibration`]: crate::CodegenError::Calibration
//! [`CodegenError::Wire`]: crate::CodegenError::Wire

use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A malformed JSON document (or a value of the wrong shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was malformed.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl Error for JsonError {}

/// Builds a [`JsonError`] from a reason string.
pub fn error(reason: &str) -> JsonError {
    JsonError {
        reason: reason.to_string(),
    }
}

fn parse_f64(n: &str, what: &str) -> Result<f64, JsonError> {
    n.parse()
        .map_err(|_| error(&format!("{what} is not a number")))
}

fn parse_u64(n: &str, what: &str) -> Result<u64, JsonError> {
    n.parse()
        .map_err(|_| error(&format!("{what} is not an unsigned integer")))
}

fn parse_i64(n: &str, what: &str) -> Result<i64, JsonError> {
    n.parse()
        .map_err(|_| error(&format!("{what} is not an integer")))
}

// ---------------------------------------------------------------------------
// The pull reader
// ---------------------------------------------------------------------------

/// How deep objects and arrays may nest before a [`Reader`] refuses the
/// document. The deepest document this workspace writes is a `submit`
/// reply, 8 levels (`ok` → outcome → `reports[]` → report → `cores[]`
/// → core → `streamers[]` → counters).
pub const MAX_DEPTH: usize = 32;

/// What the next value of a document is, from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `{`
    Object,
    /// `[`
    Array,
    /// `"`
    String,
    /// `-` or a digit.
    Number,
    /// `true` or `false`.
    Bool,
    /// `null`.
    Null,
}

/// A pull reader over one JSON document (see the module docs).
///
/// The caller says what it expects and the reader checks it: open a
/// container, ask for its members one at a time until there are none
/// (that is what consumes the separators and the closing bracket, so a
/// container must be drained), and read each member's value with the
/// typed method for it — or [`skip_value`](Reader::skip_value). Every
/// `what` names the value in the error a mismatch produces.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// A container was opened and nothing asked of it yet: its first
    /// member takes no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// The next byte that is not whitespace, not consumed.
    fn peek_byte(&mut self) -> Result<u8, JsonError> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Ok(b);
            }
            self.pos += 1;
        }
        Err(error("unexpected end of JSON"))
    }

    /// The kind of the next value, which stays unread.
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        match self.peek_byte()? {
            b'{' => Ok(Kind::Object),
            b'[' => Ok(Kind::Array),
            b'"' => Ok(Kind::String),
            b'-' | b'0'..=b'9' => Ok(Kind::Number),
            b't' | b'f' => Ok(Kind::Bool),
            b'n' => Ok(Kind::Null),
            other => Err(error(&format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn open(&mut self, bracket: u8, what: &str, noun: &str) -> Result<(), JsonError> {
        if self.peek_byte()? != bracket {
            return Err(error(&format!("{what} is not {noun}")));
        }
        if self.depth == MAX_DEPTH {
            return Err(error(&format!(
                "JSON nests deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps to the next member of the innermost open container, past
    /// the comma before it; `false` (and the container is closed) when
    /// `close` comes instead.
    fn next_member(&mut self, close: u8) -> Result<bool, JsonError> {
        let byte = self.peek_byte()?;
        let first = std::mem::take(&mut self.fresh);
        if byte == close {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !first {
            if byte != b',' {
                return Err(error(&format!(
                    "expected ',' or '{}', got '{}' at byte {}",
                    close as char, byte as char, self.pos
                )));
            }
            self.pos += 1;
        }
        Ok(true)
    }

    /// Opens an object; its members come from [`Reader::next_key`].
    pub fn begin_object(&mut self, what: &str) -> Result<(), JsonError> {
        self.open(b'{', what, "an object")
    }

    /// The next key of the open object, with the reader left at that
    /// key's value; `None` once the object is closed. Keys repeat if the
    /// document repeats them.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.str("object key")?;
        if self.peek_byte()? != b':' {
            return Err(error(&format!("expected ':' at byte {}", self.pos)));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Opens an array; its elements come from [`Reader::next_element`].
    pub fn begin_array(&mut self, what: &str) -> Result<(), JsonError> {
        self.open(b'[', what, "an array")
    }

    /// Whether the open array has another element (the reader is left
    /// at it); `false` once the array is closed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']')
    }

    /// Reads a string: a slice of the document, or an owned copy with
    /// the escapes decoded if it has any.
    pub fn str(&mut self, what: &str) -> Result<Cow<'a, str>, JsonError> {
        if self.peek_byte()? != b'"' {
            return Err(error(&format!("{what} is not a string")));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos + 1;
        // `"` and `\` are ASCII, so wherever the scan stops is a
        // character boundary of the (valid UTF-8) document.
        let plain_run = |from: usize| {
            from + bytes[from..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .unwrap_or(bytes.len() - from)
        };
        let mut at = plain_run(start);
        if bytes.get(at) == Some(&b'"') {
            self.pos = at + 1;
            return Ok(Cow::Borrowed(&self.text[start..at]));
        }
        let mut out = String::with_capacity(at - start + 16);
        out.push_str(&self.text[start..at]);
        loop {
            match bytes.get(at) {
                None => return Err(error("unterminated string")),
                Some(b'"') => {
                    self.pos = at + 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => at = unescape(bytes, at, &mut out)?,
                Some(_) => {
                    let end = plain_run(at);
                    out.push_str(&self.text[at..end]);
                    at = end;
                }
            }
        }
    }

    /// Reads a number as its source text (see *Bit-exact `f64`* in the
    /// module docs); [`Reader::f64`], [`Reader::u64`] and
    /// [`Reader::i64`] convert it.
    pub fn number(&mut self, what: &str) -> Result<&'a str, JsonError> {
        if !matches!(self.peek_byte()?, b'-' | b'0'..=b'9') {
            return Err(error(&format!("{what} is not a number")));
        }
        let rest = &self.text.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            .unwrap_or(rest.len());
        let text = &self.text[self.pos..self.pos + len];
        self.pos += len;
        Ok(text)
    }

    /// Reads a number as `f64`, correctly rounded.
    pub fn f64(&mut self, what: &str) -> Result<f64, JsonError> {
        parse_f64(self.number(what)?, what)
    }

    /// Reads a number as `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, JsonError> {
        let text = self
            .number(what)
            .map_err(|_| error(&format!("{what} is not an unsigned integer")))?;
        parse_u64(text, what)
    }

    /// Reads a number as `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, JsonError> {
        let text = self
            .number(what)
            .map_err(|_| error(&format!("{what} is not an integer")))?;
        parse_i64(text, what)
    }

    fn literal(&mut self, text: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(error(&format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self, what: &str) -> Result<bool, JsonError> {
        match self.peek_byte()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(error(&format!("{what} is not a boolean"))),
        }
    }

    /// Consumes a `null` if that is the next value, and says whether it
    /// was; any other value stays unread.
    pub fn null(&mut self) -> Result<bool, JsonError> {
        if self.peek_byte()? != b'n' {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Validates the next value, whatever it is, and passes over it.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        // Recursion is as deep as the document nests: MAX_DEPTH at most.
        match self.peek()? {
            Kind::Object => {
                self.begin_object("value")?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Kind::Array => {
                self.begin_array("value")?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Kind::String => drop(self.str("value")?),
            Kind::Number => drop(self.number("value")?),
            Kind::Bool => drop(self.bool("value")?),
            Kind::Null => drop(self.null()?),
        }
        Ok(())
    }

    /// [`skip_value`](Reader::skip_value), returning the text passed
    /// over: one complete, validated value, for a decoder of its own.
    pub fn raw_value(&mut self) -> Result<&'a str, JsonError> {
        self.peek_byte()?;
        let start = self.pos;
        self.skip_value()?;
        Ok(&self.text[start..self.pos])
    }

    /// Ends the document: anything but whitespace after the value read
    /// is an error.
    pub fn finish(mut self) -> Result<(), JsonError> {
        match self.peek_byte() {
            Err(_) => Ok(()),
            Ok(_) => Err(error("trailing content after JSON document")),
        }
    }
}

/// Decodes the escape at `bytes[at]` (a backslash) onto `out`; returns
/// the index after it.
fn unescape(bytes: &[u8], at: usize, out: &mut String) -> Result<usize, JsonError> {
    let escaped = *bytes
        .get(at + 1)
        .ok_or_else(|| error("unterminated escape"))?;
    out.push(match escaped {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'b' => '\u{0008}',
        b'f' => '\u{000c}',
        b'u' => {
            let hex = bytes
                .get(at + 2..at + 6)
                .ok_or_else(|| error("truncated \\u escape"))?;
            let mut code = 0u32;
            for h in hex {
                let digit = (*h as char)
                    .to_digit(16)
                    .ok_or_else(|| error("invalid \\u escape"))?;
                code = code * 16 + digit;
            }
            // Surrogate halves never appear in our exports (we only
            // \u-escape control characters); reject rather than
            // mis-decode.
            out.push(
                char::from_u32(code).ok_or_else(|| error("\\u escape is not a scalar value"))?,
            );
            return Ok(at + 6);
        }
        other => {
            return Err(error(&format!("unsupported escape '\\{}'", other as char)));
        }
    });
    Ok(at + 2)
}

// ---------------------------------------------------------------------------
// The owned tree
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    /// The `null` literal.
    Null,
    /// The `true` / `false` literals.
    Bool(bool),
    /// A number, kept as its source text and parsed on demand (which is
    /// what makes `f64` round trips bit-exact).
    Number(String),
    /// A string (escapes already decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(HashMap<String, Value>),
}

impl Value {
    /// The object's map, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&HashMap<String, Value>, JsonError> {
        match self {
            Value::Object(map) => Ok(map),
            _ => Err(error(&format!("{what} is not an object"))),
        }
    }

    /// The array's elements, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(values) => Ok(values),
            _ => Err(error(&format!("{what} is not an array"))),
        }
    }

    /// The string's contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(error(&format!("{what} is not a string"))),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(error(&format!("{what} is not a boolean"))),
        }
    }

    /// The number parsed as `f64` (correctly rounded, so shortest
    /// round-trip decimals reproduce their source bits), or an error
    /// naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Value::Number(n) => parse_f64(n, what),
            _ => Err(error(&format!("{what} is not a number"))),
        }
    }

    /// The number parsed as `u64`, or an error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Value::Number(n) => parse_u64(n, what),
            _ => Err(error(&format!("{what} is not an unsigned integer"))),
        }
    }

    /// The number parsed as `i64`, or an error naming `what`.
    pub fn as_i64(&self, what: &str) -> Result<i64, JsonError> {
        match self {
            Value::Number(n) => parse_i64(n, what),
            _ => Err(error(&format!("{what} is not an integer"))),
        }
    }
}

/// Parses one JSON document into its tree. Trailing non-whitespace
/// content is an error, and so is nesting beyond [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut reader = Reader::new(input);
    let value = build(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// The next value as a tree (recursion bounded by the reader's depth
/// bound). A repeated key keeps its last value.
fn build(r: &mut Reader<'_>) -> Result<Value, JsonError> {
    Ok(match r.peek()? {
        Kind::Object => {
            r.begin_object("value")?;
            let mut map = HashMap::new();
            while let Some(key) = r.next_key()? {
                map.insert(key.into_owned(), build(r)?);
            }
            Value::Object(map)
        }
        Kind::Array => {
            r.begin_array("value")?;
            let mut values = Vec::new();
            while r.next_element()? {
                values.push(build(r)?);
            }
            Value::Array(values)
        }
        Kind::String => Value::String(r.str("value")?.into_owned()),
        Kind::Number => Value::Number(r.number("value")?.to_string()),
        Kind::Bool => Value::Bool(r.bool("value")?),
        Kind::Null => {
            r.null()?;
            Value::Null
        }
    })
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` to `out` escaped for a JSON string literal: backslash,
/// quote, and every control character (so stencil names containing
/// newlines or tabs still export as *valid* JSON that standard tooling
/// can parse).
pub fn escape_into(out: &mut String, s: &str) {
    let needs_escape = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    let mut rest = s;
    // The bytes escaped are ASCII: every split is a character boundary.
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'\\' => out.push_str("\\\\"),
            b'"' => out.push_str("\\\""),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                use fmt::Write;
                write!(out, "\\u{control:04x}").expect("writing to a String cannot fail");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// [`escape_into`] a fresh `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booleans_and_integers_parse() {
        let value = parse("{\"a\": true, \"b\": false, \"c\": -42, \"d\": 18446744073709551615}")
            .expect("parses");
        let obj = value.as_object("doc").expect("object");
        assert!(obj["a"].as_bool("a").unwrap());
        assert!(!obj["b"].as_bool("b").unwrap());
        assert_eq!(obj["c"].as_i64("c").unwrap(), -42);
        assert_eq!(obj["d"].as_u64("d").unwrap(), u64::MAX);
        assert!(obj["a"].as_u64("a").is_err());
        assert!(obj["c"].as_bool("c").is_err());
    }

    #[test]
    fn shortest_roundtrip_decimals_are_bit_exact() {
        for bits in [
            0u64,
            1,
            f64::MIN_POSITIVE.to_bits(),
            (0.1f64).to_bits(),
            (6123.0f64 / 3844.0).to_bits(),
            f64::MAX.to_bits(),
            (-1.0f64 / 3.0).to_bits(),
        ] {
            let v = f64::from_bits(bits);
            let text = format!("{v:?}");
            let parsed = parse(&text).expect("parses").as_f64("v").expect("number");
            assert_eq!(parsed.to_bits(), bits, "{text}");
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = format!("\"{}\"", escape(nasty));
        let back = parse(&doc).expect("parses");
        assert_eq!(back.as_str("s").expect("string"), nasty);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in ["", "{", "[1,", "tru", "nul", "{\"a\" 1}", "1 2", "[1] x"] {
            assert!(parse(doc).is_err(), "{doc:?} must be rejected");
        }
    }

    #[test]
    fn reader_tokens_and_tree_accessors_agree() {
        // One value per document, read once through the reader's typed
        // methods and once through `parse` and the tree's accessors:
        // the same value, or an error from both.
        let numbers = [
            "0",
            "-0",
            "7",
            "-42",
            "007",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "0.1",
            "-0.0",
            "1e5",
            "1E+5",
            "2.5e-3",
            "1.7976931348623157e308",
            "1e400",
            "5e-324",
            "1.",
            "-",
            "--1",
            "1.2.3",
            "1e",
            "+1",
            ".5",
            "1 ",
            " \t\r\n1",
            "1 2",
            "1x",
        ];
        /// The whole document through one typed read of the reader.
        fn read<T>(doc: &str, f: impl Fn(&mut Reader<'_>) -> Result<T, JsonError>) -> Option<T> {
            let mut r = Reader::new(doc);
            let value = f(&mut r).ok()?;
            r.finish().ok().map(|()| value)
        }
        for doc in numbers {
            let tree = parse(doc).ok();
            let tree = tree.as_ref();
            assert_eq!(
                read(doc, |r| r.f64("v")).map(f64::to_bits),
                tree.and_then(|v| v.as_f64("v").ok()).map(f64::to_bits),
                "{doc:?} as f64"
            );
            assert_eq!(
                read(doc, |r| r.u64("v")),
                tree.and_then(|v| v.as_u64("v").ok()),
                "{doc:?} as u64"
            );
            assert_eq!(
                read(doc, |r| r.i64("v")),
                tree.and_then(|v| v.as_i64("v").ok()),
                "{doc:?} as i64"
            );
            // The reader hands out the number's text as it stands.
            if let Some(Value::Number(text)) = tree {
                assert_eq!(Reader::new(doc).number("v").unwrap(), text);
            }
        }
        assert_eq!(read("1e400", |r| r.f64("v")), Some(f64::INFINITY));
        assert_eq!(
            read("-0", |r| r.f64("v")).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(read("007", |r| r.u64("v")), Some(7));
        assert_eq!(read("-0", |r| r.u64("v")), None);

        let strings = [
            r#""""#,
            r#""plain""#,
            r#""ünïcode — 雪""#,
            r#""a\"b\\c\/d\ne\rf\tg\bh\fi""#,
            r#""\u0041\u00e9\u96ea\u001f""#,
            r#""tail escape\n""#,
            r#""\n""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\u+123""#,
            r#""\ud800""#,
            r#""\x41""#,
            r#""\"#,
            r#""unterminated"#,
            r#""é\"#,
            r#""a" "b""#,
            "\"raw\nnewline\"",
            "\"nul\u{0}\"",
        ];
        for doc in strings {
            let read = read(doc, |r| r.str("v").map(Cow::into_owned));
            let tree = parse(doc).ok();
            assert_eq!(
                read.as_deref(),
                tree.as_ref().and_then(|v| v.as_str("v").ok()),
                "{doc:?}"
            );
            // Borrowed exactly when there was nothing to decode.
            match Reader::new(doc).str("v") {
                Ok(Cow::Borrowed(s)) => {
                    assert!(
                        !s.contains('\\'),
                        "{doc:?} was borrowed with an escape in it"
                    );
                    assert!(doc.starts_with(&format!("\"{s}\"")), "{doc:?}");
                }
                Ok(Cow::Owned(_)) => assert!(doc.contains('\\'), "{doc:?} was copied"),
                Err(_) => assert_eq!(read, None, "{doc:?}"),
            }
            // What was read escapes back to a document that reads the same.
            if let Some(s) = &read {
                let again = format!("\"{}\"", escape(s));
                assert_eq!(parse(&again).unwrap().as_str("v").unwrap(), s);
            }
        }
        assert_eq!(
            read(r#""a\"b\\c\/d\ne\rf\tg\bh\fi\u00e9""#, |r| r
                .str("v")
                .map(Cow::into_owned))
            .as_deref(),
            Some("a\"b\\c/d\ne\rf\tg\u{8}h\u{c}i\u{e9}")
        );

        // Type mismatches carry the caller's name for the value, as the
        // tree's accessors word them.
        for doc in ["\"1\"", "true", "null", "[1]", "{}"] {
            let tree = parse(doc).unwrap();
            assert_eq!(
                Reader::new(doc).f64("x").unwrap_err(),
                tree.as_f64("x").unwrap_err()
            );
            assert_eq!(
                Reader::new(doc).u64("x").unwrap_err(),
                tree.as_u64("x").unwrap_err()
            );
            assert_eq!(
                Reader::new(doc).i64("x").unwrap_err(),
                tree.as_i64("x").unwrap_err()
            );
        }
        for doc in ["1", "true", "null", "[1]", "{}"] {
            let tree = parse(doc).unwrap();
            assert_eq!(
                Reader::new(doc).str("x").unwrap_err(),
                tree.as_str("x").unwrap_err()
            );
        }
        for doc in ["1", "\"true\"", "null", "[1]", "{}"] {
            let tree = parse(doc).unwrap();
            assert_eq!(
                Reader::new(doc).bool("x").unwrap_err(),
                tree.as_bool("x").unwrap_err()
            );
        }
        assert_eq!(
            Reader::new("7").begin_object("x").unwrap_err(),
            parse("7").unwrap().as_object("x").unwrap_err().clone()
        );
        assert_eq!(
            Reader::new("7").begin_array("x").unwrap_err(),
            parse("7").unwrap().as_array("x").unwrap_err()
        );
    }

    #[test]
    fn containers_are_walked_skipped_and_sliced() {
        let doc = " {\"a\": [1, [2, {\"b\": null}], \"x,]\"], \"skip\": {\"deep\": [[], {}]}, \
                   \"raw\": [ {\"k\": \"v}\"} , -1.5e3 ] ,\"a\": true} ";
        let mut r = Reader::new(doc);
        let mut seen = Vec::new();
        r.begin_object("doc").unwrap();
        while let Some(key) = r.next_key().unwrap() {
            seen.push(key.to_string());
            match &*key {
                "a" if r.peek().unwrap() == Kind::Array => {
                    r.begin_array("a").unwrap();
                    assert!(r.next_element().unwrap());
                    assert_eq!(r.u64("a[0]").unwrap(), 1);
                    assert!(r.next_element().unwrap());
                    r.skip_value().unwrap();
                    assert!(r.next_element().unwrap());
                    assert_eq!(r.str("a[2]").unwrap(), "x,]");
                    assert!(!r.next_element().unwrap());
                }
                "a" => assert!(r.bool("a").unwrap()),
                "raw" => assert_eq!(r.raw_value().unwrap(), "[ {\"k\": \"v}\"} , -1.5e3 ]"),
                _ => r.skip_value().unwrap(),
            }
        }
        r.finish().unwrap();
        // Keys come as the document has them, repeats included.
        assert_eq!(seen, ["a", "skip", "raw", "a"]);
        // ... and the tree keeps the last of a repeated key.
        let tree = parse(doc).unwrap();
        assert!(tree.as_object("doc").unwrap()["a"].as_bool("a").unwrap());

        // `null` is consumed only when it is there.
        let mut r = Reader::new("[null, 3]");
        r.begin_array("v").unwrap();
        assert!(r.next_element().unwrap() && r.null().unwrap());
        assert!(r.next_element().unwrap() && !r.null().unwrap());
        assert_eq!(r.u64("v").unwrap(), 3);
        assert!(!r.next_element().unwrap());

        for malformed in [
            "[1 2]",
            "[1,]",
            "[,1]",
            "[1}",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{a: 1}",
            "{\"a\": }",
            "[1",
            "{\"a\": [}",
            "nul",
            "[tru]",
            "{\"a\": 1} {",
            "[\"a\\q\"]",
        ] {
            let mut r = Reader::new(malformed);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert!(skipped.is_err(), "skip accepted {malformed:?}");
            assert!(parse(malformed).is_err(), "parse accepted {malformed:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
            // An object's innermost value has to be something.
            let fits = nested(open, close, MAX_DEPTH).replacen(": }", ": 0}", 1);
            let too_deep = nested(open, close, MAX_DEPTH + 1).replacen(": }", ": 0}", 1);
            parse(&fits).expect("MAX_DEPTH levels parse");
            let mut r = Reader::new(&fits);
            assert_eq!(r.raw_value().unwrap(), fits);
            for refused in [
                parse(&too_deep).unwrap_err(),
                Reader::new(&too_deep).skip_value().unwrap_err(),
                // No closing bracket in sight: refused on the way in.
                parse(&open.repeat(100_000)).unwrap_err(),
                Reader::new(&open.repeat(100_000)).raw_value().unwrap_err(),
            ] {
                assert!(refused.reason.contains("nests deeper than"), "{refused}");
            }
        }
        // Depth is how deep, not how many: siblings do not add up.
        let wide = format!("[{}[]]", "[[]], ".repeat(10_000));
        parse(&wide).expect("10,000 shallow siblings");
    }
}
