//! Dependency-free JSON codec used to persist fitted HMD pipelines.
//!
//! The build environment has no crates.io access, so model persistence
//! (`hmd_core::detector`'s `save`/`load`) cannot lean on `serde_json` or
//! `bincode`. This crate provides the substitute: a small [`Json`] value
//! type, one strict tokenizer ([`Parser`], a pull reader that
//! [`Json::parse`] builds trees with and schema-aware decoders read from
//! directly), the value writers ([`write_f64`], [`write_int`],
//! [`write_string`]) that [`Json`]'s `Display` and direct encoders share,
//! and the [`JsonCodec`] trait that fitted models across the workspace
//! implement field by field: `to_json` builds a tree, `decode` reads the
//! value straight from a [`Parser`], with no tree in between.
//!
//! Exactness matters more than prettiness here: a saved detector must
//! reproduce **bit-identical** reports after a load. Finite `f64` values are
//! written in std `Display`'s text, the shortest digits that parse back to
//! the same bits, and non-finite values are encoded as tagged strings, so
//! every `f64` survives the trip exactly. [`write_f64`] computes the digits
//! with Ryū under std's tie rule, from power-of-five tables `build.rs`
//! derives at build time, and writes them without `core::fmt`; std's
//! `Display` stays the oracle of the crate's tests, so no written byte
//! differs from what std would write.
//!
//! # Example
//!
//! ```
//! use hmd_codec::{Json, JsonCodec};
//!
//! let value = Json::Object(vec![
//!     ("threshold".to_string(), 0.4f64.to_json()),
//!     ("votes".to_string(), vec![3u64, 22].to_json()),
//! ]);
//! let text = value.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(value, back);
//! assert_eq!(f64::from_json(back.get("threshold").unwrap()).unwrap(), 0.4);
//!
//! // Decoders read straight from the bytes, with no tree in between.
//! let mut parser = hmd_codec::Parser::new(b"[3, 22]");
//! assert_eq!(Vec::<u64>::decode(&mut parser).unwrap(), vec![3, 22]);
//! parser.finish().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod frame;
mod ryu;

use std::borrow::Cow;
use std::fmt;
use std::io::Write;

/// Error produced by parsing or by typed decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description including the failing context.
    pub message: String,
}

impl CodecError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> CodecError {
        CodecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// A JSON value.
///
/// Objects preserve insertion order (persisted models have a handful of
/// fields; a sorted map would buy nothing).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that parsed as an integer.
    Int(i64),
    /// A number with a fractional part or exponent, or too large for `i64`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns an error when `self` is not an object or the key is absent.
    pub fn get(&self, key: &str) -> Result<&Json, CodecError> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| missing(key)),
            other => Err(CodecError::new(format!(
                "expected object with field `{key}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// The value as an `f64` (accepts both number encodings plus the tagged
    /// non-finite strings `"NaN"`, `"inf"`, `"-inf"`).
    ///
    /// # Errors
    ///
    /// Returns an error for non-numeric values.
    pub fn as_f64(&self) -> Result<f64, CodecError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            Json::Str(s) => tagged_f64(s)
                .ok_or_else(|| CodecError::new(format!("expected number, found string {s:?}"))),
            other => Err(CodecError::new(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-integer values.
    pub fn as_i64(&self) -> Result<i64, CodecError> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(CodecError::new(format!(
                "expected integer, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-integers and negative integers.
    pub fn as_usize(&self) -> Result<usize, CodecError> {
        let i = self.as_i64()?;
        usize::try_from(i).map_err(|_| CodecError::new(format!("expected usize, found {i}")))
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-string values.
    pub fn as_str(&self) -> Result<&str, CodecError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(CodecError::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-array values.
    pub fn as_array(&self) -> Result<&[Json], CodecError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(CodecError::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// Parses a JSON document into a tree.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first syntax problem, with its byte
    /// offset.
    pub fn parse(text: &str) -> Result<Json, CodecError> {
        let mut parser = Parser::from(text);
        let value = parser.value()?;
        parser.finish()?;
        Ok(value)
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => write_int(*i, out),
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Json::Object(fields) => {
                out.push(b'{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_string(key, out);
                    out.push(b':');
                    value.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write(&mut out);
        // The writers append only `str` content and ASCII, so this never
        // fails; a failure would be a writer bug, reported as a fmt error.
        f.write_str(std::str::from_utf8(&out).map_err(|_| fmt::Error)?)
    }
}

/// The error every decoder gives for an absent key.
fn missing(key: &str) -> CodecError {
    CodecError::new(format!("missing field `{key}`"))
}

/// The value a decoder read for `key`, or the error for an absent key
/// (as [`Json::get`] gives it) when [`Parser::object`] never met the key.
///
/// # Errors
///
/// `missing field `key`` when `value` is `None`.
pub fn required<T>(value: Option<T>, key: &str) -> Result<T, CodecError> {
    value.ok_or_else(|| missing(key))
}

/// The `f64` a tagged non-finite string stands for (`"NaN"`, `"inf"`,
/// `"-inf"`), the encoding [`write_f64`] uses for values JSON numbers
/// cannot hold.
fn tagged_f64(text: &str) -> Option<f64> {
    match text {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => None,
    }
}

/// Appends the JSON text of an integer, as [`Json::Int`] writes it: the
/// bytes of `value.to_string()`.
pub fn write_int(value: i64, out: &mut Vec<u8>) {
    if value < 0 {
        out.push(b'-');
    }
    ryu::write_u64(value.unsigned_abs(), out);
}

/// Appends the JSON text of a float, as [`Json::Float`] writes it: the
/// shortest representation that parses back to the identical bits, always
/// recognisable as a float (`2.0`, never `2`), with the non-finite values
/// as the tagged strings `"NaN"`, `"inf"` and `"-inf"`.
///
/// A finite value's text is byte for byte what `format!("{value}")` (std's
/// `Display`) writes, then `.0` when that has no `.`: the shortest
/// round-trip digits std picks, laid out without an exponent (`1e21`
/// prints as `1000000000000000000000.0`). The digits come from Ryū (Adams,
/// PLDI 2018) under std's tie rule, with power-of-five tables that
/// `build.rs` derives at build time, and go straight into `out` without
/// `core::fmt`. std's `Display` is the oracle of the crate's tests: over
/// 200,000 bit patterns across every binade, and every subnormal edge,
/// power and tie.
pub fn write_f64(value: f64, out: &mut Vec<u8>) {
    if value.is_nan() {
        out.extend_from_slice(b"\"NaN\"");
    } else if value == f64::INFINITY {
        out.extend_from_slice(b"\"inf\"");
    } else if value == f64::NEG_INFINITY {
        out.extend_from_slice(b"\"-inf\"");
    } else {
        ryu::write_finite(value, out);
    }
}

/// Appends `s` as a JSON string literal, as [`Json::Str`] writes it.
pub fn write_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.extend_from_slice(escape);
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Maximum container nesting the parser accepts. The tree builder recurses
/// per nesting level, so this bounds stack use; persisted detector
/// documents nest no more than a handful of levels, while a crafted or
/// corrupted document of thousands of `[`s would otherwise overflow the
/// stack instead of returning an error.
const MAX_DEPTH: usize = 128;

/// A pull reader over one JSON document — the workspace's only JSON
/// tokenizer.
///
/// [`Json::parse`] builds a tree with it. A decoder that knows its schema
/// instead pulls values straight out of the bytes: it walks an object's
/// keys with [`Parser::object`], reads each value with the typed readers
/// ([`Parser::string`], [`Parser::f64`], [`Parser::usize`], ...) or a
/// nested type's [`JsonCodec::decode`], and ends with [`Parser::finish`].
/// Every reader checks the same grammar, depth limit and UTF-8 rules as the
/// tree builder, and a skipped value is checked as strictly as a read one,
/// so a document a pull decoder accepts is one [`Json::parse`] accepts.
///
/// ```
/// use hmd_codec::{required, Parser};
///
/// let mut parser = Parser::new(br#"{"name": "ep", "row": [1, 2.5], "extra": {}}"#);
/// let (mut name, mut row) = (None, Vec::new());
/// parser.object(["name", "row"], |parser, key| {
///     match key {
///         0 => name = Some(parser.string()?.into_owned()),
///         _ => {
///             parser.begin_array()?;
///             while parser.next_item()? {
///                 row.push(parser.f64()?);
///             }
///         }
///     }
///     Ok(())
/// })?;
/// parser.finish()?;
/// let name = required(name, "name")?;
/// assert_eq!((name.as_str(), row), ("ep", vec![1.0, 2.5]));
/// # Ok::<(), hmd_codec::CodecError>(())
/// ```
#[derive(Clone)]
pub struct Parser<'a> {
    bytes: &'a [u8],
    /// `bytes` as text when they are valid UTF-8 as a whole (as every
    /// document a reader accepts is): strings and numbers are then sliced
    /// out of it instead of validated one by one.
    text: Option<&'a str>,
    pos: usize,
    depth: usize,
    /// A container was just opened: the next `next_key`/`next_item` reads
    /// its first entry, with no `,` before it.
    fresh: bool,
}

impl<'a> Parser<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Parser<'a> {
        Parser {
            bytes,
            text: std::str::from_utf8(bytes).ok(),
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// `bytes[start..end]` as text; both ends lie on ASCII bytes.
    #[inline]
    fn text_of(&self, start: usize, end: usize) -> Result<&'a str, CodecError> {
        match self.text.and_then(|text| text.get(start..end)) {
            Some(run) => Ok(run),
            None => std::str::from_utf8(&self.bytes[start..end])
                .map_err(|_| self.error("invalid UTF-8 in string")),
        }
    }

    fn error(&self, message: &str) -> CodecError {
        CodecError::new(format!("{message} at byte {}", self.pos))
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), CodecError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    #[inline]
    fn enter(&mut self, open: u8) -> Result<(), CodecError> {
        self.skip_whitespace();
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("document nests deeper than the supported limit"));
        }
        self.expect(open)?;
        self.fresh = true;
        Ok(())
    }

    /// Steps to the next entry of the open container: `true` when one
    /// follows, `false` (the container closed) at `close`.
    #[inline]
    fn next_entry(&mut self, close: u8, what: &str) -> Result<bool, CodecError> {
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth = self.depth.saturating_sub(1);
            self.fresh = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.fresh) {
            if self.peek() != Some(b',') {
                return Err(self.error(&format!("expected `,` or `{}` in {what}", close as char)));
            }
            self.pos += 1;
        }
        Ok(true)
    }

    /// Opens an object: the next value must be `{`. Decoders go through
    /// [`Parser::object`], which owns the key rules.
    fn begin_object(&mut self) -> Result<(), CodecError> {
        self.enter(b'{')
    }

    /// The next key of the object opened last, positioned at its value —
    /// which the caller must read or skip before asking for another key.
    /// `None` once the object closes.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, CodecError> {
        if !self.next_entry(b'}', "object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_whitespace();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens an array: the next value must be `[`.
    ///
    /// # Errors
    ///
    /// When the next value is not an array, or nests too deep.
    pub fn begin_array(&mut self) -> Result<(), CodecError> {
        self.enter(b'[')
    }

    /// Whether the array opened last has another item, positioned at it —
    /// which the caller must read or skip before asking again. `false`
    /// once the array closes.
    ///
    /// # Errors
    ///
    /// On a syntax error between items.
    pub fn next_item(&mut self) -> Result<bool, CodecError> {
        self.next_entry(b']', "array")
    }

    /// Reads a string value. Borrowed from the input unless it contains
    /// escapes.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed string.
    pub fn string(&mut self) -> Result<Cow<'a, str>, CodecError> {
        self.skip_whitespace();
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = self.text_of(start, self.pos)?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for model files;
                            // reject them instead of mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("unsupported \\u code point"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.error(&format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads a number as an `f64`, accepting what [`Json::as_f64`] accepts:
    /// either number encoding, or a tagged non-finite string.
    ///
    /// # Errors
    ///
    /// When the next value is malformed or not numeric.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'"') => {
                let text = self.string()?;
                tagged_f64(&text).ok_or_else(|| {
                    CodecError::new(format!("expected number, found string {text:?}"))
                })
            }
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => i as f64,
                Number::Float(f) => f,
            }),
            _ => Err(self.mismatch("number")),
        }
    }

    /// Reads an integer, accepting what [`Json::as_i64`] accepts: a number
    /// with no fraction or exponent that fits an `i64` (leading zeros
    /// allowed).
    ///
    /// # Errors
    ///
    /// When the next value is malformed or not such an integer.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Int(i) => Ok(i),
                Number::Float(_) => Err(CodecError::new("expected integer, found float")),
            },
            _ => Err(self.mismatch("integer")),
        }
    }

    /// Reads an integer as a `usize`, accepting what [`Json::as_usize`]
    /// accepts.
    ///
    /// # Errors
    ///
    /// When the next value is malformed, not an integer, or negative.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let i = self.i64()?;
        usize::try_from(i).map_err(|_| CodecError::new(format!("expected usize, found {i}")))
    }

    /// Reads a `true` or `false`.
    ///
    /// # Errors
    ///
    /// When the next value is not a boolean.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b't') => self.literal("true", true),
            Some(b'f') => self.literal("false", false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// Consumes the next value if it is `null`; `false` (nothing consumed)
    /// otherwise.
    pub fn null(&mut self) -> bool {
        self.skip_whitespace();
        let found = self.bytes[self.pos..].starts_with(b"null");
        if found {
            self.pos += 4;
        }
        found
    }

    /// Walks the next value as an object whose schema names `keys`, the
    /// rules every decoder in the workspace follows:
    ///
    /// - `field(parser, i)` runs, positioned at the value, at the first
    ///   occurrence of `keys[i]`, and must read or skip that value;
    /// - unknown keys and later occurrences of a key are skipped, but
    ///   checked as strictly as read values;
    /// - a key that never occurs is the caller's to report, through
    ///   [`required`].
    ///
    /// Keys are matched as bytes, trying first the key after the one met
    /// last (encoders write keys in schema order); a key written with
    /// escapes is unescaped first, as [`Json::parse`] would. Schema keys
    /// must be plain: no quote, backslash or control character.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed object, or `field` fails.
    pub fn object<const N: usize>(
        &mut self,
        keys: [&str; N],
        mut field: impl FnMut(&mut Parser<'a>, usize) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        self.begin_object()?;
        let mut seen = [false; N];
        let mut expected = 0;
        while self.next_entry(b'}', "object")? {
            match self.key_index(&keys, expected)? {
                Some(i) if !seen[i] => {
                    seen[i] = true;
                    expected = i + 1;
                    field(self, i)?;
                }
                _ => self.skip_value()?,
            }
        }
        Ok(())
    }

    /// Reads the next value with `read`. When `read` fails on a value that
    /// is well-formed JSON, the value is skipped instead and the failure
    /// handed back as the inner result, for a decoder that needs the value
    /// only in some variants of its type.
    ///
    /// # Errors
    ///
    /// When the value is not well-formed JSON.
    pub fn attempt<T>(
        &mut self,
        read: impl FnOnce(&mut Parser<'a>) -> Result<T, CodecError>,
    ) -> Result<Result<T, CodecError>, CodecError> {
        let start = self.clone();
        match read(self) {
            Ok(value) => Ok(Ok(value)),
            Err(err) => {
                *self = start;
                self.skip_value()?;
                Ok(Err(err))
            }
        }
    }

    /// The bytes of the next value, checked as [`Parser::skip_value`]
    /// checks them, for a decoder that must read it later (with a new
    /// [`Parser`] over them).
    ///
    /// # Errors
    ///
    /// On the first syntax error inside the value.
    pub fn raw_value(&mut self) -> Result<&'a [u8], CodecError> {
        self.skip_whitespace();
        let start = self.pos;
        self.skip_value()?;
        Ok(&self.bytes[start..self.pos])
    }

    /// Reads the next value as a tree.
    ///
    /// # Errors
    ///
    /// On the first syntax error inside the value.
    pub fn value(&mut self) -> Result<Json, CodecError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    fields.push((key.into_owned(), value));
                }
                Ok(Json::Object(fields))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Skips the next value, checking it as strictly as [`Parser::value`]
    /// would, without building it.
    ///
    /// # Errors
    ///
    /// On the first syntax error inside the value.
    pub fn skip_value(&mut self) -> Result<(), CodecError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b'-' | b'0'..=b'9') => self.skip_number()?,
            _ => {
                self.scalar()?;
            }
        }
        Ok(())
    }

    /// Ends the document: only whitespace may follow the value read.
    ///
    /// # Errors
    ///
    /// When anything else follows.
    pub fn finish(mut self) -> Result<(), CodecError> {
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    /// Reads an object key and its `:`, and finds it among `keys`, trying
    /// `keys[expected]` first.
    #[inline]
    fn key_index(&mut self, keys: &[&str], expected: usize) -> Result<Option<usize>, CodecError> {
        self.skip_whitespace();
        self.expect(b'"')?;
        // A plain schema key is the key whose literal is exactly its bytes.
        let rest = &self.bytes[self.pos..];
        let is_literal = |key: &str| {
            let key = key.as_bytes();
            rest.get(key.len()) == Some(&b'"') && rest.starts_with(key)
        };
        let plain = match keys.get(expected) {
            Some(key) if is_literal(key) => Some(expected),
            _ => (0..keys.len()).find(|&i| is_literal(keys[i])),
        };
        let index = match plain {
            Some(i) => {
                self.pos += keys[i].len() + 1;
                Some(i)
            }
            None => {
                // An unknown key, or one written with escapes.
                self.pos -= 1;
                let key = self.string()?;
                keys.iter().position(|k| *k == key)
            }
        };
        self.skip_whitespace();
        self.expect(b':')?;
        Ok(index)
    }

    /// The error for a value of the wrong kind, named from its first byte.
    fn mismatch(&self, expected: &str) -> CodecError {
        let found = match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(_) => "invalid character",
            None => "end of input",
        };
        CodecError::new(format!("expected {expected}, found {found}"))
    }

    /// A literal or a number; anything else is an error.
    #[inline]
    fn scalar(&mut self) -> Result<Json, CodecError> {
        match self.peek() {
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => Json::Int(i),
                Number::Float(f) => Json::Float(f),
            }),
            Some(b) => Err(self.error(&format!("unexpected character `{}`", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal<T>(&mut self, literal: &str, value: T) -> Result<T, CodecError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal, expected `{literal}`")))
        }
    }

    /// Scans a number token: an optional `-`, then digits and the float
    /// characters `.eE+-`. A token of digits alone is an integer when it
    /// fits an `i64`; any other token is a float, which the standard parser
    /// must accept whole. The two shapes saved documents are made of are
    /// read as they are scanned: integers of up to 18 digits, and decimals
    /// `d.d` of up to 15 digits, which are exact below 2⁵³ and divide by an
    /// exact power of ten with one correctly rounded division (Clinger's
    /// fast path), so they get the standard parser's bits.
    fn number(&mut self) -> Result<Number, CodecError> {
        let bytes = self.bytes;
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(negative);
        let int_end = digit_run(bytes, int_start);
        let int_digits = &bytes[int_start..int_end];
        let mut end = int_end;
        match bytes.get(int_end) {
            Some(b'.') if !int_digits.is_empty() => {
                end = digit_run(bytes, int_end + 1);
                let fraction = &bytes[int_end + 1..end];
                if !fraction.is_empty()
                    && int_digits.len() + fraction.len() <= 15
                    && !bytes.get(end).is_some_and(is_number_byte)
                {
                    self.pos = end;
                    let mantissa = decimal(fraction, decimal(int_digits, 0)) as f64;
                    let magnitude = mantissa / POWERS_OF_TEN[fraction.len()];
                    return Ok(Number::Float(if negative { -magnitude } else { magnitude }));
                }
            }
            next if !next.is_some_and(is_number_byte) && (1..=18).contains(&int_digits.len()) => {
                self.pos = int_end;
                // Below 10^18, so the cast is exact.
                let magnitude = decimal(int_digits, 0) as i64;
                return Ok(Number::Int(if negative { -magnitude } else { magnitude }));
            }
            _ => {}
        }
        while bytes.get(end).is_some_and(is_number_byte) {
            end += 1;
        }
        self.pos = end;
        let text = self.text_of(start, end)?;
        if end == int_end {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }

    /// Scans past a number token, accepting exactly the tokens
    /// [`Parser::number`] reads, with the same error, without converting
    /// it. That reader takes an optional `-` and the run of number bytes
    /// after it, and reads it iff it is an `i64` or an `f64` in the
    /// standard parsers' grammar; every `i64` token is also an `f64` one.
    fn skip_number(&mut self) -> Result<(), CodecError> {
        let bytes = self.bytes;
        let start = self.pos;
        let unsigned = start + usize::from(bytes.get(start) == Some(&b'-'));
        let mut end = unsigned;
        while bytes.get(end).is_some_and(is_number_byte) {
            end += 1;
        }
        self.pos = end;
        if is_unsigned_number(&bytes[unsigned..end]) {
            return Ok(());
        }
        let text = self.text_of(start, end)?;
        Err(self.error(&format!("invalid number `{text}`")))
    }
}

/// Whether `t` is a number as `f64::from_str` reads one, less its sign:
/// digits with an optional `.` fraction, at least one digit in all, then
/// an optional exponent of `e` or `E`, an optional sign and digits.
fn is_unsigned_number(t: &[u8]) -> bool {
    let mut end = digit_run(t, 0);
    let mut digits = end;
    if t.get(end) == Some(&b'.') {
        let fraction_end = digit_run(t, end + 1);
        digits += fraction_end - (end + 1);
        end = fraction_end;
    }
    if digits == 0 {
        return false;
    }
    if matches!(t.get(end), Some(b'e' | b'E')) {
        end += 1;
        if matches!(t.get(end), Some(b'+' | b'-')) {
            end += 1;
        }
        let exponent_end = digit_run(t, end);
        if exponent_end == end {
            return false;
        }
        end = exponent_end;
    }
    end == t.len()
}

/// Whether `b` continues a number token: a digit or one of `.eE+-`.
fn is_number_byte(b: &u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Where the run of ASCII digits in `bytes` that starts at `from` ends.
#[inline]
fn digit_run(bytes: &[u8], from: usize) -> usize {
    let mut end = from;
    while bytes.get(end).is_some_and(u8::is_ascii_digit) {
        end += 1;
    }
    end
}

/// `mantissa` with the decimal `digits` appended; callers keep the total
/// below 10^19, so it never overflows.
#[inline]
fn decimal(digits: &[u8], mantissa: u64) -> u64 {
    digits
        .iter()
        .fold(mantissa, |m, &d| m * 10 + u64::from(d - b'0'))
}

/// `10^k` for the fraction lengths [`Parser`]'s decimal fast path reads
/// (at most 14 digits, after at least one integer digit), each exact in an
/// `f64`.
const POWERS_OF_TEN: [f64; 15] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
];

/// A scanned number token, before a reader or the tree builder types it.
enum Number {
    Int(i64),
    Float(f64),
}

impl<'a> From<&'a str> for Parser<'a> {
    /// A reader positioned at the start of `text`, with nothing left to
    /// validate as UTF-8.
    fn from(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            text: Some(text),
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }
}

/// Types that can persist themselves as JSON and be restored exactly.
pub trait JsonCodec: Sized {
    /// Encodes the value.
    fn to_json(&self) -> Json;

    /// Decodes a value previously produced by [`JsonCodec::to_json`],
    /// straight from the parser positioned at it. Objects are walked with
    /// [`Parser::object`], so every type follows the same key rules.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first syntax error or
    /// structural or type mismatch.
    fn decode(parser: &mut Parser<'_>) -> Result<Self, CodecError>;

    /// Decodes a value from a tree a caller already holds, by writing the
    /// tree out as text and decoding that.
    ///
    /// # Errors
    ///
    /// As [`JsonCodec::decode`].
    fn from_json(json: &Json) -> Result<Self, CodecError> {
        let mut text = Vec::new();
        json.write(&mut text);
        let mut parser = Parser::new(&text);
        let value = Self::decode(&mut parser)?;
        parser.finish()?;
        Ok(value)
    }
}

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }

    fn decode(parser: &mut Parser<'_>) -> Result<f64, CodecError> {
        parser.f64()
    }
}

impl JsonCodec for u64 {
    fn to_json(&self) -> Json {
        // Seeds can exceed i64::MAX; persist those as decimal strings.
        match i64::try_from(*self) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::Str(self.to_string()),
        }
    }

    fn decode(parser: &mut Parser<'_>) -> Result<u64, CodecError> {
        parser.skip_whitespace();
        if parser.peek() == Some(b'"') {
            let text = parser.string()?;
            return text
                .parse::<u64>()
                .map_err(|_| CodecError::new(format!("expected u64, found {text:?}")));
        }
        let i = parser.i64()?;
        u64::try_from(i).map_err(|_| CodecError::new(format!("expected u64, found {i}")))
    }
}

impl JsonCodec for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }

    fn decode(parser: &mut Parser<'_>) -> Result<usize, CodecError> {
        parser.usize()
    }
}

impl JsonCodec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(parser: &mut Parser<'_>) -> Result<bool, CodecError> {
        parser.bool()
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(parser: &mut Parser<'_>) -> Result<String, CodecError> {
        Ok(parser.string()?.into_owned())
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(JsonCodec::to_json).collect())
    }

    fn decode(parser: &mut Parser<'_>) -> Result<Vec<T>, CodecError> {
        parser.begin_array()?;
        let mut items = Vec::new();
        while parser.next_item()? {
            items.push(T::decode(parser)?);
        }
        Ok(items)
    }
}

impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(value) => value.to_json(),
            None => Json::Null,
        }
    }

    fn decode(parser: &mut Parser<'_>) -> Result<Option<T>, CodecError> {
        if parser.null() {
            Ok(None)
        } else {
            T::decode(parser).map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#" { "a": [1, -2.5, true, null, "x\ny"], "b": { "c": 1e-3 } } "#;
        let value = Json::parse(doc).unwrap();
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().as_f64().unwrap(),
            1e-3
        );
    }

    #[test]
    fn deeply_nested_documents_error_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        // Legitimate nesting well under the limit still parses.
        let nested = format!("{}1{}", "[".repeat(50), "]".repeat(50));
        assert!(Json::parse(&nested).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{]",
        ] {
            assert!(Json::parse(bad).is_err(), "parsed {bad:?}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let values = [
            0.1,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            std::f64::consts::PI,
            -0.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &v in &values {
            let text = v.to_json().to_string();
            let back = f64::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v} → {text}");
        }
    }

    #[test]
    fn integers_and_strings_round_trip() {
        let seed: u64 = u64::MAX - 3;
        let text = seed.to_json().to_string();
        assert_eq!(u64::from_json(&Json::parse(&text).unwrap()).unwrap(), seed);

        let s = "quotes \" backslash \\ newline \n tab \t unicode ☂".to_string();
        let text = s.to_json().to_string();
        assert_eq!(String::from_json(&Json::parse(&text).unwrap()).unwrap(), s);
    }

    #[test]
    fn options_and_vectors_compose() {
        let v: Vec<Option<f64>> = vec![Some(1.5), None, Some(-2.25)];
        let text = v.to_json().to_string();
        let back: Vec<Option<f64>> = Vec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    /// splitmix64: a seeded stream of well-mixed 64-bit values.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The finite values the float writer is held to std on.
    fn printer_cases() -> Vec<f64> {
        let mut next = splitmix(2021);
        let mut bits = Vec::new();
        // 98 seeded patterns in every binade, subnormals included, either sign.
        for biased in 0..0x7ffu64 {
            for _ in 0..98 {
                let r = next();
                bits.push(r & (1 << 63) | biased << 52 | r & ((1 << 52) - 1));
            }
        }
        // Every subnormal edge: the smallest and largest subnormals, and
        // both sides of the normal range's start.
        let largest_subnormal = (1u64 << 52) - 1;
        bits.extend((1..=256).chain(largest_subnormal - 255..=largest_subnormal + 256));
        // Each power of two and of ten, and both its neighbours.
        let powers_of_two = (0..52)
            .map(|k| 1u64 << k)
            .chain((1..0x7ff).map(|e| e << 52));
        let powers_of_ten =
            (-323..=308).map(|k| format!("1e{k}").parse::<f64>().unwrap().to_bits());
        for power in powers_of_two.chain(powers_of_ten) {
            bits.extend([power - 1, power, power + 1]);
        }
        let mut values: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        // Small integers and integers around 2^53, where the ulp grows past
        // 1, and short binary fractions, whose exact decimals are shortest.
        values.extend((1..=10_000).map(f64::from));
        for fraction_bits in 1..=24 {
            let scale = f64::from(1u32 << fraction_bits);
            values.extend((1..=1000).map(|m| f64::from(m) / scale));
            values.extend((0..100).map(|_| (next() >> 20) as f64 / scale));
        }
        values.extend((-2000..=2000).map(|d| ((1i64 << 53) + d) as f64));
        // Values with few fraction bits above 2^40: where exact ties between
        // two shortest candidates occur (std rounds them up, not to even).
        for fraction_bits in 0..=12 {
            for _ in 0..300 {
                let r = next();
                let integer = (r >> (7 + r % 17)) as f64;
                values.push(integer / f64::from(1u32 << fraction_bits));
            }
        }
        values.extend([
            0.0,
            2.0,
            1e-300,
            5e-324,
            123456789.0,
            -1.5e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1e21,
            1e22,
            1e23,
        ]);
        // The writer's earliest pins: 2,000 draws of a 64-bit LCG as bit
        // patterns.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            values.push(f64::from_bits(state));
        }
        let negatives: Vec<f64> = values.iter().map(|v| -v).collect();
        values.extend(negatives);
        values.retain(|v| v.is_finite());
        values
    }

    #[test]
    fn float_writer_matches_display_formatting() {
        // The oracle is std's `Display`: the writer appends exactly what
        // `f64::to_string` produces, plus `.0` when that has no `.`, and the
        // text reads back to the same bits through both readers.
        let values = printer_cases();
        assert!(values.len() > 200_000, "{} cases", values.len());
        let mut out = Vec::new();
        for value in values {
            let mut expected = value.to_string();
            if !expected.contains('.') {
                expected.push_str(".0");
            }
            out.clear();
            out.push(b'x');
            write_f64(value, &mut out);
            assert_eq!(&out[1..], expected.as_bytes(), "{value:e}");
            let bits = value.to_bits();
            let read = Parser::new(&out[1..]).f64().unwrap();
            assert_eq!(read.to_bits(), bits, "{expected}");
            match Json::parse(&expected) {
                Ok(Json::Float(parsed)) => assert_eq!(parsed.to_bits(), bits, "{expected}"),
                other => panic!("{expected} parsed as {other:?}"),
            }
        }
        // 2^50 + 0.25 lies exactly between the shortest candidates `…624.2`
        // and `…624.3`: std rounds the tie up, where Ryū's rule picks even.
        out.clear();
        write_f64((1u64 << 50) as f64 + 0.25, &mut out);
        assert_eq!(out, b"1125899906842624.3");
        for (value, tagged) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            out.clear();
            write_f64(value, &mut out);
            assert_eq!(out, tagged.as_bytes());
        }
    }

    #[test]
    fn integer_writer_matches_to_string() {
        let mut values = vec![0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
        let mut power = 1i64;
        while let Some(next) = power.checked_mul(10) {
            power = next;
            for v in [power - 1, power, power + 1] {
                values.extend([v, -v]);
            }
        }
        let mut next = splitmix(7);
        for _ in 0..10_000 {
            let r = next();
            // Every length from 1 to 19 digits, either sign.
            values.push((r >> (r % 64)) as i64);
            values.push(r as i64);
        }
        let mut out = Vec::new();
        for value in values {
            out.clear();
            out.push(b'x');
            write_int(value, &mut out);
            assert_eq!(&out[1..], value.to_string().as_bytes());
        }
    }

    #[test]
    fn string_writer_escapes_as_before() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{7f}☂";
        let mut out = Vec::new();
        write_string(s, &mut out);
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\u{7f}☂\""
        );
        assert_eq!(
            Json::parse(std::str::from_utf8(&out).unwrap()).unwrap(),
            Json::Str(s.to_string())
        );
    }

    #[test]
    fn skipping_checks_the_same_grammar_as_building() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        let docs = [
            r#"{"a": [1, -2.5, true, null, "x\ny"], "b": {"c": 1e-3}}"#,
            "[]",
            "{}",
            " [ [ ] , { } ] ",
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{,}",
            "[1 2]",
            "{\"a\" 1}",
            "\"\\q\"",
            "\"\\u12\"",
            "nul",
            "-",
            "1e",
            "[\"\u{1}\"]",
            deep.as_str(),
        ];
        for doc in docs {
            let mut parser = Parser::new(doc.as_bytes());
            let skipped = parser.skip_value().and_then(|()| parser.finish());
            assert_eq!(skipped.is_ok(), Json::parse(doc).is_ok(), "{doc:?}");
        }
    }

    #[test]
    fn skipping_a_number_accepts_what_reading_it_accepts() {
        // Skipping and reading a document must agree on acceptance and on
        // the error, for edge-case tokens and for every token of up to
        // four bytes over the number alphabet.
        let agree = |doc: &str| {
            let mut skipper = Parser::new(doc.as_bytes());
            let skipped = skipper.skip_value().and_then(|()| skipper.finish());
            let mut reader = Parser::new(doc.as_bytes());
            let read = reader.value().and_then(|_| reader.finish());
            assert_eq!(skipped, read, "{doc:?}");
            read.is_ok()
        };
        let edge_cases = [
            "0",
            "-0",
            "00",
            "-00",
            "007",
            "1.",
            "-1.",
            ".5",
            "-.5",
            "1.e5",
            "1.5",
            "-1.5",
            "1e5",
            "1E5",
            "1e+5",
            "1e-5",
            "1e",
            "1e+",
            "-",
            "--1",
            "-+1",
            "+1",
            "1-",
            "1+2",
            "1.5.3",
            "1e5e5",
            "1e5.5",
            "1..2",
            "1.-5",
            "1ee5",
            "1e400",
            "-1e400",
            "1e-400",
            "0x1F",
            "1 2",
            " 7 ",
            "[1e, 2]",
            "[1.5e3, -0.0]",
            "{\"a\": -.5}",
            "{\"a\": --5}",
            "123456789012345678",
            "1234567890123456789",
            "12345678901234567890",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "0.12345678901234",
            "0.123456789012345",
            "1234567.12345678",
            "1234567.123456789",
            "1e99999999999999999999",
        ];
        for doc in edge_cases {
            agree(doc);
        }
        let alphabet = b"019-+.eE";
        let mut accepted = 0;
        for len in 1..=4u32 {
            for mut code in 0..alphabet.len().pow(len) {
                let mut token = String::new();
                for _ in 0..len {
                    token.push(char::from(alphabet[code % alphabet.len()]));
                    code /= alphabet.len();
                }
                accepted += usize::from(agree(&token));
            }
        }
        // Both sides accept some tokens, so agreeing is not vacuous.
        assert!(accepted > 100, "{accepted} tokens read");
    }

    #[test]
    fn null_consumes_only_null() {
        let mut parser = Parser::new(b"[null, 7]");
        parser.begin_array().unwrap();
        assert!(parser.next_item().unwrap());
        assert!(parser.null());
        assert!(parser.next_item().unwrap());
        assert!(!parser.null());
        assert_eq!(parser.value().unwrap(), Json::Int(7));
        assert!(!parser.next_item().unwrap());
        parser.finish().unwrap();
    }

    #[test]
    fn typed_errors_name_the_problem() {
        let doc = Json::parse(r#"{"a": 1}"#).unwrap();
        assert!(doc.get("missing").unwrap_err().message.contains("missing"));
        assert!(doc.get("a").unwrap().as_str().is_err());
        assert!(Json::Int(-1).as_usize().is_err());
    }

    /// How a number token was typed before the scanner read integers and
    /// short decimals itself: digits alone that fit an `i64` are an
    /// integer, and everything else is whatever the standard float parser
    /// makes of the whole token.
    fn reference_number(token: &str) -> Option<Json> {
        let body = token.strip_prefix('-').unwrap_or(token);
        if !body.contains(['.', 'e', 'E', '+', '-']) {
            if let Ok(i) = token.parse::<i64>() {
                return Some(Json::Int(i));
            }
        }
        token.parse::<f64>().ok().map(Json::Float)
    }

    /// `Json` equality, with floats compared bit for bit.
    fn same_bits(a: &Option<Json>, b: &Option<Json>) -> bool {
        match (a, b) {
            (Some(Json::Float(x)), Some(Json::Float(y))) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn numbers_are_typed_and_rounded_as_the_standard_parsers_do() {
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "007",
            "-007",
            "123456789012345678",
            "-123456789012345678",
            "1234567890123456789",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
            "0.0",
            "-0.0",
            "1.0",
            "00.5",
            "0.1",
            "0.30000000000000004",
            "0.5263157894736842",
            "12345678901234.5",
            "123456789012345.6",
            "0.00000000000001",
            "0.000000000000001",
            "9007199254740993.0",
            "1e5",
            "1E-5",
            "-1.5e+300",
            "1e400",
            "1.",
            "-.5",
            "-",
            "1-2",
            "1.2.3",
            "1e5e5",
            "1+",
            "2.5e",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3000 {
            let bits = next();
            // Shortest round-trip forms of arbitrary doubles.
            let value = f64::from_bits(bits);
            if value.is_finite() {
                let mut out = Vec::new();
                write_f64(value, &mut out);
                tokens.push(String::from_utf8(out).unwrap());
            }
            // Decimals around the fast path's 15-digit limit.
            let (int_len, fraction_len) = (1 + bits % 9, 1 + (bits >> 8) % 9);
            let digits: String = (0..int_len + fraction_len)
                .map(|_| char::from(b'0' + (next() % 10) as u8))
                .collect();
            let (int, fraction) = digits.split_at(int_len as usize);
            let sign = if bits >> 63 == 1 { "-" } else { "" };
            tokens.push(format!("{sign}{int}.{fraction}"));
            tokens.push(format!("{sign}{int}"));
        }
        for token in &tokens {
            let expected = reference_number(token);
            let parsed = Json::parse(token).ok();
            assert!(same_bits(&parsed, &expected), "{token}: {parsed:?}");
            let as_f64 = expected
                .as_ref()
                .map(|json| json.as_f64().unwrap().to_bits());
            let read = Parser::new(token.as_bytes()).f64().ok().map(f64::to_bits);
            assert_eq!(read, as_f64, "{token}");
            let as_i64 = expected.as_ref().and_then(|json| json.as_i64().ok());
            assert_eq!(Parser::new(token.as_bytes()).i64().ok(), as_i64, "{token}");
        }
    }

    #[test]
    fn objects_follow_one_set_of_key_rules() {
        let read = |doc: &str| -> Result<(Option<i64>, Option<i64>), CodecError> {
            let (mut a, mut b) = (None, None);
            let mut parser = Parser::new(doc.as_bytes());
            parser.object(["a", "b"], |parser, key| {
                match key {
                    0 => a = Some(parser.i64()?),
                    _ => b = Some(parser.i64()?),
                }
                Ok(())
            })?;
            parser.finish()?;
            Ok((a, b))
        };
        // The first occurrence wins; unknown keys and later duplicates are
        // skipped; keys may come in any order, written with escapes or not.
        let doc = r#"{"b": 1, "a": 2, "a": "junk", "c": [1, {"x": null}], "b": 3}"#;
        assert_eq!(read(doc).unwrap(), (Some(2), Some(1)));
        assert_eq!(read(r#"{"a":5}"#).unwrap(), (Some(5), None));
        assert_eq!(read("{}").unwrap(), (None, None));
        // A first occurrence of the wrong type fails.
        assert!(read(r#"{"a": "junk", "a": 2}"#).is_err());
        // Skipped values are still checked.
        assert!(read(r#"{"c": [1,,2], "a": 1}"#).is_err());
        assert!(read(r#"{"a": 1, "a": [1,,2]}"#).is_err());
        assert!(read(r#"{"a": 1,}"#).is_err());
        assert!(read(r#"["a", 1]"#).is_err());
        let absent = required(None::<i64>, "a").unwrap_err();
        assert_eq!(absent.message, "missing field `a`");
        assert_eq!(absent, Json::parse("{}").unwrap().get("a").unwrap_err());
    }

    #[test]
    fn attempt_keeps_type_errors_and_rejects_syntax_errors() {
        let mut parser = Parser::new(br#"["junk", {"a": [1, 2, "x"]}, 5, [1,,2]]"#);
        parser.begin_array().unwrap();
        assert!(parser.next_item().unwrap());
        assert!(parser.attempt(Parser::usize).unwrap().is_err());
        // A failure deep inside nested containers rewinds the depth too.
        assert!(parser.next_item().unwrap());
        let nested = parser.attempt(|parser| {
            parser.object(["a"], |parser, _| Vec::<f64>::decode(parser).map(drop))
        });
        assert!(nested.unwrap().is_err());
        assert!(parser.next_item().unwrap());
        assert_eq!(parser.attempt(Parser::usize).unwrap(), Ok(5));
        assert!(parser.next_item().unwrap());
        assert!(parser.attempt(Parser::usize).is_err());
    }

    #[test]
    fn raw_values_are_checked_and_decode_later() {
        let mut parser = Parser::new(br#"{"m": {"a": [1, 2.5]} , "n": 1}"#);
        let mut raw = None;
        parser
            .object(["m"], |parser, _| {
                raw = Some(parser.raw_value()?);
                Ok(())
            })
            .unwrap();
        parser.finish().unwrap();
        assert_eq!(raw, Some(&br#"{"a": [1, 2.5]}"#[..]));
        assert!(Parser::new(br#"{"m": [1,,2]}"#).raw_value().is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected_wherever_it_sits() {
        assert!(Parser::new(b"\"a\xffb\"").skip_value().is_err());
        assert!(Parser::new(b"{\"\xff\": 1}").skip_value().is_err());
        let mut after = Parser::new(b"[\"ok\"] \xff");
        assert!(after.skip_value().is_ok());
        assert!(after.finish().is_err());
    }

    #[test]
    fn trees_decode_through_their_text() {
        let tree = Json::parse(r#"{"x": [1, 2.5, "NaN"], "y": null}"#).unwrap();
        let x = Vec::<f64>::from_json(tree.get("x").unwrap()).unwrap();
        assert_eq!(x[..2], [1.0, 2.5]);
        assert!(x[2].is_nan());
        assert_eq!(Option::<u64>::from_json(tree.get("y").unwrap()), Ok(None));
        assert!(usize::from_json(&Json::Float(1.0)).is_err());
        let seeds = Json::parse(r#"[1, "18446744073709551615"]"#).unwrap();
        assert_eq!(Vec::<u64>::from_json(&seeds), Ok(vec![1, u64::MAX]));
    }
}
