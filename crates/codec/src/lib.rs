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
//! implement field by field.
//!
//! Exactness matters more than prettiness here: a saved detector must
//! reproduce **bit-identical** reports after a load. Finite `f64` values are
//! written with Rust's shortest round-trip formatting (guaranteed to parse
//! back to the same bits) and non-finite values are encoded as tagged
//! strings, so every `f64` survives the trip exactly.
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
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod frame;

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
                .ok_or_else(|| CodecError::new(format!("missing field `{key}`"))),
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

    /// The value as a `bool`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-boolean values.
    pub fn as_bool(&self) -> Result<bool, CodecError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(CodecError::new(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
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
        let mut parser = Parser::new(text.as_bytes());
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

/// Appends the JSON text of an integer, as [`Json::Int`] writes it.
pub fn write_int(value: i64, out: &mut Vec<u8>) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{value}");
}

/// Appends the JSON text of a float, as [`Json::Float`] writes it: the
/// shortest representation that parses back to the identical bits, always
/// recognisable as a float (`2.0`, never `2`), with the non-finite values
/// as the tagged strings `"NaN"`, `"inf"` and `"-inf"`.
pub fn write_f64(value: f64, out: &mut Vec<u8>) {
    if value.is_nan() {
        out.extend_from_slice(b"\"NaN\"");
    } else if value == f64::INFINITY {
        out.extend_from_slice(b"\"inf\"");
    } else if value == f64::NEG_INFINITY {
        out.extend_from_slice(b"\"-inf\"");
    } else {
        // Rust's float Display is the shortest representation that parses
        // back to the identical bits — exactly what persistence needs.
        let start = out.len();
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{value}");
        if !out[start..]
            .iter()
            .any(|&b| matches!(b, b'.' | b'e' | b'E'))
        {
            // Keep the token recognisable as a float ("2" → "2.0") so the
            // Int/Float distinction survives a round trip.
            out.extend_from_slice(b".0");
        }
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
/// can instead pull values straight out of the bytes: open an object with
/// [`Parser::begin_object`], walk its keys with [`Parser::next_key`], read
/// each value with the typed readers ([`Parser::string`], [`Parser::f64`],
/// [`Parser::value`], ...) or [`Parser::skip_value`] it, and end with
/// [`Parser::finish`]. Every reader checks the same grammar, depth limit and
/// UTF-8 rules as the tree builder, so a document the pull decoder accepts
/// is one [`Json::parse`] accepts.
///
/// ```
/// use hmd_codec::Parser;
///
/// let mut parser = Parser::new(br#"{"name": "ep", "row": [1, 2.5], "extra": {}}"#);
/// parser.begin_object()?;
/// let (mut name, mut row) = (String::new(), Vec::new());
/// while let Some(key) = parser.next_key()? {
///     match &*key {
///         "name" => name = parser.string()?.into_owned(),
///         "row" => {
///             parser.begin_array()?;
///             while parser.next_item()? {
///                 row.push(parser.f64()?);
///             }
///         }
///         _ => parser.skip_value()?,
///     }
/// }
/// parser.finish()?;
/// assert_eq!((name.as_str(), row), ("ep", vec![1.0, 2.5]));
/// # Ok::<(), hmd_codec::CodecError>(())
/// ```
pub struct Parser<'a> {
    bytes: &'a [u8],
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
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn error(&self, message: &str) -> CodecError {
        CodecError::new(format!("{message} at byte {}", self.pos))
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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

    /// Opens an object: the next value must be `{`.
    ///
    /// # Errors
    ///
    /// When the next value is not an object, or nests too deep.
    pub fn begin_object(&mut self) -> Result<(), CodecError> {
        self.enter(b'{')
    }

    /// The next key of the object opened last, positioned at its value —
    /// which the caller must read or skip before asking for another key.
    /// `None` once the object closes.
    ///
    /// # Errors
    ///
    /// On a syntax error between entries or inside the key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, CodecError> {
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
            let run = std::str::from_utf8(&bytes[start..self.pos])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
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
        if self.peek() == Some(b'"') {
            let text = self.string()?;
            return tagged_f64(&text)
                .ok_or_else(|| CodecError::new(format!("expected number, found string {text:?}")));
        }
        self.value()?.as_f64()
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

    /// A literal or a number; anything else is an error.
    #[inline]
    fn scalar(&mut self) -> Result<Json, CodecError> {
        match self.peek() {
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.error(&format!("unexpected character `{}`", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, CodecError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal, expected `{literal}`")))
        }
    }

    fn number(&mut self) -> Result<Json, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }
}

/// Types that can persist themselves as JSON and be restored exactly.
pub trait JsonCodec: Sized {
    /// Encodes the value.
    fn to_json(&self) -> Json;

    /// Decodes a value previously produced by [`JsonCodec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first structural or type
    /// mismatch.
    fn from_json(json: &Json) -> Result<Self, CodecError>;
}

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }

    fn from_json(json: &Json) -> Result<f64, CodecError> {
        json.as_f64()
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

    fn from_json(json: &Json) -> Result<u64, CodecError> {
        match json {
            Json::Int(i) => {
                u64::try_from(*i).map_err(|_| CodecError::new(format!("expected u64, found {i}")))
            }
            Json::Str(s) => s
                .parse::<u64>()
                .map_err(|_| CodecError::new(format!("expected u64, found {s:?}"))),
            other => Err(CodecError::new(format!(
                "expected u64, found {}",
                other.kind()
            ))),
        }
    }
}

impl JsonCodec for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }

    fn from_json(json: &Json) -> Result<usize, CodecError> {
        json.as_usize()
    }
}

impl JsonCodec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_json(json: &Json) -> Result<bool, CodecError> {
        json.as_bool()
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json(json: &Json) -> Result<String, CodecError> {
        Ok(json.as_str()?.to_string())
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(JsonCodec::to_json).collect())
    }

    fn from_json(json: &Json) -> Result<Vec<T>, CodecError> {
        json.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(value) => value.to_json(),
            None => Json::Null,
        }
    }

    fn from_json(json: &Json) -> Result<Option<T>, CodecError> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
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

    #[test]
    fn float_writer_matches_display_formatting() {
        // The writer appends exactly what `f64::to_string` produces (plus
        // `.0` for integral values), without the intermediate `String`.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut values = vec![0.0, -0.0, 2.0, 1e-300, 5e-324, 1e21, 123456789.0, -1.5e-7];
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = f64::from_bits(state);
            if value.is_finite() {
                values.push(value);
            }
        }
        for value in values {
            let mut expected = value.to_string();
            if !expected.contains(['.', 'e', 'E']) {
                expected.push_str(".0");
            }
            let mut out = b"x".to_vec();
            write_f64(value, &mut out);
            assert_eq!(&out[1..], expected.as_bytes(), "{value:e}");
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
}
