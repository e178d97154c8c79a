//! Minimal machine-readable input/output for the figure harnesses.
//!
//! Every harness binary accepts `--json <path>` and writes its results as a
//! JSON document alongside the human-readable tables, in the same spirit as
//! the `throughput` binary's `BENCH_cache_sim.json` (top-level metadata plus
//! a `cells` array, one element per sweep cell). The build environment has no
//! registry access, so this is a small hand-rolled emitter and parser rather
//! than serde; the schema is our own and stays flat. One writer walks a
//! value for both layouts: [`Json::to_pretty`] indents by two spaces (the
//! `--json` documents and the store's payloads) and [`Json::to_line`] puts
//! it on one line (`pipo-serve` replies).
//!
//! Since the persistent result store and the `pipo-serve` protocol both read
//! JSON back, the module also carries [`Json::parse`] (a strict
//! recursive-descent parser over the same value type) and [`write_atomic`]
//! (write-temp-then-rename, so a killed process can never leave a truncated
//! document behind — readers see either the old document or the new one).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::sweep::ExecMode;

/// A JSON value with insertion-ordered object fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialise to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for simulator counters).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float; non-finite values serialise as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be populated with [`field`](Self::field).
    #[must_use]
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends a field to an object and returns it (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object JSON value {other:?}"),
        }
        self
    }

    /// Serialises with two-space indentation and a trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serialises onto a single line with no inter-token whitespace — the
    /// framing `pipo-serve` needs for its line-delimited protocol.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, None);
        out
    }

    /// Writes the pretty-printed document to `path` atomically
    /// (write-temp-then-rename; see [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path, self.to_pretty().as_bytes())
    }

    /// Looks up a field of an object (`None` for a missing key or a
    /// non-object value).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (signed integers and
    /// floats do not coerce).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float; unsigned and signed integers coerce losslessly
    /// enough for report fields.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (strict: one value, nothing but whitespace
    /// after it). Numbers parse back to the same variants the emitter
    /// writes: non-negative integers as [`Json::UInt`], negative integers as
    /// [`Json::Int`], everything with a fraction or exponent as
    /// [`Json::Float`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_whitespace();
        let value = p.value(0)?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Writes the value in the pretty layout at nesting depth `indent`, or
    /// in the compact one-line layout when `indent` is `None` (scalars never
    /// contain a newline: strings escape them).
    fn write_value(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `f64::Display` never uses scientific notation, so the output
            // is always a valid JSON number.
            Json::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => write_block(out, indent, ('[', ']'), items.len(), |out, i| {
                items[i].write_value(out, inner);
            }),
            Json::Object(fields) => write_block(out, indent, ('{', '}'), fields.len(), |out, i| {
                write_escaped(out, &fields[i].0);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                fields[i].1.write_value(out, inner);
            }),
        }
    }
}

/// Writes a `[...]`/`{...}` block: one element per line in the pretty
/// layout at depth `indent`, all on one line in the compact layout (`None`).
fn write_block(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        write_item(out, i);
    }
    if let Some(depth) = indent.filter(|_| len > 0) {
        newline(out, depth);
    }
    out.push(close);
}

/// Maximum container nesting [`Json::parse`] accepts. The server feeds the
/// parser untrusted socket input, so recursion depth must be bounded well
/// below the stack limit; our own documents nest 4–5 levels.
const MAX_PARSE_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_whitespace();
                    items.push(self.value(depth + 1)?);
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_whitespace();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    self.skip_whitespace();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected byte {:?} at byte {}",
                b as char, self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' => {
                    fractional = true;
                    self.pos += 1;
                }
                b'-' if fractional => self.pos += 1,
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(format!("unterminated string at byte {}", self.pos));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(format!("unterminated escape at byte {}", self.pos));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code).ok_or_else(|| {
                                    format!("bad surrogate pair at byte {}", self.pos)
                                })?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                _ if b < 0x20 => {
                    return Err(format!("raw control byte in string at byte {}", self.pos))
                }
                _ => {
                    // Consume the rest of a multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(format!("invalid UTF-8 at byte {start}")),
                    };
                    if start + len > self.bytes.len() {
                        return Err(format!("invalid UTF-8 at byte {start}"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(format!("truncated \\u escape at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| format!("bad \\u escape at byte {start}"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape at byte {start}"))?;
        self.pos = end;
        Ok(code)
    }
}

/// Writes `contents` to `path` through a sibling temporary file that is
/// renamed over the path only once fully written, so a process killed at
/// any point leaves either the previous document or the complete new one,
/// never a truncated hybrid. Nothing is synced to disk, so this promises
/// nothing across a machine crash. Every result emitter in the harness (the
/// `--json` files, `throughput --out`, the result store's log) writes
/// through here.
///
/// A symlink is written through: the temporary file goes beside the final
/// target, which takes the new bytes, and the link stays a link (a
/// dangling link is replaced by the file). An existing path that is not a
/// regular file (a FIFO, a device, a directory) is refused and left as it
/// is.
///
/// # Errors
///
/// Refuses a path that is not a regular file, naming it, and otherwise
/// propagates the underlying I/O error; a failed rename removes the
/// temporary file before returning.
pub fn write_atomic(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    let path = match std::fs::canonicalize(path.as_ref()) {
        Ok(target) if !std::fs::metadata(&target)?.is_file() => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} is not a regular file", target.display()),
            ))
        }
        Ok(target) => target,
        Err(e) if e.kind() == io::ErrorKind::NotFound => path.as_ref().to_path_buf(),
        Err(e) => return Err(e),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, &path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Array(v)
    }
}

/// The shared top-level document shape: bench name, execution mode, and one
/// entry per sweep cell. Binaries append bench-specific metadata fields
/// before the cells with [`Json::field`].
#[must_use]
pub(crate) fn sweep_document(bench: &str, mode: ExecMode, meta: Json, cells: Vec<Json>) -> Json {
    let mut doc = Json::object()
        .field("bench", bench)
        .field("mode", mode.name())
        .field("threads", mode.threads());
    if let Json::Object(fields) = meta {
        for (key, value) in fields {
            doc = doc.field(&key, value);
        }
    }
    doc.field("cells", cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_document() {
        let doc = Json::object()
            .field("bench", "demo")
            .field("count", 3u64)
            .field("ratio", 0.25)
            .field("ok", true)
            .field(
                "cells",
                vec![Json::object().field("label", "a"), Json::object()],
            );
        let text = doc.to_pretty();
        assert!(text.starts_with("{\n  \"bench\": \"demo\",\n"));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"ratio\": 0.25"));
        assert!(text.contains("    {\n      \"label\": \"a\"\n    },"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn pretty_and_line_bytes_are_pinned() {
        let doc = Json::object()
            .field("null", Json::Null)
            .field("yes", true)
            .field("no", false)
            .field("max", u64::MAX)
            .field("neg", -7i64)
            .field("frac", 0.25)
            .field("nan", f64::NAN)
            .field("text", "q\"b\\n\nt\tr\r\u{1}é")
            .field("empty_arr", Vec::new())
            .field("empty_obj", Json::object())
            .field(
                "nest",
                vec![Json::object().field(
                    "inner",
                    vec![Json::UInt(1), Json::object().field("deep", Json::Null)],
                )],
            );
        assert_eq!(
            doc.to_pretty(),
            r#"{
  "null": null,
  "yes": true,
  "no": false,
  "max": 18446744073709551615,
  "neg": -7,
  "frac": 0.25,
  "nan": null,
  "text": "q\"b\\n\nt\tr\r\u0001é",
  "empty_arr": [],
  "empty_obj": {},
  "nest": [
    {
      "inner": [
        1,
        {
          "deep": null
        }
      ]
    }
  ]
}
"#
        );
        assert_eq!(
            doc.to_line(),
            r#"{"null":null,"yes":true,"no":false,"max":18446744073709551615,"neg":-7,"#
                .to_string()
                + r#""frac":0.25,"nan":null,"text":"q\"b\\n\nt\tr\r\u0001é","empty_arr":[],"#
                + r#""empty_obj":{},"nest":[{"inner":[1,{"deep":null}]}]}"#
        );
    }

    #[test]
    fn empty_containers_and_non_finite_floats() {
        let doc = Json::object()
            .field("empty_arr", Vec::new())
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY);
        let text = doc.to_pretty();
        assert!(text.contains("\"empty_arr\": []"));
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"inf\": null"));
    }

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn sweep_document_shape() {
        let doc = sweep_document(
            "fig_test",
            ExecMode::Sequential,
            Json::object().field("seed", 42u64),
            vec![Json::object().field("label", "c0")],
        );
        let text = doc.to_pretty();
        let order = [
            "\"bench\"",
            "\"mode\"",
            "\"threads\"",
            "\"seed\"",
            "\"cells\"",
        ];
        let mut last = 0;
        for key in order {
            let pos = text.find(key).expect("key present");
            assert!(pos > last || last == 0, "field order: {key}");
            last = pos;
        }
        assert!(text.contains("\"mode\": \"sequential\""));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn field_on_array_panics() {
        let _ = Json::Array(Vec::new()).field("x", 1u64);
    }

    #[test]
    fn to_line_is_single_line_and_round_trips() {
        let doc = Json::object()
            .field("ok", true)
            .field("n", 3u64)
            .field("s", "a\nb")
            .field(
                "cells",
                vec![Json::object().field("label", "a"), Json::Null],
            );
        let line = doc.to_line();
        assert!(
            !line.contains('\n'),
            "compact output must be one line: {line}"
        );
        assert_eq!(
            line,
            "{\"ok\":true,\"n\":3,\"s\":\"a\\nb\",\"cells\":[{\"label\":\"a\"},null]}"
        );
        assert_eq!(Json::parse(&line), Ok(doc));
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let doc = Json::object()
            .field("bench", "demo")
            .field("count", 3u64)
            .field("delta", -7i64)
            .field("ratio", 0.25)
            .field("ok", true)
            .field("none", Json::Null)
            .field("text", "a\"b\\c\nd\u{1}é")
            .field(
                "cells",
                vec![Json::object().field("label", "a"), Json::Array(Vec::new())],
            );
        let parsed = Json::parse(&doc.to_pretty()).expect("emitted documents parse");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_number_variants_match_emitter() {
        assert_eq!(Json::parse("42"), Ok(Json::UInt(42)));
        assert_eq!(Json::parse("-42"), Ok(Json::Int(-42)));
        assert_eq!(Json::parse("0.5"), Ok(Json::Float(0.5)));
        assert_eq!(Json::parse("1e3"), Ok(Json::Float(1000.0)));
        assert_eq!(
            Json::parse("18446744073709551615"),
            Ok(Json::UInt(u64::MAX))
        );
    }

    #[test]
    fn parse_rejects_malformed_input_with_offsets() {
        for (input, needle) in [
            ("", "end of input"),
            ("{", "expected"),
            ("[1,]", "unexpected byte"),
            ("{\"a\" 1}", "expected ':'"),
            ("\"abc", "unterminated"),
            ("truu", "invalid literal"),
            ("1 2", "trailing data"),
            ("\"\\q\"", "unknown escape"),
            ("\"\\ud800x\"", "lone surrogate"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.contains(needle), "{input:?}: {err}");
            assert!(
                err.contains("byte"),
                "{input:?} error names an offset: {err}"
            );
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let ok = "[".repeat(MAX_PARSE_DEPTH) + "1" + &"]".repeat(MAX_PARSE_DEPTH);
        Json::parse(&ok).expect("depth at the limit parses");
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\""),
            Ok(Json::Str("Aé😀".to_string()))
        );
    }

    #[test]
    fn accessors_read_fields() {
        let doc = Json::object()
            .field("n", 7u64)
            .field("x", 1.5)
            .field("s", "hi")
            .field("b", false)
            .field("a", vec![Json::UInt(1)]);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::UInt(1).get("n"), None);
        assert_eq!(Json::Null, Json::parse("null").unwrap());
    }

    #[test]
    fn write_file_is_atomic_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("pipo_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("out.json");
        let doc = Json::object().field("v", 1u64);
        doc.write_file(&path).expect("write");
        let next = Json::object().field("v", 2u64);
        next.write_file(&path).expect("overwrite");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read back"),
            next.to_pretty()
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
