//! The streaming, event-driven JSON parser.
//!
//! The parser walks the input once and calls into a [`JsonSink`]. There is
//! no token vector and no DOM: a sink that builds engine-native values
//! (like `rumble-core`'s item builder) pays only for the values it
//! constructs, which is what makes JSON parsing CPU-bound rather than
//! allocation-bound (the paper's §5.7 observation). A sink may also decline
//! an object member's value ([`JsonSink::skip_value`]); the parser then
//! validates the value without events, so a projected scan pays neither for
//! building nor for receiving the members it does not read.

use crate::error::{JsonError, JsonErrorKind, Result};

/// Receiver of parse events.
///
/// Events arrive in document order. For an object the sequence is
/// `begin_object`, then for each member `key` followed by the member's
/// value events, then `end_object`; arrays are analogous. Any event may
/// abort the parse by returning an error (use [`JsonError::sink`]).
pub trait JsonSink {
    fn null(&mut self) -> Result<()>;
    fn boolean(&mut self, value: bool) -> Result<()>;
    /// A JSON number with no fraction and no exponent that fits in `i64`.
    fn integer(&mut self, value: i64) -> Result<()>;
    /// A JSON number with a fraction but no exponent — or an integer too
    /// large for `i64`. Delivered as raw text so the consumer keeps full
    /// precision.
    fn decimal(&mut self, raw: &str) -> Result<()>;
    /// A JSON number with an exponent.
    fn double(&mut self, value: f64) -> Result<()>;
    fn string(&mut self, value: &str) -> Result<()>;
    fn begin_object(&mut self) -> Result<()>;
    fn key(&mut self, key: &str) -> Result<()>;
    fn end_object(&mut self) -> Result<()>;
    fn begin_array(&mut self) -> Result<()>;
    fn end_array(&mut self) -> Result<()>;
    /// Asked after each [`key`](Self::key): `true` declines the member's
    /// value. The parser then walks the value without events, raising the
    /// same error at the same offset as a full parse would, and hands the
    /// sink only the numbers [`decimal`](Self::decimal) would have received,
    /// through [`skipped_decimal`](Self::skipped_decimal).
    fn skip_value(&mut self) -> bool {
        false
    }
    /// A number inside a declined value that [`decimal`](Self::decimal)
    /// would have received, so that a sink which fails on a decimal it
    /// cannot hold fails the same document whether it builds the value or
    /// not.
    fn skipped_decimal(&mut self, _raw: &str) -> Result<()> {
        Ok(())
    }
}

/// Hard limits applied while parsing, to keep adversarial inputs bounded.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum object/array nesting depth.
    pub max_depth: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits { max_depth: 512 }
    }
}

/// Parses one complete JSON value from `input` into `sink`.
///
/// Leading and trailing ASCII whitespace is permitted; anything else after
/// the value is a [`JsonErrorKind::TrailingContent`] error.
pub fn parse<S: JsonSink>(input: &str, sink: &mut S) -> Result<()> {
    parse_with_limits(input, sink, ParseLimits::default())
}

/// [`parse`] with explicit [`ParseLimits`].
pub fn parse_with_limits<S: JsonSink>(
    input: &str,
    sink: &mut S,
    limits: ParseLimits,
) -> Result<()> {
    let mut p = Parser { bytes: input.as_bytes(), input, pos: 0, limits, scratch: String::new() };
    p.skip_ws();
    p.value(sink, 0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err(JsonErrorKind::TrailingContent));
    }
    Ok(())
}

/// The length of the plain string content at the start of `bytes`: the
/// bytes before the first `"`, `\` or control byte (below 0x20), or all of
/// them. Eight bytes are tested at a time: a byte is flagged when it
/// equals a target (zero after the XOR) or is below 0x20, by subtracting
/// per byte and keeping the high bits of bytes that had theirs clear. A
/// borrow only carries upward, from a flagged byte into the next, so the
/// lowest flagged byte is always a true match and is the only one used.
#[inline]
fn plain_len(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * n as u64) & !w;
    let mut chunks = bytes.chunks_exact(8);
    let mut len = 0;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let quote = w ^ (ONES * b'"' as u64);
        let backslash = w ^ (ONES * b'\\' as u64);
        let hits = (below(quote, 1) | below(backslash, 1) | below(w, 0x20)) & HIGHS;
        if hits != 0 {
            return len + (hits.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    let tail = chunks.remainder();
    len + tail.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20).unwrap_or(tail.len())
}

/// What a number token holds, by the JSONiq lexical mapping.
enum NumberShape {
    /// No fraction, no exponent.
    Integer,
    /// A fraction, no exponent.
    Fraction,
    Exponent,
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    limits: ParseLimits,
    scratch: String,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        self.err_at(kind, self.pos)
    }

    /// Builds an error, computing line/column by scanning the prefix once.
    /// This is cold: the happy path never pays for position tracking.
    #[cold]
    fn err_at(&self, kind: JsonErrorKind, offset: usize) -> JsonError {
        let offset = offset.min(self.bytes.len());
        let mut line = 1usize;
        let mut line_start = 0usize;
        for (i, &b) in self.bytes[..offset].iter().enumerate() {
            if b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        JsonError::at(kind, offset, line, offset - line_start + 1)
    }

    /// The error for the byte at the cursor, which the grammar does not
    /// allow there.
    fn unexpected(&self) -> JsonError {
        self.err(match self.peek() {
            Some(b) => JsonErrorKind::UnexpectedByte(b),
            None => JsonErrorKind::UnexpectedEof,
        })
    }

    fn patch_sink_err(&self, mut e: JsonError, offset: usize) -> JsonError {
        if e.kind == JsonErrorKind::Sink && e.offset == 0 && e.line == 0 {
            let pos = self.err_at(JsonErrorKind::Sink, offset);
            e.offset = pos.offset;
            e.line = pos.line;
            e.column = pos.column;
        }
        e
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value<S: JsonSink>(&mut self, sink: &mut S, depth: usize) -> Result<()> {
        if depth > self.limits.max_depth {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        let start = self.pos;
        match self.peek() {
            Some(b'{') => self.object(sink, depth),
            Some(b'[') => self.array(sink, depth),
            Some(b'"') => self.string_with(|s| sink.string(s)),
            Some(b't') => {
                self.literal(b"true")?;
                sink.boolean(true).map_err(|e| self.patch_sink_err(e, start))
            }
            Some(b'f') => {
                self.literal(b"false")?;
                sink.boolean(false).map_err(|e| self.patch_sink_err(e, start))
            }
            Some(b'n') => {
                self.literal(b"null")?;
                sink.null().map_err(|e| self.patch_sink_err(e, start))
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(sink),
            _ => Err(self.unexpected()),
        }
    }

    /// Walks a value the sink declined, through the same token and
    /// punctuation steps as [`value`](Self::value), so it fails where and
    /// as a full parse would; only decimal-shaped numbers reach the sink.
    fn skip<S: JsonSink>(&mut self, sink: &mut S, depth: usize) -> Result<()> {
        if depth > self.limits.max_depth {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            Some(b'{') => {
                if !self.open(b'}') {
                    loop {
                        self.member_key()?;
                        self.skip_string()?;
                        self.colon()?;
                        self.skip(sink, depth + 1)?;
                        if self.comma_or_close(b'}')? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'[') => {
                if !self.open(b']') {
                    loop {
                        self.skip_ws();
                        self.skip(sink, depth + 1)?;
                        if self.comma_or_close(b']')? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'"') => self.skip_string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-') | Some(b'0'..=b'9') => {
                let (start, shape) = self.number_token()?;
                let raw = &self.input[start..self.pos];
                let decimal = match shape {
                    NumberShape::Exponent => false,
                    NumberShape::Fraction => true,
                    // Eighteen digits always fit in `i64`.
                    NumberShape::Integer => raw.len() > 18 && raw.parse::<i64>().is_err(),
                };
                if !decimal {
                    return Ok(());
                }
                sink.skipped_decimal(raw).map_err(|e| self.patch_sink_err(e, start))
            }
            _ => Err(self.unexpected()),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(JsonErrorKind::BadLiteral))
        }
    }

    /// Consumes a container's opening byte and the whitespace after it;
    /// `true` (with `close` consumed too) if the container is empty.
    #[inline]
    fn open(&mut self, close: u8) -> bool {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
        }
        empty
    }

    /// Skips to a member's key, which must start here.
    #[inline]
    fn member_key(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(()),
            _ => Err(self.unexpected()),
        }
    }

    /// Consumes the `:` after a member's key and the whitespace around it.
    #[inline]
    fn colon(&mut self) -> Result<()> {
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.unexpected());
        }
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// Consumes what follows a member or element: a `,` (`false`) or the
    /// container's `close` byte (`true`).
    #[inline]
    fn comma_or_close(&mut self, close: u8) -> Result<bool> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.unexpected()),
        }
    }

    fn object<S: JsonSink>(&mut self, sink: &mut S, depth: usize) -> Result<()> {
        let start = self.pos;
        sink.begin_object().map_err(|e| self.patch_sink_err(e, start))?;
        if !self.open(b'}') {
            loop {
                self.member_key()?;
                self.string_with(|k| sink.key(k))?;
                let skip = sink.skip_value();
                self.colon()?;
                if skip {
                    self.skip(sink, depth + 1)?;
                } else {
                    self.value(sink, depth + 1)?;
                }
                if self.comma_or_close(b'}')? {
                    break;
                }
            }
        }
        sink.end_object().map_err(|e| self.patch_sink_err(e, start))
    }

    fn array<S: JsonSink>(&mut self, sink: &mut S, depth: usize) -> Result<()> {
        let start = self.pos;
        sink.begin_array().map_err(|e| self.patch_sink_err(e, start))?;
        if !self.open(b']') {
            loop {
                self.skip_ws();
                self.value(sink, depth + 1)?;
                if self.comma_or_close(b']')? {
                    break;
                }
            }
        }
        sink.end_array().map_err(|e| self.patch_sink_err(e, start))
    }

    /// Walks a string token (the cursor is on its opening quote) without
    /// keeping its text.
    #[inline]
    fn skip_string(&mut self) -> Result<()> {
        let end = self.pos + 1 + plain_len(&self.bytes[self.pos + 1..]);
        if self.bytes.get(end) == Some(&b'"') {
            self.pos = end + 1;
            return Ok(());
        }
        // An escape to check, or an error to raise where a parse would.
        self.string_with(|_| Ok(()))
    }

    /// Reads a string token (the cursor is on its opening quote) and hands
    /// its text to `f`; an error `f` raises is placed at the token.
    fn string_with(&mut self, f: impl FnOnce(&str) -> Result<()>) -> Result<()> {
        let start = self.pos;
        // Borrow the scratch buffer around the call so `f` sees either a
        // slice of the input (fast path) or the unescaped text.
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = self
            .string_token(&mut scratch)
            .and_then(|s| f(s).map_err(|e| self.patch_sink_err(e, start)));
        self.scratch = scratch;
        r
    }

    /// Parses a string token (the cursor is on the opening quote). Returns a
    /// slice of the input when the string has no escapes, otherwise the
    /// unescaped content accumulated in `scratch`.
    #[inline]
    fn string_token<'s>(&mut self, scratch: &'s mut String) -> Result<&'s str>
    where
        'a: 's,
    {
        debug_assert_eq!(self.peek(), Some(b'"'));
        let content_start = self.pos + 1;
        self.pos = content_start + plain_len(&self.bytes[content_start..]);
        // Fast path: no escape before the closing quote.
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(&self.input[content_start..self.pos - 1]);
        }
        self.escaped_string(content_start, scratch)
    }

    /// The rest of a string token that holds an escape, or is malformed:
    /// the cursor is on the first byte after `content_start` that is not
    /// plain. Kept out of line so the fast path above stays small.
    #[inline(never)]
    fn escaped_string<'s>(
        &mut self,
        content_start: usize,
        scratch: &'s mut String,
    ) -> Result<&'s str>
    where
        'a: 's,
    {
        // Copy the plain runs, unescape the rest. A run ends at an ASCII
        // byte or the end of input, so on a UTF-8 boundary.
        scratch.clear();
        scratch.push_str(&self.input[content_start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(scratch.as_str());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.unescape_into(scratch)?;
                }
                Some(_) => return Err(self.err(JsonErrorKind::BadControlChar)),
            }
            let run = self.pos;
            self.pos += plain_len(&self.bytes[run..]);
            scratch.push_str(&self.input[run..self.pos]);
        }
    }

    /// The cursor is just past a backslash; decodes one escape into `out`.
    fn unescape_into(&mut self, out: &mut String) -> Result<()> {
        let b = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEof))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a following \uXXXX low surrogate.
                    if self.bytes.get(self.pos) == Some(&b'\\')
                        && self.bytes.get(self.pos + 1) == Some(&b'u')
                    {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err(JsonErrorKind::BadEscape));
                        }
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(c).ok_or_else(|| self.err(JsonErrorKind::BadEscape))?
                    } else {
                        return Err(self.err(JsonErrorKind::BadEscape));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    // Lone low surrogate.
                    return Err(self.err(JsonErrorKind::BadEscape));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err(JsonErrorKind::BadEscape))?
                };
                out.push(ch);
            }
            _ => return Err(self.err_at(JsonErrorKind::BadEscape, self.pos - 1)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEof))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err(JsonErrorKind::BadEscape)),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Scans one number token (the cursor is on its first byte), checking
    /// its syntax; returns where it starts and its shape.
    fn number_token(&mut self) -> Result<(usize, NumberShape)> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: either a single 0 or [1-9][0-9]*.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err(JsonErrorKind::BadNumber)),
        }
        let mut shape = NumberShape::Integer;
        if self.peek() == Some(b'.') {
            shape = NumberShape::Fraction;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            shape = NumberShape::Exponent;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            self.digits();
        }
        Ok((start, shape))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number<S: JsonSink>(&mut self, sink: &mut S) -> Result<()> {
        let (start, shape) = self.number_token()?;
        let raw = &self.input[start..self.pos];
        let r = match shape {
            NumberShape::Exponent => {
                // Every token `number_token` accepts parses, so `skip` need
                // not parse one to fail where this would.
                let v: f64 =
                    raw.parse().map_err(|_| self.err_at(JsonErrorKind::BadNumber, start))?;
                sink.double(v)
            }
            NumberShape::Fraction => sink.decimal(raw),
            NumberShape::Integer => match raw.parse::<i64>() {
                Ok(v) => sink.integer(v),
                // Too large for i64: hand the raw digits over as a decimal so
                // no precision is silently lost.
                Err(_) => sink.decimal(raw),
            },
        };
        r.map_err(|e| self.patch_sink_err(e, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records events as compact strings for assertions; with `declines`
    /// set it declines every member's value, and with `refuses_decimals`
    /// it fails on every decimal, built or skipped.
    #[derive(Default)]
    struct Trace {
        events: Vec<String>,
        declines: bool,
        refuses_decimals: bool,
    }

    impl Trace {
        fn push(&mut self, event: String) -> Result<()> {
            self.events.push(event);
            Ok(())
        }

        fn push_decimal(&mut self, event: String) -> Result<()> {
            if self.refuses_decimals {
                return Err(JsonError::sink(format!("no {event}")));
            }
            self.push(event)
        }
    }

    impl JsonSink for Trace {
        fn null(&mut self) -> Result<()> {
            self.push("null".into())
        }
        fn boolean(&mut self, v: bool) -> Result<()> {
            self.push(format!("bool:{v}"))
        }
        fn integer(&mut self, v: i64) -> Result<()> {
            self.push(format!("int:{v}"))
        }
        fn decimal(&mut self, raw: &str) -> Result<()> {
            self.push_decimal(format!("dec:{raw}"))
        }
        fn double(&mut self, v: f64) -> Result<()> {
            self.push(format!("dbl:{v}"))
        }
        fn string(&mut self, v: &str) -> Result<()> {
            self.push(format!("str:{v}"))
        }
        fn begin_object(&mut self) -> Result<()> {
            self.push("{".into())
        }
        fn key(&mut self, k: &str) -> Result<()> {
            self.push(format!("key:{k}"))
        }
        fn end_object(&mut self) -> Result<()> {
            self.push("}".into())
        }
        fn begin_array(&mut self) -> Result<()> {
            self.push("[".into())
        }
        fn end_array(&mut self) -> Result<()> {
            self.push("]".into())
        }
        fn skip_value(&mut self) -> bool {
            self.declines
        }
        fn skipped_decimal(&mut self, raw: &str) -> Result<()> {
            self.push_decimal(format!("skipped-dec:{raw}"))
        }
    }

    fn trace_with(input: &str, declines: bool, limits: ParseLimits) -> Result<Vec<String>> {
        let mut t = Trace { declines, ..Trace::default() };
        parse_with_limits(input, &mut t, limits)?;
        Ok(t.events)
    }

    fn trace(input: &str) -> Result<Vec<String>> {
        trace_with(input, false, ParseLimits::default())
    }

    #[test]
    fn scalars() {
        assert_eq!(trace("null").unwrap(), ["null"]);
        assert_eq!(trace("true").unwrap(), ["bool:true"]);
        assert_eq!(trace("false").unwrap(), ["bool:false"]);
        assert_eq!(trace("42").unwrap(), ["int:42"]);
        assert_eq!(trace("-7").unwrap(), ["int:-7"]);
        assert_eq!(trace("0").unwrap(), ["int:0"]);
        assert_eq!(trace("3.25").unwrap(), ["dec:3.25"]);
        assert_eq!(trace("-0.5").unwrap(), ["dec:-0.5"]);
        assert_eq!(trace("3e2").unwrap(), ["dbl:300"]);
        assert_eq!(trace("2.5E-1").unwrap(), ["dbl:0.25"]);
        assert_eq!(trace(r#""hi""#).unwrap(), ["str:hi"]);
    }

    #[test]
    fn big_integer_becomes_decimal() {
        assert_eq!(trace("123456789012345678901").unwrap(), ["dec:123456789012345678901"]);
        assert_eq!(trace("9223372036854775807").unwrap(), ["int:9223372036854775807"]);
        assert_eq!(trace("9223372036854775808").unwrap(), ["dec:9223372036854775808"]);
    }

    #[test]
    fn structures() {
        assert_eq!(
            trace(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap(),
            ["{", "key:a", "[", "int:1", "{", "key:b", "null", "}", "]", "key:c", "str:x", "}"]
        );
        assert_eq!(trace("[]").unwrap(), ["[", "]"]);
        assert_eq!(trace("{}").unwrap(), ["{", "}"]);
        assert_eq!(trace(" [ 1 , 2 ] ").unwrap(), ["[", "int:1", "int:2", "]"]);
    }

    #[test]
    fn escapes() {
        assert_eq!(trace(r#""a\nb""#).unwrap(), ["str:a\nb"]);
        assert_eq!(trace(r#""Aé""#).unwrap(), ["str:Aé"]);
        assert_eq!(trace(r#""😀""#).unwrap(), ["str:😀"]);
        assert_eq!(trace(r#""\\\"\/""#).unwrap(), [r#"str:\"/"#]);
        assert_eq!(trace(r#""tab\there""#).unwrap(), ["str:tab\there"]);
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(trace(r#""héllo wörld — ok""#).unwrap(), ["str:héllo wörld — ok"]);
    }

    #[test]
    fn errors_have_positions() {
        let e = trace("[1, 2,\n 3,,]").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.kind, JsonErrorKind::UnexpectedByte(b','));

        let e = trace("{\"a\" 1}").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::UnexpectedByte(b'1'));

        let e = trace("tru").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::BadLiteral);

        let e = trace("12.").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::BadNumber);

        let e = trace("1 2").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TrailingContent);

        let e = trace(r#""unterminated"#).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::UnexpectedEof);

        let e = trace(r#""bad \q escape""#).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::BadEscape);

        let e = trace(r#""lone \ud800 surrogate""#).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::BadEscape);
    }

    #[test]
    fn leading_zeros_rejected() {
        assert_eq!(trace("01").unwrap_err().kind, JsonErrorKind::TrailingContent);
        assert_eq!(trace("-01").unwrap_err().kind, JsonErrorKind::TrailingContent);
    }

    #[test]
    fn depth_limit() {
        let deep: String = "[".repeat(600) + &"]".repeat(600);
        let e = trace(&deep).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        let ok: String = "[".repeat(100) + &"]".repeat(100);
        assert!(trace(&ok).is_ok());
        assert!(trace_with(&ok, false, ParseLimits { max_depth: 10 }).is_err());
    }

    #[test]
    fn sink_errors_get_positions() {
        struct Refuser;
        impl JsonSink for Refuser {
            fn null(&mut self) -> Result<()> {
                Ok(())
            }
            fn boolean(&mut self, _: bool) -> Result<()> {
                Ok(())
            }
            fn integer(&mut self, _: i64) -> Result<()> {
                Err(JsonError::sink("no integers today"))
            }
            fn decimal(&mut self, _: &str) -> Result<()> {
                Ok(())
            }
            fn double(&mut self, _: f64) -> Result<()> {
                Ok(())
            }
            fn string(&mut self, _: &str) -> Result<()> {
                Ok(())
            }
            fn begin_object(&mut self) -> Result<()> {
                Ok(())
            }
            fn key(&mut self, _: &str) -> Result<()> {
                Ok(())
            }
            fn end_object(&mut self) -> Result<()> {
                Ok(())
            }
            fn begin_array(&mut self) -> Result<()> {
                Ok(())
            }
            fn end_array(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let mut s = Refuser;
        let e = parse("\n\n  42", &mut s).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::Sink);
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("no integers today"));
    }

    #[test]
    fn a_declined_value_reaches_the_sink_only_through_skipped_decimal() {
        let doc = r#"{"a": [1, {"b": "x\ny", "c": [true, null]}, 2.5, 99999999999999999999,
            -9223372036854775808, 1e3, "😀"], "d": {"e": -0.5}, "f": 7}"#;
        assert_eq!(
            trace_with(doc, true, ParseLimits::default()).unwrap(),
            [
                "{",
                "key:a",
                "skipped-dec:2.5",
                "skipped-dec:99999999999999999999",
                "key:d",
                "skipped-dec:-0.5",
                "key:f",
                "}"
            ]
        );
        // Only members are declined: the elements of a top-level array are
        // built.
        assert_eq!(
            trace_with("[1, 2.5]", true, ParseLimits::default()).unwrap(),
            ["[", "int:1", "dec:2.5", "]"]
        );
    }

    /// Asserts that `doc` fails the same way, kind and position, whether
    /// its members are built or declined.
    fn assert_fails_alike(doc: &str, limits: ParseLimits) -> JsonError {
        let full = trace_with(doc, false, limits).unwrap_err();
        let declined = trace_with(doc, true, limits).unwrap_err();
        assert_eq!(
            (declined.kind, declined.offset, declined.line, declined.column),
            (full.kind, full.offset, full.line, full.column),
            "{doc}"
        );
        full
    }

    #[test]
    fn a_malformed_declined_member_fails_exactly_as_a_full_parse() {
        for (member, kind) in [
            (r#""unterminated"#, JsonErrorKind::UnexpectedEof),
            (r#""long enough to cross a chunk \q""#, JsonErrorKind::BadEscape),
            (r#""\u12g4""#, JsonErrorKind::BadEscape),
            (r#""lone low \udc00""#, JsonErrorKind::BadEscape),
            (r#""high then not low \ud800A""#, JsonErrorKind::BadEscape),
            (r#""high at the end \ud800""#, JsonErrorKind::BadEscape),
            ("\"control \u{1} byte\"", JsonErrorKind::BadControlChar),
            ("\"a newline\nin a string\"", JsonErrorKind::BadControlChar),
            ("tru", JsonErrorKind::BadLiteral),
            ("nul", JsonErrorKind::BadLiteral),
            ("01", JsonErrorKind::UnexpectedByte(b'1')),
            ("1.", JsonErrorKind::BadNumber),
            ("1.}", JsonErrorKind::BadNumber),
            ("1e", JsonErrorKind::BadNumber),
            ("1e+}", JsonErrorKind::BadNumber),
            ("-", JsonErrorKind::BadNumber),
            ("+1", JsonErrorKind::UnexpectedByte(b'+')),
            (r#"{"b" 1}"#, JsonErrorKind::UnexpectedByte(b'1')),
            (r#"{"b": 1 "c": 2}"#, JsonErrorKind::UnexpectedByte(b'"')),
            (r#"{"b": 1,}"#, JsonErrorKind::UnexpectedByte(b'}')),
            (r#"{b: 1}"#, JsonErrorKind::UnexpectedByte(b'b')),
            ("[1 2]", JsonErrorKind::UnexpectedByte(b'2')),
            ("[1,]", JsonErrorKind::UnexpectedByte(b']')),
            ("[1, [2, {\"c\": [3", JsonErrorKind::UnexpectedByte(b'}')),
            ("", JsonErrorKind::UnexpectedByte(b'}')),
            ("}", JsonErrorKind::UnexpectedByte(b'}')),
        ] {
            // A second line, so that line and column are checked too.
            let doc = format!("{{\"a\": 1,\n  \"x\": {member}}}");
            assert_eq!(assert_fails_alike(&doc, ParseLimits::default()).kind, kind, "{doc}");
        }
        // Truncated anywhere, a document fails alike.
        let doc = r#"{"a": {"b": [1, -2.5e-3, "s\"é", {"c": null}], "d": false}, "e": 3}"#;
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert_fails_alike(&doc[..cut], ParseLimits::default());
        }
    }

    #[test]
    fn a_declined_member_nested_past_the_depth_limit_fails_alike() {
        let limits = ParseLimits { max_depth: 4 };
        let e = assert_fails_alike(r#"{"a": [[[{"b": 1}]]]}"#, limits);
        assert_eq!((e.kind, e.offset), (JsonErrorKind::TooDeep, 15));
        assert!(trace_with(r#"{"a": [[[1]]]}"#, true, limits).is_ok());
        let deep = format!("{{\"a\": {}{}}}", "[".repeat(600), "]".repeat(600));
        assert_eq!(assert_fails_alike(&deep, ParseLimits::default()).kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn a_sink_error_on_a_skipped_decimal_is_placed_as_on_a_built_one() {
        for number in ["0.5", "123456789012345678901234567890"] {
            let doc = format!("{{\"a\": [1,\n {number}]}}");
            let fail = |declines| {
                let mut sink = Trace { declines, refuses_decimals: true, ..Trace::default() };
                parse(&doc, &mut sink).unwrap_err()
            };
            let (full, declined) = (fail(false), fail(true));
            assert_eq!((full.kind, full.offset, full.line), (JsonErrorKind::Sink, 11, 2));
            assert_eq!((declined.kind, declined.offset, declined.line), (full.kind, 11, 2));
            assert!(declined.to_string().contains(&format!("no skipped-dec:{number}")));
        }
    }

    /// What [`plain_len`] computes, one byte at a time.
    fn plain_len_bytewise(bytes: &[u8]) -> usize {
        bytes.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20).unwrap_or(bytes.len())
    }

    #[test]
    fn plain_len_finds_a_stop_byte_at_every_offset() {
        // Fillers next to every edge of the tests: the lowest non-control
        // byte, the bytes around `"` and `\`, DEL, and non-ASCII bytes.
        for filler in [b' ', b'!', b'#', b'[', b']', b'a', 0x7f, 0x80, 0xc3, 0xff] {
            for stop in [b'"', b'\\', 0x00, 0x01, b'\n', 0x1f] {
                for at in 0..18 {
                    let mut bytes = vec![filler; 24];
                    bytes[at] = stop;
                    // A second stop above the first: only the first counts.
                    bytes[at + 3] = b'"';
                    assert_eq!(plain_len(&bytes), at, "{filler:#x} {stop:#x} at {at}");
                    assert_eq!(plain_len(&bytes[..at]), at, "no stop in {at} bytes");
                }
            }
        }
        // Random bytes dense in stop bytes and their neighbours, where the
        // chunked subtraction borrows.
        let alphabet =
            [0x00, 0x1f, 0x20, 0x21, 0x22, 0x23, 0x5b, 0x5c, 0x5d, 0x61, 0x7f, 0x80, 0xff];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % 25) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|i| {
                    // Mostly plain bytes, so that stops land late too.
                    let pick = (state >> (2 * i % 60)) as usize;
                    if pick.is_multiple_of(5) {
                        alphabet[pick / 5 % alphabet.len()]
                    } else {
                        b'a'
                    }
                })
                .collect();
            assert_eq!(plain_len(&bytes), plain_len_bytewise(&bytes), "{bytes:x?}");
        }
    }

    #[test]
    fn strings_parse_alike_whatever_the_chunk_edges() {
        // A quote, an escape or a control byte at every offset.
        for at in 0..18 {
            let pad = "p".repeat(at);
            assert_eq!(trace(&format!("\"{pad}\"")).unwrap(), [format!("str:{pad}")]);
            let escaped = format!("\"{pad}\\\"{pad}\\n\"");
            assert_eq!(trace(&escaped).unwrap(), [format!("str:{pad}\"{pad}\n")]);
            let e = trace(&format!("\"{pad}\u{1f}\"")).unwrap_err();
            assert_eq!((e.kind, e.offset), (JsonErrorKind::BadControlChar, at + 1));
            // Unterminated at the end of input, with and without an escape.
            let e = trace(&format!("\"{pad}")).unwrap_err();
            assert_eq!((e.kind, e.offset), (JsonErrorKind::UnexpectedEof, at + 1));
            let e = trace(&format!("\"\\t{pad}")).unwrap_err();
            assert_eq!((e.kind, e.offset), (JsonErrorKind::UnexpectedEof, at + 3));
        }
        // 2-, 3- and 4-byte scalars straddling an 8-byte edge, before a
        // closing quote or an escape.
        for scalar in ["é", "€", "😀"] {
            for at in 0..10 {
                let text = format!("{}{scalar}{}", "a".repeat(at), "b".repeat(9));
                assert_eq!(trace(&format!("\"{text}\"")).unwrap(), [format!("str:{text}")]);
                let doc = format!("\"\\/{text}\\u00e9{text}\"");
                assert_eq!(trace(&doc).unwrap(), [format!("str:/{text}é{text}")]);
                let e = trace(&format!("\"{text}")).unwrap_err();
                assert_eq!((e.kind, e.offset), (JsonErrorKind::UnexpectedEof, text.len() + 1));
            }
        }
    }
}
