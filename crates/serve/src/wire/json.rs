//! A small, dependency-free JSON value: encoder plus a recursive-descent
//! decoder.
//!
//! The server cannot pull serde (the build environment vendors every
//! dependency), and the JSON it speaks is simple: finite numbers, strings,
//! booleans, nulls, arrays and objects. Two properties matter here:
//!
//! * **numbers round-trip bit-for-bit** — values are encoded with Rust's
//!   shortest-round-trip `f64` formatting, so a ranking score printed into a
//!   response and parsed back by a client compares bit-identical to the
//!   in-process value (the acceptance criterion of the wire protocol);
//! * **objects preserve insertion order** — an object is a `Vec` of pairs,
//!   so encoded reports (benchmarks, metrics) stay diff-friendly.
//!
//! Decoding guards against hostile input with a nesting-depth limit and
//! full string-escape handling (`\uXXXX` included, surrogate pairs too).

use std::fmt;

/// Maximum nesting depth the decoder accepts (the server parses untrusted
/// request bodies, so deeply nested input must fail, not overflow the stack).
const MAX_DEPTH: usize = 96;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values cannot be represented in JSON and encode
    /// as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when encoding.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn array(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// The value of an object member, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`, if this is a non-negative integral
    /// number that fits.
    pub fn index(&self) -> Option<usize> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Encode compactly (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Encode with two-space indentation, for reports meant to be read and
    /// diffed by humans (benchmark files, metrics dumps).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, level, ['[', ']'], items, |out, item| {
                item.write(out, indent, level + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, level, ['{', '}'], pairs, |out, pair| {
                let (key, value) = pair;
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                value.write(out, indent, level + 1);
            }),
        }
    }
}

/// Write `items` between the `brackets`, comma-separated, each on a line of
/// its own when indenting; an empty sequence is just the two brackets.
fn write_seq<I: IntoIterator>(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    [open, close]: [char; 2],
    items: I,
    mut write_item: impl FnMut(&mut String, I::Item),
) {
    let newline = |out: &mut String, level: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * level));
        }
    };
    out.push(open);
    let mut empty = true;
    for item in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, level + 1);
        write_item(out, item);
    }
    if !empty {
        newline(out, level);
    }
    out.push(close);
}

/// Shortest-round-trip number formatting; integral values print without the
/// trailing `.0` (Rust's `Display` already does both), non-finite values
/// print as `null` because JSON has no representation for them.
fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        // This IS the shortest-round-trip codec: Rust's `Display` prints the
        // fewest digits that parse back to the same bits. A precision spec
        // here (or anywhere in wire/) would truncate; CI greps for one.
        out.push_str(&format!("{x}"));
    } else {
        out.push_str("null");
    }
}

/// `byte` in each of the eight byte lanes of a word — the constant of the
/// word-at-a-time (SWAR) scans here and in [`super::frames`].
pub(super) const fn lanes(byte: u8) -> u64 {
    0x0101_0101_0101_0101 * byte as u64
}

/// The bytes of `word` a JSON string cannot hold verbatim — the quote, the
/// backslash and the C0 controls — as the top bits of their lanes, read
/// little-endian so the lowest flagged lane is the first byte that needs an
/// escape. That lowest lane is always exact; lanes above it may be flagged by
/// its borrow.
fn escapes(word: [u8; 8]) -> u64 {
    // The zero-lane trick: `(x - lanes(n)) & !x` tops a lane below `n`.
    let below = |x: u64, n: u8| x.wrapping_sub(lanes(n)) & !x;
    let x = u64::from_le_bytes(word);
    (below(x ^ lanes(b'"'), 1) | below(x ^ lanes(b'\\'), 1) | below(x, 0x20)) & lanes(0x80)
}

/// The offset of the first byte of `bytes` that needs an escape. The three
/// kinds are ASCII, so they never occur inside a multi-byte UTF-8 scalar
/// and the offset is always a char boundary.
fn first_escape(bytes: &[u8]) -> Option<usize> {
    // Skip escape-free stretches 32 bytes per step, then find the word that
    // hits; the tail is padded with spaces, which need no escape.
    let (blocks, _) = bytes.as_chunks::<32>();
    let clean = blocks
        .iter()
        .take_while(|block| {
            let (words, _) = block.as_chunks::<8>();
            words.iter().fold(0, |any, &word| any | escapes(word)) == 0
        })
        .count()
        * 32;
    let (words, tail) = bytes.get(clean..).unwrap_or_default().as_chunks::<8>();
    let mut last = [b' '; 8];
    last.iter_mut()
        .zip(tail)
        .for_each(|(lane, &byte)| *lane = byte);
    words
        .iter()
        .copied()
        .chain([last])
        .enumerate()
        .find_map(|(i, word)| {
            let hits = escapes(word);
            (hits != 0).then(|| clean + i * 8 + hits.trailing_zeros() as usize / 8)
        })
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each escape-free run in one `push_str`; an escape-free string (a
    // 250 kB hex run, say) is a single copy.
    let mut rest = s;
    while let Some(at) = first_escape(rest.as_bytes()) {
        let (plain, tail) = rest.split_at(at);
        out.push_str(plain);
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.push_str("\\\""),
            Some('\\') => out.push_str("\\\\"),
            Some('\n') => out.push_str("\\n"),
            Some('\r') => out.push_str("\\r"),
            Some('\t') => out.push_str("\\t"),
            Some('\u{8}') => out.push_str("\\b"),
            Some('\u{c}') => out.push_str("\\f"),
            Some(c) => out.push_str(&format!("\\u{:04x}", c as u32)),
            None => {}
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u16> for Json {
    fn from(x: u16) -> Json {
        Json::Num(f64::from(x))
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// A decoding error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse a JSON document. Exactly one value is accepted; trailing non-space
/// input is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The input, for copying string runs without re-validating UTF-8.
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{literal}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (low as u32 - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit as u32)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once. Those delimiters are ASCII, so
                    // the run starts and ends on char boundaries of the
                    // (already valid) input and needs no second validation.
                    let rest = self
                        .text
                        .get(self.pos..)
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    let run = first_escape(rest.as_bytes()).unwrap_or(rest.len());
                    let (plain, _) = rest.split_at(run);
                    out.push_str(plain);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u16::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected a digit in the exponent"));
            }
        }
        // `pos` only advances past peeked bytes, so start <= pos <= len and
        // the range always exists; an empty text is "invalid number" anyway.
        let digits = self.bytes.get(start..self.pos).unwrap_or_default();
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid number"))?;
        let x: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte test the word-at-a-time [`first_escape`] replaced, kept
    /// as its oracle.
    fn needs_escape(byte: u8) -> bool {
        byte == b'"' || byte == b'\\' || byte < 0x20
    }

    /// A string's wire form, written one char at a time.
    fn per_char_encoding(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn the_first_escape_is_found_at_every_alignment() {
        let escapes = ['"', '\\'].into_iter().chain((0..0x20u8).map(char::from));
        let plain = ['\u{7f}', 'é', '€', '🦀', '\u{80}', 'a'];
        // Past two 32-byte blocks: the skip, the word search and the tail.
        for at in 0..72 {
            // The byte before the hit is ASCII or the end of a scalar.
            for lead in ["a".repeat(at), "é".repeat(at / 2) + &"a".repeat(at % 2)] {
                for c in escapes.clone().chain(plain) {
                    for tail in ["", "x", "\"", "abcdefghij\\", "é\n", "🦀🦀🦀"] {
                        let s = format!("{lead}{c}{tail}");
                        let expected = s.bytes().position(needs_escape);
                        assert_eq!(first_escape(s.as_bytes()), expected, "{s:?}");
                        if c.is_ascii() && needs_escape(c as u8) {
                            assert_eq!(expected, Some(at), "{s:?}");
                        }
                    }
                }
            }
        }
        assert_eq!(first_escape(b""), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random text heavy in escapes, DEL and multi-byte scalars: the scan
        /// agrees with the per-byte one from every char boundary on, the
        /// encoder writes what a per-char encoder writes, and the parser gives
        /// the text back, as a value and as a key.
        #[test]
        fn strings_agree_with_the_per_byte_references_and_round_trip(
            scalars in proptest::collection::vec(
                prop_oneof![
                    6 => 0x20u32..0x7f,
                    2 => 0u32..0x20,
                    1 => Just(0x22u32),
                    1 => Just(0x5cu32),
                    1 => Just(0x7fu32),
                    1 => 0x80u32..0x800,
                    1 => 0x800u32..0xd800,
                    1 => 0x10000u32..0x11_0000,
                ],
                0..64,
            ),
        ) {
            let text: String = scalars.into_iter().filter_map(char::from_u32).collect();
            for (at, _) in text.char_indices() {
                let rest = &text.as_bytes()[at..];
                prop_assert_eq!(first_escape(rest), rest.iter().position(|&b| needs_escape(b)));
            }
            let encoded = Json::from(text.as_str()).encode();
            prop_assert_eq!(&encoded, &per_char_encoding(&text));
            prop_assert_eq!(parse(&encoded).unwrap().str(), Some(text.as_str()));
            let object = Json::object(vec![(text.clone(), Json::from(text.as_str()))]);
            prop_assert_eq!(parse(&object.encode()).unwrap(), object);
        }
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.25", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for &x in &[
            0.0,
            -0.0,
            1.5,
            -2.25,
            1e-300,
            123_456_789.125,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.1 + 0.2,
            4.400000000000001,
        ] {
            let encoded = Json::Num(x).encode();
            let back = parse(&encoded).unwrap().num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {encoded} -> {back}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\t\"quoted\" \\slash\\ 🦀 \u{1} ok";
        let encoded = Json::Str(original.to_string()).encode();
        assert_eq!(parse(&encoded).unwrap().str().unwrap(), original);
        // Standard escapes parse too.
        let v = parse(r#""aAé🦀b\/""#).unwrap();
        assert_eq!(v.str().unwrap(), "aAé🦀b/");
    }

    #[test]
    fn objects_preserve_order_and_support_get() {
        let v = Json::object(vec![
            ("zeta", Json::from(1.0)),
            ("alpha", Json::from("x")),
            ("flag", Json::from(true)),
        ]);
        assert_eq!(v.encode(), r#"{"zeta":1,"alpha":"x","flag":true}"#);
        let back = parse(&v.encode()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("alpha").unwrap().str(), Some("x"));
        assert_eq!(back.get("zeta").unwrap().num(), Some(1.0));
        assert_eq!(back.get("missing"), None);
        assert_eq!(back.get("flag").unwrap().bool(), Some(true));
    }

    #[test]
    fn arrays_and_nesting() {
        let text = r#" { "a" : [ 1 , [ 2, {"b": [] } ] , null ] } "#;
        let v = parse(text).unwrap();
        let items = v.get("a").unwrap().items().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2], Json::Null);
    }

    #[test]
    fn pretty_output_is_reparsable_and_indented() {
        let v = Json::object(vec![
            ("name", Json::from("atlas")),
            (
                "points",
                Json::array(vec![Json::from(1.0), Json::from(2.0)]),
            ),
            ("empty", Json::object::<String>(vec![])),
        ]);
        let pretty = v.pretty();
        assert!(pretty.contains("\n  \"name\""));
        assert!(pretty.contains("\"empty\": {}"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_input_is_rejected_with_positions() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1 2",
            "{\"a\":1} extra",
            "\"\\ud800 unpaired\"",
            "- 1",
            "01x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_runs_split_exactly_at_escapes_and_multibyte_scalars() {
        // (wire form, decoded form): escapes at the start, at the end, back
        // to back, and hard against multi-byte UTF-8 on either side.
        for (wire, decoded) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""\\lead""#, "\\lead"),
            (r#""trail\n""#, "trail\n"),
            (r#""\"\\\"""#, "\"\\\""),
            (r#""a\tb\tc""#, "a\tb\tc"),
            (r#""é\né""#, "é\né"),
            (r#""\\🦀\\""#, "\\🦀\\"),
            (r#""日本\"語\"""#, "日本\"語\""),
            (r#""x\u0001y""#, "x\u{1}y"),
            (r#""\b\f""#, "\u{8}\u{c}"),
        ] {
            let parsed = parse(wire).unwrap();
            assert_eq!(parsed.str(), Some(decoded), "{wire}");
            assert_eq!(parsed.encode(), wire, "{decoded:?}");
        }
        // Escapes the encoder never emits still decode across run borders.
        assert_eq!(parse(r#""é\u00e9\/é""#).unwrap().str(), Some("éé/é"));
        assert_eq!(parse(r#""a\ud83e\udd80b""#).unwrap().str(), Some("a🦀b"));
        // A long escape-free run (the shape of a hex frame) is one copy.
        let run = "0123456789abcdef".repeat(4096);
        let wire = format!("\"{run}\"");
        assert_eq!(parse(&wire).unwrap().str(), Some(run.as_str()));
        assert_eq!(Json::from(run).encode(), wire);
    }

    #[test]
    fn string_errors_keep_their_byte_positions() {
        for (bad, position, message) in [
            // A raw control byte in the middle of a run, and after é.
            (
                "\"abc\u{1}def\"",
                4,
                "unescaped control character in string",
            ),
            ("\"é\ndef\"", 3, "unescaped control character in string"),
            (
                "[\"ok\",\"a\tb\"]",
                8,
                "unescaped control character in string",
            ),
            // Unterminated: the position is the end of the input.
            ("\"abc", 4, "unterminated string"),
            ("\"é", 3, "unterminated string"),
            ("\"abc\\\"", 6, "unterminated string"),
            ("{\"key", 5, "unterminated string"),
            // A bad escape right after a run.
            ("\"ab\\q\"", 4, "invalid escape sequence"),
            ("\"é\\u12\"", 5, "truncated \\u escape"),
            ("\"é\\ud800x\"", 9, "unpaired high surrogate"),
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(
                (err.position, err.message.as_str()),
                (position, message),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn encoding_a_parsed_document_reproduces_it() {
        // The compact documents of the tests above: parse then encode is the
        // identity on them, byte for byte.
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1",
            "3.25",
            "\"hi\"",
            r#"{"zeta":1,"alpha":"x","flag":true}"#,
            r#"{"a":[1,[2,{"b":[]}],null]}"#,
            r#"{"name":"atlas","points":[1,2],"empty":{}}"#,
            r#""line1\nline2\t\"quoted\" \\slash\\ 🦀 \u0001 ok""#,
            r#"{"len":130,"words":"8000000000000001000000000000000100000000000000002"}"#,
            r#"{"k\"ey":"v\\al","π":["é\n"]}"#,
        ] {
            assert_eq!(parse(text).unwrap().encode(), text);
        }
    }

    #[test]
    fn depth_limit_prevents_stack_overflow() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // A comfortably nested document still parses.
        let ok = "[".repeat(50) + "1" + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn index_accessor_validates() {
        assert_eq!(Json::Num(3.0).index(), Some(3));
        assert_eq!(Json::Num(3.5).index(), None);
        assert_eq!(Json::Num(-1.0).index(), None);
        assert_eq!(Json::Str("3".into()).index(), None);
    }
}
