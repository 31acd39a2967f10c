//! The JSON reader every [`crate::Deserialize`] impl pulls tokens from.

use std::borrow::Cow;

use crate::{Error, Value};

/// Arrays and objects nest at most this deep; deeper input is an error
/// instead of a stack overflow (upstream serde_json's limit).
pub const MAX_DEPTH: usize = 128;

/// Most bytes an escaped string's buffer reserves before it knows the
/// string's length; longer strings grow it.
const SPECULATIVE_CAPACITY: usize = 64 * 1024;

/// A JSON number as the reader classifies it: integers without a
/// fraction or exponent are `UInt`, or `Int` when negative; everything
/// else, including integers too wide for 64 bits, is `Float`.
#[derive(Debug)]
pub(crate) enum Number {
    /// Non-negative integer.
    UInt(u64),
    /// Integer written with a leading `-`.
    Int(i64),
    /// Any other number.
    Float(f64),
}

/// Reads JSON tokens from a borrowed string.
///
/// Each method skips leading whitespace, then reads one token. Strings
/// and object keys come back borrowed from the input unless they contain
/// escapes. Arrays read as [`Reader::begin_array`] followed by
/// [`Reader::next_element`] until it returns `false`; objects as
/// [`Reader::begin_object`] followed by [`Reader::next_key`] until it
/// returns `None`, with the caller reading or skipping each value.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// True from a container's opening bracket until its first entry.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Checks that only whitespace is left.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// The first byte of the next token, if any.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Consumes `null` and returns `true` if it is the next token.
    pub(crate) fn take_null(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.err("expected bool")),
        }
    }

    /// Reads a number.
    pub(crate) fn number(&mut self) -> Result<Number, Error> {
        self.skip_ws();
        let start = self.pos;
        if !matches!(self.byte(), Some(b) if b == b'-' || b.is_ascii_digit()) {
            return Err(self.err("expected number"));
        }
        self.pos += 1;
        self.digits();
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Some(magnitude) = text.strip_prefix('-') {
                if magnitude.parse::<u64>().is_ok() {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Number::Int(i));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.str_observed(|_| {})
    }

    /// Reads a string like [`Reader::str`] and passes each byte of the
    /// unescaped string to `observe` on the way, so a checksum over the
    /// string costs no second pass.
    pub fn str_observed(&mut self, mut observe: impl FnMut(u8)) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        self.expect(b'"')?;
        let (src, start) = (self.src, self.pos);
        let bytes = src.as_bytes();
        let mut at = start;
        loop {
            match bytes.get(at) {
                Some(b'"') => {
                    self.pos = at + 1;
                    // The string ends at an ASCII byte, so it is whole UTF-8.
                    return Ok(Cow::Borrowed(&src[start..at]));
                }
                Some(b'\\') => break,
                Some(&b) => observe(b),
                None => break,
            }
            at += 1;
        }
        // Escapes only shrink a string, so the rest of the input bounds
        // its length; a string far shorter than that gives the excess back.
        let mut out = String::with_capacity((bytes.len() - start).min(SPECULATIVE_CAPACITY));
        out.push_str(&src[start..at]);
        let mut run = at;
        loop {
            match bytes.get(at) {
                Some(b'"') => {
                    out.push_str(&src[run..at]);
                    self.pos = at + 1;
                    break;
                }
                Some(b'\\') => {
                    out.push_str(&src[run..at]);
                    self.pos = at + 1;
                    let c = self.escape()?;
                    c.encode_utf8(&mut [0; 4]).bytes().for_each(&mut observe);
                    out.push(c);
                    at = self.pos;
                    run = at;
                }
                Some(&b) => {
                    observe(b);
                    at += 1;
                }
                None => {
                    self.pos = at;
                    return Err(self.err("unterminated string"));
                }
            }
        }
        if out.capacity() - out.len() > out.len() {
            out.shrink_to_fit();
        }
        Ok(Cow::Owned(out))
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Advances to the next array item: `true` if one follows (read it
    /// next), `false` once the array has closed.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.more(b']')
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// Reads the next key and its `:` (read or skip the value next), or
    /// returns `None` once the object has closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads past one value of any type, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    /// Reads one value of any type into a [`Value`] tree.
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => self.str().map(|s| Value::Str(s.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Seq(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    entries.push((key.into_owned(), self.value()?));
                }
                Ok(Value::Map(entries))
            }
            _ => Ok(match self.number()? {
                Number::UInt(u) => Value::UInt(u),
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            }),
        }
    }

    fn err(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn digits(&mut self) {
        while matches!(self.byte(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.skip_ws();
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes the separator before the next entry, or the closing
    /// bracket. A closed container is an entry of its parent, so the
    /// parent is past its first entry either way.
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        if self.byte() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if self.first {
            self.first = false;
        } else if self.byte() == Some(b',') {
            self.pos += 1;
        } else {
            return Err(self.err(&format!("expected `,` or `{}`", close as char)));
        }
        Ok(true)
    }

    /// The character an escape stands for, read after its backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let esc = self.byte().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => self.unicode_escape()?,
            _ => return Err(self.err("invalid escape character")),
        })
    }

    /// The character of a `\uXXXX` escape (the `\u` already read),
    /// joining a surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.err("lone leading surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("lone leading surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }
}
