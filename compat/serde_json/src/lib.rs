//! Offline drop-in subset of the `serde_json` 1.x API.
//!
//! Serializes via the stub `serde::Value` data model. Output conventions
//! match upstream where the workspace can observe them: compact
//! `to_string`, two-space-indented `to_writer_pretty`, struct fields in
//! declaration order, shortest-roundtrip float formatting (every `f64`
//! survives a print/parse round trip bit-for-bit), and non-finite floats
//! serialized as `null`. The parser accepts the full JSON grammar
//! including exponent notation and `\uXXXX` escapes.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize, Value};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serializes pretty JSON into an `io::Write`.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let s = to_string_pretty(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error::new(format!("io error: {e}")))
}

/// Serializes compact JSON into an `io::Write`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error::new(format!("io error: {e}")))
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::deserialize_value(&v)?)
}

// --------------------------------------------------------------- printing

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            write_u64(out, i.unsigned_abs());
        }
        Value::UInt(u) => write_u64(out, *u),
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_seq(out, items, indent, depth),
        Value::Map(entries) => write_map(out, entries, indent, depth),
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // Upstream serde_json emits null for non-finite floats.
        out.push_str("null");
    } else {
        // Rust's Debug formatting is shortest-roundtrip, like upstream's ryu.
        write!(out, "{f:?}").expect("writing to a String cannot fail");
    }
}

/// Decimal digits of `u`, as `u.to_string()` prints them.
fn write_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Writes `s` as a JSON string literal. Only `"`, `\` and control
/// characters are escaped (control characters other than `\n`, `\r`
/// and `\t` as `\u00xx`); the runs between them are copied whole.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Escaped bytes are ASCII, so `run..i` lies on char boundaries.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn newline_indent(out: &mut String, indent: usize, depth: usize) {
    out.push('\n');
    out.push_str(&" ".repeat(indent * depth));
}

fn write_seq(out: &mut String, items: &[Value], indent: Option<usize>, depth: usize) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(ind) = indent {
            newline_indent(out, ind, depth + 1);
        }
        write_value(out, item, indent, depth + 1);
    }
    if let Some(ind) = indent {
        newline_indent(out, ind, depth);
    }
    out.push(']');
}

fn write_map(out: &mut String, entries: &[(String, Value)], indent: Option<usize>, depth: usize) {
    if entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(ind) = indent {
            newline_indent(out, ind, depth + 1);
        }
        write_string(out, k);
        out.push(':');
        if indent.is_some() {
            out.push(' ');
        }
        write_value(out, v, indent, depth + 1);
    }
    if let Some(ind) = indent {
        newline_indent(out, ind, depth);
    }
    out.push('}');
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            // The input is a `str` and a run ends at an ASCII byte or the
            // end, so the run is whole UTF-8 and copies without a check.
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
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
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(Error::new("invalid escape character")),
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Value::Int(i));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Newtype(usize);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Variants {
        Plain,
        Wrapped(usize),
        Pair(u32, u32),
        Named { x: f64, label: String },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Outer {
        id: Newtype,
        values: Vec<f64>,
        pairs: Vec<(String, u64)>,
        #[serde(default)]
        missing_ok: Option<Vec<f64>>,
        kind: Variants,
    }

    #[test]
    fn struct_roundtrip_preserves_everything() {
        let v = Outer {
            id: Newtype(7),
            values: vec![0.1, 2.5e8, -3.25, 1.0 / 3.0],
            pairs: vec![("a".into(), 1), ("b".into(), u64::MAX)],
            missing_ok: Some(vec![2.0]),
            kind: Variants::Named {
                x: std::f64::consts::PI,
                label: "π \"quoted\"\n".into(),
            },
        };
        let s = to_string(&v).unwrap();
        let back: Outer = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for f in [0.1f64, 1e-300, 1e300, -0.0, 123_456_789.123_456_79, 2.5e8] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} -> {s}");
        }
    }

    #[test]
    fn newtype_is_transparent_and_variants_follow_serde_layout() {
        assert_eq!(to_string(&Newtype(5)).unwrap(), "5");
        assert_eq!(to_string(&Variants::Plain).unwrap(), "\"Plain\"");
        assert_eq!(to_string(&Variants::Wrapped(3)).unwrap(), "{\"Wrapped\":3}");
        assert_eq!(
            to_string(&Variants::Pair(1, 2)).unwrap(),
            "{\"Pair\":[1,2]}"
        );
        let named = to_string(&Variants::Named {
            x: 1.5,
            label: "L".into(),
        })
        .unwrap();
        assert_eq!(named, "{\"Named\":{\"x\":1.5,\"label\":\"L\"}}");
    }

    #[test]
    fn default_fields_tolerate_missing_keys() {
        let legacy = r#"{"id":1,"values":[1.0],"pairs":[],"kind":"Plain"}"#;
        let v: Outer = from_str(legacy).unwrap();
        assert_eq!(v.missing_ok, None);
        assert_eq!(v.id, Newtype(1));
    }

    #[test]
    fn parses_exponents_escapes_and_whitespace() {
        let v: Vec<f64> = from_str(" [ 1e8 , -2.5E-3 , 0.0 ] ").unwrap();
        assert_eq!(v, vec![1e8, -2.5e-3, 0.0]);
        let s: String = from_str(r#""tab\tunicodeé€""#).unwrap();
        assert_eq!(s, "tab\tunicodeé€");
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = vec![(1u64, 2u64)];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  "));
        let back: Vec<(u64, u64)> = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.0.0").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<bool>("truth").is_err());
    }

    /// The printer as it was written char by char with `format!`, kept as
    /// the oracle for the run-copying one.
    fn reference_string(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    #[test]
    fn printer_matches_the_reference_bytes() {
        let mut every_ascii: String = (0u8..0x80).map(char::from).collect();
        every_ascii.push_str("é€𝄞\u{2028}");
        for s in [
            "",
            "plain",
            "\"",
            "\\\\\"",
            "ends with escape\n",
            "\u{0}lead",
            every_ascii.as_str(),
        ] {
            let printed = to_string(s).unwrap();
            assert_eq!(printed, reference_string(s), "{s:?}");
            assert_eq!(from_str::<String>(&printed).unwrap(), s);
        }
        for i in [0i64, 7, -1, -10, i64::MIN, i64::MAX] {
            assert_eq!(to_string(&i).unwrap(), i.to_string());
        }
        for u in [0u64, 9, 10, 1_000_000, u64::MAX] {
            assert_eq!(to_string(&u).unwrap(), u.to_string());
        }
        for f in [0.1f64, -0.0, 5e-324, 1e300, 1e21, 1.5e-7, f64::MAX] {
            assert_eq!(to_string(&f).unwrap(), format!("{f:?}"));
        }
    }
}
