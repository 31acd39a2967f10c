//! The JSON writer every [`crate::Serialize`] impl streams into.

use std::fmt::Write as _;

/// Appends JSON text to one output buffer.
///
/// Values are written in order: a scalar through its
/// [`crate::Serialize`] impl (strings with [`Writer::str`]), an array as
/// [`Writer::begin_array`], then [`Writer::element`] before each item,
/// then [`Writer::end_array`], and an object the same way with
/// [`Writer::key`] before each value. The writer places the separators
/// itself; in pretty mode it also breaks lines and indents by two spaces
/// per level, and prints empty containers as `[]` and `{}`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// True from a container's opening bracket until its first entry.
    first: bool,
}

/// For each byte, the character after the backslash that escapes it
/// (`u` for `\u00xx`), or 0 for a byte copied as is.
static ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// Output capacity a fresh writer starts with: most messages fit without
/// growing the buffer more than a few times.
const INITIAL_CAPACITY: usize = 256;

impl Writer {
    /// A writer for compact JSON.
    pub fn new() -> Self {
        Self::from_string(String::with_capacity(INITIAL_CAPACITY))
    }

    /// A writer for two-space-indented JSON.
    pub fn pretty() -> Self {
        Writer {
            pretty: true,
            ..Self::new()
        }
    }

    /// A compact writer that appends to `out`.
    pub fn from_string(out: String) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            first: false,
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub(crate) fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes the decimal digits of `u`, as `u.to_string()` prints them.
    pub(crate) fn u64(&mut self, mut u: u64) {
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
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// Writes `i` in decimal.
    pub(crate) fn i64(&mut self, i: i64) {
        if i < 0 {
            self.out.push('-');
        }
        self.u64(i.unsigned_abs());
    }

    /// Writes `f` in Rust's shortest round-trip `{:?}` form (like
    /// upstream's ryu), or `null` when it is not finite, as upstream
    /// serde_json does.
    pub(crate) fn f64(&mut self, f: f64) {
        if f.is_finite() {
            write!(self.out, "{f:?}").expect("writing to a String cannot fail");
        } else {
            self.null();
        }
    }

    /// Writes `s` as a JSON string literal. Only `"`, `\` and control
    /// characters are escaped (control characters other than `\n`, `\r`
    /// and `\t` as `\u00xx`); the runs between them are copied whole.
    pub fn str(&mut self, s: &str) {
        self.str_observed(s, |_| {});
    }

    /// Writes `s` like [`Writer::str`] and passes each byte of `s` to
    /// `observe` on the way, so a checksum over the string costs no
    /// second pass.
    pub fn str_observed(&mut self, s: &str, mut observe: impl FnMut(u8)) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut self.out;
        out.reserve(s.len() + 2);
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            observe(b);
            let escape = ESCAPE[usize::from(b)];
            if escape == 0 {
                continue;
            }
            // Escaped bytes are ASCII, so `run..i` lies on char boundaries.
            out.push_str(&s[run..i]);
            out.push('\\');
            out.push(char::from(escape));
            if escape == b'u' {
                out.push_str("00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts the next array item.
    pub fn element(&mut self) {
        self.entry();
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Writes the next object key; its value follows.
    pub fn key(&mut self, key: &str) {
        self.entry();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn entry(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        // A closed container is an entry of its parent, so the parent is
        // past its first entry either way.
        if self.pretty && !self.first {
            self.newline();
        }
        self.first = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}
