//! Offline drop-in subset of the `serde_json` 1.x API.
//!
//! Thin wrappers around the stub `serde`'s streaming [`serde::Writer`]
//! and [`serde::Reader`]. Output conventions match upstream where the
//! workspace can observe them: compact `to_string`, two-space-indented
//! `to_string_pretty`, struct fields in declaration order, shortest
//! round-trip float formatting (every `f64` survives a print/parse round
//! trip bit-for-bit), and non-finite floats serialized as `null`. The
//! parser accepts the full JSON grammar including exponent notation and
//! `\uXXXX` escapes, and rejects nesting deeper than
//! [`serde::MAX_DEPTH`].

use serde::{Deserialize, Reader, Serialize, Writer};

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
    let mut w = Writer::new();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serializes to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::pretty();
    value.serialize(&mut w);
    Ok(w.into_string())
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

/// Deserializes a value from a JSON string; only whitespace may follow it.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let v = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(v)
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

    #[test]
    fn a_leading_surrogate_needs_a_trailing_one() {
        assert_eq!(from_str::<String>(r#""\ud834\udd1e""#).unwrap(), "𝄞");
        for bad in [
            r#""\ud834""#,
            r#""\ud834\u0041""#,
            r#""\ud834\ud834""#,
            r#""\ud834\n""#,
            r#""\udd1e""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<serde::Value>(&nested(serde::MAX_DEPTH)).is_ok());
        for depth in [serde::MAX_DEPTH + 1, 100_000] {
            let err = from_str::<serde::Value>(&nested(depth)).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        // Skipped unknown fields count too.
        let unknown = format!("{{\"id\":1,\"x\":{}}}", nested(100_000));
        let err = from_str::<Outer>(&unknown).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
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
