//! Offline drop-in subset of the `serde` 1.x API.
//!
//! This workspace only ever moves data structures through JSON, so the
//! vendored stub fixes the data format instead of abstracting over it:
//! [`Serialize`] streams JSON text straight into a [`Writer`], and
//! [`Deserialize`] pulls tokens from a [`Reader`] that borrows strings
//! and keys from the input, so neither side builds an intermediate tree.
//! `serde_json` is a thin wrapper around the two.
//!
//! `#[derive(Serialize, Deserialize)]` is provided by the companion
//! `serde_derive` stub (enabled via the `derive` feature) and follows the
//! upstream data model: newtype structs are transparent, named structs map
//! to objects in declaration order, unit enum variants to strings, and
//! data-carrying variants to single-key objects. Reading a struct skips
//! unknown keys, keeps the first of duplicate keys, and rejects a missing
//! field unless it is marked `#[serde(default)]`, which falls back to
//! `Default::default()`.
//!
//! [`Value`] is an ordinary type implementing both traits, for reading
//! JSON whose shape is not known in advance.

mod read;
mod write;

use read::Number;
pub use read::{Reader, MAX_DEPTH};
pub use write::Writer;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A self-describing JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative integer (or any integer parsed with a leading `-`).
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`] (the first, if it repeats).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can write itself as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, w: &mut Writer);
}

/// A type that can read itself from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value as `Self`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

macro_rules! impl_uint {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw: u64 = match r.number()? {
                    Number::UInt(u) => u,
                    Number::Int(i) if i >= 0 => i as u64,
                    Number::Float(f) if f.fract() == 0.0 && f >= 0.0 && f <= u64::MAX as f64 => {
                        f as u64
                    }
                    other => {
                        return Err(Error::custom(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )+};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw: i64 = match r.number()? {
                    Number::Int(i) => i,
                    Number::UInt(u) if u <= i64::MAX as u64 => u as i64,
                    Number::Float(f)
                        if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
                    {
                        f as i64
                    }
                    other => {
                        return Err(Error::custom(format!("expected integer, got {other:?}")))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )+};
}

impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.number()? {
            Number::Float(f) => f,
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
        })
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        f64::deserialize(r).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(|s| s.into_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(x) => x.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.take_null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

macro_rules! impl_tuple {
    ($len:expr => $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let short = || Error::custom(concat!("expected array of length ", $len));
                r.begin_array()?;
                let tuple = ($(
                    if r.next_element()? { $t::deserialize(r)? } else { return Err(short()) },
                )+);
                if r.next_element()? {
                    return Err(short());
                }
                Ok(tuple)
            }
        }
    };
}

impl_tuple!(1 => A.0);
impl_tuple!(2 => A.0, B.1);
impl_tuple!(3 => A.0, B.1, C.2);
impl_tuple!(4 => A.0, B.1, C.2, D.3);

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.i64(*i),
            Value::UInt(u) => w.u64(*u),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Seq(items) => items.serialize(w),
            Value::Map(entries) => {
                w.begin_object();
                for (k, v) in entries {
                    w.key(k);
                    v.serialize(w);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}
