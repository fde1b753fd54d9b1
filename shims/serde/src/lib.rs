//! Workspace-local stand-in for `serde`.
//!
//! The build environment cannot reach a crates registry, so the
//! workspace vendors a minimal serde replacement. Instead of the real
//! visitor-based data model, this crate uses an explicit [`Value`]
//! tree: [`Serialize`] renders a type into a `Value`, [`Deserialize`]
//! rebuilds it from one. `serde_json` (also vendored) converts between
//! `Value` and JSON text. The derive macros in `serde_derive` generate
//! both impls for plain structs and enums, following real serde's data
//! conventions (named structs → objects, newtypes → their inner value,
//! unit enum variants → strings, tuple variants → externally tagged
//! objects) so the JSON shape is familiar.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data tree all (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer that does not fit `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map with string keys (field order is preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a named field of an object value.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            other => Err(Error::custom(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Views the value as an array of exactly `len` elements.
    pub fn as_array_of_len(&self, len: usize) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::custom(format!(
                "expected array of length {len}, found length {}",
                items.len()
            ))),
            other => Err(Error::custom(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// Views the value as an externally tagged enum variant: a
    /// single-entry object `{"Variant": payload}`.
    pub fn as_enum_variant(&self) -> Result<(&str, &Value), Error> {
        match self {
            Value::Object(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), &entries[0].1))
            }
            other => Err(Error::custom(format!(
                "expected single-key variant object, found {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from any message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Types renderable into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a data-model value.
    fn to_value(&self) -> Value;
}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a data-model value.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Deserialization namespace mirroring real serde's `serde::de`.
pub mod de {
    /// In this stand-in every [`Deserialize`](crate::Deserialize) is
    /// already owned, so the owned marker is a plain alias.
    pub use crate::Deserialize as DeserializeOwned;
}

fn int_from_value(value: &Value, what: &str) -> Result<i128, Error> {
    match value {
        Value::Int(v) => Ok(*v as i128),
        Value::UInt(v) => Ok(*v as i128),
        Value::Float(v) if v.fract() == 0.0 => Ok(*v as i128),
        other => Err(Error::custom(format!(
            "expected {what}, found {}",
            other.kind()
        ))),
    }
}

macro_rules! impl_signed {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = int_from_value(value, stringify!($t))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

macro_rules! impl_unsigned {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                if let Ok(narrow) = i64::try_from(wide) {
                    Value::Int(narrow)
                } else {
                    Value::UInt(wide)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = int_from_value(value, stringify!($t))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_float {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(v) => Ok(*v as $t),
                    Value::Int(v) => Ok(*v as $t),
                    Value::UInt(v) => Ok(*v as $t),
                    other => Err(Error::custom(format!(
                        "expected number, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    )+};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for &'static str {
    /// Leaks the decoded string. Only used for `&'static str` fields of
    /// catalog types (benchmark names), where the handful of distinct
    /// values makes the leak bounded and harmless.
    fn from_value(value: &Value) -> Result<Self, Error> {
        String::from_value(value).map(|s| &*s.leak())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let s = String::from_value(value)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let items = value.as_array_of_len(LEN)?;
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_owned(), self.as_secs().to_value()),
            ("nanos".to_owned(), self.subsec_nanos().to_value()),
        ])
    }
}

impl Deserialize for Duration {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let secs = u64::from_value(value.field("secs")?)?;
        let nanos = u32::from_value(value.field("nanos")?)?;
        Ok(Duration::new(secs, nanos))
    }
}

impl<K: Serialize + ToString, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort entries for stable output (hash order is nondeterministic).
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K: Serialize + ToString + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_null_roundtrip() {
        let v: Option<u32> = None;
        assert_eq!(v.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(3u32).to_value(), Value::Int(3));
    }

    #[test]
    fn duration_roundtrip() {
        let d = Duration::new(7, 123_456_789);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = ((1usize, 2usize), (3usize, 4usize), -0.5f64);
        let back = <((usize, usize), (usize, usize), f64)>::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn out_of_range_int_errors() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
    }
}
