//! Std-only stand-in for the `serde_json` API subset the workspace
//! uses: [`Value`], [`Map`], [`Number`], [`json!`] and the `to_*` and
//! `from_*` functions, each a thin layer over the one codec in `serde`
//! ([`serde::Writer`] and [`serde::Reader`]).
//!
//! Output follows serde_json's byte format: compact or two-space pretty
//! printing, struct fields in declaration order, `Value` objects in key
//! order, floats in shortest round-trip form (ryu layout), non-finite
//! floats as `null`. Parsing is exact (`float_roundtrip`).

use serde::{Deserialize, Reader, Serialize, Writer};
use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::io;

pub use serde::{Error, Result};

// ---- Value -------------------------------------------------------------

pub type Map<K = String, V = Value> = MapImpl<K, V>;

/// An ordered (by key) JSON object, as serde_json's default `Map`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapImpl<K, V>(BTreeMap<K, V>);

impl MapImpl<String, Value> {
    pub fn new() -> Self {
        MapImpl(BTreeMap::new())
    }
    pub fn insert(&mut self, k: String, v: Value) -> Option<Value> {
        self.0.insert(k, v)
    }
    pub fn get(&self, k: &str) -> Option<&Value> {
        self.0.get(k)
    }
    pub fn get_mut(&mut self, k: &str) -> Option<&mut Value> {
        self.0.get_mut(k)
    }
    pub fn remove(&mut self, k: &str) -> Option<Value> {
        self.0.remove(k)
    }
    pub fn contains_key(&self, k: &str) -> bool {
        self.0.contains_key(k)
    }
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }
}

impl IntoIterator for MapImpl<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::collections::btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}
impl<'a> IntoIterator for &'a MapImpl<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}
impl FromIterator<(String, Value)> for MapImpl<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        MapImpl(iter.into_iter().collect())
    }
}
impl std::ops::Index<&str> for MapImpl<String, Value> {
    type Output = Value;
    fn index(&self, k: &str) -> &Value {
        self.0.get(k).unwrap_or(&NULL)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number(N);

impl Number {
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(v) => v as f64,
            N::NegInt(v) => v as f64,
            N::Float(v) => v,
        })
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(v) => Some(v),
            _ => None,
        }
    }
    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::PosInt(_))
    }
    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }
}

impl Serialize for Number {
    fn serialize(&self, w: &mut Writer) {
        match self.0 {
            N::PosInt(v) => w.u64(v),
            N::NegInt(v) => w.i64(v),
            N::Float(v) => w.f64(v),
        }
    }
}

/// A number as JSON text: an integer when it has no fraction or
/// exponent and fits 64 bits, a finite float otherwise.
impl Deserialize for Number {
    fn deserialize(r: &mut Reader<'_>) -> Result<Number> {
        let (text, float) = r.number()?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Number(N::PosInt(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Number(N::NegInt(v)));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Number(N::Float(v))),
            _ => Err(r.error("number out of range")),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
    pub fn get_mut<I: Index>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }
    pub fn is_u64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_u64())
    }
    pub fn is_f64(&self) -> bool {
        matches!(self, Value::Number(n) if n.is_f64())
    }
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

/// Compact JSON, or two-space pretty with `{:#}`.
impl Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = serde::to_vec(self, f.alternate());
        f.write_str(std::str::from_utf8(&bytes).expect("the writer emits UTF-8"))
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => n.serialize(w),
            Value::String(s) => w.str(s),
            Value::Array(a) => a.serialize(w),
            Value::Object(m) => m.serialize(w),
        }
    }
}
impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Value> {
        Ok(match r.peek() {
            Some(b'n') => {
                r.null()?;
                Value::Null
            }
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'"') => Value::String(r.string()?.into_owned()),
            Some(b'[') => Value::Array(Vec::deserialize(r)?),
            Some(b'{') => Value::Object(Map::deserialize(r)?),
            _ => Value::Number(Number::deserialize(r)?),
        })
    }
}
impl Serialize for Map<String, Value> {
    fn serialize(&self, w: &mut Writer) {
        self.0.serialize(w);
    }
}
impl Deserialize for Map<String, Value> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        BTreeMap::deserialize(r).map(MapImpl)
    }
}

/// Indexing into a `Value` by key or position, as serde_json's `Index`.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
}
impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object().and_then(|m| m.get(self))
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut().and_then(|m| m.get_mut(self))
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        match v {
            Value::Object(m) => m.0.entry(self.to_string()).or_insert(Value::Null),
            _ => panic!("cannot access key {self:?} in a non-object JSON value"),
        }
    }
}
impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}
impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array().and_then(|a| a.get(*self))
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut().and_then(|a| a.get_mut(*self))
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        let i = *self;
        v.as_array_mut().and_then(|a| a.get_mut(i)).expect("JSON array index in bounds")
    }
}
impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(v)
    }
}
impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}
impl<I: Index> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}
macro_rules! value_from_int {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                let v = v as i128;
                if v >= 0 {
                    Value::Number(Number(N::PosInt(v as u64)))
                } else {
                    Value::Number(Number(N::NegInt(v as i64)))
                }
            }
        }
    )*};
}
value_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}
impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

// ---- entry points ------------------------------------------------------

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    from_slice(&serde::to_vec(&value, false))
}

pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    from_slice(&serde::to_vec(&value, false))
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec(value).map(|bytes| String::from_utf8(bytes).expect("the writer emits UTF-8"))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec_pretty(value).map(|bytes| String::from_utf8(bytes).expect("the writer emits UTF-8"))
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    Ok(serde::to_vec(value, false))
}

pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    Ok(serde::to_vec(value, true))
}

/// `value` as compact JSON, streamed into `writer` 64 KiB at a time
/// ([`serde::to_writer`]).
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    serde::to_writer(writer, value).map_err(Error::custom)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

pub fn from_slice<T: Deserialize>(b: &[u8]) -> Result<T> {
    serde::from_slice(b)
}

// ---- json! ---------------------------------------------------------------

#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {{
        let mut __a = ::std::vec::Vec::new();
        $crate::__json_arr!(__a () $($tt)+);
        $crate::Value::Array(__a)
    }};
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut __m = $crate::Map::new();
        $crate::__json_obj!(__m () $($tt)+);
        $crate::Value::Object(__m)
    }};
    ($other:expr) => { $crate::to_value(&$other).expect("json! value serializes") };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_arr {
    ($a:ident ($($v:tt)+) , $($rest:tt)*) => {
        $a.push($crate::json!($($v)+));
        $crate::__json_arr!($a () $($rest)*);
    };
    ($a:ident ($($v:tt)+)) => { $a.push($crate::json!($($v)+)); };
    ($a:ident ()) => {};
    ($a:ident ($($v:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_arr!($a ($($v)* $next) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_obj {
    ($m:ident ()) => {};
    // key collected: start the value
    ($m:ident ($($k:tt)+) : $($rest:tt)*) => {
        $crate::__json_val!($m ($($k)+) () $($rest)*);
    };
    ($m:ident ($($k:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_obj!($m ($($k)* $next) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_val {
    ($m:ident ($($k:tt)+) ($($v:tt)+) , $($rest:tt)*) => {
        $m.insert(::std::string::String::from($($k)+), $crate::json!($($v)+));
        $crate::__json_obj!($m () $($rest)*);
    };
    ($m:ident ($($k:tt)+) ($($v:tt)+)) => {
        $m.insert(::std::string::String::from($($k)+), $crate::json!($($v)+));
    };
    ($m:ident ($($k:tt)+) ($($v:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_val!($m ($($k)+) ($($v)* $next) $($rest)*);
    };
}
