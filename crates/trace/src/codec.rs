//! The declarative record codec: [`json_record!`](crate::json_record)
//! declares a struct or tagged enum once and derives both directions of
//! its byte-stable JSON.
//!
//! Each field maps to one key, in declaration order, so a record encodes
//! to exactly the [`Json`] tree a hand-written `Json::obj(vec![...])`
//! would build. A field may add `=> "key"` (its wire key, when not the
//! field name) and `as A`, the adapter ([`Via`]) it travels by: [`Flat`]
//! splices a record's keys into its parent's, [`Text`] carries anything
//! `Display` + `FromStr` as its name, `u32` an integer newtype such as
//! millivolts.
//!
//! [`Value`] covers `u32`, `u64`, `i64`, `usize`, `f64`, `bool`,
//! `String`, `Vec<T>`, string-keyed `BTreeMap`s and `Option<T>`, whose
//! `None` leaves the key out. A failed decode names the key that was
//! missing, mistyped or unknown ([`DecodeError`]). The unit tests below
//! declare a struct, a spliced record and a tagged enum.

use crate::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use DecodeErrorKind::{Invalid, Missing, Mistyped, Unknown};

/// Why a document did not decode, and at which key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted path of the offending key (`levels.runs.faults`); empty
    /// for a bare value.
    pub key: String,
    pub kind: DecodeErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The key is absent.
    Missing,
    /// The value is not the named kind (`"a u32"`).
    Mistyped(&'static str),
    /// A name — an enum tag or a [`Text`] field — that matches nothing.
    Unknown(String),
    /// Rejected by a nested document's own gate (its message).
    Invalid(String),
}

impl From<DecodeErrorKind> for DecodeError {
    fn from(kind: DecodeErrorKind) -> DecodeError {
        let key = String::new();
        DecodeError { key, kind }
    }
}

impl DecodeError {
    /// The same error one level down, under `key`.
    #[must_use]
    pub fn at(mut self, key: &str) -> DecodeError {
        self.key = match self.key.as_str() {
            "" => key.to_string(),
            inner => format!("{key}.{inner}"),
        };
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = &self.key;
        match &self.kind {
            Missing => write!(f, "{key} missing"),
            Mistyped(want) => write!(f, "{key} is not {want}"),
            Unknown(name) => write!(f, "unknown {key} {name:?}"),
            Invalid(msg) => write!(f, "{key}: {msg}"),
        }
    }
}

/// A decode error as a JSON error (no byte offset: the text parsed).
impl From<DecodeError> for JsonError {
    fn from(e: DecodeError) -> JsonError {
        let msg = e.to_string();
        JsonError { msg, offset: 0 }
    }
}

/// A kind of value a record field can hold.
pub trait Value: Sized {
    fn encode(&self) -> Json;
    fn decode(v: &Json) -> Result<Self, DecodeError>;

    /// The value under a field's key; `None` leaves the key out.
    fn encode_field(&self) -> Option<Json> {
        Some(self.encode())
    }

    /// Decode the value under a field's key (`None`: the key is absent).
    fn decode_field(v: Option<&Json>) -> Result<Self, DecodeError> {
        Self::decode(v.ok_or(Missing)?)
    }
}

macro_rules! leaf {
    ($ty:ty, $want:literal, |$x:ident| $encode:expr, |$v:ident| $decode:expr) => {
        impl Value for $ty {
            fn encode(&self) -> Json {
                let $x = *self;
                $encode
            }
            fn decode($v: &Json) -> Result<$ty, DecodeError> {
                $decode.ok_or(Mistyped($want).into())
            }
        }
    };
}

leaf!(u32, "a u32", |x| Json::UInt(u64::from(x)), |v| v
    .as_u64()
    .and_then(|u| u32::try_from(u).ok()));
leaf!(u64, "a u64", |x| Json::UInt(x), |v| v.as_u64());
leaf!(usize, "a usize", |x| Json::UInt(x as u64), |v| v
    .as_u64()
    .and_then(|u| usize::try_from(u).ok()));
leaf!(i64, "an i64", |x| Json::Int(x), |v| match *v {
    Json::Int(i) => Some(i),
    Json::UInt(u) => i64::try_from(u).ok(),
    _ => None,
});
leaf!(f64, "a number", |x| Json::Float(x), |v| v.as_f64());
leaf!(bool, "a bool", |x| Json::Bool(x), |v| v.as_bool());

impl Value for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(v: &Json) -> Result<String, DecodeError> {
        Ok(v.as_str().ok_or(Mistyped("a string"))?.to_string())
    }
}

impl<T: Value> Value for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Json) -> Result<Vec<T>, DecodeError> {
        let items = v.as_arr().ok_or(Mistyped("an array"))?;
        items.iter().map(T::decode).collect()
    }
}

impl<T: Value> Value for BTreeMap<String, T> {
    fn encode(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.encode())).collect())
    }

    fn decode(v: &Json) -> Result<BTreeMap<String, T>, DecodeError> {
        let Json::Obj(fields) = v else {
            return Err(Mistyped("an object").into());
        };
        let entry = |(k, v): &(String, Json)| Ok((k.clone(), T::decode(v).map_err(|e| e.at(k))?));
        fields.iter().map(entry).collect()
    }
}

/// An optional field: `None` leaves its key out, and an absent key
/// decodes to `None`.
impl<T: Value> Value for Option<T> {
    fn encode(&self) -> Json {
        self.encode_field().unwrap_or(Json::Null)
    }

    fn decode(v: &Json) -> Result<Option<T>, DecodeError> {
        Self::decode_field((*v != Json::Null).then_some(v))
    }

    fn encode_field(&self) -> Option<Json> {
        self.as_ref().map(T::encode)
    }

    fn decode_field(v: Option<&Json>) -> Result<Option<T>, DecodeError> {
        v.map(T::decode).transpose()
    }
}

/// How a field of type `T` travels: `field: T as A` in
/// [`json_record!`](crate::json_record) picks the adapter `A`; a field
/// without `as` is [`Plain`].
pub trait Via<T> {
    /// Append `value` to the record `out` as its field `key`.
    fn put(out: &mut Vec<(String, Json)>, key: &str, value: &T);
    /// Read the field `key` of the record `v`.
    fn get(v: &Json, key: &str) -> Result<T, DecodeError>;
}

/// Append `json` under `key`; `None` leaves the key out.
pub fn push(out: &mut Vec<(String, Json)>, key: &str, json: Option<Json>) {
    if let Some(json) = json {
        out.push((key.to_string(), json));
    }
}

/// Decode the field `key` of the record `v`, naming the key on failure.
pub fn field<T>(
    v: &Json,
    key: &str,
    decode: impl FnOnce(Option<&Json>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    decode(v.get(key)).map_err(|e| e.at(key))
}

/// A [`Value`] field, as itself.
pub enum Plain {}

impl<T: Value> Via<T> for Plain {
    fn put(out: &mut Vec<(String, Json)>, key: &str, value: &T) {
        push(out, key, value.encode_field());
    }

    fn get(v: &Json, key: &str) -> Result<T, DecodeError> {
        field(v, key, T::decode_field)
    }
}

/// A record spliced into its parent: its keys join the parent's, and
/// its field has no key of its own.
pub enum Flat {}

impl<T: Value> Via<T> for Flat {
    fn put(out: &mut Vec<(String, Json)>, _: &str, value: &T) {
        if let Json::Obj(fields) = value.encode() {
            out.extend(fields);
        }
    }

    fn get(v: &Json, _: &str) -> Result<T, DecodeError> {
        T::decode(v)
    }
}

/// A name: any `Display` + `FromStr` field, as its string form.
pub enum Text {}

impl<T: fmt::Display + FromStr> Via<T> for Text {
    fn put(out: &mut Vec<(String, Json)>, key: &str, value: &T) {
        push(out, key, Some(Json::Str(value.to_string())));
    }

    fn get(v: &Json, key: &str) -> Result<T, DecodeError> {
        field(v, key, |json| {
            let name = String::decode_field(json)?;
            name.parse().map_err(|_| Unknown(name).into())
        })
    }
}

/// An integer newtype, as its `u32`.
impl<T: Copy + From<u32>> Via<T> for u32
where
    u32: From<T>,
{
    fn put(out: &mut Vec<(String, Json)>, key: &str, value: &T) {
        push(out, key, Some(u32::from(*value).encode()));
    }

    fn get(v: &Json, key: &str) -> Result<T, DecodeError> {
        field(v, key, |json| u32::decode_field(json).map(T::from))
    }
}

/// `head`'s keys, then those of the record `body`: hand-written gate
/// fields (a schema version, a fingerprint) in front of a declared record.
#[must_use]
pub fn lead<T: Value>(head: Vec<(&str, Json)>, body: &T) -> Json {
    let mut fields: Vec<(String, Json)> = head.into_iter().map(|(k, v)| (k.into(), v)).collect();
    Flat::put(&mut fields, "", body);
    Json::Obj(fields)
}

/// Declare a struct or a tagged enum together with its JSON codec: a
/// [`Value`](crate::codec::Value) impl whose keys follow the declaration
/// order (field forms in the [module docs](crate::codec)).
///
/// `struct Name: Error { .. }` and `enum Name tag "key": Error { .. }`
/// also get inherent `to_json`, `to_json_string` and `from_json`, whose
/// decode errors convert into `Error`. A variant names its tag value:
/// `CrashFound { vcrash_mv: u32 } => "crash_found"`.
#[macro_export]
macro_rules! json_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(: $err:ty)? {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $via:ty)? $(=> $key:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::codec::Value for $name {
            fn encode(&self) -> $crate::Json {
                let mut out = ::std::vec::Vec::new();
                $( <$crate::__codec_via!($($via)?) as $crate::codec::Via<$ty>>::put(&mut out, $crate::__codec_key!($field $($key)?), &self.$field); )*
                $crate::Json::Obj(out)
            }

            fn decode(v: &$crate::Json) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                ::std::result::Result::Ok($name {
                    $( $field: <$crate::__codec_via!($($via)?) as $crate::codec::Via<$ty>>::get(v, $crate::__codec_key!($field $($key)?))?, )*
                })
            }
        }

        $( $crate::__codec_api!($name, $err); )?
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident tag $tag:literal $(: $err:ty)? {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $ty:ty $(as $via:ty)? $(=> $key:literal)?
                    ),* $(,)?
                })? => $wire:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl $crate::codec::Value for $name {
            fn encode(&self) -> $crate::Json {
                let mut out = ::std::vec::Vec::new();
                match self {
                    $( $name::$variant { $($($field),*)? } => {
                        out.push(($tag.to_string(), $crate::Json::Str($wire.to_string())));
                        $($( <$crate::__codec_via!($($via)?) as $crate::codec::Via<$ty>>::put(&mut out, $crate::__codec_key!($field $($key)?), $field); )*)?
                    } )*
                }
                $crate::Json::Obj(out)
            }

            fn decode(v: &$crate::Json) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                let tag: ::std::string::String = <$crate::codec::Plain as $crate::codec::Via<::std::string::String>>::get(v, $tag)?;
                ::std::result::Result::Ok(match tag.as_str() {
                    $( $wire => $name::$variant {
                        $($( $field: <$crate::__codec_via!($($via)?) as $crate::codec::Via<$ty>>::get(v, $crate::__codec_key!($field $($key)?))?, )*)?
                    }, )*
                    other => {
                        let unknown = $crate::codec::DecodeErrorKind::Unknown(other.to_string());
                        return ::std::result::Result::Err($crate::codec::DecodeError::from(unknown).at($tag));
                    }
                })
            }
        }

        $( $crate::__codec_api!($name, $err); )?
    };
}

/// The adapter a [`json_record!`](crate::json_record) field travels by.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_via {
    () => {
        $crate::codec::Plain
    };
    ($via:ty) => {
        $via
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __codec_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __codec_api {
    ($name:ident, $err:ty) => {
        impl $name {
            #[must_use]
            pub fn to_json(&self) -> $crate::Json {
                $crate::codec::Value::encode(self)
            }

            #[must_use]
            pub fn to_json_string(&self) -> ::std::string::String {
                self.to_json().to_string()
            }

            /// Inverse of `to_json`.
            pub fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $err> {
                ::std::result::Result::Ok(<Self as $crate::codec::Value>::decode(v)?)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Value + PartialEq + fmt::Debug>(value: T, text: &str) {
        assert_eq!(value.encode().to_string(), text);
        let parsed = Json::parse(text).unwrap();
        assert_eq!(T::decode(&parsed).unwrap(), value);
    }

    #[test]
    fn every_leaf_kind_round_trips() {
        round_trip(540u32, "540");
        round_trip(u64::MAX, "18446744073709551615");
        round_trip(usize::MAX, &usize::MAX.to_string());
        round_trip(-1_500i64, "-1500");
        round_trip(1_500i64, "1500");
        round_trip(25.5f64, "25.5");
        round_trip(true, "true");
        round_trip("µ \"q\"".to_string(), r#""µ \"q\"""#);
        round_trip(vec![1u32, 2, 3], "[1,2,3]");
        round_trip(Vec::<String>::new(), "[]");
        round_trip(
            BTreeMap::from([("b".to_string(), 2u64), ("a".to_string(), 1)]),
            r#"{"a":1,"b":2}"#,
        );
        round_trip(Some(7u64), "7");
        round_trip(None::<u64>, "null");
        // A positive i64 keeps its signed tree node, as hand-built trees did.
        assert_eq!(7i64.encode(), Json::Int(7));
        // Integers widen to f64; floats never narrow to integers.
        assert_eq!(f64::decode(&Json::UInt(3)).unwrap(), 3.0);
        assert!(u64::decode(&Json::Float(3.0)).is_err());
    }

    #[test]
    fn leaves_reject_the_wrong_kind_and_out_of_range() {
        let over = Json::UInt(u64::from(u32::MAX) + 1);
        assert_eq!(u32::decode(&over), Err(Mistyped("a u32").into()));
        assert!(i64::decode(&Json::UInt(u64::MAX)).is_err());
        assert!(u64::decode(&Json::Int(-1)).is_err());
        assert!(bool::decode(&Json::UInt(1)).is_err());
        assert!(String::decode(&Json::Null).is_err());
        assert!(Vec::<u32>::decode(&Json::parse("[1,\"x\"]").unwrap()).is_err());
        assert!(BTreeMap::<String, u64>::decode(&Json::Arr(Vec::new())).is_err());
    }

    json_record! {
        #[derive(Debug, Clone, PartialEq)]
        struct Inner {
            base: u64 => "inner_base",
            cap: u64 => "inner_cap",
        }
    }

    json_record! {
        #[derive(Debug, Clone, PartialEq)]
        struct Outer: JsonError {
            name: String,
            mv: u32 => "v_mv",
            label: Option<String>,
            inner: Inner as Flat,
            kinds: Vec<Kind>,
        }
    }

    json_record! {
        #[derive(Debug, Clone, PartialEq)]
        enum Kind tag "kind" {
            Plain => "plain",
            Crash { at_mv: u32, note: Option<String> } => "crash",
        }
    }

    fn outer() -> Outer {
        Outer {
            name: "vc707".into(),
            mv: 540,
            label: None,
            inner: Inner {
                base: 100,
                cap: 800,
            },
            kinds: vec![
                Kind::Plain,
                Kind::Crash {
                    at_mv: 530,
                    note: Some("hung".into()),
                },
            ],
        }
    }

    #[test]
    fn records_keep_declaration_order_renames_and_omitted_options() {
        let text = outer().to_json_string();
        assert_eq!(
            text,
            r#"{"name":"vc707","v_mv":540,"inner_base":100,"inner_cap":800,"kinds":[{"kind":"plain"},{"kind":"crash","at_mv":530,"note":"hung"}]}"#
        );
        assert_eq!(Outer::from_json(&Json::parse(&text).unwrap()), Ok(outer()));
        let mut labelled = outer();
        labelled.label = Some("x".into());
        let text = labelled.to_json_string();
        assert!(
            text.contains(r#""v_mv":540,"label":"x","inner_base""#),
            "{text}"
        );
        assert_eq!(Outer::from_json(&Json::parse(&text).unwrap()), Ok(labelled));
    }

    fn decode_err(text: &str) -> String {
        Outer::from_json(&Json::parse(text).unwrap())
            .unwrap_err()
            .msg
    }

    #[test]
    fn decode_errors_name_the_key() {
        let good = outer().to_json_string();
        assert_eq!(
            decode_err(&good.replace(r#""v_mv":540,"#, "")),
            "v_mv missing"
        );
        assert_eq!(
            decode_err(&good.replace(r#""v_mv":540"#, r#""v_mv":"540""#)),
            "v_mv is not a u32"
        );
        assert_eq!(
            decode_err(&good.replace(r#""v_mv":540"#, r#""v_mv":4294967296"#)),
            "v_mv is not a u32"
        );
        assert_eq!(
            decode_err(&good.replace("\"inner_cap\":800,", "")),
            "inner_cap missing"
        );
        assert_eq!(
            decode_err(&good.replace(r#""kind":"crash""#, r#""kind":"melt""#)),
            r#"unknown kinds.kind "melt""#
        );
        assert_eq!(
            decode_err(&good.replace(r#""at_mv":530"#, r#""at_mv":-1"#)),
            "kinds.at_mv is not a u32"
        );
        assert_eq!(
            decode_err(&good.replace(r#""note":"hung""#, r#""note":1"#)),
            "kinds.note is not a string"
        );
        assert_eq!(decode_err("[]"), "name missing");
    }

    struct Name(&'static str);

    impl fmt::Display for Name {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.0)
        }
    }

    impl FromStr for Name {
        type Err = ();
        fn from_str(s: &str) -> Result<Name, ()> {
            ["bram", "logic"]
                .into_iter()
                .find(|n| *n == s)
                .map(Name)
                .ok_or(())
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Mv(u32);

    impl From<u32> for Mv {
        fn from(v: u32) -> Mv {
            Mv(v)
        }
    }

    impl From<Mv> for u32 {
        fn from(v: Mv) -> u32 {
            v.0
        }
    }

    #[test]
    fn adapters_carry_names_and_newtypes() {
        let mut out = Vec::new();
        <Text as Via<Name>>::put(&mut out, "probe", &Name("logic"));
        <u32 as Via<Mv>>::put(&mut out, "start_mv", &Mv(540));
        assert_eq!(
            Json::Obj(out).to_string(),
            r#"{"probe":"logic","start_mv":540}"#
        );
        let doc = Json::parse(r#"{"probe":"bram","bad":"x","start_mv":1000}"#).unwrap();
        let name = |key| <Text as Via<Name>>::get(&doc, key);
        assert_eq!(name("probe").unwrap().0, "bram");
        assert_eq!(name("bad").err().unwrap().to_string(), r#"unknown bad "x""#);
        assert_eq!(name("none").err().unwrap().to_string(), "none missing");
        assert_eq!(<u32 as Via<Mv>>::get(&doc, "start_mv"), Ok(Mv(1000)));
        assert!(<u32 as Via<Mv>>::get(&doc, "probe").is_err());
    }

    #[test]
    fn lead_puts_gate_fields_first() {
        let doc = lead(vec![("version", Json::UInt(2))], &outer());
        assert!(doc
            .to_string()
            .starts_with(r#"{"version":2,"name":"vc707","#));
    }
}
