//! A minimal, dependency-free JSON reader, plus the one field table
//! every config and counter struct serialises through.
//!
//! **The reader.** [`Json::parse`] reads the repo's own formats back
//! into Rust wherever a round trip is needed (checkpoint restore, specs,
//! cache entries, dispatch messages). It is deliberately small:
//!
//! * numbers keep their **raw text** so `u64` values round-trip exactly
//!   (an `f64` intermediate would corrupt 64-bit memory words above
//!   2^53),
//! * objects preserve key order as a plain `Vec` (our writers never emit
//!   duplicate keys),
//! * errors carry a byte offset, enough to debug a corrupt file.
//!
//! ```
//! use rix_isa::json::Json;
//! let v = Json::parse(r#"{"pc":3,"mem":[[4096,18446744073709551615]]}"#).unwrap();
//! assert_eq!(v.get("pc").and_then(Json::as_u64), Some(3));
//! let cell = &v.get("mem").unwrap().as_arr().unwrap()[0];
//! assert_eq!(cell.as_arr().unwrap()[1].as_u64(), Some(u64::MAX));
//! ```
//!
//! **The field table.** A struct names each of its fields exactly once,
//! in a [`json_fields!`] list; the list is the JSON shape. Every field
//! is written, in list order, as compact JSON with no whitespace, so the
//! output is byte-stable: cache keys, dispatch plans, trial-cache
//! entries and checkpoint hashes are all built from these strings. A
//! field is any [`JsonField`]: the unsigned integers, `bool`,
//! `[[u64; 2]; N]` histograms, string enums ([`json_enum!`]) and other
//! tables, which nest as objects. Reading is typed: a value of the
//! wrong JSON type, or out of range for its field (`4294967300` for a
//! `u32`), is an error naming the key, never a silent truncation.
//!
//! * A **config** table (`json_fields!(Ty { .. })`) gets `Ty::KEYS`,
//!   `Ty::to_json` and a partial `Ty::apply_json`: present keys
//!   overwrite, omitted keys keep their value, unknown keys are rejected
//!   with the closest known key suggested, and errors inside a nested
//!   table are prefixed `key: `.
//! * A **counter** table (`json_fields!(strict Ty { .. })`) is read
//!   strictly: every key is required, so a truncated document is an
//!   error rather than a run of zeros. It gets no inherent methods; use
//!   [`to_string`] and [`field`].
//!
//! ```
//! #[derive(Debug, Default, PartialEq)]
//! struct Geometry { ways: usize, bits: u32, on: bool }
//! rix_isa::json_fields!(Geometry { ways, on, bits });
//!
//! let mut g = Geometry { ways: 4, bits: 13, on: true };
//! assert_eq!(g.to_json(), r#"{"ways":4,"on":true,"bits":13}"#);
//! g.apply_json(&rix_isa::json::Json::parse(r#"{"bits":9}"#).unwrap()).unwrap();
//! assert_eq!(g, Geometry { ways: 4, bits: 9, on: true });
//! let err = g.apply_json(&rix_isa::json::Json::parse(r#"{"bits":4294967300}"#).unwrap());
//! assert!(err.unwrap_err().contains("key `bits`"));
//! ```

use std::fmt::Write as _;

/// A parsed JSON value. Numbers are kept as raw text (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw text (`"42"`, `"-1.5e3"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`], but a missing key is an error naming it.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    /// The value as an exact `u64` (numbers only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (numbers only).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value back to compact JSON. Numbers are emitted as
    /// their preserved raw text, so `parse` → `dump` round-trips 64-bit
    /// integers exactly; strings re-escape quotes, backslashes and
    /// control characters. `parse(v.dump()) == v` for any parsed `v`.
    #[must_use]
    pub fn dump(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(raw) => raw.clone(),
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            Json::Arr(items) => {
                let body: Vec<String> = items.iter().map(Json::dump).collect();
                format!("[{}]", body.join(","))
            }
            Json::Obj(fields) => {
                let body: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).dump(), v.dump()))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    }

    /// Convenience: `self[key]` as an exact `u64`, with an error naming
    /// the key on a miss or a non-number.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("key `{key}` is not a u64"))
    }
}

// ----- the field table ------------------------------------------------

/// One field of a [`json_fields!`] table (see the [module docs](self)):
/// a value that writes itself as JSON and reads itself back.
pub trait JsonField {
    /// Appends the value's compact JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// Overwrites `self` from `v`, the value at object key `key`; errors
    /// name `key`.
    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String>;
}

impl JsonField for u64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        *self = v.as_u64().ok_or_else(|| format!("key `{key}` must be an unsigned integer"))?;
        Ok(())
    }
}

macro_rules! narrow_uint_field {
    ($($t:ty),+) => {$(
        impl JsonField for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
                let mut wide = 0u64;
                wide.read_json(key, v)?;
                let ty = stringify!($t);
                *self = <$t>::try_from(wide).map_err(|_| {
                    format!("key `{key}` is out of range: {wide} does not fit in {ty}")
                })?;
                Ok(())
            }
        }
    )+};
}

narrow_uint_field!(u32, usize);

impl JsonField for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        *self = v.as_bool().ok_or_else(|| format!("key `{key}` must be a boolean"))?;
        Ok(())
    }
}

/// A `[direct, reverse]` histogram (the integration breakdowns).
impl<const N: usize> JsonField for [[u64; 2]; N] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, [d, r]) in self.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}[{d},{r}]");
        }
        out.push(']');
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        let cells = v
            .as_arr()
            .filter(|a| a.len() == N)
            .ok_or_else(|| format!("key `{key}` is not a {N}-entry histogram"))?;
        for (i, (cell, out)) in cells.iter().zip(self.iter_mut()).enumerate() {
            let pair = match cell.as_arr() {
                Some([d, r]) => d.as_u64().zip(r.as_u64()),
                _ => None,
            };
            let (d, r) =
                pair.ok_or_else(|| format!("`{key}`[{i}] is not a [direct, reverse] pair"))?;
            *out = [d, r];
        }
        Ok(())
    }
}

/// Serialises any [`JsonField`] (for a counter table, the only writer).
#[must_use]
pub fn to_string<T: JsonField>(value: &T) -> String {
    let mut out = String::with_capacity(256);
    value.write_json(&mut out);
    out
}

/// Reads the [`JsonField`] at object key `key` of `obj`, onto its
/// default (a missing key is an error naming it).
pub fn field<T: JsonField + Default>(obj: &Json, key: &str) -> Result<T, String> {
    let mut value = T::default();
    value.read_json(key, obj.req(key)?)?;
    Ok(value)
}

/// The object reader behind every [`json_fields!`] table: `set(key,
/// value)` applies one field, or returns `None` for a key the table does
/// not have, which is then rejected with [`unknown_key`]. Under
/// `strict`, every one of `keys` must be present.
pub fn read_object(
    v: &Json,
    what: &str,
    keys: &[&str],
    strict: bool,
    mut set: impl FnMut(&str, &Json) -> Option<Result<(), String>>,
) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(format!("{what} must be a JSON object"));
    };
    if let Some(k) = keys.iter().find(|k| strict && v.get(k).is_none()) {
        return Err(format!("missing key `{k}`"));
    }
    for (k, val) in fields {
        set(k, val).unwrap_or_else(|| Err(unknown_key(k, keys)))?;
    }
    Ok(())
}

/// Declares a struct's JSON field table (see the [module docs](self)):
/// `json_fields!(Ty { a, b, c })` for a config with partial
/// `apply_json`, `json_fields!(strict Ty { a, b, c })` for a counter
/// table that requires every key. The list order is the key order.
#[macro_export]
macro_rules! json_fields {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $ty {
            #[doc = concat!(
                "The field names [`", stringify!($ty), "::apply_json`] accepts, in key order."
            )]
            pub const KEYS: &'static [&'static str] = &[$(stringify!($f)),+];

            /// Serialises every field, in [`Self::KEYS`] order (see
            /// [`rix_isa::json`](mod@rix_isa::json)).
            #[must_use]
            pub fn to_json(&self) -> String {
                $crate::json::to_string(self)
            }

            /// Applies a (possibly partial) JSON object: present keys
            /// overwrite (nested tables may themselves be partial),
            /// omitted keys keep their current value, unknown keys are
            /// rejected with an error naming them.
            pub fn apply_json(&mut self, v: &$crate::json::Json) -> Result<(), String> {
                $crate::json_fields!(@read self, v, $ty, Self::KEYS, false, $($f),+)
            }
        }

        impl $crate::json::JsonField for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::json_fields!(@write self, out, $($f),+);
            }

            fn read_json(&mut self, key: &str, v: &$crate::json::Json) -> Result<(), String> {
                self.apply_json(v).map_err(|e| format!("{key}: {e}"))
            }
        }
    };
    (strict $ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::json::JsonField for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::json_fields!(@write self, out, $($f),+);
            }

            fn read_json(&mut self, key: &str, v: &$crate::json::Json) -> Result<(), String> {
                let keys = &[$(stringify!($f)),+];
                $crate::json_fields!(@read self, v, $ty, keys, true, $($f),+)
                    .map_err(|e| format!("{key}: {e}"))
            }
        }
    };
    (@write $self:ident, $out:ident, $first:ident $(, $f:ident)*) => {
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::json::JsonField::write_json(&$self.$first, $out);
        $(
            $out.push_str(concat!(",\"", stringify!($f), "\":"));
            $crate::json::JsonField::write_json(&$self.$f, $out);
        )*
        $out.push('}');
    };
    (@read $self:ident, $v:ident, $ty:ident, $keys:expr, $strict:expr, $($f:ident),+) => {
        $crate::json::read_object($v, stringify!($ty), $keys, $strict, |k, val| match k {
            $(stringify!($f) => Some($crate::json::JsonField::read_json(&mut $self.$f, k, val)),)+
            _ => None,
        })
    };
}

/// Makes string enums [`JsonField`]s through their own `as_str` (the
/// stable JSON name) and `parse` (whose error lists the choices).
#[macro_export]
macro_rules! json_enum {
    ($($ty:ident),+ $(,)?) => {$(
        impl $crate::json::JsonField for $ty {
            fn write_json(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.as_str());
                out.push('"');
            }

            fn read_json(&mut self, key: &str, v: &$crate::json::Json) -> Result<(), String> {
                let name = v.as_str().ok_or_else(|| format!("key `{key}` must be a string"))?;
                *self = Self::parse(name)?;
                Ok(())
            }
        }
    )+};
}

/// The standard error message for a key the reader does not recognise:
/// names the offending key, suggests the closest known key (by edit
/// distance), and lists all known keys. Shared by the field tables and
/// every hand-rolled spec reader in the workspace so unknown-key
/// rejection reads the same everywhere.
#[must_use]
pub fn unknown_key(key: &str, known: &[&str]) -> String {
    let closest = known
        .iter()
        .min_by_key(|k| edit_distance(key, k))
        .filter(|k| edit_distance(key, k) <= key.len().max(k.len()) / 2)
        .map(|k| format!(" (did you mean `{k}`?)"))
        .unwrap_or_default();
    format!("unknown key `{key}`{closest}; known keys: {}", known.join(", "))
}

/// Levenshtein distance, ASCII-case-insensitive (keys are short, the
/// quadratic DP is plenty).
#[must_use]
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<u8> = a.bytes().map(|c| c.to_ascii_lowercase()).collect();
    let b: Vec<u8> = b.bytes().map(|c| c.to_ascii_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("invalid number at byte {start}"))?;
            Ok(Json::Num(raw.to_string()))
        }
        Some(c) => Err(format!("unexpected byte `{}` at byte {pos}", *c as char, pos = *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, "\"")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // Our writers only escape control characters;
                        // surrogate pairs are not produced and map to
                        // the replacement character if encountered.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences are
                // copied verbatim).
                let s = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}", pos = *pos))?;
                let c = s.chars().next().expect("non-empty by the match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap().as_bool(), Some(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(Json::parse(r#""a\"b""#).unwrap().as_str(), Some("a\"b"));
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = Json::parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Json::parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn containers_and_lookup() {
        let v = Json::parse(r#"{"a":[1,2,{"b":false}],"c":"x"}"#).unwrap();
        assert_eq!(v.req_u64("a").unwrap_err(), "key `a` is not a u64");
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert!(v.get("missing").is_none());
        assert!(v.req("missing").unwrap_err().contains("missing"));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").unwrap_err().contains("trailing"));
        assert!(Json::parse("\"abc").unwrap_err().contains("unterminated"));
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn dump_round_trips() {
        for text in [
            "null",
            "true",
            "18446744073709551615",
            r#"{"a":[1,2,{"b":false}],"c":"x\"y\\z"}"#,
            "[]",
            "{}",
            r#""a
b""#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.dump()).unwrap(), v, "{text}");
        }
        // Canonical output: compact, escapes re-applied.
        assert_eq!(Json::parse(" { \"a\" : 1 } ").unwrap().dump(), r#"{"a":1}"#);
    }

    #[test]
    fn unknown_key_suggests_closest() {
        let msg = unknown_key("wayz", &["size_bytes", "ways", "hit_latency"]);
        assert!(msg.contains("unknown key `wayz`"), "{msg}");
        assert!(msg.contains("did you mean `ways`?"), "{msg}");
        assert!(msg.contains("size_bytes"), "lists known keys: {msg}");
        // A key nothing like any known one still lists the options.
        let msg = unknown_key("flux_capacitor_coefficient", &["ways"]);
        assert!(msg.contains("known keys: ways"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        hits: u64,
        hist: [[u64; 2]; 2],
    }
    crate::json_fields!(strict Inner { hist, hits });

    #[derive(Debug, Default, PartialEq)]
    struct Outer {
        on: bool,
        bits: u32,
        inner: Inner,
    }
    crate::json_fields!(strict Outer { bits, inner, on });

    #[derive(Debug, Default, PartialEq)]
    struct Knobs {
        ways: usize,
        depth: u64,
    }
    crate::json_fields!(Knobs { ways, depth });

    #[test]
    fn field_tables_write_in_list_order_and_read_back() {
        let v = Outer { on: true, bits: 7, inner: Inner { hits: 3, hist: [[1, 2], [3, u64::MAX]] } };
        let text = to_string(&v);
        assert_eq!(
            text,
            r#"{"bits":7,"inner":{"hist":[[1,2],[3,18446744073709551615]],"hits":3},"on":true}"#
        );
        let doc = Json::parse(&format!(r#"{{"v":{text}}}"#)).unwrap();
        assert_eq!(field::<Outer>(&doc, "v").unwrap(), v);
    }

    #[test]
    fn strict_tables_require_every_key_and_prefix_nested_errors() {
        let read = |text: &str| field::<Outer>(&Json::parse(text).unwrap(), "v");
        let err = read(r#"{"v":{"bits":1,"on":true}}"#).unwrap_err();
        assert_eq!(err, "v: missing key `inner`");
        let err = read(r#"{"v":{"bits":1,"on":true,"inner":{"hits":1}}}"#).unwrap_err();
        assert_eq!(err, "v: inner: missing key `hist`");
        let err = read(r#"{"v":{"bits":1,"on":true,"inner":{"hits":1,"hist":[[1,2]]}}}"#);
        assert!(err.unwrap_err().contains("key `hist` is not a 2-entry histogram"));
        let err = read(r#"{"v":{"bits":1,"on":true,"inner":{"hits":1,"hist":[[1,2],[3]]}}}"#);
        assert!(err.unwrap_err().contains("`hist`[1] is not a [direct, reverse] pair"));
        let err = read(r#"{"v":{"bits":1,"on":1,"inner":{"hits":1,"hist":[[1,2],[3,4]]}}}"#);
        assert_eq!(err.unwrap_err(), "v: key `on` must be a boolean");
        let err = read(r#"{"v":[]}"#).unwrap_err();
        assert_eq!(err, "v: Outer must be a JSON object");
    }

    #[test]
    fn config_tables_apply_partially_and_reject_bad_keys_and_values() {
        let mut k = Knobs { ways: 4, depth: 9 };
        assert_eq!(Knobs::KEYS, ["ways", "depth"]);
        assert_eq!(k.to_json(), r#"{"ways":4,"depth":9}"#);
        k.apply_json(&Json::parse(r#"{"depth":2}"#).unwrap()).unwrap();
        assert_eq!(k, Knobs { ways: 4, depth: 2 });
        let err = k.apply_json(&Json::parse(r#"{"wayz":1}"#).unwrap()).unwrap_err();
        assert!(err.starts_with("unknown key `wayz` (did you mean `ways`?)"), "{err}");
        let err = k.apply_json(&Json::parse(r#"{"ways":"many"}"#).unwrap()).unwrap_err();
        assert_eq!(err, "key `ways` must be an unsigned integer");
        let mut bits = 0u32;
        let err = bits.read_json("bits", &Json::Num("4294967296".into())).unwrap_err();
        assert_eq!(err, "key `bits` is out of range: 4294967296 does not fit in u32");
        bits.read_json("bits", &Json::Num("4294967295".into())).unwrap();
        assert_eq!(bits, u32::MAX);
    }

    #[test]
    fn control_escape_roundtrip() {
        // The writers escape control characters as \u00XX.
        let v = Json::parse("\"a\\u000ab\"").unwrap();
        assert_eq!(v.as_str(), Some("a\nb"));
    }
}
