//! The one wire codec every line format in the workspace is built on.
//!
//! Checkpoints, flow logs, trace and telemetry event logs, verdict
//! lines, scan dumps and interner lines all encode through this module,
//! so they share:
//!
//! * **one escaping table** ([`escape`]/[`unescape`]): every field
//!   escapes `\\`, tab, newline and CR as `\\\\`, `\t`, `\n`, `\r`. An
//!   element of a list field ([`encode_list`]/[`decode_list`]) also
//!   escapes `,` as `\c`. Unescaping rejects unknown and dangling
//!   escapes;
//! * **one error type**, [`WireError`], naming the field that failed;
//! * **one trait**, [`Wire`]: a line type implements `to_line` and
//!   `parse_line` together, so an emitter without a parser does not
//!   compile;
//! * **token tables** ([`wire_enum!`](crate::wire_enum)) that generate
//!   `to_token`, `parse_token` and `ALL` from one `Variant => "token"`
//!   list;
//! * **field helpers**: [`split`] with an arity check, [`field`] for a
//!   typed field, [`tagged`] and [`keyed`] for prefixed fields, and
//!   [`push_kv`]/[`parse_kv`] for the `key=value` tail that telemetry
//!   and trace events share, held in memory as one [`Fields`] buffer.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Why a wire line did not parse: the field that failed and what was
/// wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The field that failed (`digest`, `stage`, `url`, …).
    pub field: &'static str,
    /// What was wrong with it.
    pub reason: String,
}

impl WireError {
    /// An error in `field`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> WireError {
        WireError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad {} field: {}", self.field, self.reason)
    }
}

impl std::error::Error for WireError {}

/// A one-line wire format: `parse_line` inverts `to_line` exactly.
pub trait Wire: Sized {
    /// Encode as one line (no trailing newline).
    fn to_line(&self) -> String;

    /// Parse a line produced by [`Wire::to_line`].
    fn parse_line(line: &str) -> Result<Self, WireError>;
}

/// The escaping table: raw character and the letter that follows `\`.
/// Every field uses the first [`FIELD_ESCAPES`] entries; list elements
/// use all of them.
const ESCAPES: [(char, char); 5] = [
    ('\\', '\\'),
    ('\t', 't'),
    ('\n', 'n'),
    ('\r', 'r'),
    (',', 'c'),
];

/// How many [`ESCAPES`] entries apply outside list elements.
const FIELD_ESCAPES: usize = 4;

fn push_escaped(out: &mut String, value: &str, table: &[(char, char)]) {
    for c in value.chars() {
        match table.iter().find(|&&(raw, _)| raw == c) {
            Some(&(_, letter)) => {
                out.push('\\');
                out.push(letter);
            }
            None => out.push(c),
        }
    }
}

fn unescape_with(
    field: &'static str,
    value: &str,
    table: &[(char, char)],
) -> Result<String, WireError> {
    let mut out = String::with_capacity(value.len());
    unescape_into(&mut out, field, value, table)?;
    Ok(out)
}

fn unescape_into(
    out: &mut String,
    field: &'static str,
    value: &str,
    table: &[(char, char)],
) -> Result<(), WireError> {
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let letter = chars
            .next()
            .ok_or_else(|| WireError::new(field, format!("dangling escape in {value:?}")))?;
        match table.iter().find(|&&(_, l)| l == letter) {
            Some(&(raw, _)) => out.push(raw),
            None => {
                return Err(WireError::new(
                    field,
                    format!("unknown escape \\{letter} in {value:?}"),
                ))
            }
        }
    }
    Ok(())
}

/// Escape one field.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    push_escaped(&mut out, value, &ESCAPES[..FIELD_ESCAPES]);
    out
}

/// Invert [`escape`], rejecting unknown and dangling escapes.
pub fn unescape(field: &'static str, value: &str) -> Result<String, WireError> {
    unescape_with(field, value, &ESCAPES[..FIELD_ESCAPES])
}

/// Encode a list field: elements escaped (`,` included) and joined
/// with `,`.
pub fn encode_list<S: AsRef<str>>(items: &[S]) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, item.as_ref(), &ESCAPES);
    }
    out
}

/// Invert [`encode_list`]. The empty string decodes as one empty
/// element; formats that can carry an empty list mark it themselves.
pub fn decode_list(field: &'static str, value: &str) -> Result<Vec<String>, WireError> {
    value
        .split(',')
        .map(|item| unescape_with(field, item, &ESCAPES))
        .collect()
}

/// Split `line` on `sep` into exactly `N` fields.
pub fn split<const N: usize>(line: &str, sep: char) -> Result<[&str; N], WireError> {
    let mut fields = [""; N];
    let mut parts = line.split(sep);
    for slot in fields.iter_mut() {
        match parts.next() {
            Some(part) => *slot = part,
            None => return Err(arity::<N>(line, sep)),
        }
    }
    match parts.next() {
        Some(_) => Err(arity::<N>(line, sep)),
        None => Ok(fields),
    }
}

fn arity<const N: usize>(line: &str, sep: char) -> WireError {
    WireError::new(
        "line",
        format!(
            "expected {N} {sep:?}-separated fields, got {}",
            line.split(sep).count()
        ),
    )
}

/// Parse a typed field.
pub fn field<T>(name: &'static str, text: &str) -> Result<T, WireError>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    text.parse()
        .map_err(|e| WireError::new(name, format!("{text:?}: {e}")))
}

/// The value of a `prefix`-tagged field (`v86400`, `t<hex>`).
pub fn tagged<'a>(name: &'static str, prefix: &str, text: &'a str) -> Result<&'a str, WireError> {
    text.strip_prefix(prefix)
        .ok_or_else(|| WireError::new(name, format!("expected {prefix:?} in {text:?}")))
}

/// The value of a `key<sep>value` field (`clock:42`, `retries=3`).
pub fn keyed<'a>(key: &'static str, sep: char, text: &'a str) -> Result<&'a str, WireError> {
    text.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(sep))
        .ok_or_else(|| WireError::new(key, format!("expected {key}{sep}… in {text:?}")))
}

/// Marker written for an absent optional field.
pub const ABSENT: &str = "-";

/// Decode an optional field written as [`ABSENT`] when missing.
pub fn optional<T>(
    text: &str,
    parse: impl FnOnce(&str) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    if text == ABSENT {
        Ok(None)
    } else {
        parse(text).map(Some)
    }
}

/// Whether `s` may be an event kind or a `key=value` key: non-empty
/// `[a-z0-9_.-]`.
pub fn valid_key(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'_' | b'.' | b'-')
        })
}

/// Bytes of value text a recorder reserves per field: room for the
/// URLs, vantage names and tokens most fields carry.
const TEXT_HINT: usize = 24;

/// An event's ordered `key=value` payload in one text buffer.
///
/// Values are appended to one `String`, and each key keeps the end
/// offset of its value. A key is `&'static str` when recorded and owned
/// only when parsed from a line. Two payloads are equal when their
/// `(key, value)` sequences are.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Fields {
    keys: Vec<(Cow<'static, str>, usize)>,
    text: String,
}

impl Fields {
    /// An empty payload. Allocates nothing.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// Format a recording call's fields, with room reserved for `spare`
    /// more (the fields a span gets when it closes).
    pub fn record(fields: &[(&'static str, &dyn fmt::Display)], spare: usize) -> Fields {
        let slots = fields.len() + spare;
        let mut out = Fields {
            keys: Vec::with_capacity(slots),
            text: String::with_capacity(slots * TEXT_HINT),
        };
        out.push_all(fields);
        out
    }

    /// Append one field, formatting `value` straight into the buffer.
    pub fn push(
        &mut self,
        key: impl Into<Cow<'static, str>>,
        value: &(impl fmt::Display + ?Sized),
    ) {
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{value}");
        self.keys.push((key.into(), self.text.len()));
    }

    /// Append every field of a recording call, in order.
    pub fn push_all(&mut self, fields: &[(&'static str, &dyn fmt::Display)]) {
        for &(key, value) in fields {
            self.push(key, value);
        }
    }

    /// The `(key, value)` pairs, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let mut start = 0;
        self.keys.iter().map(move |(key, end)| {
            let value = &self.text[start..*end];
            start = *end;
            (key.as_ref(), value)
        })
    }

    /// Value of the first field named `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Cow<'static, str>>, V: fmt::Display> FromIterator<(K, V)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Fields {
        let mut fields = Fields::new();
        for (key, value) in pairs {
            fields.push(key, &value);
        }
        fields
    }
}

/// Append a `\tkey=value` field per pair, values escaped.
pub fn push_kv(line: &mut String, fields: &Fields) {
    for (k, v) in fields.iter() {
        line.push('\t');
        line.push_str(k);
        line.push('=');
        push_escaped(line, v, &ESCAPES[..FIELD_ESCAPES]);
    }
}

/// Parse the `key=value` tail written by [`push_kv`], unescaping each
/// value straight into the payload's buffer.
pub fn parse_kv<'a>(parts: impl Iterator<Item = &'a str>) -> Result<Fields, WireError> {
    let mut fields = Fields::new();
    for part in parts {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| WireError::new("fields", format!("no '=' in {part:?}")))?;
        if !valid_key(k) {
            return Err(WireError::new("fields", format!("invalid key {k:?}")));
        }
        unescape_into(&mut fields.text, "fields", v, &ESCAPES[..FIELD_ESCAPES])?;
        fields
            .keys
            .push((Cow::Owned(k.to_string()), fields.text.len()));
    }
    Ok(fields)
}

/// Write one line per item under an optional header line, each line
/// ending in a newline.
pub fn write_lines<'a, T: Wire + 'a>(
    header: Option<&str>,
    items: impl IntoIterator<Item = &'a T>,
) -> String {
    let mut out = String::new();
    for line in header
        .map(str::to_string)
        .into_iter()
        .chain(items.into_iter().map(T::to_line))
    {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Invert [`write_lines`]: check the header, skip blank lines, and name
/// the failing line (1-based, header included) in errors.
pub fn read_lines<T: Wire>(header: Option<&str>, text: &str) -> Result<Vec<T>, WireError> {
    let mut lines = text.lines().enumerate();
    if let Some(header) = header {
        if lines.next().map(|(_, line)| line) != Some(header) {
            return Err(WireError::new("header", format!("expected {header:?}")));
        }
    }
    lines
        .filter(|(_, line)| !line.is_empty())
        .map(|(i, line)| {
            T::parse_line(line)
                .map_err(|e| WireError::new(e.field, format!("line {}: {}", i + 1, e.reason)))
        })
        .collect()
}

/// Generate a token table for a field-less enum: `ALL`, `to_token` and
/// `parse_token`, all from one `Variant => "token"` list. `to_token`
/// matches exhaustively, so a variant missing from the list does not
/// compile. The literal after the type names the field parse errors
/// blame.
///
/// ```
/// #[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// enum Light { Red, Green }
/// filterwatch_telemetry::wire_enum! { Light: "light" { Red => "red", Green => "green" } }
///
/// assert_eq!(Light::Green.to_token(), "green");
/// assert_eq!(Light::parse_token("red"), Ok(Light::Red));
/// assert_eq!(Light::parse_token("blue").unwrap_err().field, "light");
/// assert_eq!(Light::ALL, &[Light::Red, Light::Green]);
/// ```
///
/// Dropping a variant from the list is a compile error:
///
/// ```compile_fail,E0004
/// #[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// enum Light { Red, Green }
/// filterwatch_telemetry::wire_enum! { Light: "light" { Red => "red" } }
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident : $field:literal { $($variant:ident => $token:literal),+ $(,)? }) => {
        impl $ty {
            /// Every variant, in token-table order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),+];

            /// Stable wire token.
            pub fn to_token(&self) -> &'static str {
                match self {
                    $($ty::$variant => $token),+
                }
            }

            /// Invert `to_token`.
            pub fn parse_token(token: &str) -> Result<$ty, $crate::wire::WireError> {
                match token {
                    $($token => Ok($ty::$variant),)+
                    other => Err($crate::wire::WireError::new(
                        $field,
                        format!("unknown token {other:?}"),
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_and_is_strict() {
        for s in ["a", "t\tt", "n\nn", "r\rr", "b\\b", "c,c"] {
            assert_eq!(unescape("f", &escape(s)).as_deref(), Ok(s));
        }
        assert_eq!(unescape("f", "dangling\\").unwrap_err().field, "f");
        assert!(unescape("f", "\\q").is_err());
        // `\c` belongs to list elements only.
        assert!(unescape("f", "\\c").is_err());
        let items = ["a,b.example", "c\\d", ""];
        assert_eq!(encode_list(&items), "a\\cb.example,c\\\\d,");
        assert_eq!(decode_list("l", &encode_list(&items)).unwrap(), items);
    }

    #[test]
    fn helpers_name_the_failing_field() {
        assert_eq!(split::<3>("a\tb\tc", '\t'), Ok(["a", "b", "c"]));
        assert_eq!(split::<2>("a\tb\tc", '\t').unwrap_err().field, "line");
        assert!(split::<4>("a\tb\tc", '\t').is_err());
        assert_eq!(field::<u64>("clock", "x").unwrap_err().field, "clock");
        assert_eq!(tagged("at", "v", "42").unwrap_err().field, "at");
        assert_eq!(keyed("clock", ':', "clock:42"), Ok("42"));
        assert_eq!(keyed("clock", ':', "clock=42").unwrap_err().field, "clock");
        assert_eq!(optional("-", |t| field::<u8>("n", t)), Ok(None));
        assert!(parse_kv(["noeq"].into_iter()).is_err());
        assert!(parse_kv(["K=v"].into_iter()).is_err());
    }
}
