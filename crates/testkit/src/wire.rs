//! One round-trip harness for every wire format.
//!
//! Every line type implements [`Wire`] and every token enum gets its
//! table from `wire_enum!`, so one generic check covers them all: the
//! crate's `tests/proptests.rs` instantiates [`check_wire`] once per
//! line type and [`check_tokens`] once per token table.

use std::collections::BTreeSet;
use std::fmt::Debug;

use filterwatch_telemetry::wire::{Wire, WireError};

/// Bytes substituted at every position of a valid line (besides the
/// byte with its low bit flipped): the separators the formats split
/// on, the escape byte, line breaks, digits and letters.
const SUBSTITUTES: &[u8] = b"\t\n\r :,=-\\0a9Z~";

/// Check the wire contract on one value:
///
/// * `to_line` writes one line: no newline or CR, since every log is
///   newline-framed;
/// * `parse_line(to_line(value)) == value`, and encoding the parsed
///   value again gives the same bytes;
/// * parsing is total — on `junk`, on every truncation of the line and
///   on every single-byte substitution of it, `parse_line` returns a
///   value or a [`WireError`] and never panics. Substitutions that
///   would not be UTF-8 are skipped: lines are text.
pub fn check_wire<T: Wire + PartialEq + Debug>(value: &T, junk: &str) -> Result<(), String> {
    let line = value.to_line();
    if line.contains(['\n', '\r']) {
        return Err(format!("{line:?} is not one line"));
    }
    let back = T::parse_line(&line).map_err(|e| format!("{line:?} does not parse: {e}"))?;
    if back != *value {
        return Err(format!("{line:?} parses as {back:?}, not {value:?}"));
    }
    let again = back.to_line();
    if again != line {
        return Err(format!("re-encoding {line:?} gives {again:?}"));
    }
    let _ = T::parse_line(junk);
    for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
        let _ = T::parse_line(&line[..end]);
    }
    let mut bytes = line.into_bytes();
    for pos in 0..bytes.len() {
        let original = bytes[pos];
        for &sub in SUBSTITUTES.iter().chain([original ^ 1].iter()) {
            bytes[pos] = sub;
            if let Ok(damaged) = std::str::from_utf8(&bytes) {
                let _ = T::parse_line(damaged);
            }
        }
        bytes[pos] = original;
    }
    Ok(())
}

/// Check a generated token table: every variant round-trips through
/// its token, tokens are distinct and non-empty, and parsing is total
/// on every truncation of every token.
pub fn check_tokens<T: Copy + PartialEq + Debug>(
    all: &[T],
    to_token: impl Fn(&T) -> &'static str,
    parse_token: impl Fn(&str) -> Result<T, WireError>,
) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for variant in all {
        let token = to_token(variant);
        if token.is_empty() || !seen.insert(token) {
            return Err(format!(
                "{variant:?} has an empty or duplicate token {token:?}"
            ));
        }
        match parse_token(token) {
            Ok(back) if back == *variant => {}
            other => return Err(format!("{token:?} parses as {other:?}, not {variant:?}")),
        }
        for end in (0..token.len()).filter(|&end| token.is_char_boundary(end)) {
            let _ = parse_token(&token[..end]);
        }
    }
    match parse_token("") {
        Ok(v) => Err(format!("the empty token parses as {v:?}")),
        Err(_) => Ok(()),
    }
}
