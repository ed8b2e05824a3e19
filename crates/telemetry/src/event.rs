//! The structured event log and its stable line encoding.
//!
//! One event per line:
//!
//! ```text
//! v<secs>\t<kind>\t<key>=<value>\t<key>=<value>…
//! ```
//!
//! `kind` and keys are restricted to `[a-z0-9_.-]`; values may contain
//! anything, escaped by the shared [`wire`](crate::wire) codec, whose
//! `key=value` tail trace events use too. `parse_line` inverts
//! `to_line` exactly, and [`to_dump`]/[`from_dump`] wrap a whole log
//! with a versioned header for persistence.

use crate::wire::{
    field, parse_kv, push_kv, read_lines, tagged, valid_key, write_lines, Fields, Wire, WireError,
};
use std::fmt::Display;

/// One structured event at a virtual-clock instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual-clock seconds.
    pub at_secs: u64,
    /// Event kind, lowercase dotted (`fetch.intercepted`,
    /// `submission.accepted`, …).
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Fields,
}

/// Magic first line of an event-log dump.
pub const MAGIC: &str = "filterwatch-telemetry-events v1";

impl Event {
    /// Build an event, validating the kind and keys and formatting
    /// each value into the payload.
    pub fn new(at_secs: u64, kind: &str, fields: &[(&'static str, &dyn Display)]) -> Self {
        assert!(valid_key(kind), "invalid event kind {kind:?}");
        for (k, _) in fields {
            assert!(valid_key(k), "invalid event key {k:?}");
        }
        Event {
            at_secs,
            kind: kind.to_string(),
            fields: Fields::record(fields, 0),
        }
    }

    /// Value of the first field named `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.get(key)
    }
}

impl Wire for Event {
    fn to_line(&self) -> String {
        let mut line = format!("v{}\t{}", self.at_secs, self.kind);
        push_kv(&mut line, &self.fields);
        line
    }

    fn parse_line(line: &str) -> Result<Event, WireError> {
        let mut parts = line.split('\t');
        let at_secs = field("at", tagged("at", "v", parts.next().unwrap_or_default())?)?;
        let kind = parts.next().unwrap_or_default();
        if !valid_key(kind) {
            return Err(WireError::new(
                "kind",
                format!("invalid event kind {kind:?}"),
            ));
        }
        Ok(Event {
            at_secs,
            kind: kind.to_string(),
            fields: parse_kv(parts)?,
        })
    }
}

/// Serialize a whole event log with a versioned header.
pub fn to_dump(events: &[Event]) -> String {
    write_lines(Some(MAGIC), events)
}

/// Parse a dump produced by [`to_dump`].
pub fn from_dump(dump: &str) -> Result<Vec<Event>, WireError> {
    read_lines(Some(MAGIC), dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips() {
        let e = Event::new(
            86_461,
            "submission.accepted",
            &[
                ("vendor", &"smartfilter"),
                ("url", &"http://x.example/a\tb"),
                ("note", &"line1\nline2\\end"),
            ],
        );
        let line = e.to_line();
        assert!(line.starts_with("v86461\tsubmission.accepted\tvendor=smartfilter"));
        assert_eq!(Event::parse_line(&line).unwrap(), e);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Event::parse_line("86461\tx").is_err());
        assert!(Event::parse_line("vnope\tx").is_err());
        assert!(Event::parse_line("v1\tBadKind").is_err());
        assert!(Event::parse_line("v1\tok\tfieldnoeq").is_err());
        assert!(Event::parse_line("v1\tok\tk=trailing\\").is_err());
    }

    #[test]
    fn dump_round_trips() {
        let events = vec![
            Event::new(0, "scan.start", &[]),
            Event::new(5, "scan.done", &[("hosts", &12)]),
        ];
        let dump = to_dump(&events);
        assert_eq!(from_dump(&dump).unwrap(), events);
        assert!(from_dump("wrong header\n").is_err());
    }

    #[test]
    fn field_lookup() {
        let e = Event::new(1, "x", &[("a", &1), ("b", &2)]);
        assert_eq!(e.field("b"), Some("2"));
        assert_eq!(e.field("c"), None);
    }
}
