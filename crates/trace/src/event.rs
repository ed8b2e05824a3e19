//! Parent-linked trace events and their stable line encoding.
//!
//! One event per line:
//!
//! ```text
//! t<16 hex>\ts<span>\t<s<parent>|->\tv<start>\tv<end>\t<step-token>\t<key>=<value>…
//! ```
//!
//! Spans and point events share the representation: a point is a span
//! whose start and end coincide and which never has children. The
//! `key=value` tail is the telemetry event log's, from the shared
//! [`wire`](filterwatch_telemetry::wire) codec, so any URL or error
//! string is safe. `parse_line` inverts `to_line` exactly.

use crate::ids::{SpanId, TraceId};
use crate::step::StepKind;
use filterwatch_telemetry::wire::{
    field, optional, parse_kv, push_kv, read_lines, tagged, write_lines, Fields, Wire, WireError,
    ABSENT,
};

/// One causal step: a closed span or a point event on the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace this event belongs to.
    pub trace: TraceId,
    /// This event's span ordinal within the trace.
    pub span: SpanId,
    /// Causal parent within the same trace; `None` for the root.
    pub parent: Option<SpanId>,
    /// Virtual-clock start, seconds.
    pub at_secs: u64,
    /// Virtual-clock end, seconds; equals `at_secs` for point events.
    pub end_secs: u64,
    /// What kind of step this is.
    pub step: StepKind,
    /// Ordered key/value payload (urls, vantages, outcomes, …).
    pub fields: Fields,
}

impl TraceEvent {
    /// Virtual duration in seconds (0 for point events).
    pub fn duration_secs(&self) -> u64 {
        self.end_secs.saturating_sub(self.at_secs)
    }

    /// Value of the first field named `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.get(key)
    }
}

impl Wire for TraceEvent {
    fn to_line(&self) -> String {
        let parent = match self.parent {
            Some(p) => p.to_string(),
            None => ABSENT.to_string(),
        };
        let mut line = format!(
            "{}\t{}\t{}\tv{}\tv{}\t{}",
            self.trace,
            self.span,
            parent,
            self.at_secs,
            self.end_secs,
            self.step.to_token()
        );
        push_kv(&mut line, &self.fields);
        line
    }

    fn parse_line(line: &str) -> Result<TraceEvent, WireError> {
        let mut parts = line.split('\t');
        let mut next = || parts.next().unwrap_or_default();
        let trace = TraceId::parse(next())?;
        let span = SpanId::parse(next())?;
        let parent = optional(next(), SpanId::parse)?;
        let at_secs = field("start", tagged("start", "v", next())?)?;
        let end_secs = field("end", tagged("end", "v", next())?)?;
        if end_secs < at_secs {
            return Err(WireError::new("end", "span ends before it starts"));
        }
        let step = StepKind::parse_token(next())?;
        Ok(TraceEvent {
            trace,
            span,
            parent,
            at_secs,
            end_secs,
            step,
            fields: parse_kv(parts)?,
        })
    }
}

/// Serialize a trace log, one line per event.
pub fn to_log(events: &[TraceEvent]) -> String {
    write_lines(None, events)
}

/// Parse a log produced by [`to_log`] (blank lines ignored).
pub fn from_log(log: &str) -> Result<Vec<TraceEvent>, WireError> {
    read_lines(None, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            trace: TraceId(0x0123_4567_89ab_cdef),
            span: SpanId(41),
            parent: Some(SpanId(7)),
            at_secs: 86_461,
            end_secs: 86_465,
            step: StepKind::Fetch,
            fields: [
                ("url", "http://x.example/a\tb"),
                ("vantage", "field@etisalat"),
                ("note", "line1\nline2\\end"),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn line_round_trips() {
        let e = sample();
        let line = e.to_line();
        assert!(line.starts_with("t0123456789abcdef\ts41\ts7\tv86461\tv86465\tfetch\turl="));
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), e);
    }

    #[test]
    fn root_parent_renders_as_dash() {
        let mut e = sample();
        e.parent = None;
        let line = e.to_line();
        assert!(line.contains("\ts41\t-\tv"));
        assert_eq!(TraceEvent::parse_line(&line).unwrap().parent, None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(TraceEvent::parse_line("").is_err());
        assert!(TraceEvent::parse_line("x0\ts1\t-\tv0\tv0\tfetch").is_err());
        assert!(TraceEvent::parse_line("t0000000000000000\t1\t-\tv0\tv0\tfetch").is_err());
        assert!(TraceEvent::parse_line("t0000000000000000\ts1\t-\t0\tv0\tfetch").is_err());
        assert!(TraceEvent::parse_line("t0000000000000000\ts1\t-\tv5\tv4\tfetch").is_err());
        assert!(TraceEvent::parse_line("t0000000000000000\ts1\t-\tv0\tv0\tnope").is_err());
        assert!(TraceEvent::parse_line("t0000000000000000\ts1\t-\tv0\tv0\tfetch\tnoeq").is_err());
        assert!(TraceEvent::parse_line("t0000000000000000\ts1\t-\tv0\tv0\tfetch\tK=v").is_err());
        assert!(
            TraceEvent::parse_line("t0000000000000000\ts1\t-\tv0\tv0\tfetch\tk=bad\\").is_err()
        );
    }

    #[test]
    fn log_round_trips() {
        let mut e2 = sample();
        e2.span = SpanId(42);
        e2.parent = Some(SpanId(41));
        let events = vec![sample(), e2];
        let log = to_log(&events);
        assert_eq!(from_log(&log).unwrap(), events);
    }
}
