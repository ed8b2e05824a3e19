//! The trace collector and its cheap cloneable handle.
//!
//! Mirrors the telemetry collector's shape: a [`TraceHandle`] is either
//! disabled (`inner: None` — every call is a branch and a return, so
//! the instrumented hot paths cost nothing in production benches) or
//! shares one collector. The collector is an *observer only*: it never
//! draws randomness and never advances the virtual clock, which is what
//! guarantees campaign tables are byte-identical with tracing on or
//! off.
//!
//! Spans open and close in a stack discipline; closing a span also
//! closes any children that leaked past their parent. A fresh trace
//! starts whenever a span opens on an empty stack, with its
//! [`TraceId`] derived from `(seed, trace ordinal, root token)` — one
//! campaign run is one trace.
//!
//! Fields arrive as `Display` values and the collector formats them
//! into the event's one [`Fields`] buffer, and only for an event it
//! records: a disabled handle formats nothing, so call sites pass their
//! values as they are, with no guard.

use std::fmt::Display;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::TraceEvent;
use crate::ids::{SpanId, TraceId};
use crate::step::StepKind;
use filterwatch_telemetry::Fields;

/// How much tracing a campaign should carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No collector at all; zero overhead (the default).
    Off,
    /// Record everything.
    Full,
}

/// Token returned by [`TraceHandle::open`]; pass it back to
/// [`TraceHandle::close`]. The zero value is "nothing to close".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(u32);

impl ScopeId {
    /// The no-op scope; only a disabled handle returns it.
    pub const NONE: ScopeId = ScopeId(0);
}

struct State {
    events: Vec<TraceEvent>,
    /// Open spans, innermost last.
    stack: Vec<TraceEvent>,
    trace_seq: u64,
    next_span: u32,
}

struct Collector {
    seed: u64,
    state: Mutex<State>,
}

impl Collector {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Cheap cloneable handle to a trace collector (or to nothing).
#[derive(Clone)]
pub struct TraceHandle {
    inner: Option<Arc<Collector>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

impl TraceHandle {
    /// A handle that records nothing.
    pub fn disabled() -> TraceHandle {
        TraceHandle { inner: None }
    }

    /// A collector recording every span and point, deriving ids from
    /// `seed`.
    pub fn enabled(seed: u64) -> TraceHandle {
        TraceHandle {
            inner: Some(Arc::new(Collector {
                seed,
                state: Mutex::new(State {
                    events: Vec::new(),
                    stack: Vec::new(),
                    trace_seq: 0,
                    next_span: 0,
                }),
            })),
        }
    }

    /// Build a handle for a [`TraceMode`].
    pub fn for_mode(mode: TraceMode, seed: u64) -> TraceHandle {
        match mode {
            TraceMode::Off => TraceHandle::disabled(),
            TraceMode::Full => TraceHandle::enabled(seed),
        }
    }

    /// Whether a collector is attached at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span at virtual time `at_secs`. Opening on an empty
    /// stack starts a new trace rooted here.
    pub fn open(
        &self,
        step: StepKind,
        at_secs: u64,
        fields: &[(&'static str, &dyn Display)],
    ) -> ScopeId {
        let Some(collector) = &self.inner else {
            return ScopeId::NONE;
        };
        let mut state = collector.lock();
        let (trace, parent) = match state.stack.last() {
            Some(top) => (top.trace, Some(top.span)),
            None => {
                state.trace_seq += 1;
                state.next_span = 0;
                let trace = TraceId::derive(collector.seed, state.trace_seq, step.to_token());
                (trace, None)
            }
        };
        state.next_span += 1;
        let span = SpanId(state.next_span);
        state.stack.push(TraceEvent {
            trace,
            span,
            parent,
            at_secs,
            end_secs: at_secs,
            step,
            // Room for the fields `close` adds.
            fields: Fields::record(fields, 1),
        });
        ScopeId(span.0)
    }

    /// Close the span opened as `scope` at virtual time `end_secs`,
    /// appending `extra_fields` to it first. Children still open are
    /// closed at the same instant. Unknown or NONE scopes are ignored.
    pub fn close(
        &self,
        scope: ScopeId,
        end_secs: u64,
        extra_fields: &[(&'static str, &dyn Display)],
    ) {
        let Some(collector) = &self.inner else {
            return;
        };
        if scope == ScopeId::NONE {
            return;
        }
        let mut guard = collector.lock();
        let state = &mut *guard;
        let Some(pos) = state.stack.iter().rposition(|open| open.span.0 == scope.0) else {
            return;
        };
        // Innermost (leaked) children first, target last, all at the
        // same virtual instant.
        for mut open in state.stack.drain(pos..).rev() {
            if open.span.0 == scope.0 {
                open.fields.push_all(extra_fields);
            }
            open.end_secs = end_secs.max(open.at_secs);
            state.events.push(open);
        }
    }

    /// Record a point event (a zero-duration leaf) under the currently
    /// open span. Dropped when no span is open — points never start a
    /// trace of their own.
    pub fn point(&self, step: StepKind, at_secs: u64, fields: &[(&'static str, &dyn Display)]) {
        let Some(collector) = &self.inner else {
            return;
        };
        let mut state = collector.lock();
        let Some(top) = state.stack.last() else {
            return;
        };
        let trace = top.trace;
        let parent = Some(top.span);
        state.next_span += 1;
        let span = SpanId(state.next_span);
        state.events.push(TraceEvent {
            trace,
            span,
            parent,
            at_secs,
            end_secs: at_secs,
            step,
            fields: Fields::record(fields, 0),
        });
    }

    /// Drain the completed events, in completion order, leaving the
    /// collector's log empty. Open spans are not included — close the
    /// root first.
    pub fn take(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(collector) => std::mem::take(&mut collector.lock().events),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TraceHandle::disabled();
        assert!(!t.is_enabled());
        let scope = t.open(StepKind::Campaign, 0, &[]);
        assert_eq!(scope, ScopeId::NONE);
        t.point(StepKind::Verdict, 1, &[]);
        t.close(scope, 2, &[]);
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_nest_and_points_attach() {
        let t = TraceHandle::enabled(5);
        let root = t.open(StepKind::Campaign, 0, &[("seed", &5)]);
        let fetch = t.open(StepKind::Fetch, 10, &[("url", &"http://x/")]);
        t.point(StepKind::Dns, 10, &[("host", &"x")]);
        t.close(fetch, 12, &[("outcome", &200)]);
        t.close(root, 100, &[]);
        let events = t.take();
        assert_eq!(events.len(), 3);
        // Completion order: the dns point, then the fetch, then the root.
        assert_eq!(events[0].step, StepKind::Dns);
        assert_eq!(events[0].parent, Some(events[1].span));
        assert_eq!(events[1].step, StepKind::Fetch);
        assert_eq!(events[1].field("outcome"), Some("200"));
        assert_eq!(events[1].parent, Some(events[2].span));
        assert_eq!(events[2].step, StepKind::Campaign);
        assert_eq!(events[2].parent, None);
        assert_eq!(events[2].end_secs, 100);
        assert!(events.iter().all(|e| e.trace == events[0].trace));
        assert!(t.take().is_empty(), "take drains the log");
    }

    #[test]
    fn close_reaps_leaked_children() {
        let t = TraceHandle::enabled(5);
        let root = t.open(StepKind::Campaign, 0, &[]);
        let _leaked = t.open(StepKind::Fetch, 5, &[]);
        t.close(root, 9, &[]);
        // Nothing is left open, so this point is dropped.
        t.point(StepKind::Dns, 9, &[]);
        let events = t.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].step, StepKind::Fetch);
        assert_eq!(events[0].end_secs, 9);
    }

    #[test]
    fn each_root_starts_a_fresh_trace() {
        let t = TraceHandle::enabled(5);
        let a = t.open(StepKind::UrlTest, 0, &[]);
        t.close(a, 1, &[]);
        let b = t.open(StepKind::UrlTest, 2, &[]);
        t.close(b, 3, &[]);
        let events = t.take();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].trace, events[1].trace);
        // Span ordinals restart per trace.
        assert_eq!(events[0].span, events[1].span);
    }

    /// A value that counts how often it is formatted.
    struct Counted<'a>(&'a Cell<usize>);

    impl Display for Counted<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("v")
        }
    }

    #[test]
    fn values_are_formatted_only_for_recorded_events() {
        let calls = Cell::new(0);
        let v = Counted(&calls);
        let subtree = |t: &TraceHandle, at: u64| {
            let test = t.open(StepKind::UrlTest, at, &[("url", &v)]);
            let fetch = t.open(StepKind::Fetch, at, &[("vantage", &v), ("url", &v)]);
            t.point(StepKind::Dns, at, &[("host", &v), ("ip", &v)]);
            t.close(fetch, at + 1, &[("outcome", &v)]);
            t.close(test, at + 1, &[("note", &v)]);
        };

        subtree(&TraceHandle::disabled(), 0);
        assert_eq!(calls.get(), 0, "a disabled handle formatted a value");

        // Recorded: each field once, those added at close included.
        let t = TraceHandle::enabled(5);
        let root = t.open(StepKind::Campaign, 0, &[]);
        subtree(&t, 2);
        assert_eq!(calls.get(), 7);
        t.close(root, 3, &[("seed", &v)]);
        assert_eq!(calls.get(), 8);
        let events = t.take();
        let values: Vec<(&str, &str)> = events.iter().flat_map(|e| e.fields.iter()).collect();
        assert_eq!(values.len(), 8);
        assert!(values.iter().all(|&(_, value)| value == "v"));
    }

    #[test]
    fn points_outside_any_span_are_dropped() {
        let t = TraceHandle::enabled(5);
        t.point(StepKind::Dns, 0, &[]);
        assert!(t.take().is_empty());
    }
}
