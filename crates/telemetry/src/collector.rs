//! The collector behind [`TelemetryHandle`].

use crate::event::Event;
use crate::metrics::{
    default_buckets, entries, update, CounterEntry, GaugeEntry, Histogram, HistogramSnapshot,
    MetricState,
};
use crate::span::{SpanId, SpanRecord};
use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug)]
struct SpanSlot {
    record: SpanRecord,
    started: Instant,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanSlot>,
    /// Ids of currently-open spans, innermost last. Spans are expected
    /// to be opened from the coordinating thread; worker threads should
    /// stick to counters and histograms.
    open: Vec<u64>,
    metrics: MetricState,
    events: Vec<Event>,
}

#[derive(Debug)]
struct Collector {
    state: Mutex<State>,
}

impl Collector {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Cheap, clonable entry point to telemetry. Disabled handles skip all
/// recording: the inner pointer is `None` and every method returns
/// immediately, so instrumentation can stay in hot paths.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Collector>>,
}

impl TelemetryHandle {
    /// A handle that records nothing. This is the default state.
    pub fn disabled() -> Self {
        TelemetryHandle { inner: None }
    }

    /// A fresh recording collector.
    pub fn enabled() -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Collector {
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span at virtual time `v_now`. The span nests under the
    /// innermost span still open on this collector.
    // Span wall_nanos feed only the `--wall` path, never stable output.
    #[allow(clippy::disallowed_methods)]
    pub fn span_start(&self, stage: &'static str, label: &str, v_now: u64) -> SpanId {
        let Some(collector) = &self.inner else {
            return SpanId::NONE;
        };
        let mut state = collector.lock();
        let id = state.spans.len() as u64 + 1;
        let parent = state.open.last().copied();
        let depth = state.open.len() as u32;
        state.spans.push(SpanSlot {
            record: SpanRecord {
                id,
                parent,
                stage,
                label: label.to_string(),
                v_start: v_now,
                v_end: v_now,
                wall_nanos: 0,
                depth,
                closed: false,
            },
            started: Instant::now(),
        });
        state.open.push(id);
        SpanId(id)
    }

    /// Close a span at virtual time `v_now`, capturing wall time spent.
    /// Closing also closes any span that was opened inside it and leaked.
    pub fn span_end(&self, id: SpanId, v_now: u64) {
        let Some(collector) = &self.inner else {
            return;
        };
        if !id.is_recorded() {
            return;
        }
        let mut state = collector.lock();
        let Some(pos) = state.open.iter().rposition(|&open| open == id.0) else {
            return; // already closed
        };
        let leaked: Vec<u64> = state.open.drain(pos..).collect();
        for open_id in leaked {
            let slot = &mut state.spans[open_id as usize - 1];
            slot.record.v_end = v_now;
            slot.record.wall_nanos = slot.started.elapsed().as_nanos() as u64;
            slot.record.closed = true;
        }
    }

    /// Add to a counter.
    pub fn counter_add(&self, name: &str, label: &str, by: u64) {
        let Some(collector) = &self.inner else {
            return;
        };
        let mut state = collector.lock();
        update(&mut state.metrics.counters, name, label, || 0, |n| *n += by);
    }

    /// Set a gauge to an absolute value.
    pub fn gauge_set(&self, name: &str, label: &str, value: i64) {
        let Some(collector) = &self.inner else {
            return;
        };
        let mut state = collector.lock();
        update(&mut state.metrics.gauges, name, label, || 0, |v| *v = value);
    }

    /// Fix the bucket bounds used for all histograms of `name`. Must be
    /// called before the first `observe` of that name to take effect.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let Some(collector) = &self.inner else {
            return;
        };
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && !bounds.is_empty(),
            "histogram bounds must be strictly increasing and non-empty"
        );
        let mut state = collector.lock();
        let registered = &mut state.metrics.registered_buckets;
        if !registered.contains_key(name) {
            registered.insert(name.to_string(), bounds.to_vec());
        }
    }

    /// Run `f`, recording its wall-clock duration (nanoseconds) into
    /// the histogram `name` when this handle is enabled. This is the
    /// one sanctioned way to take wall timings outside the collector:
    /// the result only ever reaches the `--wall` telemetry path and is
    /// never part of stable output.
    // Wall timings feed only the `--wall` path, never stable output.
    #[allow(clippy::disallowed_methods)]
    pub fn observe_timed<T>(&self, name: &str, label: &str, f: impl FnOnce() -> T) -> T {
        if !self.is_enabled() {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.observe(name, label, started.elapsed().as_nanos() as f64);
        out
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &str, label: &str, value: f64) {
        let Some(collector) = &self.inner else {
            return;
        };
        let mut state = collector.lock();
        let metrics = &mut state.metrics;
        let bounds = metrics.registered_buckets.get(name);
        let new = || Histogram::new(bounds.cloned().unwrap_or_else(default_buckets));
        update(&mut metrics.histograms, name, label, new, |h| {
            h.observe(value)
        });
    }

    /// Append a structured event at virtual time `v_now`. A disabled
    /// handle formats none of the values.
    pub fn event(&self, v_now: u64, kind: &str, fields: &[(&'static str, &dyn Display)]) {
        let Some(collector) = &self.inner else {
            return;
        };
        let event = Event::new(v_now, kind, fields);
        collector.lock().events.push(event);
    }

    /// Copy out everything recorded so far, sorted deterministically.
    pub fn snapshot(&self) -> Snapshot {
        let Some(collector) = &self.inner else {
            return Snapshot::default();
        };
        let state = collector.lock();
        Snapshot {
            spans: state.spans.iter().map(|s| s.record.clone()).collect(),
            counters: entries(&state.metrics.counters)
                .map(|(name, label, &value)| CounterEntry {
                    name: name.to_string(),
                    label: label.to_string(),
                    value,
                })
                .collect(),
            gauges: entries(&state.metrics.gauges)
                .map(|(name, label, &value)| GaugeEntry {
                    name: name.to_string(),
                    label: label.to_string(),
                    value,
                })
                .collect(),
            histograms: entries(&state.metrics.histograms)
                .map(|(name, label, h)| HistogramSnapshot {
                    name: name.to_string(),
                    label: label.to_string(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    sum: h.sum,
                    total: h.total,
                })
                .collect(),
            events: state.events.clone(),
        }
    }

    /// Sum of all counters with this name, across labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        let Some(collector) = &self.inner else {
            return 0;
        };
        let state = collector.lock();
        state
            .metrics
            .counters
            .get(name)
            .map_or(0, |labels| labels.values().sum())
    }
}

/// A point-in-time copy of everything one collector recorded.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All spans, in creation order.
    pub spans: Vec<SpanRecord>,
    /// Counters sorted by `(name, label)`.
    pub counters: Vec<CounterEntry>,
    /// Gauges sorted by `(name, label)`.
    pub gauges: Vec<GaugeEntry>,
    /// Histograms sorted by `(name, label)`.
    pub histograms: Vec<HistogramSnapshot>,
    /// Events in append order.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Counters matching `name`, as `(label, value)` pairs.
    pub fn counters_named(&self, name: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| (c.label.as_str(), c.value))
            .collect()
    }

    /// First histogram with this name, any label.
    pub fn histogram_named(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Spans of one stage, in creation order.
    pub fn spans_staged(&self, stage: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.stage == stage).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = TelemetryHandle::disabled();
        assert!(!t.is_enabled());
        let id = t.span_start(stage::SCAN, "x", 0);
        assert!(!id.is_recorded());
        t.span_end(id, 5);
        t.counter_add("c", "", 1);
        t.gauge_set("g", "", 1);
        t.observe("h", "", 1.0);
        t.event(0, "e", &[]);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.counter_total("c"), 0);
    }

    #[test]
    fn spans_nest_and_close() {
        let t = TelemetryHandle::enabled();
        let outer = t.span_start(stage::IDENTIFY, "run", 0);
        let inner = t.span_start(stage::SCAN, "sweep", 10);
        t.span_end(inner, 20);
        t.span_end(outer, 30);

        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let (o, i) = (&snap.spans[0], &snap.spans[1]);
        assert_eq!(o.parent, None);
        assert_eq!(o.depth, 0);
        assert_eq!(i.parent, Some(o.id));
        assert_eq!(i.depth, 1);
        assert_eq!(i.v_elapsed(), 10);
        assert_eq!(o.v_elapsed(), 30);
        assert!(o.closed && i.closed);
    }

    #[test]
    fn leaked_children_close_with_parent() {
        let t = TelemetryHandle::enabled();
        let outer = t.span_start(stage::CAMPAIGN, "run", 0);
        let _leak = t.span_start(stage::SCAN, "oops", 1);
        t.span_end(outer, 9);
        let snap = t.snapshot();
        assert!(snap.spans.iter().all(|s| s.closed));
        assert_eq!(snap.spans[1].v_end, 9);
    }

    #[test]
    fn clones_share_the_collector() {
        let t = TelemetryHandle::enabled();
        let t2 = t.clone();
        t.counter_add("verdict", "smartfilter", 2);
        t2.counter_add("verdict", "netsweeper", 3);
        assert_eq!(t.counter_total("verdict"), 5);
        assert_eq!(
            t2.snapshot().counters_named("verdict"),
            vec![("netsweeper", 3), ("smartfilter", 2)]
        );
    }

    #[test]
    fn histograms_use_registered_buckets() {
        let t = TelemetryHandle::enabled();
        t.register_histogram("confidence", &[0.25, 0.5, 0.75, 1.0]);
        t.observe("confidence", "", 0.6);
        t.observe("confidence", "", 0.9);
        let snap = t.snapshot();
        let h = snap.histogram_named("confidence").unwrap();
        assert_eq!(h.bounds, vec![0.25, 0.5, 0.75, 1.0]);
        assert_eq!(h.counts, vec![0, 0, 1, 1, 0]);
        assert!((h.mean() - 0.75).abs() < 1e-9);
    }

    // The test races threads on purpose: counts must not depend on order.
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn counters_survive_threads() {
        let t = TelemetryHandle::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        h.counter_add("n", "", 1);
                    }
                });
            }
        });
        assert_eq!(t.counter_total("n"), 400);
    }
}
