//! Metric state: counters, gauges and fixed-bucket histograms.
//!
//! Metrics are keyed by `(name, label)` — the label is a single
//! dimension value such as a vendor slug or network name, rendered as
//! `name{label}`. Each kind is a map of names to maps of labels, so an
//! update finds its series by `&str` and only a new series allocates
//! its key. Snapshots are sorted, so reports are deterministic.

use std::collections::BTreeMap;

/// Default histogram bucket upper bounds: powers of four from 4 up to
/// 4^15 (≈ 1.07e9). Wide enough for nanosecond latencies and for counts,
/// coarse enough to stay printable.
pub fn default_buckets() -> Vec<f64> {
    (1..=15).map(|e| 4f64.powi(e)).collect()
}

/// Series of one metric kind by name, then label: iterating it visits
/// `(name, label)` in sorted order.
pub(crate) type Series<T> = BTreeMap<String, BTreeMap<String, T>>;

#[derive(Debug, Default)]
pub(crate) struct MetricState {
    pub counters: Series<u64>,
    pub gauges: Series<i64>,
    pub histograms: Series<Histogram>,
    /// Bucket bounds fixed ahead of time per metric name.
    pub registered_buckets: BTreeMap<String, Vec<f64>>,
}

/// Apply `update` to the series `(name, label)`, creating it with `new`
/// first if it does not exist yet.
pub(crate) fn update<T>(
    series: &mut Series<T>,
    name: &str,
    label: &str,
    new: impl FnOnce() -> T,
    update: impl FnOnce(&mut T),
) {
    match series
        .get_mut(name)
        .and_then(|labels| labels.get_mut(label))
    {
        Some(value) => update(value),
        None => {
            let mut value = new();
            update(&mut value);
            series
                .entry(name.to_string())
                .or_default()
                .insert(label.to_string(), value);
        }
    }
}

/// Every `(name, label, value)` in `series`, in sorted order.
pub(crate) fn entries<T>(series: &Series<T>) -> impl Iterator<Item = (&str, &str, &T)> {
    series.iter().flat_map(|(name, labels)| {
        labels
            .iter()
            .map(move |(label, value)| (name.as_str(), label.as_str(), value))
    })
}

#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    /// Upper bounds of each bucket; an implicit overflow bucket follows.
    pub bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    pub counts: Vec<u64>,
    pub sum: f64,
    pub total: u64,
}

impl Histogram {
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            sum: 0.0,
            total: 0,
        }
    }

    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }
}

/// A counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    pub name: String,
    pub label: String,
    pub value: u64,
}

/// A gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeEntry {
    pub name: String,
    pub label: String,
    pub value: i64,
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub label: String,
    /// Bucket upper bounds; `counts` has one extra overflow entry.
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
    pub total: u64,
}

impl HistogramSnapshot {
    /// Mean of all observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }
}

/// Render a `(name, label)` key as `name{label}` (or bare `name`).
pub fn render_key(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(5000.0);
        assert_eq!(h.counts, vec![1, 1, 1, 1]);
        assert_eq!(h.total, 4);
        assert!((h.sum - 5055.5).abs() < 1e-9);
    }

    #[test]
    fn key_rendering() {
        assert_eq!(render_key("fetch.total", ""), "fetch.total");
        assert_eq!(render_key("verdict", "smartfilter"), "verdict{smartfilter}");
    }
}
