//! Snapshot renderers: aligned text tables and CSV.
//!
//! The text renderers feed the campaign markdown report and the
//! `tables -- telemetry` artifact; the CSV renderers are for offline
//! analysis. Both are deterministic for a given snapshot.

use crate::collector::Snapshot;
use crate::format_vtime;
use crate::metrics::render_key;
use crate::wire::Wire;

/// Render rows as a column-aligned text table with a dashed header rule.
fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            if i + 1 < cells.len() {
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
        }
        line.trim_end().to_string()
    };
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = render_row(&header);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Quote one CSV cell when it holds a comma, quote or newline.
fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| csv_escape(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn span_rows(snapshot: &Snapshot, wall: bool) -> Vec<Vec<String>> {
    snapshot
        .spans
        .iter()
        .map(|s| {
            let indent = "  ".repeat(s.depth as usize);
            let mut row = vec![
                format!("{indent}{}", s.stage),
                s.label.clone(),
                format_vtime(s.v_start),
                format_vtime(s.v_end),
                format!("{}s", s.v_elapsed()),
            ];
            if wall {
                row.push(format!("{:.3}", s.wall_nanos as f64 / 1e6));
            }
            row
        })
        .collect()
}

/// Per-stage span timings (virtual start/end/elapsed plus wall ms),
/// indented by nesting depth.
pub fn spans_table(snapshot: &Snapshot) -> String {
    text_table(
        &["stage", "label", "v.start", "v.end", "v.elapsed", "wall ms"],
        &span_rows(snapshot, true),
    )
}

/// [`spans_table`] without the wall-clock column: virtual timings only,
/// so the rendering is byte-identical across runs at the same seed.
pub fn spans_table_stable(snapshot: &Snapshot) -> String {
    text_table(
        &["stage", "label", "v.start", "v.end", "v.elapsed"],
        &span_rows(snapshot, false),
    )
}

/// Whether a histogram records wall-clock measurements (and therefore
/// cannot appear in a byte-stable rendering). The convention: wall-time
/// histograms carry `wall` in their metric name (`classify.wall_nanos`).
pub fn is_wall_histogram(name: &str) -> bool {
    name.contains("wall")
}

/// Span records as CSV.
pub fn spans_csv(snapshot: &Snapshot) -> String {
    let rows: Vec<Vec<String>> = snapshot
        .spans
        .iter()
        .map(|s| {
            vec![
                s.id.to_string(),
                s.parent.map(|p| p.to_string()).unwrap_or_default(),
                s.depth.to_string(),
                s.stage.to_string(),
                s.label.clone(),
                s.v_start.to_string(),
                s.v_end.to_string(),
                s.wall_nanos.to_string(),
            ]
        })
        .collect();
    csv(
        &[
            "id",
            "parent",
            "depth",
            "stage",
            "label",
            "v_start_secs",
            "v_end_secs",
            "wall_nanos",
        ],
        &rows,
    )
}

/// Span records as CSV without the `wall_nanos` column: byte-identical
/// across two runs at the same seed. The stable counterpart of
/// [`spans_csv`], the way [`stable_text_report`] is of [`text_report`].
pub fn stable_spans_csv(snapshot: &Snapshot) -> String {
    let rows: Vec<Vec<String>> = snapshot
        .spans
        .iter()
        .map(|s| {
            vec![
                s.id.to_string(),
                s.parent.map(|p| p.to_string()).unwrap_or_default(),
                s.depth.to_string(),
                s.stage.to_string(),
                s.label.clone(),
                s.v_start.to_string(),
                s.v_end.to_string(),
            ]
        })
        .collect();
    csv(
        &[
            "id",
            "parent",
            "depth",
            "stage",
            "label",
            "v_start_secs",
            "v_end_secs",
        ],
        &rows,
    )
}

/// Counters and gauges in one table.
pub fn metrics_table(snapshot: &Snapshot) -> String {
    let mut rows: Vec<Vec<String>> = snapshot
        .counters
        .iter()
        .map(|c| {
            vec![
                "counter".to_string(),
                render_key(&c.name, &c.label),
                c.value.to_string(),
            ]
        })
        .collect();
    rows.extend(snapshot.gauges.iter().map(|g| {
        vec![
            "gauge".to_string(),
            render_key(&g.name, &g.label),
            g.value.to_string(),
        ]
    }));
    text_table(&["type", "metric", "value"], &rows)
}

/// Counters and gauges as CSV.
pub fn metrics_csv(snapshot: &Snapshot) -> String {
    let mut rows: Vec<Vec<String>> = snapshot
        .counters
        .iter()
        .map(|c| {
            vec![
                "counter".to_string(),
                c.name.clone(),
                c.label.clone(),
                c.value.to_string(),
            ]
        })
        .collect();
    rows.extend(snapshot.gauges.iter().map(|g| {
        vec![
            "gauge".to_string(),
            g.name.clone(),
            g.label.clone(),
            g.value.to_string(),
        ]
    }));
    csv(&["type", "name", "label", "value"], &rows)
}

/// One table per histogram: a row per bucket plus count/mean summary.
pub fn histograms_table(snapshot: &Snapshot) -> String {
    histograms_table_filtered(snapshot, false)
}

/// [`histograms_table`] with wall-clock histograms elided: their bucket
/// counts and means vary run to run, so stable renderings skip them
/// (the observation *count* still appears in the stable report footer
/// via the metrics section, where recorded).
pub fn histograms_table_stable(snapshot: &Snapshot) -> String {
    histograms_table_filtered(snapshot, true)
}

fn histograms_table_filtered(snapshot: &Snapshot, stable_only: bool) -> String {
    let mut out = String::new();
    for h in &snapshot.histograms {
        if stable_only && is_wall_histogram(&h.name) {
            continue;
        }
        out.push_str(&format!(
            "{} — {} observations, mean {:.1}\n",
            render_key(&h.name, &h.label),
            h.total,
            h.mean()
        ));
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, &count) in h.counts.iter().enumerate() {
            let bucket = match (i, h.bounds.get(i)) {
                (_, Some(b)) if i == 0 => format!("<= {b}"),
                (_, Some(b)) => format!("{} .. {b}", h.bounds[i - 1]),
                _ => format!("> {}", h.bounds[h.bounds.len() - 1]),
            };
            rows.push(vec![bucket, count.to_string()]);
        }
        out.push_str(&text_table(&["bucket", "count"], &rows));
        out.push('\n');
    }
    out
}

/// Histogram buckets as CSV, one row per bucket.
pub fn histograms_csv(snapshot: &Snapshot) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for h in &snapshot.histograms {
        for (i, &count) in h.counts.iter().enumerate() {
            let upper = h
                .bounds
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "inf".to_string());
            rows.push(vec![
                h.name.clone(),
                h.label.clone(),
                upper,
                count.to_string(),
            ]);
        }
    }
    csv(&["name", "label", "le", "count"], &rows)
}

/// The event log, one stable line per event.
pub fn events_log(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for e in &snapshot.events {
        out.push_str(&e.to_line());
        out.push('\n');
    }
    out
}

/// The full plain-text report: spans, metrics, histograms, event count.
/// Includes wall-clock measurements, so two runs at the same seed render
/// differently — use [`stable_text_report`] wherever byte-stability
/// matters (campaign reports, goldens, differential comparisons).
pub fn text_report(snapshot: &Snapshot) -> String {
    text_report_impl(snapshot, false)
}

/// The byte-stable plain-text report: identical layout to
/// [`text_report`] minus every wall-clock measurement (the spans table's
/// wall-ms column and any histogram whose name marks it as wall-based).
/// Two runs at the same seed produce byte-identical output; this is the
/// rendering campaign reports embed and goldens are checked against.
pub fn stable_text_report(snapshot: &Snapshot) -> String {
    text_report_impl(snapshot, true)
}

fn text_report_impl(snapshot: &Snapshot, stable: bool) -> String {
    let mut out = String::new();
    if !snapshot.spans.is_empty() {
        out.push_str("Spans\n\n");
        let spans = if stable {
            spans_table_stable(snapshot)
        } else {
            spans_table(snapshot)
        };
        out.push_str(&spans);
        out.push('\n');
    }
    if !snapshot.counters.is_empty() || !snapshot.gauges.is_empty() {
        out.push_str("Metrics\n\n");
        out.push_str(&metrics_table(snapshot));
        out.push('\n');
    }
    if !snapshot.histograms.is_empty() {
        let rendered = if stable {
            histograms_table_stable(snapshot)
        } else {
            histograms_table(snapshot)
        };
        if !rendered.is_empty() {
            out.push_str("Histograms\n\n");
            out.push_str(&rendered);
        }
    }
    out.push_str(&format!("{} events logged\n", snapshot.events.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stage, TelemetryHandle};

    fn sample() -> Snapshot {
        let t = TelemetryHandle::enabled();
        let outer = t.span_start(stage::IDENTIFY, "run", 0);
        let inner = t.span_start(stage::SCAN, "sweep", 0);
        t.span_end(inner, 60);
        t.span_end(outer, 120);
        t.counter_add("middlebox.verdict", "smartfilter", 4);
        t.gauge_set("queue.depth", "netsweeper", 2);
        t.register_histogram("lat", &[10.0, 100.0]);
        t.observe("lat", "", 5.0);
        t.observe("lat", "", 50.0);
        t.event(0, "scan.start", &[("hosts", &3)]);
        t.snapshot()
    }

    #[test]
    fn tables_are_rectangular_and_labelled() {
        let snap = sample();
        let spans = spans_table(&snap);
        assert!(spans.contains("identify"));
        assert!(spans.contains("  scan"), "nested span indented:\n{spans}");
        assert!(spans.contains("day 0 00:01:00"));

        let metrics = metrics_table(&snap);
        assert!(metrics.contains("middlebox.verdict{smartfilter}"));
        assert!(metrics.contains("queue.depth{netsweeper}"));

        let hist = histograms_table(&snap);
        assert!(hist.contains("2 observations"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let snap = sample();
        let csv = spans_csv(&snap);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "id,parent,depth,stage,label,v_start_secs,v_end_secs,wall_nanos"
        );
        assert_eq!(lines.count(), 2);
        let stable = stable_spans_csv(&snap);
        assert!(!stable.contains("wall_nanos"));
        assert_eq!(stable.lines().count(), csv.lines().count());
        assert!(metrics_csv(&snap).contains("counter,middlebox.verdict,smartfilter,4"));
        assert!(histograms_csv(&snap)
            .lines()
            .last()
            .unwrap()
            .starts_with("lat,,inf,"));
    }

    #[test]
    fn csv_escapes_quotes_and_commas() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn text_report_sections() {
        let report = text_report(&sample());
        assert!(report.contains("Spans\n"));
        assert!(report.contains("Metrics\n"));
        assert!(report.contains("1 events logged"));
        assert!(events_log(&sample()).starts_with("v0\tscan.start\thosts=3"));
    }

    fn wall_sample() -> Snapshot {
        let t = TelemetryHandle::enabled();
        let span = t.span_start(stage::IDENTIFY, "run", 0);
        t.span_end(span, 60);
        t.register_histogram("classify.wall_nanos", &[10.0, 100.0]);
        t.observe("classify.wall_nanos", "", 42.0);
        t.register_histogram("retry.backoff_secs", &[1.0, 8.0]);
        t.observe("retry.backoff_secs", "", 2.0);
        t.snapshot()
    }

    #[test]
    fn stable_report_omits_wall_measurements() {
        let snap = wall_sample();
        let stable = stable_text_report(&snap);
        assert!(!stable.contains("wall"), "{stable}");
        assert!(
            stable.contains("retry.backoff_secs"),
            "virtual-clock histograms stay: {stable}"
        );
        // The profiling view still carries both.
        let full = text_report(&snap);
        assert!(full.contains("wall ms"));
        assert!(full.contains("classify.wall_nanos"));
    }

    #[test]
    fn stable_spans_table_has_no_wall_column() {
        let snap = sample();
        let stable = spans_table_stable(&snap);
        assert!(stable.contains("v.elapsed"));
        assert!(!stable.contains("wall ms"));
        // Same rows, same indentation as the profiling table.
        assert_eq!(stable.lines().count(), spans_table(&snap).lines().count());
    }

    #[test]
    fn wall_histogram_naming_convention() {
        assert!(is_wall_histogram("classify.wall_nanos"));
        assert!(is_wall_histogram("fetch.wall_ms"));
        assert!(!is_wall_histogram("retry.backoff_secs"));
    }

    #[test]
    fn stable_report_is_deterministic_for_same_virtual_activity() {
        // Two separately recorded but virtually identical snapshots
        // render byte-identically in stable mode (wall times differ).
        let a = stable_text_report(&wall_sample());
        let b = stable_text_report(&wall_sample());
        assert_eq!(a, b);
    }
}
