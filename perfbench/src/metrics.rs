//! The benchmark's metrics: their names and units, how each is computed
//! from the per-campaign samples, and the result line.

use crate::layers::LayerTally;
use crate::stats::{median, p90, ratio};
use crate::{probe, Sample};

/// Every end-to-end metric of the untraced run, `(name, unit)`, in
/// result order; `BENCHMARK.json` holds their bounds. Each is non-zero
/// on every workload: the failure and inconclusive shares, 0 on clean
/// runs, are carried as their complements (`verified_frac` =
/// 1 − `failed_frac`, `conclusive_frac` = 1 − `inconclusive_frac`), and
/// the readout prints them under their own names too.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("verified_frac", "ratio"),
    ("conclusive_frac", "ratio"),
];

/// Every per-layer metric of the traced run, `(name, unit)`, grouped by
/// layer (one layer per crate). Times are per-campaign self times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.identify_s", "s"),
    ("core.baseline_s", "s"),
    ("core.submit_s", "s"),
    ("core.retest_s", "s"),
    ("core.characterize_s", "s"),
    ("core.finish_s", "s"),
    ("orchestrator.self_s", "s"),
    ("orchestrator.checkpoints", "count"),
    ("orchestrator.checkpoint_bytes", "bytes"),
    ("world.build_s", "s"),
    ("world.hosts", "count"),
    ("world.addresses", "count"),
    ("scanner.scan_s", "s"),
    ("scanner.probes", "count"),
    ("scanner.records", "count"),
    ("scanner.ingest_s", "s"),
    ("scanner.index_records", "count"),
    ("scanner.sweep_s", "s"),
    ("scanner.sweep_cache_hits", "count"),
    ("scanner.sweep_cache_misses", "count"),
    ("fingerprint.validate_s", "s"),
    ("fingerprint.candidates", "count"),
    ("fingerprint.installations", "count"),
    ("fingerprint.yield", "ratio"),
    ("netsim.fetches", "count"),
    ("netsim.fetch_s", "s"),
    ("netsim.us_per_fetch", "us"),
    ("netsim.faulted", "count"),
    ("products.middlebox_verdicts", "count"),
    ("products.submissions", "count"),
    ("measure.verdicts", "count"),
    ("measure.fetches_per_verdict", "ratio"),
    ("measure.fetch_attempts", "count"),
    ("measure.retries", "count"),
    ("measure.quorum_trials", "count"),
    ("measure.breaker_trips", "count"),
    ("measure.breaker_skips", "count"),
    ("measure.classify_s", "s"),
    ("trace.events", "count"),
    ("trace.index_s", "s"),
    ("trace.explain_s", "s"),
    ("trace.explain_bytes", "bytes"),
    ("telemetry.spans", "count"),
    ("telemetry.events", "count"),
    ("telemetry.series", "count"),
    ("traced.campaign_s", "s"),
    ("traced.self_s", "s"),
    ("traced.overhead_frac", "ratio"),
    ("traced.unattributed_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How it was derived (readout only).
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        note,
    }
}

fn untraced(samples: &[Sample]) -> Vec<&Sample> {
    samples.iter().filter(|s| s.layers.is_none()).collect()
}

/// Share of campaigns whose verdict output failed its check.
pub fn failed_frac(samples: &[Sample]) -> f64 {
    let failed = samples.iter().filter(|s| !s.ok).count();
    ratio(failed as f64, samples.len() as f64)
}

/// Share of rendered verdicts that were `Inconclusive`.
pub fn inconclusive_frac(samples: &[Sample]) -> f64 {
    let verdicts: u64 = samples.iter().map(|s| s.verdicts).sum();
    let inconclusive: u64 = samples.iter().map(|s| s.inconclusive).sum();
    ratio(inconclusive as f64, verdicts as f64)
}

/// Each sample's wall time `wall`, in reference seconds.
fn reference_s(samples: &[&Sample], wall: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples
        .iter()
        .map(|s| wall(s) * s.reference_factor())
        .collect()
}

/// The end-to-end metrics (from the untraced campaigns), in
/// [`END_TO_END`] order. Times are in reference seconds.
pub fn end_to_end(samples: &[Sample], peak_rss_mib: f64) -> Vec<Metric> {
    let plain = untraced(samples);
    let n = plain.len();
    let setup = reference_s(&plain, |s| s.setup_s);
    let campaign = reference_s(&plain, |s| s.campaign_s);
    let rates: Vec<f64> = plain
        .iter()
        .zip(&campaign)
        .map(|(s, &t)| ratio(s.verdicts as f64, t))
        .collect();
    let failed = failed_frac(samples);
    let inconclusive = inconclusive_frac(samples);
    vec![
        metric(
            "setup_s",
            "s",
            median(&setup),
            format!("median of {n} set-ups, reference seconds"),
        ),
        metric(
            "campaign_s",
            "s",
            median(&campaign),
            format!("median of {n} campaigns, reference seconds"),
        ),
        metric(
            "verdicts_per_s",
            "1/s",
            median(&rates),
            format!("median of {n} campaigns' verdicts / campaign reference seconds"),
        ),
        metric(
            "peak_rss_mib",
            "MiB",
            peak_rss_mib,
            "VmHWM of the process".to_string(),
        ),
        metric(
            "verified_frac",
            "ratio",
            1.0 - failed,
            "1 - failed_frac".to_string(),
        ),
        metric(
            "conclusive_frac",
            "ratio",
            1.0 - inconclusive,
            "1 - inconclusive_frac".to_string(),
        ),
    ]
}

/// The readout's extra end-to-end lines: `campaign_p90_s` (only where
/// the sample supports it), `failed_frac`, `inconclusive_frac`, and the
/// wall-time medians beside the probe's.
pub fn readout_extras(samples: &[Sample]) -> Vec<Metric> {
    let plain = untraced(samples);
    let campaign = reference_s(&plain, |s| s.campaign_s);
    let wall_median =
        |wall: fn(&Sample) -> f64| median(&plain.iter().map(|&s| wall(s)).collect::<Vec<_>>());
    let mut out = vec![
        metric(
            "setup_wall_s",
            "s",
            wall_median(|s| s.setup_s),
            "median wall seconds".to_string(),
        ),
        metric(
            "campaign_wall_s",
            "s",
            wall_median(|s| s.campaign_s),
            "median wall seconds".to_string(),
        ),
        metric(
            "speed_probe_s",
            "s",
            wall_median(|s| s.probe_s),
            format!(
                "median wall seconds of the speed probe ({} s at reference speed)",
                probe::REFERENCE_S
            ),
        ),
    ];
    match p90(&campaign) {
        Some(v) => out.push(metric(
            "campaign_p90_s",
            "s",
            v,
            format!(
                "p90 of {} campaigns, {} beyond it",
                campaign.len(),
                crate::stats::beyond_percentile(campaign.len(), 90)
            ),
        )),
        None => out.push(metric(
            "campaign_p90_s",
            "s",
            f64::NAN,
            format!(
                "not reported: {} campaigns leave fewer than 10 beyond p90",
                campaign.len()
            ),
        )),
    }
    let failed = samples.iter().filter(|s| !s.ok).count();
    out.push(metric(
        "failed_frac",
        "ratio",
        failed_frac(samples),
        format!("{failed} of {} campaigns failed their check", samples.len()),
    ));
    let verdicts: u64 = samples.iter().map(|s| s.verdicts).sum();
    out.push(metric(
        "inconclusive_frac",
        "ratio",
        inconclusive_frac(samples),
        format!("of {verdicts} verdicts"),
    ));
    out
}

fn is_time(name: &str) -> bool {
    PER_LAYER.iter().any(|&(n, unit)| n == name && unit == "s")
}

/// The per-layer metrics (from the traced campaigns), in [`PER_LAYER`]
/// order. Each is the mean per traced campaign, so the time layers add
/// up to `traced.campaign_s`; times are in reference seconds, and ratios
/// are taken over the totals.
pub fn per_layer(samples: &[Sample]) -> Vec<Metric> {
    let traced: Vec<(&Sample, &LayerTally)> = samples
        .iter()
        .filter_map(|s| s.layers.as_ref().map(|t| (s, t)))
        .collect();
    let n = traced.len() as f64;
    let total = |name: &str| {
        traced
            .iter()
            .map(|(s, t)| {
                t.get(name)
                    * if is_time(name) {
                        s.reference_factor()
                    } else {
                        1.0
                    }
            })
            .sum::<f64>()
    };
    let traced_campaigns: Vec<&Sample> = traced.iter().map(|&(s, _)| s).collect();
    let traced_s: f64 = reference_s(&traced_campaigns, |s| s.campaign_s)
        .iter()
        .sum();
    let unattributed: f64 = traced
        .iter()
        .map(|(s, t)| (s.campaign_s - t.attributed_s()) * s.reference_factor())
        .sum();
    let traced_median = median(&reference_s(&traced_campaigns, |s| s.campaign_s));
    let plain_median = median(&reference_s(&untraced(samples), |s| s.campaign_s));

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, note) = match name {
                "fingerprint.yield" => (
                    ratio(
                        total("fingerprint.installations"),
                        total("fingerprint.candidates"),
                    ),
                    "installations / candidates".to_string(),
                ),
                "netsim.us_per_fetch" => (
                    ratio(total("netsim.fetch_s") * 1e6, total("netsim.fetches")),
                    "fetch_s / fetches".to_string(),
                ),
                "measure.fetches_per_verdict" => (
                    ratio(total("netsim.fetches"), total("measure.verdicts")),
                    "netsim fetches / verdicts".to_string(),
                ),
                "traced.campaign_s" => (
                    ratio(traced_s, n),
                    format!("mean of {} traced campaigns", traced.len()),
                ),
                "traced.overhead_frac" => (
                    ratio(traced_median, plain_median) - 1.0,
                    "traced / untraced median campaign_s - 1".to_string(),
                ),
                "traced.unattributed_frac" => (
                    ratio(unattributed, traced_s),
                    "share of traced campaign time outside every layer".to_string(),
                ),
                _ => (
                    ratio(total(name), n),
                    "mean per traced campaign".to_string(),
                ),
            };
            metric(name, unit, value, note)
        })
        .collect()
}

/// Whether `name` is a valid metric name: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite value at full precision (non-finite values, which no metric
/// should produce, render as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
