//! Per-layer accounting for traced campaigns.
//!
//! The benchmark records a span around each public call it makes (a
//! core stage, a scanner call, the provenance queries). Inside a span,
//! the program's own telemetry already times the netsim fetch path
//! (`fetch.wall_nanos`), the block-page classifier (`classify.wall_nanos`)
//! and the address-space scan (its `scan` span). Reading those between
//! spans moves each child's time out of the span that contains it, so
//! every layer is charged its self time and the layers add up to the
//! traced campaign time. The reads themselves are the tracing's own
//! cost and are charged to `traced.self_s`.

use std::collections::BTreeMap;
use std::time::Instant;

use filterwatch_core::campaign::CampaignReport;
use filterwatch_core::World;
use filterwatch_measure::blockpage::CLASSIFY_LATENCY_METRIC;
use filterwatch_measure::MeasurementQuality;
use filterwatch_netsim::Internet;
use filterwatch_telemetry::{stage, Snapshot, TelemetryHandle};

/// The layer metrics that hold wall time spent inside a campaign; they
/// partition the traced campaign time (the rest is unattributed).
pub const CAMPAIGN_TIME_LAYERS: &[&str] = &[
    "core.identify_s",
    "core.baseline_s",
    "core.submit_s",
    "core.retest_s",
    "core.characterize_s",
    "core.finish_s",
    "orchestrator.self_s",
    "scanner.scan_s",
    "scanner.ingest_s",
    "scanner.sweep_s",
    "fingerprint.validate_s",
    "netsim.fetch_s",
    "measure.classify_s",
    "trace.index_s",
    "trace.explain_s",
    "traced.self_s",
];

/// Flow dispositions caused by injected path faults rather than by a
/// middlebox or the origin.
const FAULT_DISPOSITIONS: &[&str] = &["pathfault", "dnsfail-injected", "outage", "truncated"];

/// Per-layer values of one traced campaign, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct LayerTally {
    values: BTreeMap<&'static str, f64>,
}

impl LayerTally {
    /// Add `by` to a layer metric.
    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.values.entry(name).or_insert(0.0) += by;
    }

    /// A layer metric's value (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the campaign time layers.
    pub fn attributed_s(&self) -> f64 {
        CAMPAIGN_TIME_LAYERS.iter().map(|n| self.get(n)).sum()
    }
}

/// Child time the program's telemetry has recorded so far.
#[derive(Debug, Clone, Copy, Default)]
struct Children {
    fetch_s: f64,
    classify_s: f64,
    scan_s: f64,
}

impl Children {
    fn read(telemetry: &TelemetryHandle) -> Children {
        let snap = telemetry.snapshot();
        let hist_s = |name: &str| snap.histogram_named(name).map_or(0.0, |h| h.sum / 1e9);
        Children {
            fetch_s: hist_s("fetch.wall_nanos"),
            classify_s: hist_s(CLASSIFY_LATENCY_METRIC),
            scan_s: snap
                .spans_staged(stage::SCAN)
                .iter()
                .filter(|s| s.closed)
                .map(|s| s.wall_nanos as f64 / 1e9)
                .sum(),
        }
    }
}

/// Times spans of one traced campaign into a [`LayerTally`].
pub struct StageClock {
    telemetry: TelemetryHandle,
    /// The per-layer values recorded so far.
    pub tally: LayerTally,
}

impl StageClock {
    /// A clock reading child time from `telemetry` (which must be the
    /// enabled handle the campaign's world records into).
    pub fn new(telemetry: TelemetryHandle) -> StageClock {
        StageClock {
            telemetry,
            tally: LayerTally::default(),
        }
    }

    /// Run `f` inside a span charged to `layer`. Fetch, classifier and
    /// scan time recorded during `f` go to their own layers instead.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let before = Children::read(&self.telemetry);
        let t1 = Instant::now();
        let out = f();
        let t2 = Instant::now();
        let after = Children::read(&self.telemetry);
        let t3 = Instant::now();

        let fetch_s = after.fetch_s - before.fetch_s;
        let classify_s = after.classify_s - before.classify_s;
        let scan_s = after.scan_s - before.scan_s;
        let span_s = (t2 - t1).as_secs_f64();
        self.tally
            .add(layer, span_s - fetch_s - classify_s - scan_s);
        self.tally.add("netsim.fetch_s", fetch_s);
        self.tally.add("measure.classify_s", classify_s);
        self.tally.add("scanner.scan_s", scan_s);
        self.tally
            .add("traced.self_s", ((t1 - t0) + (t3 - t2)).as_secs_f64());
        out
    }
}

/// Run `f` as a span charged to `layer` when tracing, untimed otherwise.
pub fn span<T>(clock: &mut Option<StageClock>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match clock {
        Some(clock) => clock.span(layer, f),
        None => f(),
    }
}

/// Sum of a counter across its labels.
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters_named(name)
        .iter()
        .map(|&(_, v)| v as f64)
        .sum()
}

/// One counter label's value.
pub fn counter_at(snap: &Snapshot, name: &str, label: &str) -> f64 {
    snap.counters_named(name)
        .iter()
        .filter(|&&(l, _)| l == label)
        .map(|&(_, v)| v as f64)
        .sum()
}

/// Record the counts a campaign's telemetry snapshot carries: netsim
/// fetches and faults, middlebox verdicts, identify candidates and
/// sweep-cache use, scan probes and banners, and the snapshot's size.
pub fn record_snapshot_counts(tally: &mut LayerTally, snap: &Snapshot) {
    tally.add("netsim.fetches", counter(snap, "fetch.total"));
    let faulted: f64 = FAULT_DISPOSITIONS
        .iter()
        .map(|d| counter_at(snap, "fetch.disposition", d))
        .sum();
    tally.add("netsim.faulted", faulted);
    tally.add(
        "products.middlebox_verdicts",
        counter(snap, "middlebox.verdict"),
    );
    tally.add("scanner.probes", counter(snap, "scan.probes"));
    tally.add("scanner.records", counter(snap, "scan.banners"));
    tally.add("telemetry.spans", snap.spans.len() as f64);
    tally.add("telemetry.events", snap.events.len() as f64);
    tally.add(
        "telemetry.series",
        (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as f64,
    );
}

/// Record the identify and sweep-cache counts of a paper-world campaign
/// (its identify stage runs inside `CampaignRun::identify`).
pub fn record_identify_counts(tally: &mut LayerTally, snap: &Snapshot, index_records: usize) {
    tally.add(
        "fingerprint.candidates",
        counter(snap, "identify.candidates"),
    );
    tally.add(
        "fingerprint.installations",
        counter(snap, "identify.installations"),
    );
    tally.add("scanner.index_records", index_records as f64);
    tally.add(
        "scanner.sweep_cache_hits",
        counter_at(snap, "identify.sweep_cache", "hit"),
    );
    tally.add(
        "scanner.sweep_cache_misses",
        counter_at(snap, "identify.sweep_cache", "miss"),
    );
}

/// Record a client-side measurement-quality roll-up.
pub fn record_quality(tally: &mut LayerTally, q: &MeasurementQuality) {
    tally.add("measure.verdicts", q.verdicts as f64);
    tally.add("measure.fetch_attempts", q.fetch_attempts as f64);
    tally.add("measure.retries", q.retries as f64);
    tally.add("measure.quorum_trials", q.quorum_trials as f64);
    tally.add("measure.breaker_trips", q.breaker_trips as f64);
    tally.add("measure.breaker_skips", q.breaker_skips as f64);
}

/// Record everything a finished paper-world campaign report carries.
pub fn record_report_counts(tally: &mut LayerTally, report: &CampaignReport) {
    record_snapshot_counts(tally, &report.telemetry);
    record_identify_counts(
        tally,
        &report.telemetry,
        report.identification.index_records,
    );
    record_quality(tally, &report.quality);
    let submissions: usize = report.confirmations.iter().map(|r| r.spec.n_submit).sum();
    tally.add("products.submissions", submissions as f64);
    tally.add("trace.events", report.trace.len() as f64);
}

/// World size: live hosts and allocated addresses.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldSize {
    /// Hosts in the simulated Internet.
    pub hosts: usize,
    /// Addresses in every allocated prefix (what the scan sweeps).
    pub addresses: u64,
}

impl WorldSize {
    /// Measure a built Internet.
    pub fn of(net: &Internet) -> WorldSize {
        WorldSize {
            hosts: net.host_count(),
            addresses: net
                .registry()
                .prefixes()
                .iter()
                .map(|(c, _)| c.size())
                .sum(),
        }
    }

    /// Measure the paper world built from `options` (untimed: campaigns
    /// do not expose their world).
    pub fn of_paper_world(options: filterwatch_core::WorldOptions) -> WorldSize {
        WorldSize::of(&World::build(options).net)
    }

    /// Record as `world.hosts` and `world.addresses`.
    pub fn record(&self, tally: &mut LayerTally) {
        tally.add("world.hosts", self.hosts as f64);
        tally.add("world.addresses", self.addresses as f64);
    }
}
