//! Observability for the filterwatch measurement pipeline.
//!
//! Three instruments, one handle:
//!
//! * **Spans** ([`span`]) — nested timings of pipeline stages
//!   (`identify`, `confirm.submit`, `confirm.retest`, `characterize`,
//!   `scan`), keyed to the simulation's *virtual* clock with wall-clock
//!   capture on the side. Virtual time answers "how many simulated days
//!   did confirmation wait"; wall time answers "how long did the scan
//!   actually take to compute".
//! * **Metrics** ([`metrics`]) — counters, gauges and fixed-bucket
//!   histograms: fetch latency, scan banner throughput, per-vendor
//!   middlebox verdicts, fingerprint evidence distribution,
//!   submission-pipeline queue depth.
//! * **Events** ([`event`]) — an append-only structured log with a
//!   stable single-line TSV/KV encoding that parses back losslessly,
//!   dump/restore included. No serde, no external dependencies.
//!
//! The crate also owns the workspace's one wire codec ([`wire`]): the
//! escaping table, [`WireError`], the [`Wire`] line trait and the
//! [`wire_enum!`] token tables every other crate's line formats use.
//!
//! Everything hangs off a [`TelemetryHandle`]. A disabled handle is a
//! `None` internally: every call is a branch on a null pointer and
//! nothing is recorded, so instrumentation can stay unconditionally in
//! hot paths (`crates/bench/benches/telemetry.rs` guards the cost).
//! Handles clone cheaply and share one collector, so the world, the
//! scanner and the report renderer all see the same stream.
//!
//! ```
//! use filterwatch_telemetry::{stage, TelemetryHandle};
//!
//! let t = TelemetryHandle::enabled();
//! let scan = t.span_start(stage::SCAN, "sweep", 0);
//! t.counter_add("scan.probes", "", 3);
//! t.observe("fetch.wall_nanos", "", 12_500.0);
//! t.event(0, "scan.done", &[("hosts", &3)]);
//! t.span_end(scan, 60);
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! assert_eq!(snap.spans[0].v_elapsed(), 60);
//! assert!(!snap.is_empty());
//! assert!(TelemetryHandle::disabled().snapshot().is_empty());
//! ```

pub mod event;
pub mod metrics;
pub mod render;
pub mod span;
pub mod wire;

mod collector;

pub use collector::{Snapshot, TelemetryHandle};
pub use event::Event;
pub use metrics::{CounterEntry, GaugeEntry, HistogramSnapshot};
pub use span::{SpanId, SpanRecord};
pub use wire::{Fields, Wire, WireError};

/// Canonical stage names used for spans across the pipeline.
pub mod stage {
    /// Scanner sweep of the address space (§3.1).
    pub const SCAN: &str = "scan";
    /// The whole identification pass: scan, search, fingerprint, geolocate.
    pub const IDENTIFY: &str = "identify";
    /// Controlled-site creation and vendor submission (§4.2–4.3).
    pub const CONFIRM_SUBMIT: &str = "confirm.submit";
    /// Post-review retesting from field vantages (§4.3).
    pub const CONFIRM_RETEST: &str = "confirm.retest";
    /// Blocked-content characterization (§5).
    pub const CHARACTERIZE: &str = "characterize";
    /// An end-to-end campaign run.
    pub const CAMPAIGN: &str = "campaign";
    /// A campaign parked on the orchestrator's deadline queue between
    /// submit and retest (spans the virtual wait).
    pub const SCHED_WAIT: &str = "sched.wait";
}

/// Append `secs` of virtual time the way the simulator's clock reads
/// (`day D hh:mm:ss`). The workspace's only writer of that form.
pub fn write_vtime<W: std::fmt::Write>(out: &mut W, secs: u64) -> std::fmt::Result {
    const SECS_PER_DAY: u64 = 86_400;
    let day = secs / SECS_PER_DAY;
    let rem = secs % SECS_PER_DAY;
    write!(
        out,
        "day {} {:02}:{:02}:{:02}",
        day,
        rem / 3600,
        (rem / 60) % 60,
        rem % 60
    )
}

/// [`write_vtime`] into a fresh `String`.
pub fn format_vtime(secs: u64) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_vtime(&mut out, secs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_formats_like_simtime() {
        assert_eq!(format_vtime(0), "day 0 00:00:00");
        assert_eq!(format_vtime(86_400 * 2 + 3661), "day 2 01:01:01");
    }
}
