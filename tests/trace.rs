//! Integration tests for causal tracing and verdict provenance.
//!
//! The trace layer is a pure observer of the campaign: it must change
//! no rendered artifact (tables byte-identical tracing on vs off), the
//! explain surface must cover every URL the demo campaign tested with a
//! complete causal chain, and all of it must be byte-stable across runs
//! at the pinned seed.

use filterwatch_core::{Campaign, DEFAULT_SEED};
use filterwatch_telemetry::TelemetryHandle;
use filterwatch_trace::{
    build_forest, from_log, render_profile, to_log, ProvenanceIndex, StepKind, TraceEvent,
    TraceMode,
};

fn traced_demo(mode: TraceMode) -> (String, String, Vec<TraceEvent>) {
    let report = Campaign::demo(DEFAULT_SEED).with_trace(mode).run();
    (
        report.identify_table(),
        report.confirm_table(),
        report.trace,
    )
}

#[test]
fn tables_identical_tracing_on_and_off() {
    let (id_off, conf_off, trace_off) = traced_demo(TraceMode::Off);
    let (id_on, conf_on, trace_on) = traced_demo(TraceMode::Full);
    assert!(trace_off.is_empty(), "TraceMode::Off must record nothing");
    assert!(!trace_on.is_empty(), "TraceMode::Full must record events");
    assert_eq!(id_off, id_on, "identify table changed under tracing");
    assert_eq!(conf_off, conf_on, "confirm table changed under tracing");

    let md_off = Campaign::demo(DEFAULT_SEED).run().to_markdown();
    let md_on = Campaign::demo(DEFAULT_SEED)
        .with_trace(TraceMode::Full)
        .run()
        .to_markdown();
    assert_eq!(md_off, md_on, "markdown report changed under tracing");
}

#[test]
fn trace_is_byte_stable_across_runs() {
    let (_, _, first) = traced_demo(TraceMode::Full);
    let (_, _, second) = traced_demo(TraceMode::Full);
    assert_eq!(to_log(&first), to_log(&second));

    let index1 = ProvenanceIndex::build(&first);
    let index2 = ProvenanceIndex::build(&second);
    assert_eq!(index1.render_summary(), index2.render_summary());
    for url in index1.urls() {
        assert_eq!(index1.explain(url), index2.explain(url));
    }
    assert_eq!(render_profile(&first), render_profile(&second));
}

#[test]
fn explain_covers_every_tested_url_with_full_chain() {
    let (_, _, events) = traced_demo(TraceMode::Full);
    let index = ProvenanceIndex::build(&events);

    // Every url-test span in the raw log is reachable through the index.
    let tested: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.step == StepKind::UrlTest)
        .filter_map(|e| e.field("url"))
        .collect();
    assert!(!tested.is_empty(), "demo campaign tested no URLs?");
    let indexed: std::collections::BTreeSet<&str> = index.urls().iter().copied().collect();
    assert_eq!(tested, indexed, "index must cover every url-test span");

    // Each explanation is a complete causal chain: the campaign root in
    // context, and DNS resolution plus a verdict in the chain.
    for url in index.urls() {
        let text = index
            .explain(url)
            .unwrap_or_else(|| panic!("explain({url}) returned nothing despite being indexed"));
        for needle in ["campaign", "url-test", "fetch", "dns", "verdict="] {
            assert!(
                text.contains(needle),
                "explain({url}) lacks {needle}: {text}"
            );
        }
    }
}

#[test]
fn trace_log_round_trips_and_reconstructs() {
    let (_, _, events) = traced_demo(TraceMode::Full);
    let log = to_log(&events);
    let back = from_log(&log).unwrap_or_else(|e| panic!("from_log: {e}"));
    assert_eq!(back, events);

    // One campaign = one trace, rooted at a Campaign span.
    let forest = build_forest(&events);
    assert_eq!(
        forest.trees().len(),
        1,
        "demo campaign must be a single trace"
    );
    for tree in forest.trees() {
        let roots: Vec<&TraceEvent> = tree.roots().collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].step, StepKind::Campaign);
    }
}

#[test]
fn sampling_thins_url_tests_without_touching_tables() {
    let (id_full, _, full) = traced_demo(TraceMode::Full);
    let (id_sampled, _, sampled) = traced_demo(TraceMode::Sampled(4));
    assert_eq!(id_full, id_sampled, "sampling changed the identify table");

    let url_tests = |events: &[TraceEvent]| {
        events
            .iter()
            .filter(|e| e.step == StepKind::UrlTest)
            .count()
    };
    let all = url_tests(&full);
    let kept = url_tests(&sampled);
    assert!(kept > 0, "1-in-4 sampling kept nothing");
    assert!(kept < all, "1-in-4 sampling kept all {all} url-tests");
    // The campaign skeleton (root + stages) survives sampling.
    assert!(sampled.iter().any(|e| e.step == StepKind::Campaign));
    assert!(sampled.iter().any(|e| e.step == StepKind::Stage));
}

/// Tracing overhead stays within twice the untraced run. Wall-clock
/// readings go through the telemetry collector's timed observation (the
/// one sanctioned wall-clock site), one histogram label per run. Runs
/// alternate untraced and traced, and the medians are compared, so a
/// burst of load on the machine moves both sides or neither. At 2× the
/// check fails on a pathological slowdown, such as per-event locking or
/// formatting, that a looser bound would let through.
#[test]
fn tracing_overhead_within_budget() {
    const RUNS: usize = 5;
    let telemetry = TelemetryHandle::enabled();
    let warmup = Campaign::demo(DEFAULT_SEED).run();
    assert!(!warmup.confirmations.is_empty());

    let modes = [("off", TraceMode::Off), ("full", TraceMode::Full)];
    for run in 0..RUNS {
        for (mode, trace) in modes {
            let report =
                telemetry.observe_timed("trace.overhead", &format!("{mode}-{run}"), || {
                    Campaign::demo(DEFAULT_SEED).with_trace(trace).run()
                });
            assert_eq!(report.identify_table(), warmup.identify_table());
        }
    }

    let snapshot = telemetry.snapshot();
    let median_ns = |mode: &str| -> f64 {
        let mut runs: Vec<f64> = (0..RUNS)
            .map(|run| {
                let label = format!("{mode}-{run}");
                snapshot
                    .histograms
                    .iter()
                    .find(|h| h.name == "trace.overhead" && h.label == label)
                    .map_or(0.0, |h| h.sum)
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[RUNS / 2]
    };
    let off_ns = median_ns("off");
    let full_ns = median_ns("full");
    assert!(off_ns > 0.0, "untraced runs recorded no wall time");
    assert!(
        full_ns <= off_ns * 2.0,
        "traced demo campaign took {:.1}ms vs {:.1}ms untraced (medians of {RUNS})",
        full_ns / 1e6,
        off_ns / 1e6,
    );
}
