//! Property-based tests for trace reconstruction.
//!
//! Permutation invariance — span-tree reconstruction, rendering, the
//! profile and every `explain` artifact are pure functions of the event
//! *set*, so shuffling the log must never change them. Reconstruction
//! survives a wire round trip, and `explain` ends on logs whose parent
//! links form cycles. The `TraceEvent` line codec itself is checked by
//! the shared wire harness in `filterwatch-testkit`.

use filterwatch_trace::{
    build_forest, from_log, render_forest, render_profile, to_log, ProvenanceIndex, SpanId,
    StepKind, TraceEvent, TraceId,
};
use proptest::prelude::*;

fn any_step() -> impl Strategy<Value = StepKind> {
    (0..StepKind::ALL.len() as u64).prop_map(|i| StepKind::ALL[i as usize])
}

/// Keys are constrained by the wire format; values are adversarial.
fn any_fields() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(
        (
            "[a-z0-9_.-]{1,12}".prop_map(|k: String| k),
            prop_oneof!["\\PC{0,24}".boxed(), "[\t\n\r\\\\=]{0,6}".boxed()],
        ),
        0..4,
    )
}

/// A structurally plausible event log: one to three traces with
/// distinct ids, interleaved line by line. Each trace numbers its spans
/// 1..=n and draws each span's parent from its own earlier spans (or
/// none, making it a root).
fn any_span_log() -> impl Strategy<Value = Vec<TraceEvent>> {
    (
        proptest::collection::btree_set(any::<u64>(), 1..=3),
        proptest::collection::vec(
            (
                any::<usize>(),
                any::<u32>(),
                0u64..10_000,
                any_step(),
                any_fields(),
            ),
            1..24,
        ),
    )
        .prop_map(|(traces, raws)| {
            let traces: Vec<u64> = traces.into_iter().collect();
            let mut last_span = vec![0u32; traces.len()];
            raws.into_iter()
                .map(|(which, pick, at, step, fields)| {
                    let t = which % traces.len();
                    last_span[t] += 1;
                    let span = last_span[t];
                    // Bias toward having a parent; pick 0 means root.
                    let parent = match pick % span {
                        0 => None,
                        p => Some(SpanId(p)),
                    };
                    TraceEvent {
                        trace: TraceId(traces[t]),
                        span: SpanId(span),
                        parent,
                        at_secs: at,
                        end_secs: at,
                        step,
                        fields: fields.into_iter().collect(),
                    }
                })
                .collect()
        })
}

/// An adversarial log: one trace whose parents may name any span,
/// including later spans and the span itself, so parent cycles of every
/// length occur. Every event carries one of three URLs, and about half
/// are url-tests.
fn any_parent_log() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (any::<u32>(), 0u64..100, any::<bool>(), any_step(), 0u8..3),
        1..16,
    )
    .prop_map(|raws| {
        let n = raws.len() as u32;
        raws.into_iter()
            .enumerate()
            .map(|(i, (pick, at, test, step, url))| TraceEvent {
                trace: TraceId(1),
                span: SpanId(i as u32 + 1),
                parent: match pick % (n + 1) {
                    0 => None,
                    p => Some(SpanId(p)),
                },
                at_secs: at,
                end_secs: at,
                step: if test { StepKind::UrlTest } else { step },
                fields: [("url", format!("http://u{url}/"))].into_iter().collect(),
            })
            .collect()
    })
}

/// Deterministically shuffle a log with a Fisher–Yates pass driven by a
/// seed (proptest supplies the randomness; the shuffle itself is pure).
fn shuffled(events: &[TraceEvent], seed: u64) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = events.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

proptest! {
    /// Reconstruction and every rendering built on it are invariant
    /// under permutation of the event log.
    #[test]
    fn reconstruction_is_permutation_invariant(
        events in any_span_log(),
        seed in any::<u64>(),
    ) {
        let reordered = shuffled(&events, seed);
        let forest = build_forest(&events);
        let forest2 = build_forest(&reordered);
        prop_assert_eq!(render_forest(&forest), render_forest(&forest2));
        prop_assert_eq!(render_profile(&events), render_profile(&reordered));

        let index = ProvenanceIndex::build(&events);
        let index2 = ProvenanceIndex::build(&reordered);
        prop_assert_eq!(index.render_summary(), index2.render_summary());
        prop_assert_eq!(index.urls(), index2.urls());
        for url in index.urls() {
            prop_assert_eq!(index.explain(url), index2.explain(url));
        }
    }

    /// `explain` returns for every URL of a log with arbitrary parent
    /// links, and each chain prints every node at most once.
    #[test]
    fn explain_terminates_on_parent_cycles(events in any_parent_log()) {
        let index = ProvenanceIndex::build(&events);
        for url in index.urls() {
            let text = index.explain(url);
            prop_assert!(text.is_some(), "explain({}) returned nothing", url);
            let text = text.unwrap_or_default();
            for section in text.split("chain:\n").skip(1) {
                let chain = section.split("\n-- occurrence").next().unwrap_or_default();
                let spans: Vec<&str> = chain
                    .lines()
                    .filter_map(|line| line.split_whitespace().next())
                    .collect();
                let unique: std::collections::BTreeSet<&str> = spans.iter().copied().collect();
                prop_assert_eq!(unique.len(), spans.len(), "a chain repeats a node:\n{}", chain);
            }
        }
    }

    /// Round-tripping a log through the wire format changes nothing the
    /// reconstruction sees.
    #[test]
    fn wire_round_trip_preserves_reconstruction(events in any_span_log()) {
        let back = from_log(&to_log(&events))
            .unwrap_or_else(|e| panic!("from_log: {e}"));
        prop_assert_eq!(render_forest(&build_forest(&events)), render_forest(&build_forest(&back)));
        prop_assert_eq!(render_profile(&events), render_profile(&back));
    }
}
