//! The wire harness instantiated once per wire format.
//!
//! Every line type runs [`check_wire`]: round trip, byte-stable
//! re-encoding, and a parser that stays total on arbitrary text and on
//! every truncation and single-byte substitution of a valid line. Every
//! generated token table runs [`check_tokens`]. Free-text fields get
//! adversarial values (tabs, newlines, CRs, backslashes, commas,
//! unicode); fields a format constrains are generated within their
//! constraint, with the reason next to the generator.

// Test helpers outside `#[test]` fail the test by panicking.
#![allow(clippy::panic)]

use filterwatch_measure::{MeasurementQuality, VerdictLabel, VerdictLine};
use filterwatch_netsim::flowlog::DispositionHead;
use filterwatch_netsim::{FlowDisposition, FlowRecord, IpAddr, SimTime};
use filterwatch_orchestrator::{
    CampaignCheckpoint, CampaignDescriptor, CampaignKind, CaseCkpt, StageHead, StageState,
};
use filterwatch_scanner::{Interner, RecordParts, ScanIndex, ScanRecord};
use filterwatch_telemetry::wire::Wire;
use filterwatch_telemetry::Event;
use filterwatch_testkit::wire::{check_tokens, check_wire};
use filterwatch_trace::{from_log, to_log, SpanId, StepKind, TraceEvent, TraceId};
use proptest::prelude::*;

/// Arbitrary strings for the totality check.
const JUNK: &str = "\\PC{0,300}";

/// Free text with the bytes the formats split and escape on mixed into
/// printable unicode.
fn text() -> impl Strategy<Value = String> {
    ("\\PC{0,12}", "[\t\n\r\\\\,:= ]{0,6}", "\\PC{0,12}").prop_map(|(a, b, c)| a + &b + &c)
}

/// Free text for an optional field: a lone `-` is the absent marker,
/// so a present value never is one.
fn present_text() -> impl Strategy<Value = String> {
    text().prop_map(|t| if t == "-" { "--".to_string() } else { t })
}

/// Pick a variant from a generated token table.
fn any_of<T: Copy + std::fmt::Debug>(all: &'static [T]) -> impl Strategy<Value = T> {
    (0..all.len()).prop_map(move |i| all[i])
}

/// Event kinds and `key=value` keys are constrained to `[a-z0-9_.-]`.
fn any_fields() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-z0-9_.-]{1,12}", text()), 0..4)
}

/// Every `FlowDisposition` variant with random payloads. The match
/// names each variant with no wildcard arm, so a new variant does not
/// compile (or, with a `_` arm, pass clippy) until it is listed here.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn any_disposition() -> impl Strategy<Value = FlowDisposition> {
    let every = vec![
        FlowDisposition::Origin(0),
        FlowDisposition::Intercepted {
            middlebox: String::new(),
            status: 0,
        },
        FlowDisposition::DroppedBy(String::new()),
        FlowDisposition::ResetBy(String::new()),
        FlowDisposition::PathFault("timeout"),
        FlowDisposition::PathFault("reset"),
        FlowDisposition::DnsFailure,
        FlowDisposition::InjectedDnsFailure,
        FlowDisposition::ConnectFailed,
        FlowDisposition::Outage { resumes_at_secs: 0 },
        FlowDisposition::Truncated,
        FlowDisposition::BreakerSkip(String::new()),
    ];
    (0..every.len(), text(), any::<u16>(), any::<u64>()).prop_map(move |(i, name, status, secs)| {
        match every[i].clone() {
            FlowDisposition::Origin(_) => FlowDisposition::Origin(status),
            FlowDisposition::Intercepted { .. } => FlowDisposition::Intercepted {
                middlebox: name,
                status,
            },
            FlowDisposition::DroppedBy(_) => FlowDisposition::DroppedBy(name),
            FlowDisposition::ResetBy(_) => FlowDisposition::ResetBy(name),
            FlowDisposition::BreakerSkip(_) => FlowDisposition::BreakerSkip(name),
            FlowDisposition::Outage { .. } => FlowDisposition::Outage {
                resumes_at_secs: secs,
            },
            d @ (FlowDisposition::PathFault(_)
            | FlowDisposition::DnsFailure
            | FlowDisposition::InjectedDnsFailure
            | FlowDisposition::ConnectFailed
            | FlowDisposition::Truncated) => d,
        }
    })
}

fn any_trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<u64>(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        0u64..2_000_000,
        0u64..100_000,
        any_of(StepKind::ALL),
        any_fields(),
    )
        .prop_map(
            |(trace, span, parent, at, extra, step, fields)| TraceEvent {
                trace: TraceId(trace),
                span: SpanId(span),
                parent: parent.map(SpanId),
                at_secs: at,
                end_secs: at + extra,
                step,
                fields: fields.into_iter().collect(),
            },
        )
}

fn any_quality() -> impl Strategy<Value = MeasurementQuality> {
    proptest::collection::vec(any::<u64>(), 7).prop_map(|n| MeasurementQuality {
        fetch_attempts: n[0],
        retries: n[1],
        breaker_trips: n[2],
        breaker_skips: n[3],
        quorum_trials: n[4],
        inconclusive: n[5],
        verdicts: n[6],
    })
}

/// Hostnames are non-empty: an empty list and a list of one empty
/// hostname share the empty field.
fn any_scan_record() -> impl Strategy<Value = ScanRecord> {
    (
        any::<u32>(),
        any::<u16>(),
        text(),
        text(),
        text(),
        proptest::collection::vec(("[a-z]", text()).prop_map(|(a, b)| a + &b), 0..3),
        proptest::option::of(present_text()),
        proptest::option::of(any::<u32>()),
        any::<u64>(),
    )
        .prop_map(
            |(ip, port, path, banner, body, hostnames, country, asn, at)| {
                ScanRecord::new(RecordParts {
                    ip: IpAddr(ip),
                    port,
                    path: &path,
                    hostnames: &hostnames,
                    banner: &banner,
                    body_snippet: &body,
                    country: country.as_deref(),
                    asn,
                    captured_at: SimTime::from_secs(at),
                })
            },
        )
}

fn any_descriptor() -> impl Strategy<Value = CampaignDescriptor> {
    (
        any_of(CampaignKind::ALL),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(kind, seed, chaos, trace)| CampaignDescriptor {
            kind,
            seed,
            chaos,
            trace,
        })
}

/// Every `StageState` variant with random payloads; the match guards
/// new variants as in [`any_disposition`].
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn any_stage() -> impl Strategy<Value = StageState> {
    let every = [
        StageState::Identify,
        StageState::Baseline { case: 0 },
        StageState::Submit { case: 0 },
        StageState::Wait {
            case: 0,
            deadline_secs: 0,
        },
        StageState::Retest { case: 0 },
        StageState::Characterize,
        StageState::Done,
    ];
    (0..every.len(), any::<usize>(), any::<u64>()).prop_map(move |(i, case, deadline_secs)| {
        match every[i].clone() {
            StageState::Baseline { .. } => StageState::Baseline { case },
            StageState::Submit { .. } => StageState::Submit { case },
            StageState::Wait { .. } => StageState::Wait {
                case,
                deadline_secs,
            },
            StageState::Retest { .. } => StageState::Retest { case },
            s @ (StageState::Identify | StageState::Characterize | StageState::Done) => s,
        }
    })
}

/// Case sub-fields are space-separated, so attributed products carry no
/// spaces; a leading letter keeps a lone product from reading as the
/// `-` empty marker.
fn any_attributed() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z][a-z0-9,:\t\n\r\\\\.-]{0,10}", 0..4)
}

/// A case summary; the checkpoint strategy renumbers the index so case
/// fields stay in spec order.
fn any_case() -> impl Strategy<Value = CaseCkpt> {
    (
        proptest::collection::vec(any::<usize>(), 5),
        proptest::option::of(any::<usize>()),
        any::<bool>(),
        any_attributed(),
        any_quality(),
    )
        .prop_map(|(n, acc, confirmed, attributed, quality)| CaseCkpt {
            index: n[0],
            accessible_before: acc,
            submissions_accepted: n[1],
            submitted_blocked: n[2],
            holdout_blocked: n[3],
            retest_inconclusive: n[4],
            confirmed,
            attributed,
            quality,
        })
}

fn any_checkpoint() -> impl Strategy<Value = CampaignCheckpoint> {
    (
        any_descriptor(),
        any_stage(),
        any::<u64>(),
        proptest::collection::vec(any_case(), 0..4),
    )
        .prop_map(|(descriptor, stage, clock_secs, mut cases)| {
            for (i, case) in cases.iter_mut().enumerate() {
                case.index = i;
            }
            CampaignCheckpoint {
                descriptor,
                stage,
                clock_secs,
                cases,
            }
        })
}

fn pass(result: Result<(), String>) {
    if let Err(e) = result {
        panic!("{e}");
    }
}

proptest! {
    #[test]
    fn telemetry_event_lines_round_trip(
        at_secs in any::<u64>(),
        kind in "[a-z0-9_.-]{1,16}",
        fields in any_fields(),
        junk in JUNK,
    ) {
        let fields = fields.into_iter().collect();
        pass(check_wire(&Event { at_secs, kind, fields }, &junk));
    }

    #[test]
    fn flow_record_line_round_trips(
        at in any::<u64>(),
        client in any::<u32>(),
        network in text(),
        url in text(),
        disposition in any_disposition(),
        junk in JUNK,
    ) {
        let record = FlowRecord {
            at: SimTime::from_secs(at),
            client: IpAddr(client),
            network,
            url,
            disposition,
        };
        pass(check_wire(&record, &junk));
    }

    #[test]
    fn wire_line_round_trips(event in any_trace_event(), junk in JUNK) {
        pass(check_wire(&event, &junk));
    }

    /// Whole trace logs survive to_log → from_log.
    #[test]
    fn wire_log_round_trips(events in proptest::collection::vec(any_trace_event(), 0..12)) {
        let back = from_log(&to_log(&events)).unwrap_or_else(|e| panic!("from_log: {e}"));
        prop_assert_eq!(back, events);
    }

    #[test]
    fn verdict_lines_round_trip(
        url in text(),
        label in any_of(VerdictLabel::ALL),
        product in proptest::option::of(present_text()),
        junk in JUNK,
    ) {
        pass(check_wire(&VerdictLine { url, label, product }, &junk));
    }

    #[test]
    fn quality_lines_round_trip(quality in any_quality(), junk in JUNK) {
        pass(check_wire(&quality, &junk));
    }

    #[test]
    fn interner_lines_round_trip(labels in proptest::collection::vec(text(), 0..6), junk in JUNK) {
        let mut interner = Interner::new();
        for label in &labels {
            interner.intern(label);
        }
        pass(check_wire(&interner, &junk));
    }

    /// Dump lines round-trip per record, and a whole dump restores the
    /// record set.
    #[test]
    fn dump_round_trip(
        records in proptest::collection::vec(any_scan_record(), 0..6),
        junk in JUNK,
    ) {
        for record in &records {
            pass(check_wire(record, &junk));
        }
        let index = ScanIndex::build(records);
        let restored = ScanIndex::from_dump(&index.to_dump()).unwrap();
        prop_assert_eq!(index.records(), restored.records());
    }

    /// The whole-dump parser never panics on arbitrary text.
    #[test]
    fn dump_parser_total(text in JUNK) {
        let _ = ScanIndex::from_dump(&text);
    }

    #[test]
    fn descriptor_lines_round_trip(descriptor in any_descriptor(), junk in JUNK) {
        pass(check_wire(&descriptor, &junk));
    }

    #[test]
    fn stage_lines_round_trip(stage in any_stage(), junk in JUNK) {
        pass(check_wire(&stage, &junk));
    }

    #[test]
    fn case_fields_round_trip(case in any_case(), junk in JUNK) {
        pass(check_wire(&case, &junk));
    }

    #[test]
    fn checkpoint_lines_round_trip(ckpt in any_checkpoint(), junk in JUNK) {
        pass(check_wire(&ckpt, &junk));
    }

    /// Any single-byte substitution anywhere in the line — body, tabs,
    /// digest — is rejected. FNV-1a's per-byte step is a bijection, so
    /// an equal-length substitution can never collide.
    #[test]
    fn corrupted_checkpoint_lines_are_rejected(
        ckpt in any_checkpoint(),
        pos_pick in any::<u64>(),
        byte_pick in 0u8..95,
    ) {
        let line = ckpt.to_line();
        let mut bytes = line.clone().into_bytes();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        // Substitute a printable ASCII byte (or a tab, to attack the
        // field structure) that differs from the original.
        let replacement = if byte_pick == 0 { b'\t' } else { byte_pick + 32 };
        if replacement != bytes[pos] {
            bytes[pos] = replacement;
            if let Ok(corrupted) = String::from_utf8(bytes) {
                prop_assert!(
                    CampaignCheckpoint::parse_line(&corrupted).is_err(),
                    "corrupting byte {pos} of {line:?} into {corrupted:?} was accepted"
                );
            }
        }
    }
}

/// Check each named type's generated token table.
macro_rules! check_tables {
    ($($ty:ty),+) => {
        $(pass(check_tokens(<$ty>::ALL, <$ty>::to_token, <$ty>::parse_token));)+
    };
}

#[test]
fn step_token_round_trips() {
    check_tables!(StepKind);
}

#[test]
fn token_tables_round_trip() {
    check_tables!(CampaignKind, VerdictLabel, DispositionHead, StageHead);
}
