//! The closed vocabulary of causal steps.
//!
//! Every trace event names one [`StepKind`]; free-form data (URLs,
//! vantage names, verdict labels) lives in the event's key/value
//! fields, never in the token itself. The token table is generated
//! from one list, so `to_token` and `parse_token` cover the same set by
//! construction.

/// One kind of step in a causal chain, from campaign root down to a
/// single middlebox hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StepKind {
    /// Root span of a full campaign run.
    Campaign,
    /// A pipeline stage (identify, confirm.submit, confirm.retest,
    /// characterize); `name` field carries which.
    Stage,
    /// One confirmation case study (ISP x product).
    Case,
    /// A URL submitted to a vendor categorization portal.
    Submit,
    /// Virtual-clock wait between submit and retest.
    Wait,
    /// One `test_url` invocation — the unit the provenance index keys on.
    UrlTest,
    /// One quorum trial within a URL test.
    Trial,
    /// One fetch attempt from a vantage (redirect-following).
    Fetch,
    /// A followed redirect hop inside a fetch.
    Redirect,
    /// A retry decision: backoff before the next fetch attempt.
    Retry,
    /// DNS resolution inside the simulated network.
    Dns,
    /// An injected path fault (timeout, reset, outage, …).
    PathFault,
    /// One middlebox hop and its action on the flow.
    MbHop,
    /// The origin server's reply (or connect failure).
    OriginReply,
    /// A fetch skipped because a vantage circuit breaker was open.
    BreakerOpen,
    /// A fingerprint plugin matching a product on a host.
    FpMatch,
    /// An installation candidate surfaced by the identify sweep.
    Candidate,
    /// The quorum decision across trials.
    Quorum,
    /// A verdict: per URL test, or per confirmation case.
    Verdict,
    /// A campaign checkpoint written at a stage boundary by the
    /// orchestrator (fields carry the stage cursor).
    Checkpoint,
    /// A campaign restored from a checkpoint; opened as a span so
    /// verdicts produced after the restore carry it in their ancestry.
    Resume,
    /// A `Wait` deadline firing (the scheduler waking a campaign parked
    /// in its `Wait` stage).
    SchedTimer,
}

filterwatch_telemetry::wire_enum! {
    StepKind: "step" {
        Campaign => "campaign",
        Stage => "stage",
        Case => "case",
        Submit => "submit",
        Wait => "wait",
        UrlTest => "url-test",
        Trial => "trial",
        Fetch => "fetch",
        Redirect => "redirect",
        Retry => "retry",
        Dns => "dns",
        PathFault => "path-fault",
        MbHop => "mb-hop",
        OriginReply => "origin-reply",
        BreakerOpen => "breaker-open",
        FpMatch => "fp-match",
        Candidate => "candidate",
        Quorum => "quorum",
        Verdict => "verdict",
        Checkpoint => "checkpoint",
        Resume => "resume",
        SchedTimer => "sched-timer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_exhaustively() {
        for step in StepKind::ALL {
            assert_eq!(StepKind::parse_token(step.to_token()), Ok(*step));
        }
        assert!(StepKind::parse_token("nope").is_err());
        assert!(StepKind::parse_token("").is_err());
    }

    #[test]
    fn tokens_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for step in StepKind::ALL {
            assert!(seen.insert(step.to_token()), "duplicate {step:?}");
        }
        assert_eq!(seen.len(), StepKind::ALL.len());
    }
}
