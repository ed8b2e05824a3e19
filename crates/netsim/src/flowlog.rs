//! The flow log: a record of every fetch the simulation carried.
//!
//! Real measurement campaigns keep raw logs of every request for later
//! auditing (the paper's data release is exactly such a log). The
//! simulator can do the same: when enabled, every `fetch_as` appends a
//! [`FlowRecord`] — who asked for what, what happened, and which
//! middlebox (if any) rendered the verdict. Experiments and reports can
//! then reconstruct their own history instead of re-measuring.
//!
//! Records encode to a *stable* tab-separated line format that parses
//! back losslessly ([`FlowRecord::to_line`] / [`FlowRecord::parse_line`]),
//! so logs survive being written to disk and read by other tools:
//!
//! ```text
//! day 2 00:00:00\t5.0.0.9\tetisalat\thttp://x.info/\tintercepted:smartfilter:403
//! ```
//!
//! Dispositions are single colon-joined tokens (`origin:200`,
//! `dropped:<name>`, `pathfault:timeout`, `dnsfail`, …) headed by a
//! [`DispositionHead`] token; free-text fields use the shared
//! [`wire`](filterwatch_telemetry::wire) escaping.

use crate::ip::IpAddr;
use crate::time::SimTime;
use filterwatch_telemetry::wire::{escape, field, split, unescape, Wire, WireError};

/// How a logged flow ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowDisposition {
    /// Origin answered; status code attached.
    Origin(u16),
    /// A middlebox answered (block page / redirect); its name and the
    /// status it served.
    Intercepted { middlebox: String, status: u16 },
    /// A middlebox silently dropped the flow.
    DroppedBy(String),
    /// A middlebox reset the flow.
    ResetBy(String),
    /// The access path failed before any middlebox decision.
    PathFault(&'static str),
    /// The hostname did not resolve.
    DnsFailure,
    /// The resolver failed transiently (injected fault) — the name *is*
    /// registered; a retry may succeed.
    InjectedDnsFailure,
    /// No service listened at the destination.
    ConnectFailed,
    /// The path was inside a deterministic outage window; the token
    /// carries the virtual second at which the window closes.
    Outage {
        /// Virtual time (in seconds) when the path comes back.
        resumes_at_secs: u64,
    },
    /// The response was truncated mid-transfer.
    Truncated,
    /// A measurement client skipped the fetch because its circuit
    /// breaker for this vantage was open; the name is the vantage label.
    BreakerSkip(String),
}

impl FlowDisposition {
    /// Whether the flow was answered by a middlebox rather than the
    /// origin.
    pub fn was_intercepted(&self) -> bool {
        matches!(
            self,
            FlowDisposition::Intercepted { .. }
                | FlowDisposition::DroppedBy(_)
                | FlowDisposition::ResetBy(_)
        )
    }

    /// The head token's table entry.
    pub fn head(&self) -> DispositionHead {
        match self {
            FlowDisposition::Origin(_) => DispositionHead::Origin,
            FlowDisposition::Intercepted { .. } => DispositionHead::Intercepted,
            FlowDisposition::DroppedBy(_) => DispositionHead::Dropped,
            FlowDisposition::ResetBy(_) => DispositionHead::Reset,
            FlowDisposition::PathFault(_) => DispositionHead::PathFault,
            FlowDisposition::DnsFailure | FlowDisposition::InjectedDnsFailure => {
                DispositionHead::DnsFail
            }
            FlowDisposition::ConnectFailed => DispositionHead::ConnectFail,
            FlowDisposition::Outage { .. } => DispositionHead::Outage,
            FlowDisposition::Truncated => DispositionHead::Truncated,
            FlowDisposition::BreakerSkip(_) => DispositionHead::BreakerSkip,
        }
    }

    /// Encode as a single stable token: the head, then `:payload` for
    /// the variants that carry one.
    pub fn to_token(&self) -> String {
        let head = self.head().to_token();
        match self {
            FlowDisposition::Origin(status) => format!("{head}:{status}"),
            FlowDisposition::Intercepted { middlebox, status } => {
                format!("{head}:{}:{status}", escape(middlebox))
            }
            FlowDisposition::DroppedBy(name)
            | FlowDisposition::ResetBy(name)
            | FlowDisposition::BreakerSkip(name) => format!("{head}:{}", escape(name)),
            FlowDisposition::PathFault(kind) => format!("{head}:{kind}"),
            FlowDisposition::InjectedDnsFailure => format!("{head}:injected"),
            FlowDisposition::Outage { resumes_at_secs } => format!("{head}:{resumes_at_secs}"),
            FlowDisposition::DnsFailure
            | FlowDisposition::ConnectFailed
            | FlowDisposition::Truncated => head.to_string(),
        }
    }

    /// Parse a token produced by [`FlowDisposition::to_token`].
    pub fn parse_token(token: &str) -> Result<Self, WireError> {
        let (head, payload) = match token.split_once(':') {
            Some((head, payload)) => (head, Some(payload)),
            None => (token, None),
        };
        let need = || payload.ok_or_else(|| WireError::new("disposition", "missing payload"));
        let bare = |d: FlowDisposition| match payload {
            None => Ok(d),
            Some(p) => Err(WireError::new("disposition", format!("unexpected {p:?}"))),
        };
        Ok(match DispositionHead::parse_token(head)? {
            DispositionHead::Origin => FlowDisposition::Origin(field("status", need()?)?),
            DispositionHead::Intercepted => {
                // The status is the last colon field, so middlebox names
                // may themselves contain colons.
                let (middlebox, status) = need()?
                    .rsplit_once(':')
                    .ok_or_else(|| WireError::new("status", "missing"))?;
                FlowDisposition::Intercepted {
                    middlebox: unescape("middlebox", middlebox)?,
                    status: field("status", status)?,
                }
            }
            DispositionHead::Dropped => FlowDisposition::DroppedBy(unescape("middlebox", need()?)?),
            DispositionHead::Reset => FlowDisposition::ResetBy(unescape("middlebox", need()?)?),
            DispositionHead::PathFault => FlowDisposition::PathFault(match need()? {
                "timeout" => "timeout",
                "reset" => "reset",
                other => {
                    return Err(WireError::new(
                        "disposition",
                        format!("bad fault {other:?}"),
                    ))
                }
            }),
            DispositionHead::DnsFail if payload == Some("injected") => {
                FlowDisposition::InjectedDnsFailure
            }
            DispositionHead::DnsFail => bare(FlowDisposition::DnsFailure)?,
            DispositionHead::ConnectFail => bare(FlowDisposition::ConnectFailed)?,
            DispositionHead::Outage => FlowDisposition::Outage {
                resumes_at_secs: field("resumes_at", need()?)?,
            },
            DispositionHead::Truncated => bare(FlowDisposition::Truncated)?,
            DispositionHead::BreakerSkip => {
                FlowDisposition::BreakerSkip(unescape("vantage", need()?)?)
            }
        })
    }
}

/// The head of a [`FlowDisposition`] token: one per kind of ending.
/// [`FlowDisposition::head`] maps variants onto it and
/// [`FlowDisposition::parse_token`] matches on it exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispositionHead {
    /// Origin answered; payload: status.
    Origin,
    /// A middlebox answered; payload: middlebox name and status.
    Intercepted,
    /// A middlebox dropped the flow; payload: middlebox name.
    Dropped,
    /// A middlebox reset the flow; payload: middlebox name.
    Reset,
    /// The access path failed; payload: the fault kind.
    PathFault,
    /// DNS failed; an `injected` payload marks a transient fault.
    DnsFail,
    /// Nothing listened at the destination.
    ConnectFail,
    /// Inside an outage window; payload: when it closes.
    Outage,
    /// The response was cut short.
    Truncated,
    /// A circuit breaker skipped the fetch; payload: vantage.
    BreakerSkip,
}

filterwatch_telemetry::wire_enum! {
    DispositionHead: "disposition" {
        Origin => "origin",
        Intercepted => "intercepted",
        Dropped => "dropped",
        Reset => "reset",
        PathFault => "pathfault",
        DnsFail => "dnsfail",
        ConnectFail => "connectfail",
        Outage => "outage",
        Truncated => "truncated",
        BreakerSkip => "breaker-skip",
    }
}

/// One logged flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Virtual time of the request.
    pub at: SimTime,
    /// Client address originating the flow.
    pub client: IpAddr,
    /// Network the client egressed through (by name).
    pub network: String,
    /// The requested URL (text form).
    pub url: String,
    /// How the flow ended.
    pub disposition: FlowDisposition,
}

/// Tab-separated: time, client, network, URL, disposition token.
impl Wire for FlowRecord {
    fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.at,
            self.client,
            escape(&self.network),
            escape(&self.url),
            self.disposition.to_token()
        )
    }

    fn parse_line(line: &str) -> Result<Self, WireError> {
        let [at, client, network, url, token] = split(line, '\t')?;
        Ok(FlowRecord {
            at: field("at", at)?,
            client: field("client", client)?,
            network: unescape("network", network)?,
            url: unescape("url", url)?,
            disposition: FlowDisposition::parse_token(token)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposition_classification() {
        assert!(FlowDisposition::Intercepted {
            middlebox: "sf".into(),
            status: 403
        }
        .was_intercepted());
        assert!(FlowDisposition::DroppedBy("x".into()).was_intercepted());
        assert!(!FlowDisposition::Origin(200).was_intercepted());
        assert!(!FlowDisposition::DnsFailure.was_intercepted());
    }

    #[test]
    fn log_line_contains_fields() {
        let rec = FlowRecord {
            at: SimTime::from_days(2),
            client: "5.0.0.9".parse().unwrap(),
            network: "etisalat".into(),
            url: "http://x.info/".into(),
            disposition: FlowDisposition::Origin(200),
        };
        let line = rec.to_line();
        assert!(line.contains("day 2"));
        assert!(line.contains("5.0.0.9"));
        assert!(line.contains("etisalat"));
        assert!(line.contains("http://x.info/"));
        assert!(line.ends_with("origin:200"));
    }

    #[test]
    fn every_disposition_token_round_trips() {
        let cases = [
            FlowDisposition::Origin(200),
            FlowDisposition::Intercepted {
                middlebox: "smartfilter".into(),
                status: 403,
            },
            FlowDisposition::Intercepted {
                middlebox: "odd:name\twith\ttabs".into(),
                status: 302,
            },
            FlowDisposition::DroppedBy("netsweeper".into()),
            FlowDisposition::ResetBy("bluecoat".into()),
            FlowDisposition::PathFault("timeout"),
            FlowDisposition::PathFault("reset"),
            FlowDisposition::DnsFailure,
            FlowDisposition::InjectedDnsFailure,
            FlowDisposition::ConnectFailed,
            FlowDisposition::Outage {
                resumes_at_secs: 172_861,
            },
            FlowDisposition::Truncated,
            FlowDisposition::BreakerSkip("field:ae".into()),
        ];
        for d in cases {
            let token = d.to_token();
            assert!(!token.contains('\t'), "token must be tab-free: {token:?}");
            assert_eq!(FlowDisposition::parse_token(&token).unwrap(), d, "{token}");
        }
    }

    #[test]
    fn record_line_round_trips() {
        let rec = FlowRecord {
            at: SimTime::from_days(3).plus_secs(61),
            client: "5.0.0.9".parse().unwrap(),
            network: "a net\twith tab".into(),
            url: "http://x.info/a\tb?c=1".into(),
            disposition: FlowDisposition::Intercepted {
                middlebox: "smartfilter".into(),
                status: 403,
            },
        };
        assert_eq!(FlowRecord::parse_line(&rec.to_line()).unwrap(), rec);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(FlowRecord::parse_line("").is_err());
        assert!(FlowRecord::parse_line("day 0 00:00:00\t1.2.3.4\tnet\turl").is_err());
        assert!(
            FlowRecord::parse_line("day 0 00:00:00\tnot-an-ip\tnet\thttp://u/\torigin:200")
                .is_err()
        );
        assert!(
            FlowRecord::parse_line("day 0 00:00:00\t1.2.3.4\tnet\thttp://u/\torigin:xx").is_err()
        );
        assert!(
            FlowRecord::parse_line("day 0 00:00:00\t1.2.3.4\tnet\thttp://u/\tpathfault:flood")
                .is_err()
        );
        assert!(FlowRecord::parse_line("day 0 00:00:00\t1.2.3.4\tnet\thttp://u/\tnope").is_err());
        assert!(
            FlowRecord::parse_line("day 0 00:00:00\t1.2.3.4\tnet\thttp://u/\toutage:soon").is_err()
        );
    }

    #[test]
    fn injected_dns_token_is_distinct_from_plain_dnsfail() {
        assert_eq!(
            FlowDisposition::parse_token("dnsfail").unwrap(),
            FlowDisposition::DnsFailure
        );
        assert_eq!(
            FlowDisposition::parse_token("dnsfail:injected").unwrap(),
            FlowDisposition::InjectedDnsFailure
        );
        assert!(!FlowDisposition::InjectedDnsFailure.was_intercepted());
        assert!(!FlowDisposition::BreakerSkip("v".into()).was_intercepted());
    }
}
