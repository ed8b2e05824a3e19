//! Per-URL accessibility verdicts.

use crate::blockpage::BlockMatch;
use filterwatch_telemetry::wire::{escape, optional, split, unescape, Wire, WireError, ABSENT};

/// The comparison of a field observation against the lab control.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Reachable in the field, content consistent with the lab.
    Accessible,
    /// The field saw an explicit block page.
    Blocked(BlockMatch),
    /// Reachable in the field but the content differs substantially from
    /// the lab's copy without matching any block-page signature —
    /// in-path tampering rather than overt blocking.
    Modified {
        /// Token-level similarity between field and lab bodies (0..=1).
        similarity: f64,
    },
    /// The field failed (timeout/reset/connect) while the lab succeeded —
    /// the ambiguous censorship styles the paper avoids relying on.
    Inaccessible { field_error: String },
    /// The lab itself could not fetch the URL; no conclusion possible.
    Unavailable { lab_error: String },
    /// The measurement machinery could not reach a trustworthy verdict:
    /// quorum trials disagreed, or a circuit breaker skipped the vantage
    /// entirely. Replaces silent misclassification under flaky paths.
    Inconclusive { reason: String },
}

impl Verdict {
    /// Whether this verdict is an explicit block.
    pub fn is_blocked(&self) -> bool {
        matches!(self, Verdict::Blocked(_))
    }

    /// Whether this verdict is covert content modification.
    pub fn is_modified(&self) -> bool {
        matches!(self, Verdict::Modified { .. })
    }

    /// Whether the URL was cleanly accessible.
    pub fn is_accessible(&self) -> bool {
        matches!(self, Verdict::Accessible)
    }

    /// The product attributed by the block-page signature, if blocked
    /// and identifiable.
    pub fn blocked_by(&self) -> Option<&str> {
        match self {
            Verdict::Blocked(m) => m.product.as_deref(),
            _ => None,
        }
    }

    /// The verdict's kind; its token is the short label report tables
    /// and verdict lines carry.
    pub fn kind(&self) -> VerdictLabel {
        match self {
            Verdict::Accessible => VerdictLabel::Accessible,
            Verdict::Blocked(_) => VerdictLabel::Blocked,
            Verdict::Modified { .. } => VerdictLabel::Modified,
            Verdict::Inaccessible { .. } => VerdictLabel::Inaccessible,
            Verdict::Unavailable { .. } => VerdictLabel::Unavailable,
            Verdict::Inconclusive { .. } => VerdictLabel::Inconclusive,
        }
    }

    /// Whether the measurement machinery declined to render a verdict.
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Blocked(m) => write!(
                f,
                "blocked ({})",
                m.product.as_deref().unwrap_or("unattributed")
            ),
            other => f.write_str(other.kind().to_token()),
        }
    }
}

/// The label half of a [`Verdict`], as it appears on the wire.
///
/// Verdict lines drop the payload (evidence, similarity, reasons), so
/// parsing a line back recovers the label, not the full [`Verdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictLabel {
    /// `accessible`
    Accessible,
    /// `blocked`
    Blocked,
    /// `modified`
    Modified,
    /// `inaccessible`
    Inaccessible,
    /// `unavailable`
    Unavailable,
    /// `inconclusive`
    Inconclusive,
}

filterwatch_telemetry::wire_enum! {
    VerdictLabel: "label" {
        Accessible => "accessible",
        Blocked => "blocked",
        Modified => "modified",
        Inaccessible => "inaccessible",
        Unavailable => "unavailable",
        Inconclusive => "inconclusive",
    }
}

/// A verdict attached to the URL it concerns.
#[derive(Debug, Clone, PartialEq)]
pub struct UrlVerdict {
    /// The tested URL (as text).
    pub url: String,
    /// The comparison outcome.
    pub verdict: Verdict,
}

/// The fields of a [`UrlVerdict`] a verdict line carries: the URL, the
/// verdict label, and the attributed product (`-` when none).
/// Error/reason strings are deliberately excluded — they may carry
/// timing-dependent detail — so differential runners and metamorphic
/// invariants can byte-compare verdict sweeps across configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictLine {
    /// The tested URL (as text).
    pub url: String,
    /// The verdict label.
    pub label: VerdictLabel,
    /// The attributed product, when blocked and identified.
    pub product: Option<String>,
}

impl UrlVerdict {
    /// The wire fields of this verdict.
    pub fn line(&self) -> VerdictLine {
        VerdictLine {
            url: self.url.clone(),
            label: self.verdict.kind(),
            product: self.verdict.blocked_by().map(str::to_string),
        }
    }
}

/// Tab-separated: URL, label, product.
impl Wire for VerdictLine {
    fn to_line(&self) -> String {
        let product = match &self.product {
            Some(p) => escape(p),
            None => ABSENT.to_string(),
        };
        format!(
            "{}\t{}\t{product}",
            escape(&self.url),
            self.label.to_token()
        )
    }

    fn parse_line(line: &str) -> Result<VerdictLine, WireError> {
        let [url, label, product] = split(line, '\t')?;
        Ok(VerdictLine {
            url: unescape("url", url)?,
            label: VerdictLabel::parse_token(label)?,
            product: optional(product, |p| unescape("product", p))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let blocked = Verdict::Blocked(BlockMatch {
            product: Some("netsweeper".into()),
            evidence: "sig".into(),
        });
        assert!(blocked.is_blocked());
        assert_eq!(blocked.blocked_by(), Some("netsweeper"));
        assert!(!blocked.is_accessible());
        assert!(Verdict::Accessible.is_accessible());
        assert_eq!(Verdict::Accessible.blocked_by(), None);
    }

    #[test]
    fn modified_accessors() {
        let m = Verdict::Modified { similarity: 0.3 };
        assert!(m.is_modified());
        assert!(!m.is_blocked());
        assert_eq!(m.kind(), VerdictLabel::Modified);
    }

    #[test]
    fn display() {
        let anon = Verdict::Blocked(BlockMatch {
            product: None,
            evidence: "generic".into(),
        });
        assert_eq!(anon.to_string(), "blocked (unattributed)");
        assert_eq!(
            Verdict::Inaccessible {
                field_error: "timeout".into()
            }
            .to_string(),
            "inaccessible"
        );
    }

    #[test]
    fn stable_line_excludes_noise() {
        let blocked = UrlVerdict {
            url: "http://a.example/".into(),
            verdict: Verdict::Blocked(BlockMatch {
                product: Some("netsweeper".into()),
                evidence: "sig".into(),
            }),
        };
        assert_eq!(
            blocked.line().to_line(),
            "http://a.example/\tblocked\tnetsweeper"
        );
        let inconclusive = UrlVerdict {
            url: "http://b.example/".into(),
            verdict: Verdict::Inconclusive {
                reason: "breaker open until t=1234".into(),
            },
        };
        // The reason (timing detail) must not leak into the line.
        assert_eq!(
            inconclusive.line().to_line(),
            "http://b.example/\tinconclusive\t-"
        );
    }

    #[test]
    fn lines_round_trip() {
        let cases = vec![
            UrlVerdict {
                url: "http://a.example/".into(),
                verdict: Verdict::Blocked(BlockMatch {
                    product: Some("netsweeper".into()),
                    evidence: "sig".into(),
                }),
            },
            UrlVerdict {
                url: "http://b.example/".into(),
                verdict: Verdict::Accessible,
            },
            UrlVerdict {
                url: "http://c.example/".into(),
                verdict: Verdict::Modified { similarity: 0.4 },
            },
            UrlVerdict {
                url: "http://d.example/".into(),
                verdict: Verdict::Inaccessible {
                    field_error: "reset".into(),
                },
            },
            UrlVerdict {
                url: "http://e.example/".into(),
                verdict: Verdict::Unavailable {
                    lab_error: "dns".into(),
                },
            },
            UrlVerdict {
                url: "http://f.example/".into(),
                verdict: Verdict::Inconclusive {
                    reason: "no quorum".into(),
                },
            },
            // A URL may legally carry a tab; the line escapes it.
            UrlVerdict {
                url: filterwatch_http::Url::parse("http://g.example/x\ty")
                    .unwrap()
                    .to_string(),
                verdict: Verdict::Accessible,
            },
        ];
        for uv in cases {
            let parsed = VerdictLine::parse_line(&uv.line().to_line()).unwrap();
            assert_eq!(parsed.url, uv.url);
            assert_eq!(parsed.label, uv.verdict.kind());
            assert_eq!(parsed.product.as_deref(), uv.verdict.blocked_by());
        }
    }

    #[test]
    fn parse_line_rejects_malformed_input() {
        assert!(VerdictLine::parse_line("only-two\tfields").is_err());
        assert!(VerdictLine::parse_line("u\tblocked\tx\textra").is_err());
        assert!(VerdictLine::parse_line("u\tbogus-label\t-").is_err());
        assert!(VerdictLabel::parse_token("Accessible").is_err());
    }

    #[test]
    fn inconclusive_accessors() {
        let v = Verdict::Inconclusive {
            reason: "no quorum".into(),
        };
        assert!(v.is_inconclusive());
        assert!(!v.is_blocked());
        assert!(!v.is_accessible());
        assert_eq!(v.kind(), VerdictLabel::Inconclusive);
        assert_eq!(v.to_string(), "inconclusive");
        assert!(!Verdict::Accessible.is_inconclusive());
    }
}
