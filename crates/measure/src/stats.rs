//! Aggregation over measurement runs.
//!
//! Campaign-scale measurement produces thousands of per-URL verdicts;
//! analysts work from summaries and exports. [`RunSummary`] rolls a
//! verdict list up into the four outcome classes plus per-product
//! attribution counts; [`to_csv`] exports verdicts in a spreadsheet-
//! friendly form (the paper's released data is a table of exactly this
//! shape).

use std::collections::BTreeMap;

use crate::verdict::{UrlVerdict, Verdict};
use filterwatch_telemetry::render::csv_escape;

/// Aggregate view of one measurement run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// URLs tested.
    pub tested: usize,
    /// Cleanly accessible.
    pub accessible: usize,
    /// Explicitly blocked.
    pub blocked: usize,
    /// Covertly modified in the field (content tampering).
    pub modified: usize,
    /// Field-side transport failures (ambiguous).
    pub inaccessible: usize,
    /// Lab-side failures (no conclusion).
    pub unavailable: usize,
    /// Verdicts the machinery declined to render (quorum disagreement,
    /// breaker skips).
    pub inconclusive: usize,
    /// Blocked counts per attributed product (`"(unattributed)"` for
    /// generic block pages).
    pub by_product: BTreeMap<String, usize>,
}

impl RunSummary {
    /// Summarize a verdict list.
    pub fn from_verdicts(verdicts: &[UrlVerdict]) -> Self {
        let mut s = RunSummary {
            tested: verdicts.len(),
            ..RunSummary::default()
        };
        for v in verdicts {
            match &v.verdict {
                Verdict::Accessible => s.accessible += 1,
                Verdict::Blocked(m) => {
                    s.blocked += 1;
                    let key = m
                        .product
                        .clone()
                        .unwrap_or_else(|| "(unattributed)".to_string());
                    *s.by_product.entry(key).or_default() += 1;
                }
                Verdict::Modified { .. } => s.modified += 1,
                Verdict::Inaccessible { .. } => s.inaccessible += 1,
                Verdict::Unavailable { .. } => s.unavailable += 1,
                Verdict::Inconclusive { .. } => s.inconclusive += 1,
            }
        }
        s
    }

    /// Fraction of tested URLs blocked (0 when nothing was tested).
    pub fn block_rate(&self) -> f64 {
        if self.tested == 0 {
            0.0
        } else {
            self.blocked as f64 / self.tested as f64
        }
    }
}

/// Export verdicts as CSV (`url,verdict,product,detail`). Fields are
/// quoted when they contain commas or quotes.
pub fn to_csv(verdicts: &[UrlVerdict]) -> String {
    let mut out = String::from("url,verdict,product,detail\n");
    for v in verdicts {
        let detail = match &v.verdict {
            Verdict::Accessible => String::new(),
            Verdict::Blocked(m) => m.evidence.clone(),
            Verdict::Modified { similarity } => format!("similarity={similarity:.2}"),
            Verdict::Inaccessible { field_error } => field_error.clone(),
            Verdict::Unavailable { lab_error } => lab_error.clone(),
            Verdict::Inconclusive { reason } => reason.clone(),
        };
        out.push_str(&format!(
            "{},{},{},{}\n",
            csv_escape(&v.url),
            v.verdict.kind().to_token(),
            csv_escape(v.verdict.blocked_by().unwrap_or_default()),
            csv_escape(&detail)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockpage::BlockMatch;

    fn verdicts() -> Vec<UrlVerdict> {
        vec![
            UrlVerdict {
                url: "http://a.example/".into(),
                verdict: Verdict::Accessible,
            },
            UrlVerdict {
                url: "http://b.example/".into(),
                verdict: Verdict::Blocked(BlockMatch {
                    product: Some("netsweeper".into()),
                    evidence: "sig, with comma".into(),
                }),
            },
            UrlVerdict {
                url: "http://c.example/".into(),
                verdict: Verdict::Blocked(BlockMatch {
                    product: None,
                    evidence: "generic".into(),
                }),
            },
            UrlVerdict {
                url: "http://d.example/".into(),
                verdict: Verdict::Inaccessible {
                    field_error: "timeout".into(),
                },
            },
            UrlVerdict {
                url: "http://e.example/".into(),
                verdict: Verdict::Unavailable {
                    lab_error: "dns-failure".into(),
                },
            },
            UrlVerdict {
                url: "http://f.example/".into(),
                verdict: Verdict::Inconclusive {
                    reason: "no quorum (1/3 best)".into(),
                },
            },
        ]
    }

    #[test]
    fn summary_counts() {
        let s = RunSummary::from_verdicts(&verdicts());
        assert_eq!(s.tested, 6);
        assert_eq!(s.accessible, 1);
        assert_eq!(s.blocked, 2);
        assert_eq!(s.inaccessible, 1);
        assert_eq!(s.unavailable, 1);
        assert_eq!(s.inconclusive, 1);
        assert_eq!(s.by_product["netsweeper"], 1);
        assert_eq!(s.by_product["(unattributed)"], 1);
        assert!((s.block_rate() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary() {
        let s = RunSummary::from_verdicts(&[]);
        assert_eq!(s.block_rate(), 0.0);
        assert_eq!(s.tested, 0);
    }

    #[test]
    fn csv_escapes_and_structures() {
        let csv = to_csv(&verdicts());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[0], "url,verdict,product,detail");
        assert!(lines[2].contains("netsweeper"));
        assert!(lines[2].contains("\"sig, with comma\""));
        assert!(lines[4].contains("inaccessible"));
        assert!(lines[6].contains("inconclusive"));
        assert!(lines[6].contains("no quorum"));
        // Every row has exactly four columns after unquoting logic:
        // quick check via the simple rows.
        assert_eq!(lines[1].split(',').count(), 4);
    }
}
