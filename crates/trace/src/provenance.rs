//! Verdict provenance: query the trace log by URL, vantage or verdict.
//!
//! The index keys on the semantic anchors of a campaign trace —
//! `url-test` spans (by their `url` field), `fetch` spans (by
//! `vantage`) and `verdict` points (by label) — and can render the
//! full causal chain behind any URL's verdict: ancestor context
//! (campaign, case, stage) followed by the complete url-test subtree
//! with its DNS, middlebox hops, fetch attempts, retries, breaker
//! skips, fingerprint matches and quorum decision.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::step::StepKind;
use crate::tree::{build_forest, write_node_line, Forest};

/// A `(tree, node)` position pair into the reconstructed forest. Trees
/// sort by trace id and nodes by span id, so positions sort in
/// `(trace, span)` order.
type NodeAt = (usize, usize);

/// Provenance index over one trace log, borrowing it.
#[derive(Debug, Clone)]
pub struct ProvenanceIndex<'a> {
    forest: Forest<'a>,
    by_url: BTreeMap<&'a str, Vec<NodeAt>>,
    by_vantage: BTreeMap<&'a str, Vec<NodeAt>>,
    by_verdict: BTreeMap<&'a str, Vec<NodeAt>>,
}

impl<'a> ProvenanceIndex<'a> {
    /// Build the index from a flat event log (any line order).
    pub fn build(events: &'a [TraceEvent]) -> ProvenanceIndex<'a> {
        let forest = build_forest(events);
        let mut by_url: BTreeMap<&'a str, Vec<NodeAt>> = BTreeMap::new();
        let mut by_vantage: BTreeMap<&'a str, Vec<NodeAt>> = BTreeMap::new();
        let mut by_verdict: BTreeMap<&'a str, Vec<NodeAt>> = BTreeMap::new();
        for (tree_at, tree) in forest.trees().iter().enumerate() {
            for (at, &event) in tree.nodes().iter().enumerate() {
                let (index, key) = match event.step {
                    StepKind::UrlTest => (&mut by_url, "url"),
                    StepKind::Fetch => (&mut by_vantage, "vantage"),
                    StepKind::Verdict => (&mut by_verdict, "verdict"),
                    _ => continue,
                };
                if let Some(value) = event.field(key) {
                    index.entry(value).or_default().push((tree_at, at));
                }
            }
        }
        ProvenanceIndex {
            forest,
            by_url,
            by_vantage,
            by_verdict,
        }
    }

    /// Every URL with at least one traced test, in sorted order.
    pub fn urls(&self) -> Vec<&'a str> {
        self.by_url.keys().copied().collect()
    }

    /// Every vantage that performed a traced fetch, in sorted order.
    pub fn vantages(&self) -> Vec<&'a str> {
        self.by_vantage.keys().copied().collect()
    }

    /// Every verdict label seen, with occurrence counts, sorted.
    pub fn verdict_counts(&self) -> Vec<(&'a str, usize)> {
        self.by_verdict
            .iter()
            .map(|(&label, keys)| (label, keys.len()))
            .collect()
    }

    /// Number of url-test occurrences for `url`.
    pub fn occurrences(&self, url: &str) -> usize {
        self.by_url.get(url).map(Vec::len).unwrap_or(0)
    }

    /// Render the full causal chain for every test of `url`, or `None`
    /// if the trace never tested it. Byte-stable for a fixed log.
    pub fn explain(&self, url: &str) -> Option<String> {
        let keys = self.by_url.get(url)?;
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = write!(out, "== explain {url} ==\n{} occurrence(s)\n", keys.len());
        for (i, &(tree_at, at)) in keys.iter().enumerate() {
            let tree = &self.forest.trees()[tree_at];
            let span = tree.nodes()[at].span;
            // The first `verdict` point directly under the url-test span
            // (program order = first field wins).
            let verdict = tree
                .children(span)
                .find(|e| e.step == StepKind::Verdict)
                .and_then(|e| e.field("verdict"))
                .unwrap_or("(none recorded)");
            let _ = write!(
                out,
                "\n-- occurrence {} of {}: trace {} span {span} verdict={verdict} --\n",
                i + 1,
                keys.len(),
                tree.trace(),
            );
            let ancestry = tree.ancestry(span);
            let context = &ancestry[..ancestry.len().saturating_sub(1)];
            if !context.is_empty() {
                out.push_str("context:\n");
                for (depth, ancestor) in context.iter().enumerate() {
                    write_node_line(&mut out, ancestor, depth + 1);
                }
            }
            out.push_str("chain:\n");
            tree.write_subtree(&mut out, span, 1);
        }
        Some(out)
    }

    /// One-line-per-key summary of what the index covers.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "provenance: {} url(s), {} vantage(s), {} verdict label(s)\n",
            self.by_url.len(),
            self.by_vantage.len(),
            self.by_verdict.len()
        );
        for (label, count) in self.verdict_counts() {
            out.push_str(&format!("  verdict {label}: {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SpanId, TraceId};

    fn ev(
        span: u32,
        parent: Option<u32>,
        at: u64,
        end: u64,
        step: StepKind,
        fields: &[(&'static str, &str)],
    ) -> TraceEvent {
        TraceEvent {
            trace: TraceId(9),
            span: SpanId(span),
            parent: parent.map(SpanId),
            at_secs: at,
            end_secs: end,
            step,
            fields: fields.iter().copied().collect(),
        }
    }

    fn sample_log() -> Vec<TraceEvent> {
        vec![
            ev(1, None, 0, 50, StepKind::Campaign, &[("seed", "5")]),
            ev(2, Some(1), 0, 30, StepKind::Case, &[("isp", "etisalat")]),
            ev(
                3,
                Some(2),
                0,
                20,
                StepKind::UrlTest,
                &[("url", "http://x.example/")],
            ),
            ev(
                4,
                Some(3),
                0,
                10,
                StepKind::Fetch,
                &[("vantage", "field@etisalat")],
            ),
            ev(
                5,
                Some(3),
                20,
                20,
                StepKind::Verdict,
                &[("verdict", "blocked")],
            ),
        ]
    }

    #[test]
    fn index_keys_on_url_vantage_and_verdict() {
        let log = sample_log();
        let index = ProvenanceIndex::build(&log);
        assert_eq!(index.urls(), vec!["http://x.example/"]);
        assert_eq!(index.vantages(), vec!["field@etisalat"]);
        assert_eq!(index.verdict_counts(), vec![("blocked", 1)]);
        assert_eq!(index.occurrences("http://x.example/"), 1);
        assert_eq!(index.occurrences("http://other/"), 0);
    }

    #[test]
    fn explain_renders_context_and_chain() {
        let log = sample_log();
        let index = ProvenanceIndex::build(&log);
        let text = index.explain("http://x.example/").unwrap();
        assert!(text.starts_with("== explain http://x.example/ ==\n1 occurrence(s)\n"));
        assert!(text.contains("verdict=blocked --"));
        assert!(text.contains("context:\n  s1 campaign @day 0 00:00:00 +50s seed=5\n"));
        assert!(text.contains("    s2 case"));
        assert!(text.contains("chain:\n  s3 url-test"));
        assert!(text.contains("    s4 fetch"));
        assert!(index.explain("http://missing/").is_none());
    }

    #[test]
    fn explain_is_line_order_invariant() {
        let mut log = sample_log();
        let index = ProvenanceIndex::build(&log);
        let baseline = index.explain("http://x.example/").unwrap();
        log.reverse();
        let reversed = ProvenanceIndex::build(&log);
        assert_eq!(reversed.explain("http://x.example/").unwrap(), baseline);
    }

    #[test]
    fn explain_survives_parent_cycles() {
        let log = crate::from_log(
            "t0000000000000001\ts1\ts2\tv0\tv5\turl-test\turl=http://x/\n\
             t0000000000000001\ts2\ts1\tv0\tv5\tfetch\tvantage=field\n\
             t0000000000000001\ts3\ts3\tv0\tv1\turl-test\turl=http://self/\n",
        )
        .unwrap();
        let index = ProvenanceIndex::build(&log);
        assert_eq!(
            index.explain("http://x/").unwrap(),
            "== explain http://x/ ==\n1 occurrence(s)\n\n\
             -- occurrence 1 of 1: trace t0000000000000001 span s1 verdict=(none recorded) --\n\
             context:\n  s2 fetch @day 0 00:00:00 +5s vantage=field\n\
             chain:\n  s1 url-test @day 0 00:00:00 +5s url=http://x/\n\
             \x20   s2 fetch @day 0 00:00:00 +5s vantage=field\n"
        );
        assert_eq!(
            index.explain("http://self/").unwrap(),
            "== explain http://self/ ==\n1 occurrence(s)\n\n\
             -- occurrence 1 of 1: trace t0000000000000001 span s3 verdict=(none recorded) --\n\
             chain:\n  s3 url-test @day 0 00:00:00 +1s url=http://self/\n"
        );
        // No span on a cycle is reachable from a root.
        assert_eq!(
            crate::render_forest(&build_forest(&log)),
            "trace t0000000000000001\n"
        );
        assert!(crate::render_profile(&log).starts_with("path"));
    }

    #[test]
    fn summary_counts_labels() {
        let log = sample_log();
        let index = ProvenanceIndex::build(&log);
        let summary = index.render_summary();
        assert!(summary.contains("1 url(s)"));
        assert!(summary.contains("verdict blocked: 1"));
    }
}
