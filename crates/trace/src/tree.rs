//! Span-tree reconstruction and rendering.
//!
//! The event log is flat and its line order is incidental (completion
//! order when it comes from a live collector, arbitrary after any
//! merge/sort of persisted logs). Reconstruction depends only on event
//! *content*: trees are rebuilt from parent links, children ordered by
//! `(start time, span ordinal)` — so any permutation of the same lines
//! yields an identical forest, byte for byte. The one exception is a
//! `(trace, span)` that appears on two lines: the later line wins.
//!
//! The forest borrows the log instead of copying it. Each tree holds
//! its events as one vector of references sorted by span id, and its
//! child lists as one flat array of node positions with a start offset
//! per node. Renderers append into a caller's buffer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::ids::{SpanId, TraceId};
use filterwatch_telemetry::write_vtime;

/// One reconstructed trace, borrowing its events from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree<'a> {
    trace: TraceId,
    /// Every event in the trace, sorted by span id, one per span.
    nodes: Vec<&'a TraceEvent>,
    /// Node `i`'s children are `kids[kid_start[i]..kid_start[i + 1]]`.
    kid_start: Vec<usize>,
    /// Child positions, grouped by parent, each group ordered by
    /// `(at_secs, span)`.
    kids: Vec<usize>,
    /// Positions of spans with no (present) parent, ordered by
    /// `(at_secs, span)`.
    roots: Vec<usize>,
}

/// Every trace in a log, ordered by trace id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest<'a> {
    trees: Vec<SpanTree<'a>>,
}

impl<'a> Forest<'a> {
    /// The traces, ordered by trace id.
    pub fn trees(&self) -> &[SpanTree<'a>] {
        &self.trees
    }
}

/// Rebuild every trace in `events` from parent links alone.
pub fn build_forest(events: &[TraceEvent]) -> Forest<'_> {
    let mut lines: Vec<&TraceEvent> = events.iter().collect();
    // Stable, so lines sharing a `(trace, span)` stay in log order...
    lines.sort_by_key(|e| (e.trace, e.span));
    // ...and the later of them replaces the one kept.
    lines.dedup_by(|later, kept| {
        let repeat = (later.trace, later.span) == (kept.trace, kept.span);
        if repeat {
            *kept = *later;
        }
        repeat
    });
    // Each trace is now one run of the sorted lines.
    let mut trees = Vec::new();
    let mut rest = &lines[..];
    while let Some(first) = rest.first() {
        let (run, tail) = rest.split_at(rest.partition_point(|e| e.trace == first.trace));
        trees.push(SpanTree::link(first.trace, run.to_vec()));
        rest = tail;
    }
    Forest { trees }
}

impl<'a> SpanTree<'a> {
    /// Link one trace's events, sorted by span id without repeats.
    fn link(trace: TraceId, nodes: Vec<&'a TraceEvent>) -> SpanTree<'a> {
        // A parent missing from the log (e.g. a truncated log, or a
        // span still open when it was taken) degrades gracefully to a
        // root.
        let parents: Vec<Option<usize>> = nodes
            .iter()
            .map(|e| e.parent.and_then(|p| position(&nodes, p)))
            .collect();
        // Count each node's children, then turn the counts into offsets.
        let mut kid_start = vec![0; nodes.len() + 1];
        for &p in parents.iter().flatten() {
            kid_start[p + 1] += 1;
        }
        for at in 1..kid_start.len() {
            kid_start[at] += kid_start[at - 1];
        }
        // Fill every group in span order, then sort each stably by
        // start time: `(at_secs, span)` order.
        let mut next = kid_start.clone();
        let mut kids = vec![0; kid_start[nodes.len()]];
        let mut roots = Vec::new();
        for (at, parent) in parents.into_iter().enumerate() {
            match parent {
                Some(p) => {
                    kids[next[p]] = at;
                    next[p] += 1;
                }
                None => roots.push(at),
            }
        }
        let by_start = |&at: &usize| nodes[at].at_secs;
        roots.sort_by_key(by_start);
        for group in kid_start.windows(2) {
            kids[group[0]..group[1]].sort_by_key(by_start);
        }
        SpanTree {
            trace,
            nodes,
            kid_start,
            kids,
            roots,
        }
    }

    /// Trace these spans belong to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Every event in the trace, sorted by span id.
    pub fn nodes(&self) -> &[&'a TraceEvent] {
        &self.nodes
    }

    /// The event recorded for `span`, if the log holds one.
    pub fn node(&self, span: SpanId) -> Option<&'a TraceEvent> {
        self.position(span).map(|at| self.nodes[at])
    }

    /// Events with no (present) parent, ordered by `(at_secs, span)`.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = &'a TraceEvent> + '_ {
        self.roots.iter().map(|&at| self.nodes[at])
    }

    /// Children of `span`, ordered by `(at_secs, span)`.
    pub fn children(&self, span: SpanId) -> impl Iterator<Item = &'a TraceEvent> + '_ {
        let kids = self.position(span).map_or(&[][..], |at| self.kids_of(at));
        kids.iter().map(|&kid| self.nodes[kid])
    }

    fn position(&self, span: SpanId) -> Option<usize> {
        position(&self.nodes, span)
    }

    fn kids_of(&self, at: usize) -> &[usize] {
        &self.kids[self.kid_start[at]..self.kid_start[at + 1]]
    }

    /// Events from a root down to `span` (inclusive). Cycles or
    /// dangling links terminate the walk instead of looping.
    pub fn ancestry(&self, span: SpanId) -> Vec<&'a TraceEvent> {
        let mut path: Vec<&'a TraceEvent> = self.node(span).into_iter().collect();
        while let Some(parent) = path
            .last()
            .and_then(|e| e.parent)
            .and_then(|p| self.node(p))
            .filter(|p| !path.iter().any(|e| e.span == p.span))
        {
            path.push(parent);
        }
        path.reverse();
        path
    }

    /// Append the subtree rooted at `span`, indented two spaces per
    /// level starting from `depth`.
    ///
    /// The walk keeps an explicit stack. Each node has one parent, so a
    /// walk can come back to a node only by going round a parent cycle
    /// to its start; never pushing the start as a child ends every walk.
    pub fn write_subtree(&self, out: &mut String, span: SpanId, depth: usize) {
        let Some(start) = self.position(span) else {
            return;
        };
        let mut stack = vec![(start, depth)];
        while let Some((at, depth)) = stack.pop() {
            write_node_line(out, self.nodes[at], depth);
            // Reversed, so the earliest child pops first.
            let kids = self.kids_of(at).iter().rev();
            stack.extend(
                kids.filter(|&&kid| kid != start)
                    .map(|&kid| (kid, depth + 1)),
            );
        }
    }
}

/// Position of `span` in `nodes` (sorted by span id, no repeats). The
/// collector numbers a trace's spans densely from 1, so the span's own
/// slot is tried before searching.
fn position(nodes: &[&TraceEvent], span: SpanId) -> Option<usize> {
    let slot = usize::try_from(span.0).ok().and_then(|n| n.checked_sub(1));
    match slot.filter(|&at| nodes.get(at).is_some_and(|e| e.span == span)) {
        Some(at) => Some(at),
        None => nodes.binary_search_by_key(&span, |e| e.span).ok(),
    }
}

/// Append one node as a stable text line,
/// `s<n> <token> @<vtime> [+<dur>s] k=v…`, indented two spaces per
/// `depth`. Control characters in a value collapse to spaces so one
/// event stays one line of text.
pub fn write_node_line(out: &mut String, event: &TraceEvent, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{} {} @", event.span, event.step.to_token());
    let _ = write_vtime(out, event.at_secs);
    if event.end_secs > event.at_secs {
        let _ = write!(out, " +{}s", event.duration_secs());
    }
    for (k, v) in event.fields.iter() {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        if v.contains(['\t', '\n', '\r']) {
            out.extend(v.chars().map(|c| match c {
                '\t' | '\n' | '\r' => ' ',
                c => c,
            }));
        } else {
            out.push_str(v);
        }
    }
    out.push('\n');
}

/// Render the whole forest (every trace, every root) as stable text.
pub fn render_forest(forest: &Forest<'_>) -> String {
    let mut out = String::new();
    for tree in &forest.trees {
        let _ = writeln!(out, "trace {}", tree.trace);
        for root in tree.roots() {
            tree.write_subtree(&mut out, root.span, 1);
        }
    }
    out
}

/// Aggregate rollup of a forest by step-token path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Number of spans at this path.
    pub count: u64,
    /// Total virtual seconds across those spans.
    pub total_secs: u64,
    /// Virtual seconds not covered by child spans.
    pub self_secs: u64,
}

/// Roll the forest up into per-path totals: a path is the `/`-joined
/// step tokens from the root (`campaign/case/url-test/fetch`). Self
/// time is the span's duration minus its children's, clamped at zero
/// (concurrent children may overlap the parent entirely).
pub fn profile(forest: &Forest<'_>) -> BTreeMap<String, ProfileEntry> {
    let mut out: BTreeMap<String, ProfileEntry> = BTreeMap::new();
    for tree in &forest.trees {
        for &root in &tree.roots {
            profile_node(tree, root, "", &mut out);
        }
    }
    out
}

/// Roll up the node at `at` and its subtree. Recursion is safe here: a
/// node reached from a root is never on a parent cycle.
fn profile_node(
    tree: &SpanTree<'_>,
    at: usize,
    prefix: &str,
    out: &mut BTreeMap<String, ProfileEntry>,
) {
    let event = tree.nodes[at];
    let path = if prefix.is_empty() {
        event.step.to_token().to_string()
    } else {
        format!("{prefix}/{}", event.step.to_token())
    };
    let kids = tree.kids_of(at);
    let child_secs: u64 = kids
        .iter()
        .map(|&kid| tree.nodes[kid].duration_secs())
        .sum();
    let total = event.duration_secs();
    let entry = out.entry(path.clone()).or_default();
    entry.count += 1;
    entry.total_secs += total;
    entry.self_secs += total.saturating_sub(child_secs);
    for &kid in kids {
        profile_node(tree, kid, &path, out);
    }
}

/// Render the [`profile`] rollup as an aligned, byte-stable table.
pub fn render_profile(events: &[TraceEvent]) -> String {
    let forest = build_forest(events);
    let rollup = profile(&forest);
    let path_width = rollup
        .keys()
        .map(|p| p.len())
        .chain(std::iter::once("path".len()))
        .max()
        .unwrap_or(4);
    let mut out = format!(
        "{:<path_width$}  {:>8}  {:>12}  {:>12}\n",
        "path", "count", "total-vsecs", "self-vsecs"
    );
    for (path, entry) in &rollup {
        out.push_str(&format!(
            "{path:<path_width$}  {:>8}  {:>12}  {:>12}\n",
            entry.count, entry.total_secs, entry.self_secs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepKind;
    use filterwatch_telemetry::Fields;

    fn ev(span: u32, parent: Option<u32>, at: u64, end: u64, step: StepKind) -> TraceEvent {
        TraceEvent {
            trace: TraceId(1),
            span: SpanId(span),
            parent: parent.map(SpanId),
            at_secs: at,
            end_secs: end,
            step,
            fields: Fields::new(),
        }
    }

    fn sample_log() -> Vec<TraceEvent> {
        vec![
            ev(1, None, 0, 100, StepKind::Campaign),
            ev(2, Some(1), 0, 40, StepKind::UrlTest),
            ev(3, Some(2), 0, 10, StepKind::Fetch),
            ev(4, Some(2), 10, 40, StepKind::Fetch),
            ev(5, Some(1), 40, 90, StepKind::UrlTest),
        ]
    }

    #[test]
    fn forest_is_permutation_invariant() {
        let mut log = sample_log();
        let baseline = render_forest(&build_forest(&log));
        log.reverse();
        assert_eq!(render_forest(&build_forest(&log)), baseline);
        log.rotate_left(2);
        assert_eq!(render_forest(&build_forest(&log)), baseline);
    }

    fn spans<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> Vec<SpanId> {
        events.map(|e| e.span).collect()
    }

    #[test]
    fn children_sort_by_time_then_span() {
        let log = sample_log();
        let forest = build_forest(&log);
        let tree = &forest.trees()[0];
        assert_eq!(spans(tree.roots()), vec![SpanId(1)]);
        assert_eq!(spans(tree.children(SpanId(1))), vec![SpanId(2), SpanId(5)]);
        assert_eq!(spans(tree.children(SpanId(2))), vec![SpanId(3), SpanId(4)]);
        assert_eq!(spans(tree.children(SpanId(3))), vec![]);
        assert_eq!(spans(tree.children(SpanId(9))), vec![]);
    }

    #[test]
    fn missing_parent_degrades_to_root() {
        let log = vec![ev(7, Some(3), 5, 6, StepKind::Fetch)];
        let forest = build_forest(&log);
        assert_eq!(spans(forest.trees()[0].roots()), vec![SpanId(7)]);
    }

    #[test]
    fn repeated_span_keeps_the_later_line() {
        let first = ev(2, Some(1), 0, 1, StepKind::Dns);
        let mut second = ev(2, Some(1), 5, 9, StepKind::Fetch);
        second.fields.push("try", &2);
        let root = ev(1, None, 0, 10, StepKind::Campaign);
        let head = "trace t0000000000000001\n  s1 campaign @day 0 00:00:00 +10s\n";
        let log = vec![first.clone(), root.clone(), second.clone()];
        assert_eq!(
            render_forest(&build_forest(&log)),
            format!("{head}    s2 fetch @day 0 00:00:05 +4s try=2\n")
        );
        let log = vec![second, root, first];
        assert_eq!(
            render_forest(&build_forest(&log)),
            format!("{head}    s2 dns @day 0 00:00:00 +1s\n")
        );
    }

    #[test]
    fn ancestry_walks_to_the_root() {
        let log = sample_log();
        let forest = build_forest(&log);
        let tree = &forest.trees()[0];
        assert_eq!(
            spans(tree.ancestry(SpanId(4)).into_iter()),
            vec![SpanId(1), SpanId(2), SpanId(4)]
        );
        assert_eq!(spans(tree.ancestry(SpanId(1)).into_iter()), vec![SpanId(1)]);
    }

    #[test]
    fn profile_rolls_up_self_and_total() {
        let log = sample_log();
        let rollup = profile(&build_forest(&log));
        let campaign = &rollup["campaign"];
        assert_eq!((campaign.count, campaign.total_secs), (1, 100));
        // 100 total minus url-test children (40 + 50).
        assert_eq!(campaign.self_secs, 10);
        let fetches = &rollup["campaign/url-test/fetch"];
        assert_eq!((fetches.count, fetches.total_secs), (2, 40));
        let tests = &rollup["campaign/url-test"];
        assert_eq!(tests.self_secs, 90 - 40);
    }

    #[test]
    fn node_line_collapses_control_chars() {
        let mut e = ev(1, None, 3_661, 3_661, StepKind::Dns);
        e.fields.push("host", "a\tb\nc");
        let mut line = String::new();
        write_node_line(&mut line, &e, 1);
        assert_eq!(line, "  s1 dns @day 0 01:01:01 host=a b c\n");
    }
}
