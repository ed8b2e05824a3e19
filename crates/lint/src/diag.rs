//! Diagnostics: severity, stable fingerprints, text and JSON output.

use std::fmt;

/// How bad a finding is. Severity orders `Error > Warning > Info`;
/// baseline gating treats all three identically (any unbaselined
/// finding fails), severity exists so humans can triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule slug, e.g. `d1-wall-clock`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Enclosing function name, if the finding sits inside one.
    pub function: Option<String>,
    /// Short, stable *kind* of the finding (no line numbers, no
    /// free-form detail) — the unit the baseline counts.
    pub kind: String,
    /// Human-readable explanation with remediation advice.
    pub message: String,
}

/// FNV-1a over `data`, truncated to 32 bits — the self-check digest
/// carried by v2 fingerprints. Not cryptographic; it only has to make
/// hand-edited or stale baseline lines detectably wrong.
pub fn fnv1a32(data: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in data.as_bytes() {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl Diagnostic {
    /// The stable identity used for baselining (v2): everything except
    /// the line number (lines churn on unrelated edits) and prose
    /// message, closed with an FNV-1a self-digest of the other fields.
    /// The function field is the *qualified* name (`Type::fn`).
    pub fn fingerprint(&self) -> String {
        let head = format!(
            "{}\t{}\t{}\t{}",
            self.rule,
            self.file,
            self.function.as_deref().unwrap_or("-"),
            self.kind
        );
        format!("{head}\t@{:08x}", fnv1a32(&head))
    }

    /// The v1 (PR 5) fingerprint this finding would have carried: bare
    /// function name, no digest. `--migrate-baseline` maps old lines
    /// onto current findings through this.
    pub fn legacy_fingerprint(&self) -> String {
        let bare = self
            .function
            .as_deref()
            .map(|q| q.rsplit("::").next().unwrap_or(q))
            .unwrap_or("-");
        format!("{}\t{}\t{}\t{}", self.rule, self.file, bare, self.kind)
    }

    /// One-line text rendering.
    pub fn render_text(&self) -> String {
        format!(
            "{}: {} [{}] {}:{}{} — {}",
            self.severity,
            self.rule,
            self.kind,
            self.file,
            self.line,
            self.function
                .as_deref()
                .map(|f| format!(" (fn {f})"))
                .unwrap_or_default(),
            self.message
        )
    }
}

/// Sort diagnostics into the canonical report order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.kind.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.kind.as_str(),
        ))
    });
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings (and optional baseline drift) as a stable JSON
/// document. Hand-rolled: the workspace vendors no serde.
pub fn render_json(diags: &[Diagnostic], drift: Option<&crate::baseline::Drift>) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"function\": {}, \"kind\": \"{}\", \"message\": \"{}\"}}{}\n",
            d.rule,
            d.severity,
            json_escape(&d.file),
            d.line,
            d.function
                .as_deref()
                .map(|f| format!("\"{}\"", json_escape(f)))
                .unwrap_or_else(|| "null".to_string()),
            json_escape(&d.kind),
            json_escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let count = |sev: Severity| diags.iter().filter(|d| d.severity == sev).count();
    out.push_str(&format!(
        "  \"counts\": {{\"error\": {}, \"warning\": {}, \"info\": {}}}",
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Info)
    ));
    if let Some(drift) = drift {
        let render_list = |entries: &[(String, usize)]| {
            entries
                .iter()
                .map(|(fp, n)| format!("{{\"id\": \"{}\", \"count\": {}}}", json_escape(fp), n))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            ",\n  \"baseline\": {{\"new\": [{}], \"stale\": [{}]}}",
            render_list(&drift.new),
            render_list(&drift.stale)
        ));
    }
    out.push_str("\n}\n");
    out
}

/// Every rule the analyzer can emit, with the short description SARIF
/// carries in `tool.driver.rules`.
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    (
        "d1-wall-clock",
        "Wall-clock read outside the telemetry --wall path",
    ),
    ("d1-unseeded-rng", "RNG constructed from ambient entropy"),
    (
        "d1-env-read",
        "Environment variable read outside the registered allowlist",
    ),
    (
        "d1-thread-spawn",
        "Thread spawn without an ordered-merge marker or sort",
    ),
    (
        "d2-map-order",
        "Hash-container iteration order reaching rendered output",
    ),
    ("p1-panic", "Panic-prone call in library code"),
    ("h1-hot-alloc", "Allocation inside a loop on a hot path"),
    ("t1-sim-time", "Virtual-time hygiene violation"),
    (
        "c1-spawn-merge",
        "Spawn without a call-graph path to an ordered-merge helper",
    ),
];

/// SARIF severity level for a finding.
fn sarif_level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Render findings as a SARIF 2.1.0 document (one run, one tool).
/// Hand-rolled JSON like [`render_json`]; `partialFingerprints`
/// carries the v2 baseline fingerprint so CI code-scanning dedups
/// findings across runs the same way the baseline does.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"filterwatch-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/filterwatch\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULE_DESCRIPTIONS.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            json_escape(id),
            json_escape(desc),
            if i + 1 < RULE_DESCRIPTIONS.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}], \
             \"partialFingerprints\": {{\"filterwatchFingerprint/v2\": \"{}\"}}}}{}\n",
            json_escape(d.rule),
            sarif_level(d.severity),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line.max(1),
            json_escape(&d.fingerprint()),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "p1-panic",
            severity: Severity::Warning,
            file: "crates/x/src/lib.rs".into(),
            line: 12,
            function: Some("parse".into()),
            kind: "unwrap".into(),
            message: "`.unwrap()` in library code".into(),
        }
    }

    #[test]
    fn fingerprint_excludes_line_and_carries_digest() {
        let mut d = diag();
        let fp = d.fingerprint();
        d.line = 99;
        assert_eq!(d.fingerprint(), fp);
        let head = "p1-panic\tcrates/x/src/lib.rs\tparse\tunwrap";
        assert_eq!(fp, format!("{head}\t@{:08x}", fnv1a32(head)));
    }

    #[test]
    fn legacy_fingerprint_uses_bare_function_name() {
        let mut d = diag();
        d.function = Some("Parser::parse".into());
        assert_eq!(
            d.legacy_fingerprint(),
            "p1-panic\tcrates/x/src/lib.rs\tparse\tunwrap"
        );
    }

    #[test]
    fn sarif_carries_results_and_rules() {
        let s = render_sarif(&[diag()]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"p1-panic\""));
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("filterwatchFingerprint/v2"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_renders_null_function() {
        let mut d = diag();
        d.function = None;
        let json = render_json(&[d], None);
        assert!(json.contains("\"function\": null"));
        assert!(json.contains("\"counts\": {\"error\": 0, \"warning\": 1, \"info\": 0}"));
    }
}
