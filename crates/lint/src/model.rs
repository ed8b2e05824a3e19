//! Structural model of one source file, built from the token stream.
//!
//! Rules need just enough structure to be precise: which function a
//! token belongs to (for baselining and dataflow-lite), which impl
//! block a function sits in (for qualified names), which regions
//! are test code (excluded from most rules), and which lines carry
//! suppression directives.

use crate::lex::{lex, Comment, Tok, TokKind};

/// How a file participates in the build — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileCtx {
    /// Library code: all rules apply.
    Lib,
    /// Integration tests / benches: panic hygiene and wall-clock rules
    /// are relaxed.
    Test,
    /// Binaries and examples: panic hygiene is relaxed (a CLI may die
    /// loudly), determinism rules still apply.
    Bin,
}

/// One function item: name, enclosing impl type, token/body extent.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Self type of the enclosing `impl` block, if any (`impl Foo` and
    /// `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// Index of the token *after* the opening `{` of the body.
    pub body_start: usize,
    /// Index of the closing `}` token of the body.
    pub body_end: usize,
    /// Token range of the signature (from `fn` to the body `{`).
    pub sig_start: usize,
    pub line: u32,
    pub end_line: u32,
}

impl FnInfo {
    /// `Type::name` for impl methods, bare `name` for free functions —
    /// the form diagnostics and v2 baseline fingerprints carry.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(ty) => format!("{}::{}", ty, self.name),
            None => self.name.clone(),
        }
    }
}

/// A parsed `// filterwatch-lint: allow(rule, …)` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub line: u32,
    pub rules: Vec<String>,
    /// Last line covered. A trailing comment covers only its own line
    /// (`covers_to == line`); a comment on its own line covers through
    /// the next line that has code tokens, so a directive may span a
    /// multi-line justification comment before the code it shields.
    pub covers_to: u32,
}

/// The analyzed shape of one file.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub ctx: FileCtx,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnInfo>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod` bodies and
    /// `#[test]` functions.
    pub test_ranges: Vec<(u32, u32)>,
    suppressions: Vec<Suppression>,
    /// Rules allowed for the whole file via `allow-file(...)`.
    file_allows: Vec<String>,
}

/// Classify a path into a [`FileCtx`].
pub fn classify_path(path: &str) -> FileCtx {
    let p = path.replace('\\', "/");
    if p.contains("/tests/") || p.starts_with("tests/") || p.contains("/benches/") {
        FileCtx::Test
    } else if p.contains("/examples/")
        || p.starts_with("examples/")
        || p.contains("/bin/")
        || p.ends_with("/main.rs")
        || p.ends_with("build.rs")
    {
        FileCtx::Bin
    } else {
        FileCtx::Lib
    }
}

impl FileModel {
    /// Lex and model `src`. `path` is used for context classification
    /// and diagnostics only; nothing is read from disk.
    pub fn parse(path: &str, src: &str) -> FileModel {
        let ctx = classify_path(path);
        let (toks, comments) = lex(src);
        let fns = collect_fns(&toks);
        let test_ranges = collect_test_ranges(&toks);
        let (suppressions, file_allows) = collect_suppressions(&toks, &comments);
        FileModel {
            path: path.replace('\\', "/"),
            ctx,
            toks,
            comments,
            fns,
            test_ranges,
            suppressions,
            file_allows,
        }
    }

    /// Is this line inside test code (or is the whole file test code)?
    pub fn in_test(&self, line: u32) -> bool {
        self.ctx == FileCtx::Test
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Is `rule` suppressed at `line` — by a same-line directive, a
    /// directive comment above (possibly spanning a multi-line
    /// justification), or a file-wide `allow-file`?
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        if self.file_allows.iter().any(|r| r == rule) {
            return true;
        }
        self.suppressions
            .iter()
            .any(|s| line >= s.line && line <= s.covers_to && s.rules.iter().any(|r| r == rule))
    }

    /// The innermost function containing token index `ti`, if any.
    pub fn enclosing_fn(&self, ti: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| ti >= f.sig_start && ti <= f.body_end)
            .min_by_key(|f| f.body_end - f.sig_start)
    }

    /// Comments whose start line falls within `[lo, hi]`.
    pub fn comments_in(&self, lo: u32, hi: u32) -> impl Iterator<Item = &Comment> {
        self.comments
            .iter()
            .filter(move |c| c.line >= lo && c.line <= hi)
    }
}

/// Find the matching `}` for the `{` at `open` (token index).
/// Returns the index of the closing brace, or the last token index if
/// unbalanced.
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Extract the self-type name from the token slice between `impl` and
/// the opening `{`: the last top-level (not inside `<…>`) identifier,
/// taken after `for` when present.
fn impl_self_type(header: &[Tok]) -> Option<String> {
    let slice = match header.iter().rposition(|t| t.is_ident("for")) {
        Some(pos) => &header[pos + 1..],
        None => header,
    };
    let mut angle = 0i64;
    let mut last = None;
    for t in slice {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.kind == TokKind::Ident {
            last = Some(t.text.clone());
        }
    }
    last
}

fn collect_fns(toks: &[Tok]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    // Stack of (impl type, brace token index of the impl body).
    let mut impl_stack: Vec<(Option<String>, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if impl_stack.last().is_some_and(|(_, close)| i > *close) {
            impl_stack.pop();
            continue;
        }
        if t.is_ident("impl") {
            // Collect header up to the opening brace (or `;` for
            // `impl Trait for Type;`-style nonsense we just skip).
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let ty = impl_self_type(&toks[i + 1..j]);
                let close = match_brace(toks, j);
                impl_stack.push((ty, close));
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Find the body `{`; a `;` first means no body (trait decl).
            let mut j = i + 2;
            let mut angle = 0i64;
            while j < toks.len() {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') {
                    angle -= 1;
                } else if (toks[j].is_punct('{') || toks[j].is_punct(';')) && angle <= 0 {
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let close = match_brace(toks, j);
                let impl_type = impl_stack.last().and_then(|(ty, _)| ty.clone());
                fns.push(FnInfo {
                    name,
                    impl_type,
                    body_start: j + 1,
                    body_end: close,
                    sig_start: i,
                    line,
                    end_line: toks[close].line,
                });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// Line ranges of `#[cfg(test)] mod … { … }` bodies and `#[test] fn`s.
fn collect_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') || i + 1 >= toks.len() || !toks[i + 1].is_punct('[') {
            i += 1;
            continue;
        }
        // Scan the attribute body for the ident `test`.
        let mut j = i + 2;
        let mut depth = 1i64;
        let mut is_test_attr = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            } else if toks[j].is_ident("test") {
                is_test_attr = true;
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further stacked attributes, then look for mod/fn.
        let mut k = j;
        while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
            let mut d = 1i64;
            k += 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct('[') {
                    d += 1;
                } else if toks[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        // Accept `pub`/visibility/`async`/ident noise before mod/fn.
        let mut m = k;
        while m < toks.len()
            && !toks[m].is_ident("mod")
            && !toks[m].is_ident("fn")
            && !toks[m].is_punct('{')
            && !toks[m].is_punct(';')
            && m - k < 12
        {
            m += 1;
        }
        if m < toks.len() && (toks[m].is_ident("mod") || toks[m].is_ident("fn")) {
            // Find the opening brace of the item.
            let mut b = m + 1;
            while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
                b += 1;
            }
            if b < toks.len() && toks[b].is_punct('{') {
                let close = match_brace(toks, b);
                ranges.push((toks[i].line, toks[close].line));
            }
        }
        i = j;
    }
    ranges
}

/// The directive prefix recognized in comments.
const DIRECTIVE: &str = "filterwatch-lint:";

fn parse_rule_list(s: &str) -> Option<(Vec<String>, &str)> {
    let open = s.find('(')?;
    let close = s[open..].find(')')? + open;
    let rules = s[open + 1..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    Some((rules, &s[close + 1..]))
}

fn collect_suppressions(toks: &[Tok], comments: &[Comment]) -> (Vec<Suppression>, Vec<String>) {
    use std::collections::BTreeSet;
    let token_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let mut sups = Vec::new();
    let mut file_allows = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find(DIRECTIVE) else {
            continue;
        };
        let rest = c.text[pos + DIRECTIVE.len()..].trim_start();
        if let Some(body) = rest.strip_prefix("allow-file") {
            if let Some((rules, _)) = parse_rule_list(body) {
                file_allows.extend(rules);
            }
        } else if let Some(body) = rest.strip_prefix("allow") {
            if let Some((rules, _)) = parse_rule_list(body) {
                let covers_to = if token_lines.contains(&c.line) {
                    c.line // trailing comment: own line only
                } else {
                    // Own-line comment: cover through the next code line.
                    token_lines
                        .range(c.line + 1..)
                        .next()
                        .copied()
                        .unwrap_or(c.line)
                };
                sups.push(Suppression {
                    line: c.line,
                    rules,
                    covers_to,
                });
            }
        }
    }
    (sups, file_allows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub struct Foo;

impl Foo {
    pub fn alpha(&self) -> u32 {
        self.beta()
    }
    fn beta(&self) -> u32 { 7 }
}

impl std::fmt::Display for Foo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "foo")
    }
}

fn free() {}

#[cfg(test)]
mod tests {
    #[test]
    fn in_test_mod() {}
}
"#;

    #[test]
    fn functions_and_impl_types() {
        let m = FileModel::parse("crates/x/src/lib.rs", SRC);
        let names: Vec<(&str, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert!(names.contains(&("alpha", Some("Foo"))));
        assert!(names.contains(&("beta", Some("Foo"))));
        assert!(names.contains(&("fmt", Some("Foo"))));
        assert!(names.contains(&("free", None)));
    }

    #[test]
    fn test_ranges_cover_cfg_test_mod() {
        let m = FileModel::parse("crates/x/src/lib.rs", SRC);
        let in_test_fn = m.fns.iter().find(|f| f.name == "in_test_mod").unwrap();
        assert!(m.in_test(in_test_fn.line));
        let alpha = m.fns.iter().find(|f| f.name == "alpha").unwrap();
        assert!(!m.in_test(alpha.line));
    }

    #[test]
    fn suppressions_apply_to_same_and_next_line() {
        let src = "\
// filterwatch-lint: allow(p1-panic): startup cannot fail\n\
fn a() { x.unwrap(); }\n\
fn b() { y.unwrap(); } // filterwatch-lint: allow(p1-panic, d1-wall-clock)\n\
fn c() { z.unwrap(); }\n";
        let m = FileModel::parse("crates/x/src/lib.rs", src);
        assert!(m.suppressed("p1-panic", 2));
        assert!(m.suppressed("p1-panic", 3));
        assert!(m.suppressed("d1-wall-clock", 3));
        assert!(!m.suppressed("p1-panic", 4));
    }

    #[test]
    fn suppression_spans_multi_line_justification() {
        let src = "\
// filterwatch-lint: allow(d1-wall-clock): wall timings feed the\n\
// --wall telemetry path only, never stable output.\n\
fn a() { let t = now(); }\n\
fn b() { let t = now(); }\n";
        let m = FileModel::parse("crates/x/src/lib.rs", src);
        assert!(m.suppressed("d1-wall-clock", 3));
        assert!(!m.suppressed("d1-wall-clock", 4));
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// filterwatch-lint: allow-file(p1-panic): demo crate\nfn a() {}\n";
        let m = FileModel::parse("crates/x/src/lib.rs", src);
        assert!(m.suppressed("p1-panic", 999));
    }

    #[test]
    fn path_classification() {
        assert_eq!(classify_path("crates/x/src/lib.rs"), FileCtx::Lib);
        assert_eq!(classify_path("crates/x/tests/t.rs"), FileCtx::Test);
        assert_eq!(classify_path("tests/end_to_end.rs"), FileCtx::Test);
        assert_eq!(classify_path("examples/quickstart.rs"), FileCtx::Bin);
        assert_eq!(classify_path("crates/x/src/bin/tool.rs"), FileCtx::Bin);
        assert_eq!(classify_path("crates/x/src/main.rs"), FileCtx::Bin);
    }
}
