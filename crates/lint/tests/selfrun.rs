//! Workspace self-run: linting the repo must match the checked-in
//! baseline *exactly* — no unbaselined findings, no stale entries.
//!
//! A new finding means fix it or (deliberately) accept it; a stale
//! entry means the underlying finding was fixed and the baseline must
//! shed the line. Either way:
//! `cargo run -p filterwatch-lint -- --write-baseline`.

use filterwatch_lint::{
    find_workspace_root, lint_workspace, Baseline, Config, Severity, DEFAULT_BASELINE_PATH,
};
use std::path::Path;

fn workspace_diags() -> Vec<filterwatch_lint::Diagnostic> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest).expect("workspace root above crates/lint");
    lint_workspace(&root, &Config::workspace_default()).expect("scan workspace")
}

#[test]
fn workspace_matches_baseline_exactly() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest).expect("workspace root above crates/lint");
    let text = std::fs::read_to_string(root.join(DEFAULT_BASELINE_PATH)).expect("read baseline");
    let baseline = Baseline::parse(&text).expect("parse baseline");
    let drift = baseline.drift(&workspace_diags());
    assert!(
        drift.is_empty(),
        "lint baseline drift — new: {:?}; stale: {:?}\n\
         fix the findings or run `cargo run -p filterwatch-lint -- --write-baseline`",
        drift.new,
        drift.stale
    );
}

#[test]
fn workspace_has_no_error_severity_findings() {
    // Errors (wall clocks, entropy, unmerged spawns) must be fixed,
    // not baselined: the baseline currently accepts only warnings and
    // info, and this test keeps it that way.
    let errors: Vec<String> = workspace_diags()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.render_text())
        .collect();
    assert!(errors.is_empty(), "error-severity findings: {errors:#?}");
}
