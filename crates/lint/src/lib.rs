//! # filterwatch-lint
//!
//! A determinism static analysis pass for the whole workspace. Every
//! claim the reproduction makes — the paper-count tables, the
//! metamorphic/differential batteries, the serial==parallel proofs —
//! rests on byte-identical, seed-stable output;
//! this crate catches the *classes* of nondeterminism at build time
//! that dynamic testing only catches on the seeds it happens to run.
//!
//! It is a self-contained scanner (no `syn`, no deps — consistent
//! with the vendored-shim constraint): a token-level lexer and file
//! model ([`lex`], [`model`]) under a *semantic, interprocedural*
//! layer — a module/use-path resolver ([`resolve`]), a resolved
//! cross-crate call graph ([`callgraph`]), and per-function effect
//! summaries propagated to fixpoint ([`summary`]) that the newer rule
//! families (h1, t1, c1) and the d2 render-reachability check
//! consume. Exposed as a library and as the `filterwatch-lint` binary:
//!
//! ```text
//! cargo run -p filterwatch-lint                    # text report + baseline check
//! cargo run -p filterwatch-lint -- --format json   # machine-readable (CI)
//! cargo run -p filterwatch-lint -- --format sarif  # SARIF 2.1.0 (CI annotations)
//! cargo run -p filterwatch-lint -- --write-baseline
//! cargo run -p filterwatch-lint -- --migrate-baseline   # one-shot v1 -> v2
//! ```
//!
//! Rule families: see [`rules`]. Findings are gated by a checked-in
//! baseline ([`baseline`]): accepted findings don't block, new ones
//! (and stale baseline entries) do. Individual sites are discharged
//! with `// filterwatch-lint: allow(<rule>): <why>` on the same line
//! or the line above, or file-wide with `allow-file(<rule>)`.

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod lex;
pub mod model;
pub mod resolve;
pub mod rules;
pub mod summary;

pub use baseline::{Baseline, Drift, DEFAULT_BASELINE_PATH};
pub use diag::{render_json, render_sarif, Diagnostic, Severity};
pub use model::FileModel;
pub use rules::Config;

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: build output, lint fixtures (known-
/// bad by construction), golden snapshots, and VCS internals.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "goldens", ".git", ".github"];

/// Lint a set of in-memory files (`(repo-relative path, source)`).
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::parse(p, s)).collect();
    rules::run_all(&models, cfg)
}

/// Collect the workspace scan set under `root`: every `.rs` file in
/// `crates/`, `tests/` and `examples/`, sorted by path. `shims/` is
/// excluded by default — the vendored stand-ins mirror third-party
/// API surfaces (the criterion shim *must* read the wall clock; that
/// is what a bench harness is for) — but can be opted in.
pub fn collect_workspace_files(
    root: &Path,
    include_shims: bool,
) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut tops = vec!["crates", "tests", "examples"];
    if include_shims {
        tops.push("shims");
    }
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root` with `cfg`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Diagnostic>> {
    let files = collect_workspace_files(root, false)?;
    Ok(lint_files(&files, cfg))
}

/// Find the workspace root: walk up from `start` until a `Cargo.toml`
/// declaring `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        lint_files(
            &[("crates/x/src/lib.rs".to_string(), src.to_string())],
            &Config::workspace_default(),
        )
    }

    #[test]
    fn wall_clock_flagged_and_suppressible() {
        let bad = "fn f() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }";
        let diags = lint_src(bad);
        assert!(diags.iter().any(|d| d.rule == "d1-wall-clock"));
        let ok = "fn f() -> u64 {\n    // filterwatch-lint: allow(d1-wall-clock): --wall path\n    let t = Instant::now(); t.elapsed().as_nanos() as u64\n}";
        let diags = lint_src(ok);
        assert!(!diags.iter().any(|d| d.rule == "d1-wall-clock"));
    }

    #[test]
    fn env_allowlist_is_honored() {
        let ok = r#"fn f() { let _ = std::env::var("FILTERWATCH_SEEDS"); }"#;
        assert!(lint_src(ok).iter().all(|d| d.rule != "d1-env-read"));
        let bad = r#"fn f() { let _ = std::env::var("HOME"); }"#;
        let diags = lint_src(bad);
        assert!(diags
            .iter()
            .any(|d| d.rule == "d1-env-read" && d.kind == "env:HOME"));
    }

    #[test]
    fn env_reads_resolve_consts() {
        let ok = r#"
const UPDATE_ENV: &str = "FILTERWATCH_UPDATE_GOLDENS";
fn f() { let _ = std::env::var(UPDATE_ENV); }
"#;
        assert!(lint_src(ok).iter().all(|d| d.rule != "d1-env-read"));
    }

    #[test]
    fn spawn_needs_ordered_merge() {
        let bad = "fn f(xs: &[u32]) { thread::spawn(|| work(xs)); }";
        assert!(lint_src(bad).iter().any(|d| d.rule == "d1-thread-spawn"));
        let marker = "fn f(xs: &[u32]) {\n    // Ordered merge: chunk order is record order.\n    scope.spawn(|| work(xs));\n}";
        assert!(lint_src(marker).iter().all(|d| d.rule != "d1-thread-spawn"));
        let sorted = "fn f(xs: &mut Vec<u32>) { scope.spawn(|| work()); xs.sort_unstable(); }";
        assert!(lint_src(sorted).iter().all(|d| d.rule != "d1-thread-spawn"));
    }

    #[test]
    fn map_order_needs_render_reach() {
        // Iterating a HashMap inside a render-named fn: flagged.
        let bad = "struct S { m: HashMap<String, u32> }\n\
                   impl S { fn render_rows(&self) -> String { \
                   for (k, v) in &self.m { push(k, v); } out } }";
        let diags = lint_src(bad);
        assert!(diags.iter().any(|d| d.rule == "d2-map-order"));
        // Same iteration, but sorted in-function: clean.
        let ok = "struct S { m: HashMap<String, u32> }\n\
                  impl S { fn render_rows(&self) -> String { \
                  let mut rows: Vec<_> = self.m.iter().collect(); rows.sort(); out } }";
        assert!(lint_src(ok).iter().all(|d| d.rule != "d2-map-order"));
        // Count terminal is order-insensitive: clean.
        let count = "struct S { m: HashMap<String, u32> }\n\
                     impl S { fn render_total(&self) -> usize { self.m.iter().count() } }";
        assert!(lint_src(count).iter().all(|d| d.rule != "d2-map-order"));
        // Not render-reaching and does not escape: clean.
        let private = "struct S { m: HashMap<String, u32> }\n\
                       impl S { fn bump(&mut self) { for (k, v) in &self.m { check(k, v); } } }";
        assert!(lint_src(private).iter().all(|d| d.rule != "d2-map-order"));
    }

    #[test]
    fn panic_hygiene_spares_tests_and_bins() {
        let lib = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint_src(lib).iter().any(|d| d.rule == "p1-panic"));
        let diags = lint_files(
            &[(
                "crates/x/src/main.rs".to_string(),
                "fn main() { run().unwrap(); }".to_string(),
            )],
            &Config::workspace_default(),
        );
        assert!(diags.iter().all(|d| d.rule != "p1-panic"));
        let test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_src(test).iter().all(|d| d.rule != "p1-panic"));
    }

    #[test]
    fn expect_is_info_unwrap_is_warning() {
        let diags = lint_src("fn f(x: Option<u32>) -> u32 { x.expect(\"set in new\") }");
        let d = diags.iter().find(|d| d.rule == "p1-panic").unwrap();
        assert_eq!(d.severity, Severity::Info);
        let diags = lint_src("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        let d = diags.iter().find(|d| d.rule == "p1-panic").unwrap();
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn hot_alloc_flags_loops_reachable_from_hot_entries() {
        // `dispatch` is reachable from the registered hot entry
        // `Internet::run_to_quiescence`; its loop allocates.
        let bad = "impl Internet {\n\
                   pub fn run_to_quiescence(&mut self) { self.dispatch(); }\n\
                   fn dispatch(&mut self) { for h in &self.hops { push(h.name.to_string()); } }\n\
                   }\n";
        let diags = lint_src(bad);
        assert!(diags
            .iter()
            .any(|d| d.rule == "h1-hot-alloc" && d.kind == "alloc:to_string"));
        // The same loop in a function nothing hot reaches: clean.
        let cold = "impl Colder {\n\
                    fn dispatch(&mut self) { for h in &self.hops { push(h.name.to_string()); } }\n\
                    }\n";
        assert!(lint_src(cold).iter().all(|d| d.rule != "h1-hot-alloc"));
    }

    #[test]
    fn hot_alloc_discharges_memoization_and_cold_gates() {
        let memo = "impl Internet {\n\
                    pub fn run_to_quiescence(&mut self) {\n\
                    for h in &self.hops { self.label.get_or_insert_with(|| h.name.to_string()); }\n\
                    }\n}\n";
        assert!(lint_src(memo).iter().all(|d| d.rule != "h1-hot-alloc"));
        let gated = "impl Internet {\n\
                     pub fn run_to_quiescence(&mut self) {\n\
                     for h in &self.hops {\n\
                     if self.log.recording() { self.log.push(format!(\"hop {h}\")); }\n\
                     }\n}\n}\n";
        assert!(lint_src(gated).iter().all(|d| d.rule != "h1-hot-alloc"));
        // `or_insert_with` is per-key, NOT memoized-once: still flagged.
        let per_key = "impl Internet {\n\
                       pub fn run_to_quiescence(&mut self) {\n\
                       for h in &self.hops { self.m.entry(h.ip).or_insert_with(|| h.name.to_string()); }\n\
                       }\n}\n";
        assert!(lint_src(per_key).iter().any(|d| d.rule == "h1-hot-alloc"));
    }

    #[test]
    fn hot_alloc_suppression() {
        let sup = "impl Internet {\n\
                   pub fn run_to_quiescence(&mut self) {\n\
                   for h in &self.hops {\n\
                   // filterwatch-lint: allow(h1-hot-alloc): result set construction\n\
                   out.push(h.name.to_string());\n\
                   }\n}\n}\n";
        assert!(lint_src(sup).iter().all(|d| d.rule != "h1-hot-alloc"));
    }

    #[test]
    fn sim_time_backwards_arith_outside_kernel() {
        let bad = "fn rewind(now: SimTime, slack: u64) -> SimTime {\n\
                   SimTime::from_secs(now.secs() - slack)\n}\n";
        let diags = lint_src(bad);
        assert!(diags
            .iter()
            .any(|d| d.rule == "t1-sim-time" && d.kind == "backwards-arith"));
        // The same arithmetic inside the kernel's sanctioned path: clean.
        let diags = lint_files(
            &[("crates/netsim/src/kernel.rs".to_string(), bad.to_string())],
            &Config::workspace_default(),
        );
        assert!(diags.iter().all(|d| d.rule != "t1-sim-time"));
        // Forward-only arithmetic: clean.
        let ok = "fn extend(now: SimTime, secs: u64) -> SimTime { now.plus_secs(secs) }\n";
        assert!(lint_src(ok).iter().all(|d| d.kind != "backwards-arith"));
    }

    #[test]
    fn sim_time_wall_feeds_queue() {
        let bad = "fn requeue(q: &TimerWheel, started: Instant) {\n\
                   q.schedule(started.elapsed().as_secs());\n}\n";
        let diags = lint_src(bad);
        assert!(diags
            .iter()
            .any(|d| d.rule == "t1-sim-time" && d.kind == "wall-feeds-queue"));
        // Virtual-clock-derived durations: clean.
        let ok = "fn requeue(q: &TimerWheel, wait: u64) { q.schedule(wait); }\n";
        assert!(lint_src(ok).iter().all(|d| d.rule != "t1-sim-time"));
        // Suppressible like every rule.
        let sup = "fn requeue(q: &TimerWheel, started: Instant) {\n\
                   // filterwatch-lint: allow(t1-sim-time): shim-only code path\n\
                   q.schedule(started.elapsed().as_secs());\n}\n";
        assert!(lint_src(sup).iter().all(|d| d.rule != "t1-sim-time"));
    }

    #[test]
    fn spawn_merge_requires_call_graph_proof() {
        // A lying ordered-merge comment satisfies d1 but NOT c1: there
        // is no sort and no path to a sanctioned merge helper.
        let lying = "fn tally(xs: &[u32]) {\n\
                     // Ordered merge: results land in completion order (not really).\n\
                     scope.spawn(|| work(xs));\n}\n";
        let diags = lint_src(lying);
        assert!(diags.iter().all(|d| d.rule != "d1-thread-spawn"));
        assert!(diags
            .iter()
            .any(|d| d.rule == "c1-spawn-merge" && d.kind == "spawn-no-merge-path"));
        // A resolved call-graph path to a registered merge helper: clean.
        let proven = "pub fn ordered_flatten(xs: Vec<Vec<u32>>) -> Vec<u32> { out }\n\
                      fn tally(xs: &[u32]) {\n\
                      // Ordered merge: group order is chunk order.\n\
                      scope.spawn(|| work(xs));\n\
                      finish(ordered_flatten(groups));\n}\n";
        assert!(lint_src(proven).iter().all(|d| d.rule != "c1-spawn-merge"));
        // An in-body sort also proves the merge.
        let sorted = "fn tally(xs: &mut Vec<u32>) { scope.spawn(|| work()); xs.sort(); }\n";
        assert!(lint_src(sorted).iter().all(|d| d.rule != "c1-spawn-merge"));
        // Suppression works.
        let sup = "fn tally(xs: &[u32]) {\n\
                   // Ordered merge: single worker, order trivially stable.\n\
                   // filterwatch-lint: allow(c1-spawn-merge): single worker\n\
                   scope.spawn(|| work(xs));\n}\n";
        assert!(lint_src(sup).iter().all(|d| d.rule != "c1-spawn-merge"));
    }
}
