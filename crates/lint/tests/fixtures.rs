//! Lint self-tests over the known-bad fixtures in `fixtures/`.
//!
//! Each fixture must trigger exactly its expected `(rule, kind)` set
//! and nothing else, and the full JSON report over all fixtures must
//! match the checked-in golden. Regenerate with
//! `FILTERWATCH_UPDATE_GOLDENS=1 cargo test -p filterwatch-lint --test fixtures`.

use filterwatch_lint::{lint_files, render_json, Config};
use std::path::{Path, PathBuf};

const UPDATE_ENV: &str = "FILTERWATCH_UPDATE_GOLDENS";

/// `(fixture stem, expected (rule, kind) multiset)`.
const FIXTURES: &[(&str, &[(&str, &str)])] = &[
    ("d1_env_read", &[("d1-env-read", "env:FILTERWATCH_VERBOSE")]),
    (
        "d1_thread_spawn",
        &[
            ("c1-spawn-merge", "spawn-no-merge-path"),
            ("d1-thread-spawn", "spawn"),
        ],
    ),
    ("d1_unseeded_rng", &[("d1-unseeded-rng", "rng:thread_rng")]),
    (
        "d1_wall_clock",
        &[
            ("d1-wall-clock", "Instant::now"),
            ("d1-wall-clock", "SystemTime"),
        ],
    ),
    ("d2_map_order", &[("d2-map-order", "iter:tallies")]),
    (
        "p1_panic",
        &[
            ("p1-panic", "expect"),
            ("p1-panic", "panic!"),
            ("p1-panic", "unwrap"),
        ],
    ),
    (
        "h1_hot_alloc",
        &[
            ("h1-hot-alloc", "alloc:format!"),
            ("h1-hot-alloc", "alloc:to_string"),
        ],
    ),
    (
        "t1_sim_time",
        &[
            ("t1-sim-time", "backwards-arith"),
            ("t1-sim-time", "wall-feeds-queue"),
        ],
    ),
    (
        "c1_unmerged_spawn",
        &[("c1-spawn-merge", "spawn-no-merge-path")],
    ),
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn load() -> Vec<(String, String)> {
    FIXTURES
        .iter()
        .map(|(stem, _)| {
            let on_disk = fixtures_dir().join(format!("{stem}.rs"));
            let src = std::fs::read_to_string(&on_disk)
                .unwrap_or_else(|e| panic!("fixture {}: {e}", on_disk.display()));
            // Lint under a virtual library path so the context is Lib.
            (format!("crates/fixture/src/{stem}.rs"), src)
        })
        .collect()
}

#[test]
fn each_fixture_triggers_exactly_its_expected_findings() {
    let diags = lint_files(&load(), &Config::workspace_default());
    for (stem, expected) in FIXTURES {
        let path = format!("crates/fixture/src/{stem}.rs");
        let mut got: Vec<(&str, &str)> = diags
            .iter()
            .filter(|d| d.file == path)
            .map(|d| (d.rule, d.kind.as_str()))
            .collect();
        got.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "fixture {stem}");
    }
}

#[test]
fn json_report_matches_golden() {
    let diags = lint_files(&load(), &Config::workspace_default());
    let got = render_json(&diags, None);
    let golden = fixtures_dir().join("expected.json");
    if std::env::var(UPDATE_ENV).is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "golden {}: {e} (regenerate with {UPDATE_ENV}=1)",
            golden.display()
        )
    });
    assert_eq!(
        got, want,
        "JSON golden drift; regenerate with {UPDATE_ENV}=1"
    );
}
