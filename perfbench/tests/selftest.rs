//! Self-tests of the benchmark: its percentile rule, its metric names
//! and units, its output format (read back with the repository's own
//! `filterwatch_bench::gate::parse_json`), and a reduced-size run of
//! every workload.

use std::collections::BTreeSet;

use filterwatch_bench::gate::{parse_json, Json};
use filterwatch_perfbench::metrics::{failed_frac, valid_name, valid_unit, END_TO_END, PER_LAYER};
use filterwatch_perfbench::stats::{median, p90};
use filterwatch_perfbench::{run, Options, RunResult, Sizes, Workload};

fn ramp(n: u32) -> Vec<f64> {
    (1..=n).map(f64::from).collect()
}

#[test]
fn p90_is_reported_only_with_ten_samples_beyond_it() {
    assert_eq!(p90(&[]), None);
    // 99 samples: the nearest-rank p90 is the 90th, with 9 beyond it.
    assert_eq!(p90(&ramp(99)), None);
    // 100 samples: the 90th, with exactly 10 beyond it.
    assert_eq!(p90(&ramp(100)), Some(90.0));
    for n in [100, 101, 137, 250, 1000] {
        let values = ramp(n);
        let p = p90(&values).expect("enough samples");
        let beyond = values.iter().filter(|&&v| v > p).count();
        assert!(beyond >= 10, "n={n}: {beyond} beyond {p}");
        assert!(p >= median(&values));
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(name, _)| name)
        .collect();
    for name in &names {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a metric name is used twice");
    assert!(!valid_name("has space"));
    assert!(!valid_name("_leading"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn every_metric_has_a_unit() {
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_unit(unit), "{name}: bad unit {unit:?}");
    }
    assert!(!valid_unit(""));
    assert!(!valid_unit("m s"));
}

fn num(json: &Json) -> f64 {
    match json {
        Json::Num(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed<'a>(json: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key}"))
        .iter()
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).expect("name"),
                e.get("unit").and_then(Json::as_str).expect("unit"),
            )
        })
        .collect()
}

/// `BENCHMARK.json` at the repository root lists exactly the metrics the
/// benchmark prints, with the same units, and bounds each end-to-end
/// metric by at most 0.25, `setup_s` by the largest.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = parse_json(&text).expect("BENCHMARK.json parses");

    assert_eq!(listed(&json, "end_to_end"), END_TO_END);
    assert_eq!(listed(&json, "per_layer"), PER_LAYER);

    let e2e = json.get("end_to_end").and_then(Json::as_arr).expect("e2e");
    let bound = |entry: &Json| num(entry.get("bound").expect("bound"));
    let setup = e2e
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    for entry in e2e {
        let b = bound(entry);
        assert!(b > 0.0 && b <= 0.25 && b <= bound(setup), "{entry:?}");
        let better = entry.get("better").and_then(Json::as_str);
        assert!(matches!(better, Some("lower" | "higher")), "{entry:?}");
    }
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

/// A run small enough for a debug build: one world seed, a 2,000-host
/// scale world, and a zero time budget, so one campaign runs (untraced)
/// or one world runs both ways (traced).
fn reduced(workload: Workload, trace: bool) -> RunResult {
    let mut options = Options::new(workload, 11, 0.0, trace);
    let scale = if workload == Workload::Scale {
        2_000
    } else {
        0
    };
    options.sizes = Sizes {
        world_seeds: 1,
        host_scale: scale,
        corpus_scale: scale,
    };
    run(options)
}

/// The result line parses, carries exactly the four top-level keys and
/// exactly the expected metrics, each with a numeric value and its unit.
fn check_result_line(result: &RunResult, expected: &[(&str, &str)]) {
    let line = result.result_line();
    let json = parse_json(&line).expect("result line parses");
    let Json::Obj(fields) = &json else {
        panic!("result line is not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(
        json.get("attempted").and_then(Json::as_u64),
        Some(result.samples.len() as u64)
    );
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("no metrics object: {line}");
    };
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(num(m.get("value").expect("value")).is_finite());
            (
                name.as_str(),
                m.get("unit").and_then(Json::as_str).expect("unit"),
            )
        })
        .collect();
    assert_eq!(got, expected);

    let meta_line = result
        .readout()
        .lines()
        .find_map(|l| l.strip_prefix("meta "))
        .map(str::to_string)
        .expect("readout carries a meta line");
    let meta = parse_json(&meta_line).expect("meta line parses");
    for key in ["commit", "profile", "rustc", "workload"] {
        assert!(meta.get(key).and_then(Json::as_str).is_some(), "meta.{key}");
    }
    assert!(
        meta.get("available_parallelism")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn reduced_runs_pass_their_checks_and_attribute_their_time() {
    for workload in Workload::ALL {
        let plain = reduced(workload, false);
        assert_eq!(failed_frac(&plain.samples), 0.0, "{}", workload.name());
        check_result_line(&plain, END_TO_END);

        let traced = reduced(workload, true);
        assert_eq!(failed_frac(&traced.samples), 0.0, "{}", workload.name());
        check_result_line(&traced, PER_LAYER);
        let unattributed = traced
            .metrics()
            .iter()
            .find(|m| m.name == "traced.unattributed_frac")
            .map(|m| m.value)
            .expect("traced.unattributed_frac");
        assert!(
            (-1e-6..=0.05).contains(&unattributed),
            "{}: unattributed {unattributed}",
            workload.name()
        );
    }
}
