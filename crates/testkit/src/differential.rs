//! Multi-seed differential runner with automatic failure minimization.
//!
//! For every seed the runner generates a scenario and re-runs it under
//! configurations that must not change any verdict — serial vs parallel
//! keyword search, incremental delta ingest vs a from-scratch index
//! build, telemetry attached vs detached, a zero-rate fault profile vs
//! none at all — and byte-compares the stable renderings.
//! When a check fails, [`minimize`] greedily walks the plan's shrink
//! candidates to the smallest scenario still reproducing the
//! divergence, which is what gets reported.

use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_scanner::{keywords, ScanEngine, ScanIndex};

use crate::plan::{FaultPlan, ScenarioPlan};
use crate::runner::{run_campaign_with, RunConfig};
use crate::strategies::plan_for_seed;
use crate::worldgen::build_world;

/// A named divergence check: `Err(detail)` when the two configurations
/// disagree on a plan.
pub type Check = (&'static str, fn(&ScenarioPlan) -> Result<(), String>);

/// One reported divergence.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed whose generated plan diverged.
    pub seed: u64,
    /// The check that failed.
    pub check: &'static str,
    /// What differed, on the *minimized* plan.
    pub detail: String,
    /// The smallest plan still reproducing the divergence.
    pub minimized: ScenarioPlan,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} / {}: {}\nminimal scenario: {}",
            self.seed,
            self.check,
            self.detail,
            self.minimized.summary()
        )
    }
}

fn diff_or_ok(name: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{name}: {}", crate::invariants::first_diff(a, b)))
    }
}

/// Serial and parallel keyword sweeps must produce identical hits.
/// Each runs on an index of its own, so both scan every record.
pub fn check_serial_vs_parallel(plan: &ScenarioPlan) -> Result<(), String> {
    let gw = build_world(plan);
    let serial_index = ScanEngine::new().scan(&gw.net);
    // A clone taken before any sweep carries no sweep plan.
    let parallel_index = serial_index.clone();
    let pairs: Vec<(String, String)> = gw
        .net
        .registry()
        .countries()
        .map(|c| (c.code.as_str().to_string(), c.cctld.clone()))
        .collect();
    let scope = || pairs.iter().map(|(cc, tld)| (cc.as_str(), tld.as_str()));
    let serial = serial_index.search_products_with_threads(keywords::KEYWORD_TABLE, scope(), 1);
    let parallel = parallel_index.search_products_with_threads(keywords::KEYWORD_TABLE, scope(), 8);
    for (name, index) in [("serial", &serial_index), ("parallel", &parallel_index)] {
        let stats = index.sweep_cache_stats();
        if stats != (0, 1) {
            return Err(format!(
                "{name} sweep: cache (hits, misses) {stats:?}, expected one miss that scans"
            ));
        }
    }
    diff_or_ok(
        "serial vs parallel sweep",
        &format!("{serial:?}"),
        &format!("{parallel:?}"),
    )
}

/// Attaching a telemetry collector must not change any verdict.
pub fn check_telemetry_transparency(plan: &ScenarioPlan) -> Result<(), String> {
    let mut config = RunConfig::for_plan(plan);
    config.telemetry = false;
    let silent = run_campaign_with(plan, &config).comparable_text();
    config.telemetry = true;
    let observed = run_campaign_with(plan, &config).comparable_text();
    diff_or_ok("telemetry off vs on", &silent, &observed)
}

/// An incrementally built index — a head build plus one delta carrying
/// the tail — must be indistinguishable from a from-scratch build over
/// every record: same identify installations table, same batched
/// product hits.
pub fn check_delta_vs_rebuild(plan: &ScenarioPlan) -> Result<(), String> {
    let gw = build_world(plan);
    let scratch = ScanEngine::new().scan(&gw.net);
    let records = scratch.records().to_vec();
    let split = records.len() / 2;
    let mut delta = ScanIndex::build(records[..split].to_vec());
    delta.apply_delta(records[split..].to_vec(), &[]);

    let pipeline = IdentifyPipeline::new();
    let a = pipeline
        .run_on_index(&gw.net, &scratch)
        .render_installations();
    let b = pipeline
        .run_on_index(&gw.net, &delta)
        .render_installations();
    diff_or_ok("scratch vs delta-built installations", &a, &b)?;

    let pairs: Vec<(String, String)> = gw
        .net
        .registry()
        .countries()
        .map(|c| (c.code.as_str().to_string(), c.cctld.clone()))
        .collect();
    let scope = || pairs.iter().map(|(cc, tld)| (cc.as_str(), tld.as_str()));
    let sa = scratch.search_products(keywords::KEYWORD_TABLE, scope());
    let sb = delta.search_products(keywords::KEYWORD_TABLE, scope());
    diff_or_ok(
        "scratch vs delta-built product hits",
        &format!("{sa:?}"),
        &format!("{sb:?}"),
    )
}

/// A zero-rate fault profile must behave exactly like no profile.
pub fn check_zero_rate_faults(plan: &ScenarioPlan) -> Result<(), String> {
    let mut clean = plan.clone();
    clean.fault = FaultPlan::Clean;
    let mut zero = plan.clone();
    zero.fault = FaultPlan::Lossy { drop_prob: 0.0 };
    // Same resilience on both sides: the profile under test is the
    // fault injection, not the retry machinery.
    let config = RunConfig::for_plan(&clean);
    let a = run_campaign_with(&clean, &config).comparable_text();
    let b = run_campaign_with(&zero, &config).comparable_text();
    diff_or_ok("clean vs zero-rate faults", &a, &b)
}

/// The default check battery.
pub fn checks() -> Vec<Check> {
    vec![
        ("serial-vs-parallel", check_serial_vs_parallel),
        ("delta-vs-rebuild", check_delta_vs_rebuild),
        ("telemetry-transparency", check_telemetry_transparency),
        ("zero-rate-faults", check_zero_rate_faults),
    ]
}

/// Greedily minimize a failing plan: repeatedly adopt the first shrink
/// candidate that still fails `check`, until the plan is 1-minimal
/// (every further shrink passes). Returns the minimal plan and the
/// failure detail observed on it.
///
/// # Panics
/// When `check` passes on the input plan — there is nothing to
/// minimize.
// Only failing plans are minimized; a passing one is a caller bug.
#[allow(clippy::panic)]
pub fn minimize(
    plan: &ScenarioPlan,
    check: &dyn Fn(&ScenarioPlan) -> Result<(), String>,
) -> (ScenarioPlan, String) {
    let mut current = plan.clone();
    let mut detail = match check(&current) {
        Err(e) => e,
        Ok(()) => panic!("minimize called on a passing plan"),
    };
    loop {
        let mut progressed = false;
        for candidate in current.shrink_candidates() {
            if let Err(e) = check(&candidate) {
                current = candidate;
                detail = e;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return (current, detail);
        }
    }
}

/// Run the default battery on one seed's generated plan, minimizing
/// every divergence found.
pub fn run_seed(seed: u64) -> Vec<Divergence> {
    let plan = plan_for_seed(seed);
    let mut out = Vec::new();
    for (name, check) in checks() {
        if check(&plan).is_err() {
            let (minimized, detail) = minimize(&plan, &|p| check(p));
            out.push(Divergence {
                seed,
                check: name,
                detail,
                minimized,
            });
        }
    }
    out
}

/// Sweep many seeds; returns every (minimized) divergence.
pub fn run(seeds: &[u64]) -> Vec<Divergence> {
    seeds.iter().flat_map(|&s| run_seed(s)).collect()
}

/// Seeds to sweep: the `FILTERWATCH_SEEDS` environment variable read
/// with [`parse_seeds`], or the given default when it is unset. A set
/// but malformed variable is an error, so a battery never quietly runs
/// fewer seeds than it was asked to.
// The seed list picks which runs a battery makes; each run stays seeded.
#[allow(clippy::disallowed_methods)]
pub fn seeds_from_env(default: &[u64]) -> Result<Vec<u64>, String> {
    match std::env::var("FILTERWATCH_SEEDS") {
        Ok(raw) => parse_seeds(&raw).map_err(|e| format!("FILTERWATCH_SEEDS={raw:?}: {e}")),
        Err(_) => Ok(default.to_vec()),
    }
}

/// Parse a comma-separated seed list (`0,1,2`; spaces around entries
/// are allowed). An empty list, or any entry that is not a `u64`, is an
/// error naming that entry.
pub fn parse_seeds(raw: &str) -> Result<Vec<u64>, String> {
    if raw.trim().is_empty() {
        return Err("the seed list is empty".into());
    }
    raw.split(',')
        .map(|entry| {
            entry
                .trim()
                .parse()
                .map_err(|_| format!("seed entry {entry:?} is not a u64"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_passes_on_one_seed() {
        assert!(run_seed(0).is_empty());
    }

    #[test]
    fn minimize_reaches_a_one_minimal_plan() {
        // A synthetic failure: "fails whenever any deployment exists".
        let check = |p: &ScenarioPlan| -> Result<(), String> {
            if p.deployments.is_empty() {
                Ok(())
            } else {
                Err("has a deployment".into())
            }
        };
        let plan = plan_for_seed(4);
        assert!(!plan.deployments.is_empty());
        let (min, detail) = minimize(&plan, &check);
        assert_eq!(min.deployments.len(), 1);
        assert_eq!(min.bystanders, 0);
        assert!(matches!(min.fault, FaultPlan::Clean));
        assert_eq!(min.urls_per_category, 1);
        let d = &min.deployments[0];
        assert_eq!((d.n_sites, d.n_submit), (2, 1));
        assert!(d.flapping.is_none());
        assert_eq!(detail, "has a deployment");
        // 1-minimal: every further shrink passes.
        assert!(min.shrink_candidates().iter().all(|c| check(c).is_ok()));
    }

    #[test]
    fn seeds_env_parsing() {
        assert_eq!(
            parse_seeds("0,1,2,3,4,5,6,7,11,19").unwrap(),
            vec![0, 1, 2, 3, 4, 5, 6, 7, 11, 19]
        );
        assert_eq!(parse_seeds(" 4 , 9 ").unwrap(), vec![4, 9]);
        assert_eq!(parse_seeds("18446744073709551615").unwrap(), vec![u64::MAX]);
    }

    #[test]
    fn malformed_seed_lists_are_errors_naming_the_entry() {
        assert_eq!(parse_seeds("").unwrap_err(), "the seed list is empty");
        assert_eq!(parse_seeds("  ").unwrap_err(), "the seed list is empty");
        let cases = [
            ("0;1", "\"0;1\""),
            ("0,1,", "\"\""),
            ("0,,1", "\"\""),
            ("0,x", "\"x\""),
            ("0,-1", "\"-1\""),
            ("18446744073709551616", "\"18446744073709551616\""),
        ];
        for (raw, entry) in cases {
            assert_eq!(
                parse_seeds(raw).unwrap_err(),
                format!("seed entry {entry} is not a u64"),
                "{raw:?}"
            );
        }
    }
}
