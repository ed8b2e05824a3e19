//! The metamorphic invariant suite over generated worlds.
//!
//! Every seed below generates a different scenario (different AS
//! topology, deployments, fault profile); each must satisfy all four
//! invariants, and the whole harness must be deterministic — two
//! consecutive runs of this file produce byte-identical campaign
//! renderings. On clean plans, the order of fetches made at one
//! virtual instant must not change any outcome or table either.

use filterwatch_testkit::runner::{identify_stage, sweep_stage};
use filterwatch_testkit::{
    build_world, check_seed, plan_for_seed, run_campaign, FaultPlan, RunConfig,
};
use filterwatch_urllists::TestList;

/// The pinned seed battery: at least eight generated worlds.
const SEEDS: [u64; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 11, 19];

#[test]
fn invariant_suite_holds_across_generated_seeds() {
    for &seed in &SEEDS {
        check_seed(seed).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn generated_campaigns_are_deterministic_run_to_run() {
    for &seed in &SEEDS {
        let plan = plan_for_seed(seed);
        let first = run_campaign(&plan).stable_text();
        let second = run_campaign(&plan).stable_text();
        assert_eq!(first, second, "seed {seed}: consecutive runs diverged");
    }
}

#[test]
fn plans_regenerate_identically() {
    for &seed in &SEEDS {
        assert_eq!(plan_for_seed(seed), plan_for_seed(seed));
    }
}

/// Metamorphic invariant: at one virtual instant, the order in which
/// URLs are fetched must never leak into any outcome or any later
/// campaign table. Clean plans only — fault sampling and flapping draw
/// from order-sensitive RNG streams by design, so only the
/// zero-probability world makes the invariant exact.
#[test]
fn fetch_order_never_changes_campaign_tables() {
    for seed in [0u64, 2, 5] {
        let mut plan = plan_for_seed(seed);
        plan.fault = FaultPlan::Clean;
        for d in &mut plan.deployments {
            d.flapping = None;
        }
        let config = RunConfig::for_plan(&plan);
        let urls: Vec<filterwatch_http::Url> = TestList::global(plan.urls_per_category)
            .urls
            .iter()
            .map(|t| filterwatch_http::Url::parse(&t.url).expect("list URL"))
            .collect();

        // Fetch every URL in `order` without moving the clock, keep the
        // outcomes by URL index, then run the identify and sweep stages
        // on the world that prologue just exercised.
        let run_in_order = |order: &[usize]| -> (Vec<String>, String, Vec<String>) {
            let gw = build_world(&plan);
            let start = gw.net.now();
            let mut outcomes = vec![String::new(); urls.len()];
            for &i in order {
                outcomes[i] = format!("{:?}", gw.net.fetch(gw.vantages[0], &urls[i]));
            }
            assert_eq!(gw.net.now(), start, "a fetch moved the clock");
            (outcomes, identify_stage(&gw), sweep_stage(&gw, &config))
        };

        let n = urls.len();
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
        let reference = run_in_order(&identity);
        assert_eq!(
            reference,
            run_in_order(&reversed),
            "seed {seed}: reversed fetch order changed results"
        );
        assert_eq!(
            reference,
            run_in_order(&interleaved),
            "seed {seed}: interleaved fetch order changed results"
        );
    }
}
