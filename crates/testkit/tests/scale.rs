//! World-scale rungs: a generated campaign on a world grown by
//! `host_scale` bystander hosts must render the same verdicts as on the
//! unscaled world, since the scaled world is a strict superset of it.

use filterwatch_testkit::{build_world, plan_for_seed, run_campaign_with, RunConfig};

fn scale_campaign(host_scale: usize) {
    let mut plan = plan_for_seed(1);
    plan.host_scale = host_scale;
    let report = run_campaign_with(&plan, &RunConfig::for_plan(&plan));
    assert_eq!(report.cases.len(), plan.deployments.len());
    assert!(
        !report.identify_table.is_empty() && !report.list_lines.is_empty(),
        "scaled campaign produced empty tables"
    );
    // The scaled world is a strict superset: the campaign's verdict
    // surface must be byte-identical to the unscaled world's.
    let mut base = plan.clone();
    base.host_scale = 0;
    assert_eq!(
        report.comparable_text(),
        run_campaign_with(&base, &RunConfig::for_plan(&base)).comparable_text(),
        "host_scale changed campaign verdicts"
    );
}

/// Tier-1 rung: a 10⁴-host world completes a campaign without
/// perturbing a single verdict.
#[test]
fn scale_smoke_ten_thousand_host_campaign() {
    scale_campaign(10_000);
}

/// The full 10⁵-host / multi-thousand-AS rung. Too heavy for the debug
/// tier-1 sweep; CI runs it in release
/// (`cargo test -p filterwatch-testkit --release --test scale -- --ignored`).
#[test]
#[ignore = "release-profile scale rung; run explicitly with -- --ignored"]
fn scale_smoke_hundred_thousand_host_campaign() {
    let mut plan = plan_for_seed(1);
    plan.host_scale = 100_000;
    let gw = build_world(&plan);
    assert!(gw.net.host_count() >= 100_000, "{}", gw.net.host_count());
    // Every scale host's name resolves to its address: the zone's name
    // table has grown many times over to hold them all.
    let mut scale_names = 0;
    for host in gw.net.hosts() {
        for name in host.hostnames.iter().filter(|h| h.starts_with("www.scale")) {
            assert_eq!(gw.net.dns().resolve(name), Some(host.ip), "{name}");
            scale_names += 1;
        }
    }
    assert_eq!(scale_names, plan.host_scale);
    // One /24 per 32 scale hosts: a multi-thousand-AS topology.
    assert!(
        gw.net.registry().prefixes().len() >= 3_000,
        "only {} prefixes",
        gw.net.registry().prefixes().len()
    );
    drop(gw);
    scale_campaign(100_000);
}
