//! The netsim fetch path under load.
//!
//! Three rungs, all on seed 1's generated world with faults and
//! flapping stripped, so they time machinery rather than fault-path
//! luck. The single-flow rung prices one facade fetch. The flows-1k
//! rung runs 1024 fetches back to back. The 100k-hosts rung runs the
//! same 1024 fetches on a 10⁵-host, multi-thousand-AS world built once
//! outside the timed loop: a fetch rides on BTree lookups keyed by
//! address and hostname, so its cost must stay flat as the world grows,
//! and that flatness is what this rung gates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use filterwatch_http::Url;
use filterwatch_testkit::{build_world, plan_for_seed, FaultPlan, GeneratedWorld, ScenarioPlan};
use filterwatch_urllists::TestList;

const FLOWS: usize = 1024;

fn scale_plan(host_scale: usize) -> ScenarioPlan {
    let mut plan = plan_for_seed(1);
    plan.fault = FaultPlan::Clean;
    for d in &mut plan.deployments {
        d.flapping = None;
    }
    plan.host_scale = host_scale;
    plan
}

fn world_and_urls(host_scale: usize) -> (GeneratedWorld, Vec<Url>) {
    let plan = scale_plan(host_scale);
    let gw = build_world(&plan);
    let urls = TestList::global(plan.urls_per_category)
        .urls
        .iter()
        .map(|t| Url::parse(&t.url).expect("list URL"))
        .collect();
    (gw, urls)
}

/// Fetch `FLOWS` URLs back to back, cycling through the test list.
fn run_flows(gw: &GeneratedWorld, urls: &[Url]) {
    let vp = gw.vantages[0];
    for i in 0..FLOWS {
        black_box(gw.net.fetch(vp, &urls[i % urls.len()]));
    }
}

fn bench_fetch(c: &mut Criterion) {
    let (small, urls) = world_and_urls(0);
    let vp = small.vantages[0];
    c.bench_function("netsim/single-flow", |b| {
        b.iter(|| black_box(small.net.fetch(vp, &urls[0])))
    });
    c.bench_function("netsim/flows-1k", |b| b.iter(|| run_flows(&small, &urls)));

    // World build (~10⁵ hosts across ~3k ASes) happens once, untimed.
    let (big, big_urls) = world_and_urls(100_000);
    c.bench_function("netsim/flows-1k-100k-hosts", |b| {
        b.iter(|| run_flows(&big, &big_urls))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_fetch
}
criterion_main!(benches);
