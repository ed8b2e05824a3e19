//! Differential test for the crawler's host-first walk.
//!
//! `ScanEngine::scan` and `CensusSweep::run` visit only the hosts inside
//! each allocated prefix and probe only the ports those hosts bind. The
//! reference here is the address sweep that walk replaced: every
//! address of every prefix, every probe, through `Internet::probe`, with
//! telemetry recorded per address chunk exactly as that sweep did. Both
//! must agree with it on every record, and the scan on every `scan.*`
//! event, counter and histogram series.
//!
//! The seed battery honours `FILTERWATCH_SEEDS` (comma-separated).

// Test helpers outside `#[test]` fail the test by panicking.
#![allow(clippy::unwrap_used)]

use filterwatch_core::{World, WorldOptions};
use filterwatch_http::{Request, Url};
use filterwatch_netsim::service::{EmptyService, StaticSite};
use filterwatch_netsim::{Internet, IpAddr, NetworkId, NetworkSpec, Service};
use filterwatch_scanner::engine::DEFAULT_PROBES;
use filterwatch_scanner::{CensusSweep, RecordParts, ScanEngine, ScanRecord};
use filterwatch_telemetry::{render, stage, Snapshot, TelemetryHandle};
use filterwatch_testkit::{build_world, plan_for_seed, seeds_from_env};

const BATTERY: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// The address-by-address sweep, recording into `telemetry` what the
/// scan recorded when it split the addresses into `threads` chunks.
fn reference_scan(net: &Internet, threads: usize, telemetry: &TelemetryHandle) -> Vec<ScanRecord> {
    let span = telemetry.span_start(stage::SCAN, "address-space sweep", net.now().secs());
    let ips: Vec<IpAddr> = net
        .registry()
        .prefixes()
        .iter()
        .flat_map(|(cidr, _)| cidr.iter())
        .collect();
    telemetry.event(net.now().secs(), "scan.start", &[("ips", &ips.len())]);
    let mut records = Vec::new();
    for slice in ips.chunks(ips.len().div_ceil(threads).max(1)) {
        let mut local = Vec::new();
        for &ip in slice {
            for &(port, path) in DEFAULT_PROBES {
                let url = Url::http_at(&ip.to_string(), port, path);
                let Some(resp) = net.probe(ip, port, &Request::get(url)).into_response() else {
                    continue;
                };
                if resp.status.code() == 404 {
                    continue;
                }
                let body: String = resp.body_text().chars().take(400).collect();
                let country = net.registry().country_of(ip).map(|c| c.to_string());
                local.push(ScanRecord::new(RecordParts {
                    ip,
                    port,
                    path,
                    hostnames: net.host(ip).map_or(&[][..], |h| &h.hostnames),
                    banner: &resp.banner(),
                    body_snippet: &body,
                    country: country.as_deref(),
                    asn: net.registry().asn_of(ip).map(|a| a.0),
                    captured_at: net.now(),
                }));
            }
        }
        telemetry.counter_add(
            "scan.probes",
            "",
            (slice.len() * DEFAULT_PROBES.len()) as u64,
        );
        telemetry.counter_add("scan.banners", "", local.len() as u64);
        for r in &local {
            telemetry.observe("scan.banner_bytes", "", r.body_snippet().len() as f64);
        }
        records.extend(local);
    }
    records.sort_by(|a, b| (a.ip(), a.port(), a.path()).cmp(&(b.ip(), b.port(), b.path())));
    telemetry.event(
        net.now().secs(),
        "scan.done",
        &[("records", &records.len())],
    );
    telemetry.span_end(span, net.now().secs());
    records
}

/// The scan telemetry that must match: events, counters and gauges,
/// histogram buckets.
fn scan_telemetry(snapshot: &Snapshot) -> String {
    format!(
        "{}--\n{}--\n{}",
        render::events_log(snapshot),
        render::metrics_csv(snapshot),
        render::histograms_csv(snapshot)
    )
}

/// Compare both walks against the reference on `net` at 1 and 4
/// threads. Returns the reference record count.
fn check_world(name: &str, net: &mut Internet) -> usize {
    for threads in [1, 4] {
        let expected_telemetry = TelemetryHandle::enabled();
        let expected = reference_scan(net, threads, &expected_telemetry);

        let telemetry = TelemetryHandle::enabled();
        net.set_telemetry(telemetry.clone());
        let index = ScanEngine::new().with_threads(threads).scan(net);
        net.set_telemetry(TelemetryHandle::disabled());

        assert_eq!(
            index.records(),
            expected.as_slice(),
            "{name}: scan records differ at {threads} threads"
        );
        assert_eq!(
            scan_telemetry(&telemetry.snapshot()),
            scan_telemetry(&expected_telemetry.snapshot()),
            "{name}: scan telemetry differs at {threads} threads"
        );
        if threads == 1 {
            let census = CensusSweep::new().run(net);
            let raw: Vec<_> = census
                .iter()
                .map(|c| {
                    let (path, banner, body) = (&c.path, &c.banner, &c.body_snippet);
                    (c.ip, c.port, path.as_str(), banner.as_str(), body.as_str())
                })
                .collect();
            let want: Vec<_> = expected
                .iter()
                .map(|r| (r.ip(), r.port(), r.path(), r.banner(), r.body_snippet()))
                .collect();
            assert_eq!(raw, want, "{name}: census records differ");
        }
    }
    ScanEngine::new().with_threads(1).scan(net).len()
}

#[test]
fn paper_world_walk_matches_address_sweep() {
    let mut world = World::build(WorldOptions::default());
    assert!(check_world("paper world", &mut world.net) > 0);
}

#[test]
fn generated_battery_walk_matches_address_sweep() {
    for seed in seeds_from_env(BATTERY).expect("seed list") {
        let mut gw = build_world(&plan_for_seed(seed));
        check_world(&format!("seed {seed}"), &mut gw.net);
    }
}

#[test]
fn ten_thousand_host_walk_matches_address_sweep() {
    let mut plan = plan_for_seed(1);
    plan.host_scale = 10_000;
    let mut gw = build_world(&plan);
    assert!(gw.net.host_count() >= 10_000);
    check_world("host_scale 10^4", &mut gw.net);
}

/// A one-country registry with `n` single-/24 networks.
fn bare_world(n: usize) -> (Internet, Vec<NetworkId>) {
    let mut net = Internet::new(3);
    net.registry_mut().register_country("QA", "Qatar", "qa");
    let asn = net.registry_mut().register_as(42298, "OOREDOO", "QA");
    let nets = (0..n)
        .map(|i| {
            let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
            net.add_network(NetworkSpec::new(&format!("isp{i}"), asn, "QA").with_cidr(prefix))
        })
        .collect();
    (net, nets)
}

#[test]
fn empty_worlds_walk_matches_address_sweep() {
    // No prefixes at all: no probes, no counters.
    let (mut net, _) = bare_world(0);
    assert_eq!(check_world("no prefixes", &mut net), 0);
    // Prefixes but no hosts: probes counted, zero banners.
    let (mut net, _) = bare_world(2);
    assert_eq!(check_world("no hosts", &mut net), 0);
}

/// Add a host in `isp` with `services` bound.
fn add_host(net: &mut Internet, isp: NetworkId, services: Vec<(u16, Box<dyn Service>)>) {
    let ip = net.alloc_ip(isp).unwrap();
    net.add_host(ip, isp, &["h.example.qa"]);
    for (port, service) in services {
        net.add_service(ip, port, service);
    }
}

#[test]
fn edge_hosts_walk_matches_address_sweep() {
    let (mut net, nets) = bare_world(2);
    // A host with no services, and one serving only unprobed ports.
    add_host(&mut net, nets[0], vec![]);
    add_host(
        &mut net,
        nets[0],
        vec![
            (22, Box::new(StaticSite::new("ssh", ""))),
            (443, Box::new(StaticSite::new("tls", ""))),
        ],
    );
    // Every probed path answers 404.
    add_host(&mut net, nets[1], vec![(8080, Box::new(EmptyService))]);
    // A live portal next to a 404 console.
    add_host(
        &mut net,
        nets[1],
        vec![
            (80, Box::new(StaticSite::new("Portal", "<p>welcome</p>"))),
            (15871, Box::new(EmptyService)),
        ],
    );
    assert_eq!(check_world("edge hosts", &mut net), 1);
}
