//! Chaos-campaign integration tests: the resilience layer's headline
//! guarantee is that fault injection changes *measurement quality*, not
//! *verdicts*. The demo campaign is run at increasing fault rates and
//! its identify/confirm tables are byte-compared against the clean run;
//! a fully-down vantage must surface as `Inconclusive` with auditable
//! breaker-skip flow records, never as a false "reachable".

use filterwatch_core::characterize::characterize;
use filterwatch_core::confirm::{run_case_study, table3_specs};
use filterwatch_core::{Campaign, CampaignWorld, World, DEFAULT_SEED};
use filterwatch_http::Url;
use filterwatch_measure::ResilienceConfig;
use filterwatch_netsim::{FaultProfile, FlowDisposition, SimTime};
use filterwatch_urllists::TestList;

/// The headline determinism guarantee: the demo campaign's identify and
/// confirm verdict tables are byte-identical to the clean run at 0%, 5%
/// and 20% injected fault rates — quorum and retries absorb the noise,
/// which is visible only in the measurement-quality counters.
#[test]
fn demo_campaign_tables_survive_fault_injection() {
    let clean = Campaign::demo(DEFAULT_SEED).run();
    let identify = clean.identify_table();
    let confirm = clean.confirm_table();
    assert_eq!(clean.quality.retries, 0);

    for rate in [0.0, 0.05, 0.20] {
        let chaotic = Campaign::demo(DEFAULT_SEED)
            .with_resilience(ResilienceConfig::chaos())
            .with_field_faults(FaultProfile::chaotic(rate).expect("valid rate"))
            .run();
        assert_eq!(
            chaotic.identify_table(),
            identify,
            "identify table diverged at fault rate {rate}"
        );
        assert_eq!(
            chaotic.confirm_table(),
            confirm,
            "confirm table diverged at fault rate {rate}"
        );
        if rate == 0.0 {
            assert_eq!(chaotic.quality.retries, 0, "no faults, no retries");
        } else {
            assert!(
                chaotic.quality.retries > 0,
                "fault rate {rate} should force retries: {:?}",
                chaotic.quality
            );
        }
        // The noise lives in the quality section of the report, nowhere
        // else.
        let md = chaotic.to_markdown();
        assert!(md.contains("## Measurement quality"));
    }
}

/// Acceptance: a fully-down vantage point is quarantined by the circuit
/// breaker. Verdicts come back `Inaccessible` (honest) then
/// `Inconclusive` (skipped) — never a false accessible/blocked — and
/// every skip is auditable as a breaker-skip disposition in the flow
/// log.
#[test]
fn breaker_quarantines_fully_down_vantage() {
    let mut world = World::paper(DEFAULT_SEED).with_resilience(ResilienceConfig::chaos());
    let isp = world.net.network_by_name("nournet").unwrap().id;
    world.net.set_network_faults(isp, FaultProfile::lossy(1.0));
    world.net.set_flow_log(true);

    let client = world.client("nournet");
    let urls: Vec<Url> = TestList::global(1)
        .urls
        .iter()
        .take(4)
        .map(|u| Url::parse(&u.url).expect("list URL"))
        .collect();
    let verdicts = client.test_list(&world.net, &urls);

    for v in &verdicts {
        assert!(
            !v.verdict.is_accessible() && !v.verdict.is_blocked(),
            "dead vantage must not produce a definite verdict: {} {:?}",
            v.url,
            v.verdict
        );
    }
    // The first URL burns through retries and reports honest transport
    // failure; once the breaker trips, the rest are skipped wholesale.
    assert_eq!(verdicts[0].verdict.kind().to_token(), "inaccessible");
    assert!(
        verdicts[1..].iter().all(|v| v.verdict.is_inconclusive()),
        "{verdicts:?}"
    );

    let q = client.quality();
    assert!(q.breaker_trips >= 1, "{q:?}");
    assert!(q.breaker_skips >= 1, "{q:?}");
    assert!(q.retries > 0, "{q:?}");

    let skips: Vec<_> = world
        .net
        .flow_log()
        .into_iter()
        .filter(|r| matches!(r.disposition, FlowDisposition::BreakerSkip(_)))
        .collect();
    assert!(
        skips.len() as u64 == q.breaker_skips,
        "every skip is logged: {} vs {:?}",
        skips.len(),
        q
    );
}

/// The same quarantine behaviour through the characterization stage: a
/// dead field path yields inconclusive URLs, not an empty block list
/// silently mistaken for an unfiltered network.
#[test]
fn characterize_reports_inconclusive_for_dead_vantage() {
    let mut world = World::paper(DEFAULT_SEED).with_resilience(ResilienceConfig::chaos());
    let isp = world.net.network_by_name("nournet").unwrap().id;
    world.net.set_network_faults(isp, FaultProfile::lossy(1.0));

    let ch = characterize(&world, "nournet", 1, 1);
    assert_eq!(ch.urls_blocked, 0, "{ch:?}");
    assert!(ch.urls_inconclusive > 0, "{ch:?}");
    assert!(ch.quality.breaker_trips >= 1, "{:?}", ch.quality);
    assert!(ch.quality.inconclusive > 0, "{:?}", ch.quality);
}

/// Retry backoff advances the virtual clock past a deterministic outage
/// window, so a case study whose ISP goes dark for the first 30 virtual
/// seconds still reproduces its clean-run confirmation counts.
#[test]
fn case_study_rides_out_outage_window() {
    let mut world = World::paper(DEFAULT_SEED).with_resilience(ResilienceConfig::chaos());
    let isp = world.net.network_by_name("bayanat").unwrap().id;
    world.net.set_network_faults(
        isp,
        FaultProfile::clean()
            .try_with_outage(SimTime::ZERO, SimTime::from_secs(30))
            .expect("valid window"),
    );

    let spec = &table3_specs()[3]; // SmartFilter / Bayanat Al-Oula
    let r = run_case_study(&mut world, spec);
    assert_eq!(r.accessible_before, Some(10), "{r:?}");
    assert_eq!(r.submitted_blocked, 5, "{r:?}");
    assert_eq!(r.holdout_blocked, 0);
    assert!(r.confirmed);
    assert_eq!(r.retest_inconclusive, 0);
    assert!(r.quality.retries > 0, "{:?}", r.quality);
}
