//! Stage 1: identifying URL filter installations (§3, Figure 1).
//!
//! scan → keyword search (every keyword × every ccTLD) → WhatWeb-style
//! validation → MaxMind/Team-Cymru geolocation.

use std::collections::{BTreeMap, BTreeSet};

use filterwatch_fingerprint::FingerprintEngine;
use filterwatch_geodb::{AsnDb, GeoDb};
use filterwatch_netsim::{Internet, IpAddr};
use filterwatch_products::ProductKind;
use filterwatch_scanner::{keywords, ScanEngine, ScanIndex};

use crate::geo::{build_asndb, build_geodb};
use crate::report::TextTable;

/// One validated installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Installation {
    /// Address hosting the visible installation.
    pub ip: IpAddr,
    /// The validated product.
    pub product: ProductKind,
    /// Country code (from the geolocation database).
    pub country: String,
    /// Origin AS number (from the whois database).
    pub asn: Option<u32>,
    /// Origin AS name.
    pub as_name: String,
    /// The Shodan keywords that surfaced the candidate.
    pub keywords: Vec<String>,
    /// WhatWeb evidence lines that validated it.
    pub evidence: Vec<String>,
}

/// The full identification report.
#[derive(Debug, Clone)]
pub struct IdentificationReport {
    /// Validated installations, ordered by (product, country, ip).
    pub installations: Vec<Installation>,
    /// Keyword candidates per product *before* validation (addresses).
    pub candidates: BTreeMap<ProductKind, usize>,
    /// Total scan-index records.
    pub index_records: usize,
}

impl IdentificationReport {
    /// The Figure 1 view: countries hosting each product.
    pub fn figure1(&self) -> BTreeMap<ProductKind, BTreeSet<String>> {
        let mut map: BTreeMap<ProductKind, BTreeSet<String>> = BTreeMap::new();
        for inst in &self.installations {
            map.entry(inst.product)
                .or_default()
                .insert(inst.country.clone());
        }
        map
    }

    /// Installations of one product.
    pub fn of_product(&self, product: ProductKind) -> Vec<&Installation> {
        self.installations
            .iter()
            .filter(|i| i.product == product)
            .collect()
    }

    /// Render the installation table as stable text: one row per
    /// validated installation, verdict data only (no timing or quality
    /// noise). Chaos runs, permutation invariants and the differential
    /// runner all byte-compare on exactly this rendering.
    pub fn render_installations(&self) -> String {
        let mut table = TextTable::new(["Product", "Country", "ASN", "AS name", "IP"]);
        for inst in &self.installations {
            table.row([
                inst.product.name().to_string(),
                inst.country.clone(),
                inst.asn.map(|a| format!("AS{a}")).unwrap_or_default(),
                inst.as_name.clone(),
                inst.ip.to_string(),
            ]);
        }
        table.render()
    }

    /// Render the Figure 1 product→countries map as text.
    pub fn render_figure1(&self) -> String {
        let mut table = TextTable::new(["Product", "Countries with validated installations"]);
        for product in ProductKind::ALL {
            let countries = self
                .figure1()
                .get(&product)
                .map(|set| set.iter().cloned().collect::<Vec<_>>().join(", "))
                .unwrap_or_default();
            table.row([product.name().to_string(), countries]);
        }
        table.render()
    }
}

/// The identification pipeline with its engines.
pub struct IdentifyPipeline {
    scanner: ScanEngine,
    fingerprints: FingerprintEngine,
}

impl Default for IdentifyPipeline {
    fn default() -> Self {
        IdentifyPipeline::new()
    }
}

impl IdentifyPipeline {
    /// A pipeline with the default engines (Table 2 keyword and plugin
    /// tables).
    pub fn new() -> Self {
        IdentifyPipeline {
            scanner: ScanEngine::new(),
            fingerprints: FingerprintEngine::new(),
        }
    }

    /// Run the full pipeline against a simulated Internet.
    pub fn run(&self, net: &Internet) -> IdentificationReport {
        let telemetry = net.telemetry().clone();
        let span = telemetry.span_start(
            filterwatch_telemetry::stage::IDENTIFY,
            "scan + keyword search + validate",
            net.now().secs(),
        );
        let scope = net.tracer().open(
            filterwatch_trace::StepKind::Stage,
            net.now().secs(),
            &[("name", &"identify")],
        );
        let index = self.scanner.scan(net);
        let report = self.run_on_index(net, &index);
        net.tracer().close(
            scope,
            net.now().secs(),
            &[("installations", &report.installations.len())],
        );
        telemetry.span_end(span, net.now().secs());
        report
    }

    /// Run search+validate+geolocate against an existing scan index,
    /// using databases derived from the registry ground truth.
    pub fn run_on_index(&self, net: &Internet, index: &ScanIndex) -> IdentificationReport {
        let geo = build_geodb(net.registry());
        let asn_db = build_asndb(net.registry());
        self.run_on_index_with_geo(net, index, &geo, &asn_db)
    }

    /// Run search+validate+geolocate with caller-supplied geolocation
    /// databases — the knob the geolocation-error ablation turns.
    pub fn run_on_index_with_geo(
        &self,
        net: &Internet,
        index: &ScanIndex,
        geo: &GeoDb,
        asn_db: &AsnDb,
    ) -> IdentificationReport {
        let cctlds: Vec<(String, String)> = net
            .registry()
            .countries()
            .map(|c| (c.code.as_str().to_string(), c.cctld.clone()))
            .collect();

        // The paper's keyword × ccTLD query form, as one batched sweep:
        // every product's keywords are fused into a single automaton
        // and matched against the in-scope corpus in one parallel pass,
        // instead of one full-index scan per (keyword, country) pair.
        let mut sweep = index.search_products(
            keywords::KEYWORD_TABLE,
            cctlds.iter().map(|(cc, tld)| (cc.as_str(), tld.as_str())),
        );

        let mut candidates: BTreeMap<ProductKind, usize> = BTreeMap::new();
        let mut installations = Vec::new();
        let mut seen: BTreeSet<(IpAddr, ProductKind)> = BTreeSet::new();

        for product in ProductKind::ALL {
            let candidate_ips: BTreeMap<IpAddr, Vec<String>> =
                sweep.remove(product.slug()).unwrap_or_default();
            candidates.insert(product, candidate_ips.len());

            // Validation: "when locating IP addresses of the URL filters,
            // we are not conservative, and rely on the following step to
            // confirm" — every candidate is fingerprinted.
            for (ip, kws) in candidate_ips {
                net.tracer().point(
                    filterwatch_trace::StepKind::Candidate,
                    net.now().secs(),
                    &[("ip", &ip), ("product", &product.slug())],
                );
                for finding in self.fingerprints.identify(net, ip) {
                    let Some(found) = ProductKind::ALL
                        .iter()
                        .find(|p| p.slug() == finding.product)
                        .copied()
                    else {
                        continue;
                    };
                    if !seen.insert((ip, found)) {
                        continue;
                    }
                    let (asn, as_name) = match asn_db.lookup(ip.value()) {
                        Some(rec) => (Some(rec.asn), rec.name.clone()),
                        None => (None, String::from("unknown")),
                    };
                    installations.push(Installation {
                        ip,
                        product: found,
                        country: geo.lookup(ip.value()).unwrap_or("??").to_string(),
                        asn,
                        as_name,
                        keywords: kws.clone(),
                        evidence: finding.evidence,
                    });
                }
            }
        }

        installations
            .sort_by(|a, b| (a.product, &a.country, a.ip).cmp(&(b.product, &b.country, b.ip)));

        let telemetry = net.telemetry();
        for (product, &n) in &candidates {
            telemetry.counter_add("identify.candidates", product.slug(), n as u64);
        }
        for inst in &installations {
            telemetry.counter_add("identify.installations", inst.product.slug(), 1);
        }
        // Sweep-plan cache effectiveness: repeat sweeps against an
        // unchanged index epoch should be all hits.
        let (cache_hits, cache_misses) = index.sweep_cache_stats();
        telemetry.counter_add("identify.sweep_cache", "hit", cache_hits);
        telemetry.counter_add("identify.sweep_cache", "miss", cache_misses);
        telemetry.event(
            net.now().secs(),
            "identify.done",
            &[
                ("index_records", &index.len()),
                ("installations", &installations.len()),
            ],
        );

        IdentificationReport {
            installations,
            candidates,
            index_records: index.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn pipeline_finds_all_paper_products() {
        let w = World::paper(1);
        let report = IdentifyPipeline::new().run(&w.net);
        let fig1 = report.figure1();
        for product in ProductKind::ALL {
            assert!(
                fig1.get(&product).map(|s| !s.is_empty()).unwrap_or(false),
                "{product} not identified anywhere"
            );
        }
        // Spot-check the paper's claims.
        assert!(fig1[&ProductKind::BlueCoat].contains("AR"), "{fig1:?}");
        assert!(fig1[&ProductKind::BlueCoat].contains("US"));
        assert!(fig1[&ProductKind::Netsweeper].contains("QA"));
        assert!(fig1[&ProductKind::Netsweeper].contains("US"));
        assert!(fig1[&ProductKind::Websense].contains("US"));
        assert!(fig1[&ProductKind::SmartFilter].contains("PK"));
    }

    #[test]
    fn installations_carry_asn_and_evidence() {
        let w = World::paper(1);
        let report = IdentifyPipeline::new().run(&w.net);
        let ooredoo = report
            .installations
            .iter()
            .find(|i| i.product == ProductKind::Netsweeper && i.country == "QA")
            .expect("ooredoo install");
        assert_eq!(ooredoo.asn, Some(42298));
        assert!(!ooredoo.evidence.is_empty());
        assert!(!ooredoo.keywords.is_empty());
    }

    #[test]
    fn render_figure1_lists_products() {
        let w = World::paper(1);
        let report = IdentifyPipeline::new().run(&w.net);
        let text = report.render_figure1();
        assert!(text.contains("Blue Coat"));
        assert!(text.contains("Netsweeper"));
    }
}
