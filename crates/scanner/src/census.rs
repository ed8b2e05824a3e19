//! Internet-Census-style raw sweeps.
//!
//! §3.1: "As a proof of concept, we demonstrate our techniques using the
//! Shodan search engine to locate IP addresses, but are working towards
//! applying it on a larger scale with the Internet Census data in
//! ongoing work." The Census differs from Shodan in what a record
//! carries: raw `(ip, port, response)` observations with **no metadata**
//! — no country tags, no hostnames, no ASN. Consumers must enrich the
//! raw data with their own geolocation, which is exactly the MaxMind /
//! Team Cymru step of the identification pipeline.
//!
//! [`CensusSweep`] produces such raw records; [`enrich`] turns them into
//! a [`ScanIndex`] using caller-supplied databases — including
//! deliberately wrong ones, which is how the geolocation-error ablation
//! measures the cost of bad enrichment.

use filterwatch_geodb::{AsnDb, GeoDb};
use filterwatch_netsim::{Internet, IpAddr};

use crate::engine::{live_hosts, owned_probes, probe_host, snippet, DEFAULT_PROBES};
use crate::index::ScanIndex;
use crate::record::ScanRecord;

/// One raw census observation: no metadata, just bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusRecord {
    /// Probed address.
    pub ip: IpAddr,
    /// Probed port.
    pub port: u16,
    /// Probed path.
    pub path: String,
    /// Raw response head.
    pub banner: String,
    /// Leading body bytes.
    pub body_snippet: String,
}

/// A raw, metadata-free sweep of the allocated address space.
#[derive(Debug, Clone, Default)]
pub struct CensusSweep {
    probes: Vec<(u16, String)>,
}

impl CensusSweep {
    /// A sweep with the standard probe set.
    pub fn new() -> Self {
        CensusSweep {
            probes: owned_probes(DEFAULT_PROBES),
        }
    }

    /// Run the sweep: the same host-first walk as
    /// [`ScanEngine::scan`](crate::ScanEngine::scan), keeping only the
    /// raw bytes of each answer.
    pub fn run(&self, net: &Internet) -> Vec<CensusRecord> {
        let mut out = Vec::new();
        for (_, host) in live_hosts(net) {
            probe_host(net, host, &self.probes, |port, path, resp| {
                out.push(CensusRecord {
                    ip: host.ip,
                    port,
                    path: path.to_string(),
                    banner: resp.banner(),
                    body_snippet: snippet(&resp),
                });
            });
        }
        out.sort_by(|a, b| (a.ip, a.port, &a.path).cmp(&(b.ip, b.port, &b.path)));
        out
    }
}

/// Enrich raw census records into a searchable index using external
/// geolocation and whois databases (the consumer-side counterpart of
/// Shodan's built-in metadata).
pub fn enrich(
    records: Vec<CensusRecord>,
    geo: &GeoDb,
    asn: &AsnDb,
    captured_at: filterwatch_netsim::SimTime,
) -> ScanIndex {
    let enriched = records
        .into_iter()
        .map(|r| ScanRecord {
            country: geo.lookup(r.ip.value()).map(str::to_string),
            asn: asn.lookup(r.ip.value()).map(|rec| rec.asn),
            // The census has no reverse DNS; hostnames stay empty.
            hostnames: Vec::new(),
            ip: r.ip,
            port: r.port,
            path: r.path,
            banner: r.banner,
            body_snippet: r.body_snippet,
            captured_at,
        })
        .collect();
    ScanIndex::build(enriched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_netsim::service::StaticSite;
    use filterwatch_netsim::{NetworkSpec, SimTime};

    fn world() -> Internet {
        let mut net = Internet::new(2);
        net.registry_mut().register_country("QA", "Qatar", "qa");
        let asn = net.registry_mut().register_as(42298, "OOREDOO", "QA");
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        let isp = net.add_network(NetworkSpec::new("ooredoo", asn, "QA").with_cidr(prefix));
        let ip = net.alloc_ip(isp).unwrap();
        net.add_host(ip, isp, &["gw.ooredoo.qa"]);
        net.add_service(
            ip,
            8080,
            Box::new(StaticSite::new("Netsweeper WebAdmin", "").with_server("netsweeper/5.1")),
        );
        net
    }

    #[test]
    fn raw_records_have_no_metadata() {
        let net = world();
        let records = CensusSweep::new().run(&net);
        assert!(!records.is_empty());
        for r in &records {
            assert!(r.banner.starts_with("HTTP/1.1"));
        }
    }

    #[test]
    fn enrichment_adds_geo_and_asn() {
        let net = world();
        let records = CensusSweep::new().run(&net);
        let mut geo = GeoDb::new();
        let mut asndb = AsnDb::new();
        for &(cidr, asn_id) in net.registry().prefixes() {
            let rec = net.registry().as_record(asn_id).unwrap();
            geo.add_range(
                cidr.first().value(),
                cidr.last().value(),
                rec.country.as_str(),
            );
            asndb.add_range(
                cidr.first().value(),
                cidr.last().value(),
                rec.asn.0,
                &rec.name,
                rec.country.as_str(),
            );
        }
        geo.finish();
        asndb.finish();
        let index = enrich(records, &geo, &asndb, SimTime::ZERO);
        assert!(!index.is_empty());
        for r in index.records() {
            assert_eq!(r.country.as_deref(), Some("QA"));
            assert_eq!(r.asn, Some(42298));
            assert!(r.hostnames.is_empty(), "census has no reverse DNS");
        }
        // Keyword search works on the enriched index.
        assert!(!index.search("netsweeper").is_empty());
    }

    #[test]
    fn census_and_shodan_agree_on_endpoints() {
        let net = world();
        let census = CensusSweep::new().run(&net);
        let shodan = crate::ScanEngine::new().with_threads(1).scan(&net);
        assert_eq!(census.len(), shodan.len());
        for (c, s) in census.iter().zip(shodan.records()) {
            assert_eq!((c.ip, c.port, &c.path), (s.ip, s.port, &s.path));
            assert_eq!(c.banner, s.banner);
        }
    }
}
