//! The banner-grab crawler.
//!
//! The crawler walks hosts, not addresses: each allocated prefix is
//! asked for the hosts inside it, and each host is probed only on the
//! ports it binds. A probe to an empty address or an unbound port can
//! only fail to connect and leaves no record, so the walk indexes
//! exactly what an address-by-address sweep would, at a cost that grows
//! with the endpoints that answer rather than with the address space.

use filterwatch_http::{Request, Response, Url};
use filterwatch_netsim::{Asn, Host, Internet};

use crate::index::ScanIndex;
use crate::record::{RecordParts, ScanRecord};

/// Probe targets: `(port, path)` pairs the crawler requests on every
/// address. Port 8080's `/webadmin/` is probed because crawlers record
/// well-known management-console paths (and Table 2's `8080/webadmin/`
/// keyword needs them in the index).
pub const DEFAULT_PROBES: &[(u16, &str)] =
    &[(80, "/"), (8080, "/"), (8080, "/webadmin/"), (15871, "/")];

/// How many characters of body the index keeps per record.
const SNIPPET_LEN: usize = 400;

/// A parallel scan engine over the simulated address space.
pub struct ScanEngine {
    probes: Vec<(u16, String)>,
    threads: usize,
}

impl Default for ScanEngine {
    fn default() -> Self {
        ScanEngine::new()
    }
}

impl ScanEngine {
    /// An engine with the default probe set and parallelism.
    pub fn new() -> Self {
        ScanEngine {
            probes: owned_probes(DEFAULT_PROBES),
            threads: crate::merge::default_workers(),
        }
    }

    /// Override the probe set.
    pub fn with_probes(mut self, probes: &[(u16, &str)]) -> Self {
        self.probes = owned_probes(probes);
        self
    }

    /// Use exactly `n` scanning threads (1 = sequential).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Scan every allocated prefix of the simulated Internet and build
    /// the index. Country/ASN metadata comes from the registry ground
    /// truth (as Shodan's geolocation feed would supply).
    ///
    /// Telemetry counts the sweep as if every address had been probed:
    /// `scan.start ips=` is the address count and `scan.probes` is
    /// addresses × probe set, though only bound ports are contacted.
    pub fn scan(&self, net: &Internet) -> ScanIndex {
        let telemetry = net.telemetry().clone();
        let span = telemetry.span_start(
            filterwatch_telemetry::stage::SCAN,
            "address-space sweep",
            net.now().secs(),
        );
        let addresses: u64 = net
            .registry()
            .prefixes()
            .iter()
            .map(|(cidr, _)| cidr.size())
            .sum();
        telemetry.event(net.now().secs(), "scan.start", &[("ips", &addresses)]);

        let hosts: Vec<(Asn, &Host)> = live_hosts(net).collect();
        let scan_chunk = |chunk: &[(Asn, &Host)]| -> Vec<ScanRecord> {
            let mut out = Vec::new();
            let mut banner = String::new();
            for &(asn, host) in chunk {
                let country = net.registry().as_record(asn).map(|rec| rec.country);
                probe_host(net, host, &self.probes, |port, path, resp| {
                    banner.clear();
                    resp.write_banner(&mut banner);
                    out.push(ScanRecord::new(RecordParts {
                        ip: host.ip,
                        port,
                        path,
                        hostnames: &host.hostnames,
                        banner: &banner,
                        body_snippet: &snippet(&resp),
                        country: country.as_ref().map(|c| c.as_str()),
                        asn: Some(asn.0),
                        captured_at: net.now(),
                    }));
                });
            }
            out
        };
        let mut records = crate::merge::ordered_parallel(&hosts, self.threads, scan_chunk);
        records.sort_by(|a, b| (a.ip(), a.port(), a.path()).cmp(&(b.ip(), b.port(), b.path())));

        // An empty address space sends no probes and records no counters.
        if addresses > 0 {
            telemetry.counter_add("scan.probes", "", addresses * self.probes.len() as u64);
            telemetry.counter_add("scan.banners", "", records.len() as u64);
        }
        for r in &records {
            telemetry.observe("scan.banner_bytes", "", r.body_snippet().len() as f64);
        }
        telemetry.event(
            net.now().secs(),
            "scan.done",
            &[("records", &records.len())],
        );
        telemetry.span_end(span, net.now().secs());
        ScanIndex::build(records)
    }
}

pub(crate) fn owned_probes(probes: &[(u16, &str)]) -> Vec<(u16, String)> {
    probes
        .iter()
        .map(|&(port, path)| (port, path.to_string()))
        .collect()
}

/// Every host inside an allocated prefix, with the AS owning that
/// prefix: prefix by prefix in allocation order, then by address.
/// Registry prefixes never overlap, so the owner is the host's
/// `Registry::asn_of`.
pub(crate) fn live_hosts(net: &Internet) -> impl Iterator<Item = (Asn, &Host)> {
    net.registry()
        .prefixes()
        .iter()
        .flat_map(move |&(cidr, asn)| net.hosts_in(cidr).map(move |host| (asn, host)))
}

/// Probe `host` with every probe whose port it binds and hand each
/// answer to `found`. Probes to unbound ports would fail to connect, so
/// they are never built. Crawlers index live endpoints, not error
/// paths: a 404 on a probed path leaves no record (this is what keeps a
/// deny-only console invisible, §6.1).
pub(crate) fn probe_host<'p>(
    net: &Internet,
    host: &Host,
    probes: &'p [(u16, String)],
    mut found: impl FnMut(u16, &'p str, Response),
) {
    let mut ip_text = None;
    for (port, path) in probes {
        if !host.serves(*port) {
            continue;
        }
        let ip: &String = ip_text.get_or_insert_with(|| host.ip.to_string());
        let req = Request::get(Url::http_at(ip, *port, path));
        let Some(resp) = net.probe(host.ip, *port, &req).into_response() else {
            continue;
        };
        if resp.status.code() == 404 {
            continue;
        }
        found(*port, path, resp);
    }
}

/// The leading [`SNIPPET_LEN`] characters of a response body.
pub(crate) fn snippet(resp: &Response) -> String {
    String::from_utf8_lossy(&resp.body)
        .chars()
        .take(SNIPPET_LEN)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_netsim::service::StaticSite;
    use filterwatch_netsim::NetworkSpec;

    fn world() -> Internet {
        let mut net = Internet::new(11);
        net.registry_mut().register_country("QA", "Qatar", "qa");
        let asn = net.registry_mut().register_as(42298, "OOREDOO", "QA");
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        let isp = net.add_network(NetworkSpec::new("ooredoo", asn, "QA").with_cidr(prefix));
        let ip = net.alloc_ip(isp).unwrap();
        net.add_host(ip, isp, &["gw.ooredoo.qa"]);
        net.add_service(
            ip,
            8080,
            Box::new(
                StaticSite::new("Netsweeper WebAdmin", "<p>login</p>")
                    .with_server("netsweeper/5.1"),
            ),
        );
        let web_ip = net.alloc_ip(isp).unwrap();
        net.add_host(web_ip, isp, &["www.ooredoo.qa"]);
        net.add_service(
            web_ip,
            80,
            Box::new(StaticSite::new("Ooredoo", "<p>portal</p>")),
        );
        net
    }

    #[test]
    fn scan_finds_only_bound_endpoints() {
        let net = world();
        let index = ScanEngine::new().with_threads(2).scan(&net);
        // Console answers on 8080 for both "/" and "/webadmin/", portal on 80.
        assert_eq!(index.len(), 3);
        let texts: Vec<&str> = index
            .records()
            .iter()
            .map(ScanRecord::searchable_text)
            .collect();
        assert!(texts.iter().any(|t| t.contains("8080/webadmin/")));
        assert!(texts.iter().any(|t| t.contains("ooredoo")));
    }

    #[test]
    fn records_carry_geo_metadata() {
        let net = world();
        let index = ScanEngine::new().with_threads(1).scan(&net);
        for r in index.records() {
            assert_eq!(r.country(), Some("QA"));
            assert_eq!(r.asn(), Some(42298));
        }
    }

    #[test]
    fn sequential_and_parallel_scans_agree() {
        let net = world();
        let a = ScanEngine::new().with_threads(1).scan(&net);
        let b = ScanEngine::new().with_threads(4).scan(&net);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn custom_probe_set() {
        let net = world();
        let index = ScanEngine::new().with_probes(&[(80, "/")]).scan(&net);
        assert_eq!(index.len(), 1);
        assert_eq!(index.records()[0].port(), 80);
    }
}
