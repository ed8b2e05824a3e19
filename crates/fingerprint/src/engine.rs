//! The fingerprinting engine: fetch targets, evaluate plugins.

use std::collections::BTreeMap;

use filterwatch_http::{Request, Response, Url};
use filterwatch_netsim::{Internet, IpAddr};
use filterwatch_trace::StepKind;

use crate::plugin::{Plugin, Target};
use crate::plugins::table2_plugins;

/// One validated product identification on a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The examined address.
    pub ip: IpAddr,
    /// Plugin that matched.
    pub plugin: &'static str,
    /// Product slug the plugin identifies.
    pub product: &'static str,
    /// Human-readable evidence lines (one per matcher hit).
    pub evidence: Vec<String>,
}

/// A configured fingerprinting engine.
pub struct FingerprintEngine {
    plugins: Vec<Plugin>,
}

impl Default for FingerprintEngine {
    fn default() -> Self {
        FingerprintEngine::new()
    }
}

impl FingerprintEngine {
    /// An engine loaded with the Table 2 plugin set.
    pub fn new() -> Self {
        FingerprintEngine {
            plugins: table2_plugins(),
        }
    }

    /// An engine with a custom plugin set.
    pub fn with_plugins(plugins: Vec<Plugin>) -> Self {
        FingerprintEngine { plugins }
    }

    /// The loaded plugins.
    pub fn plugins(&self) -> &[Plugin] {
        &self.plugins
    }

    /// Profile one address: fetch every target any plugin wants (each
    /// target once), evaluate all matchers, and report plugin hits.
    pub fn identify(&self, net: &Internet, ip: IpAddr) -> Vec<Finding> {
        // Collect and deduplicate targets. The host string is shared
        // by every probe of this address — render it once, not per
        // plugin × target.
        let host = ip.to_string();
        let mut responses: BTreeMap<Target, Option<Response>> = BTreeMap::new();
        for plugin in &self.plugins {
            for target in &plugin.targets {
                responses.entry(target.clone()).or_insert_with(|| {
                    let url = Url::http_at(&host, target.port, &target.path);
                    net.probe(ip, target.port, &Request::get(url))
                        .into_response()
                });
            }
        }

        let mut findings = Vec::new();
        for plugin in &self.plugins {
            let mut evidence = Vec::new();
            for target in &plugin.targets {
                let Some(Some(resp)) = responses.get(target) else {
                    continue;
                };
                for matcher in &plugin.matchers {
                    if let Some(line) = matcher.evaluate(resp) {
                        evidence.push(format!(":{}{} {line}", target.port, target.path));
                    }
                }
            }
            if !evidence.is_empty() {
                findings.push(Finding {
                    ip,
                    plugin: plugin.name,
                    product: plugin.product,
                    evidence,
                });
            }
        }

        for f in &findings {
            net.tracer().point(
                StepKind::FpMatch,
                net.now().secs(),
                &[
                    ("ip", &f.ip),
                    ("product", &f.product),
                    ("plugin", &f.plugin),
                    ("evidence", &f.evidence.len()),
                ],
            );
        }
        let telemetry = net.telemetry();
        telemetry.register_histogram(
            "fingerprint.evidence",
            &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
        );
        telemetry.counter_add("fingerprint.profiled", "", 1);
        for f in &findings {
            telemetry.counter_add("fingerprint.findings", f.product, 1);
            telemetry.observe("fingerprint.evidence", "", f.evidence.len() as f64);
        }
        findings
    }

    /// Profile many addresses; returns findings in input order.
    pub fn identify_all(&self, net: &Internet, ips: &[IpAddr]) -> Vec<Finding> {
        ips.iter().flat_map(|&ip| self.identify(net, ip)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_netsim::service::StaticSite;
    use filterwatch_netsim::NetworkSpec;

    fn world_with_console(title: &str, server: &str, port: u16) -> (Internet, IpAddr) {
        let mut net = Internet::new(5);
        net.registry_mut()
            .register_country("US", "United States", "us");
        let asn = net.registry_mut().register_as(7018, "ATT", "US");
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        let n = net.add_network(NetworkSpec::new("att", asn, "US").with_cidr(prefix));
        let ip = net.alloc_ip(n).unwrap();
        net.add_host(ip, n, &[]);
        net.add_service(
            ip,
            port,
            Box::new(StaticSite::new(title, "<p>console</p>").with_server(server)),
        );
        (net, ip)
    }

    #[test]
    fn identifies_netsweeper_console_on_8080() {
        let (net, ip) = world_with_console("Netsweeper WebAdmin", "netsweeper/5.1", 8080);
        let findings = FingerprintEngine::new().identify(&net, ip);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].product, "netsweeper");
        assert!(!findings[0].evidence.is_empty());
    }

    #[test]
    fn identifies_proxysg_banner() {
        let (net, ip) = world_with_console("Blue Coat ProxySG - Console", "ProxySG", 80);
        let findings = FingerprintEngine::new().identify(&net, ip);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].product, "bluecoat");
        // Both the Server header and the title matched.
        assert!(findings[0].evidence.len() >= 2);
    }

    #[test]
    fn plain_host_yields_nothing() {
        let (net, ip) = world_with_console("Welcome", "Apache/2.2", 80);
        assert!(FingerprintEngine::new().identify(&net, ip).is_empty());
    }

    #[test]
    fn dead_host_yields_nothing() {
        let (net, _) = world_with_console("x", "y", 80);
        let dead: IpAddr = "9.9.9.9".parse().unwrap();
        assert!(FingerprintEngine::new().identify(&net, dead).is_empty());
    }

    #[test]
    fn identify_all_flattens() {
        let (net, ip) = world_with_console("Netsweeper WebAdmin", "netsweeper/5.1", 8080);
        let dead: IpAddr = "9.9.9.9".parse().unwrap();
        let findings = FingerprintEngine::new().identify_all(&net, &[dead, ip]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].ip, ip);
    }
}
