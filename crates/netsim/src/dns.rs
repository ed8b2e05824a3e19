//! Simulated DNS: hostname → address resolution.
//!
//! A flat zone with optional wildcard records. DNS-level censorship is
//! out of scope for the paper (its products block at the HTTP layer), so
//! resolution is global and unfiltered; per-ISP DNS tampering could be
//! layered on via a middlebox if ever needed.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::intern::Interner;
use crate::ip::IpAddr;

/// The global simulated DNS zone.
///
/// Exact names sit in one [`Interner`], so registering a name copies it
/// into the table's arena and allocates nothing else, and resolving one
/// is a single hash probe. Each name's address is kept in a column
/// indexed by its [`Sym`](crate::intern::Sym); removing a name
/// tombstones its entry, and registering it again revives it. Nothing
/// renders the zone in table order: [`Dns::records`] sorts by hostname.
#[derive(Debug, Default)]
pub struct Dns {
    /// Every exact name ever registered, normalised, in first
    /// registration order.
    names: Interner,
    /// The address of each name in `names`, by id (one entry per
    /// name); `None` once removed.
    ips: Vec<Option<IpAddr>>,
    /// How many entries of `ips` are `Some`.
    live: usize,
    /// Wildcard suffix records: `*.example.info` stored as `example.info`.
    wildcard: BTreeMap<String, IpAddr>,
}

impl Dns {
    /// An empty zone.
    pub fn new() -> Self {
        Dns::default()
    }

    /// Register an exact hostname. Overwrites any existing record.
    pub fn register(&mut self, host: &str, ip: IpAddr) {
        let id = self.names.intern(&normalize(host)).index();
        if id == self.ips.len() {
            self.ips.push(None);
        }
        if self.ips[id].replace(ip).is_none() {
            self.live += 1;
        }
    }

    /// Register a wildcard: `*.suffix` (pass the bare suffix).
    pub fn register_wildcard(&mut self, suffix: &str, ip: IpAddr) {
        self.wildcard.insert(normalize(suffix).into_owned(), ip);
    }

    /// Remove an exact record; returns whether it existed.
    pub fn remove(&mut self, host: &str) -> bool {
        let Some(sym) = self.names.get(&normalize(host)) else {
            return false;
        };
        let removed = self.ips[sym.index()].take().is_some();
        if removed {
            self.live -= 1;
        }
        removed
    }

    /// Resolve a hostname (or dotted-quad literal) to an address.
    /// Allocates nothing for a name that is already lowercase.
    pub fn resolve(&self, host: &str) -> Option<IpAddr> {
        let host = normalize(host);
        if let Ok(ip) = IpAddr::parse_quad(&host) {
            return Some(ip);
        }
        if let Some(ip) = self.names.get(&host).and_then(|sym| self.ips[sym.index()]) {
            return Some(ip);
        }
        // Walk suffixes for wildcard matches: a.b.c → b.c → c.
        let mut rest = &*host;
        while let Some(idx) = rest.find('.') {
            rest = &rest[idx + 1..];
            if let Some(&ip) = self.wildcard.get(rest) {
                return Some(ip);
            }
        }
        None
    }

    /// Number of exact records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the zone is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0 && self.wildcard.is_empty()
    }

    /// All exact records, sorted by hostname.
    pub fn records(&self) -> impl Iterator<Item = (&str, IpAddr)> {
        let mut records: Vec<(&str, IpAddr)> = self
            .names
            .strings()
            .zip(&self.ips)
            .filter_map(|(host, ip)| ip.map(|ip| (host, ip)))
            .collect();
        records.sort_unstable_by_key(|&(host, _)| host);
        records.into_iter()
    }
}

/// `host` without trailing dots, lowercased only when it has an
/// uppercase byte.
fn normalize(host: &str) -> Cow<'_, str> {
    let host = host.trim_end_matches('.');
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_resolution_case_insensitive() {
        let mut dns = Dns::new();
        dns.register("WWW.Example.INFO", "5.0.0.1".parse().unwrap());
        assert_eq!(
            dns.resolve("www.example.info"),
            Some("5.0.0.1".parse().unwrap())
        );
        assert_eq!(
            dns.resolve("www.example.info."),
            Some("5.0.0.1".parse().unwrap())
        );
        assert_eq!(dns.resolve("other.example.info"), None);
    }

    #[test]
    fn ip_literals_resolve_to_themselves() {
        let dns = Dns::new();
        assert_eq!(dns.resolve("9.8.7.6"), Some("9.8.7.6".parse().unwrap()));
    }

    #[test]
    fn wildcard_matches_any_depth() {
        let mut dns = Dns::new();
        dns.register_wildcard("pool.example", "5.0.0.9".parse().unwrap());
        assert_eq!(
            dns.resolve("a.pool.example"),
            Some("5.0.0.9".parse().unwrap())
        );
        assert_eq!(
            dns.resolve("x.y.pool.example"),
            Some("5.0.0.9".parse().unwrap())
        );
        // The bare suffix itself is not covered by the wildcard.
        assert_eq!(dns.resolve("pool.example"), None);
    }

    #[test]
    fn exact_beats_wildcard() {
        let mut dns = Dns::new();
        dns.register_wildcard("zone.example", "5.0.0.1".parse().unwrap());
        dns.register("special.zone.example", "5.0.0.2".parse().unwrap());
        assert_eq!(
            dns.resolve("special.zone.example"),
            Some("5.0.0.2".parse().unwrap())
        );
    }

    #[test]
    fn removal() {
        let mut dns = Dns::new();
        dns.register("gone.example", "5.0.0.3".parse().unwrap());
        assert!(dns.remove("GONE.example"));
        assert!(!dns.remove("gone.example"));
        assert_eq!(dns.resolve("gone.example"), None);
        assert_eq!((dns.len(), dns.records().count()), (0, 0));
        // Registering a removed name again revives it at its new address.
        dns.register("Gone.example.", "5.0.0.4".parse().unwrap());
        assert_eq!(
            dns.resolve("gone.example"),
            Some("5.0.0.4".parse().unwrap())
        );
        assert_eq!(dns.len(), 1);
    }

    #[test]
    fn counters() {
        let mut dns = Dns::new();
        assert!(dns.is_empty());
        dns.register("a.example", "5.0.0.1".parse().unwrap());
        dns.register("b.example", "5.0.0.2".parse().unwrap());
        assert_eq!(dns.len(), 2);
        assert_eq!(dns.records().count(), 2);
    }

    #[test]
    fn records_iterate_in_hostname_order() {
        let mut dns = Dns::new();
        dns.register("zeta.example", "5.0.0.3".parse().unwrap());
        dns.register("alpha.example", "5.0.0.1".parse().unwrap());
        dns.register("mid.example", "5.0.0.2".parse().unwrap());
        let hosts: Vec<&str> = dns.records().map(|(h, _)| h).collect();
        assert_eq!(hosts, vec!["alpha.example", "mid.example", "zeta.example"]);
    }
}
