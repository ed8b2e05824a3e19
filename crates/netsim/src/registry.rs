//! Countries, autonomous systems and prefix allocation.
//!
//! The identification pipeline maps validated IPs to countries (MaxMind
//! in the paper) and ASNs (Team Cymru). In the simulation, both databases
//! derive from a single ground-truth registry: every network's prefixes
//! are allocated here, so geolocation is exact by construction — matching
//! the paper's (implicit) assumption that MaxMind country-level data is
//! reliable.

use std::collections::BTreeMap;

use crate::ip::{Cidr, IpAddr};

/// An ISO-3166-style two-letter country code (stored uppercase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Build from a two-ASCII-letter string (any case).
    pub fn new(code: &str) -> Self {
        let bytes = code.as_bytes();
        assert!(
            bytes.len() == 2 && bytes.iter().all(|b| b.is_ascii_alphabetic()),
            "bad country code {code:?}"
        );
        CountryCode([bytes[0].to_ascii_uppercase(), bytes[1].to_ascii_uppercase()])
    }

    /// The code as a string slice.
    // `new` admits only ASCII letters, so the bytes are valid UTF-8.
    #[allow(clippy::expect_used)]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("ASCII by construction")
    }
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Registry entry for a country.
#[derive(Debug, Clone)]
pub struct Country {
    /// Two-letter code.
    pub code: CountryCode,
    /// Human-readable name.
    pub name: String,
    /// Country-code top-level domain (without the dot).
    pub cctld: String,
}

/// Registry entry for an autonomous system.
#[derive(Debug, Clone)]
pub struct AsRecord {
    /// The AS number.
    pub asn: Asn,
    /// AS name as whois would report it.
    pub name: String,
    /// Registration country.
    pub country: CountryCode,
}

/// Ground truth for the simulated address space.
#[derive(Debug, Default)]
pub struct Registry {
    countries: BTreeMap<CountryCode, Country>,
    ases: BTreeMap<Asn, AsRecord>,
    /// Allocated prefixes in allocation order.
    prefixes: Vec<(Cidr, Asn)>,
    /// Next /24 block index to hand out (starting at 5.0.0.0).
    next_block: u32,
}

/// First address handed out by the allocator. Chosen to look like public
/// space and leave room below for special-purpose use.
const ALLOC_BASE: u32 = 5 << 24; // 5.0.0.0

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a country; returns its code. Re-registering the same code
    /// overwrites the name/ccTLD.
    pub fn register_country(&mut self, code: &str, name: &str, cctld: &str) -> CountryCode {
        let code = CountryCode::new(code);
        self.countries.insert(
            code,
            Country {
                code,
                name: name.to_string(),
                cctld: cctld.to_ascii_lowercase(),
            },
        );
        code
    }

    /// Register an autonomous system. The country must already exist.
    pub fn register_as(&mut self, asn: u32, name: &str, country: &str) -> Asn {
        let country = CountryCode::new(country);
        assert!(
            self.countries.contains_key(&country),
            "country {country} not registered"
        );
        let asn = Asn(asn);
        self.ases.insert(
            asn,
            AsRecord {
                asn,
                name: name.to_string(),
                country,
            },
        );
        asn
    }

    /// Allocate a fresh prefix of `size_p24` contiguous /24 blocks to an
    /// AS. Returns `None` if the AS is unknown.
    ///
    /// Allocations are sequential and deterministic: the first call
    /// always returns `5.0.0.0/24`-based space regardless of seed.
    pub fn allocate_prefix(&mut self, asn: Asn, size_p24: u32) -> Option<Cidr> {
        assert!(
            size_p24.is_power_of_two(),
            "size must be a power of two /24s"
        );
        if !self.ases.contains_key(&asn) {
            return None;
        }
        // Align the block index to the allocation size.
        let align = size_p24;
        let aligned = self.next_block.div_ceil(align) * align;
        let base = IpAddr(ALLOC_BASE + (aligned << 8));
        let prefix_len = 24 - size_p24.trailing_zeros() as u8;
        let cidr = Cidr::new(base, prefix_len);
        self.next_block = aligned + size_p24;
        self.prefixes.push((cidr, asn));
        Some(cidr)
    }

    /// Country metadata by code.
    pub fn country(&self, code: CountryCode) -> Option<&Country> {
        self.countries.get(&code)
    }

    /// Country metadata by ccTLD (e.g. `"qa"`).
    pub fn country_by_cctld(&self, cctld: &str) -> Option<&Country> {
        let cctld = cctld.to_ascii_lowercase();
        self.countries.values().find(|c| c.cctld == cctld)
    }

    /// All registered countries, ordered by code.
    pub fn countries(&self) -> impl Iterator<Item = &Country> {
        self.countries.values()
    }

    /// AS metadata.
    pub fn as_record(&self, asn: Asn) -> Option<&AsRecord> {
        self.ases.get(&asn)
    }

    /// All registered ASes, ordered by number.
    pub fn ases(&self) -> impl Iterator<Item = &AsRecord> {
        self.ases.values()
    }

    /// All allocated prefixes with their owners, in allocation order.
    pub fn prefixes(&self) -> &[(Cidr, Asn)] {
        &self.prefixes
    }

    /// The AS owning `ip`, if any prefix covers it.
    pub fn asn_of(&self, ip: IpAddr) -> Option<Asn> {
        self.prefixes
            .iter()
            .find(|(cidr, _)| cidr.contains(ip))
            .map(|&(_, asn)| asn)
    }

    /// The country `ip` geolocates to (via its owning AS).
    pub fn country_of(&self, ip: IpAddr) -> Option<CountryCode> {
        let asn = self.asn_of(ip)?;
        self.ases.get(&asn).map(|rec| rec.country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.register_country("QA", "Qatar", "qa");
        r.register_country("YE", "Yemen", "ye");
        r.register_as(42298, "OOREDOO-QA", "QA");
        r.register_as(12486, "YEMENNET", "YE");
        r
    }

    #[test]
    fn country_code_normalizes_case() {
        assert_eq!(CountryCode::new("qa").as_str(), "QA");
        assert_eq!(CountryCode::new("Qa").to_string(), "QA");
    }

    #[test]
    #[should_panic(expected = "bad country code")]
    fn country_code_rejects_junk() {
        CountryCode::new("Q1");
    }

    #[test]
    fn allocation_is_sequential_and_owned() {
        let mut r = sample();
        let a = r.allocate_prefix(Asn(42298), 1).unwrap();
        let b = r.allocate_prefix(Asn(12486), 4).unwrap();
        assert_eq!(a.to_string(), "5.0.0.0/24");
        // 4 x /24 aligned up to a /22 boundary.
        assert_eq!(b.to_string(), "5.0.4.0/22");
        assert_eq!(r.asn_of("5.0.0.9".parse().unwrap()), Some(Asn(42298)));
        assert_eq!(r.asn_of("5.0.5.1".parse().unwrap()), Some(Asn(12486)));
        assert_eq!(r.asn_of("5.0.1.1".parse().unwrap()), None);
    }

    #[test]
    fn country_of_ip_via_as() {
        let mut r = sample();
        let p = r.allocate_prefix(Asn(12486), 1).unwrap();
        assert_eq!(r.country_of(p.first()), Some(CountryCode::new("YE")));
    }

    #[test]
    fn unknown_as_cannot_allocate() {
        let mut r = sample();
        assert!(r.allocate_prefix(Asn(99999), 1).is_none());
    }

    #[test]
    #[should_panic(expected = "country")]
    fn as_requires_registered_country() {
        let mut r = Registry::new();
        r.register_as(1, "X", "ZZ");
    }

    #[test]
    fn cctld_lookup() {
        let r = sample();
        assert_eq!(r.country_by_cctld("QA").unwrap().name, "Qatar");
        assert!(r.country_by_cctld("xx").is_none());
    }

    #[test]
    fn asn_display() {
        assert_eq!(Asn(5384).to_string(), "AS5384");
    }
}
