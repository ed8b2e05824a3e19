//! Building the MaxMind/Team-Cymru-analog databases from the simulated
//! registry's ground truth.
//!
//! §3.1: "we use geolocation data from MaxMind and whois data from
//! TeamCymru to map the IP addresses matching WhatWeb signatures to
//! country-level location and autonomous system (AS) number." In the
//! simulation both databases are *derived views* of the registry — exact
//! by construction. (The geodb crate itself is registry-agnostic, so
//! deliberately corrupted databases can be substituted to study
//! geolocation error.)

use filterwatch_geodb::{AsnDb, GeoDb};
use filterwatch_netsim::Registry;

/// Build the country-level geolocation database.
pub fn build_geodb(registry: &Registry) -> GeoDb {
    let mut db = GeoDb::new();
    for &(cidr, asn) in registry.prefixes() {
        if let Some(rec) = registry.as_record(asn) {
            db.add_range(
                cidr.first().value(),
                cidr.last().value(),
                rec.country.as_str(),
            );
        }
    }
    db
}

/// Build the IP→origin-AS database.
pub fn build_asndb(registry: &Registry) -> AsnDb {
    let mut db = AsnDb::new();
    for &(cidr, asn) in registry.prefixes() {
        if let Some(rec) = registry.as_record(asn) {
            db.add_range(
                cidr.first().value(),
                cidr.last().value(),
                rec.asn.0,
                &rec.name,
                rec.country.as_str(),
            );
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_netsim::Asn;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register_country("QA", "Qatar", "qa");
        r.register_country("YE", "Yemen", "ye");
        r.register_as(42298, "OOREDOO-QA", "QA");
        r.register_as(12486, "YEMENNET", "YE");
        r.allocate_prefix(Asn(42298), 1).unwrap();
        r.allocate_prefix(Asn(12486), 1).unwrap();
        r
    }

    #[test]
    fn geodb_matches_registry() {
        let r = registry();
        let db = build_geodb(&r);
        for &(cidr, _) in r.prefixes() {
            let expected = r.country_of(cidr.first()).unwrap();
            assert_eq!(db.lookup(cidr.first().value()), Some(expected.as_str()));
        }
        assert_eq!(db.lookup(0), None);
    }

    #[test]
    fn asndb_matches_registry() {
        let r = registry();
        let db = build_asndb(&r);
        let (cidr, asn) = r.prefixes()[1];
        let rec = db.lookup(cidr.first().value()).unwrap();
        assert_eq!(rec.asn, asn.0);
        assert_eq!(rec.name, "YEMENNET");
        assert!(db.whois_line(cidr.first().value()).contains("YEMENNET"));
    }
}
