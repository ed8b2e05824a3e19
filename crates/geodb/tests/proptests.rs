//! Property-based tests for the interval-map databases.

use filterwatch_geodb::{AsnDb, GeoDb, IntervalMap};
use proptest::prelude::*;

/// Generate a set of disjoint inclusive ranges out of sorted cut points.
fn disjoint_ranges(max_ranges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::btree_set(any::<u32>(), 2..max_ranges * 2 + 2).prop_map(|cuts| {
        let cuts: Vec<u32> = cuts.into_iter().collect();
        cuts.chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0], c[1]))
            .collect()
    })
}

proptest! {
    /// Every inserted range is fully retrievable; gaps return None.
    #[test]
    fn interval_map_lookup_correct(ranges in disjoint_ranges(8)) {
        let mut map = IntervalMap::new();
        for (i, &(s, e)) in ranges.iter().enumerate() {
            map.insert(s, e, i);
        }
        for (i, &(s, e)) in ranges.iter().enumerate() {
            prop_assert_eq!(map.get(s), Some(&i));
            prop_assert_eq!(map.get(e), Some(&i));
            prop_assert_eq!(map.get(s + (e - s) / 2), Some(&i));
        }
        // Points just outside any range map to no other range's value
        // unless adjacent ranges touch.
        for &(s, _) in &ranges {
            if s > 0 && !ranges.iter().any(|&(s2, e2)| s2 < s && s - 1 <= e2) {
                prop_assert_eq!(map.get(s - 1), None);
            }
        }
    }

    /// Ranges inserted in any order answer every probe as a brute-force
    /// scan over the ranges does: random probes and each range's edges
    /// and their outer neighbours.
    #[test]
    fn shuffled_inserts_match_brute_force(
        ranges in disjoint_ranges(8),
        keys in proptest::collection::vec(any::<u64>(), 8),
        probes in proptest::collection::vec(any::<u32>(), 20),
    ) {
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut map = IntervalMap::new();
        for &i in &order {
            let (s, e) = ranges[i];
            map.insert(s, e, i);
        }
        prop_assert_eq!(map.len(), ranges.len());
        let edges = ranges.iter().flat_map(|&(s, e)| {
            [s.wrapping_sub(1), s, e, e.wrapping_add(1)]
        });
        for p in probes.into_iter().chain(edges) {
            let expected = ranges.iter().position(|&(s, e)| s <= p && p <= e);
            prop_assert_eq!(map.get(p).copied(), expected, "probe {}", p);
        }
    }

    /// GeoDb uppercases codes and round-trips lookups.
    #[test]
    fn geodb_normalizes(ranges in disjoint_ranges(5), code in "[a-zA-Z]{2}") {
        let mut db = GeoDb::new();
        for &(s, e) in &ranges {
            db.add_range(s, e, &code);
        }
        let upper = code.to_ascii_uppercase();
        for &(s, _) in &ranges {
            prop_assert_eq!(db.lookup(s), Some(upper.as_str()));
        }
    }

    /// AsnDb whois lines are parseable pipe-separated rows.
    #[test]
    fn whois_line_format(ranges in disjoint_ranges(5), asn in 1u32..1_000_000, probe in any::<u32>()) {
        let mut db = AsnDb::new();
        for &(s, e) in &ranges {
            db.add_range(s, e, asn, "TEST-AS", "us");
        }
        let line = db.whois_line(probe);
        let fields: Vec<&str> = line.split(" | ").collect();
        prop_assert_eq!(fields.len(), 4);
        // Field 2 is always the dotted-quad of the probe.
        let octets: Vec<&str> = fields[1].split('.').collect();
        prop_assert_eq!(octets.len(), 4);
        let asn_text = asn.to_string();
        if db.lookup(probe).is_some() {
            prop_assert_eq!(fields[0], asn_text.as_str());
            prop_assert_eq!(fields[2], "US");
        } else {
            prop_assert_eq!(fields[0], "NA");
        }
    }
}
