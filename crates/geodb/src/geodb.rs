//! Country-level IP geolocation (MaxMind analog).

use crate::interval::IntervalMap;

/// Country-level geolocation database.
///
/// Values are two-letter country codes (uppercase by convention;
/// normalization is the caller's job when building).
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    map: IntervalMap<String>,
}

impl GeoDb {
    /// An empty database.
    pub fn new() -> Self {
        GeoDb::default()
    }

    /// Add a range (inclusive, as raw `u32` address values).
    pub fn add_range(&mut self, start: u32, end: u32, country: &str) {
        self.map.insert(start, end, country.to_ascii_uppercase());
    }

    /// Country code for an address, if covered.
    pub fn lookup(&self, ip: u32) -> Option<&str> {
        self.map.get(ip).map(String::as_str)
    }

    /// Number of ranges loaded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_normalizes_to_uppercase() {
        let mut db = GeoDb::new();
        db.add_range(0x0500_0000, 0x0500_00FF, "qa");
        assert_eq!(db.lookup(0x0500_0080), Some("QA"));
        assert_eq!(db.lookup(0x0500_0100), None);
    }

    #[test]
    fn multiple_countries() {
        let mut db = GeoDb::new();
        db.add_range(100, 199, "SA");
        db.add_range(200, 299, "AE");
        db.add_range(300, 399, "YE");
        assert_eq!(db.lookup(150), Some("SA"));
        assert_eq!(db.lookup(250), Some("AE"));
        assert_eq!(db.lookup(350), Some("YE"));
        assert_eq!(db.lookup(50), None);
        assert_eq!(db.len(), 3);
    }
}
