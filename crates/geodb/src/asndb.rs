//! IP→ASN mapping with whois-style output (Team Cymru analog).

use crate::interval::IntervalMap;

/// One origin-AS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsnRecord {
    /// Autonomous system number.
    pub asn: u32,
    /// AS name as whois reports it (e.g. `"ETISALAT-AS"`).
    pub name: String,
    /// Two-letter registration country code.
    pub country: String,
}

/// IP→origin-AS database.
#[derive(Debug, Clone, Default)]
pub struct AsnDb {
    map: IntervalMap<AsnRecord>,
}

impl AsnDb {
    /// An empty database.
    pub fn new() -> Self {
        AsnDb::default()
    }

    /// Add a range (inclusive, raw `u32` address values) originated by
    /// `asn`.
    pub fn add_range(&mut self, start: u32, end: u32, asn: u32, name: &str, country: &str) {
        self.map.insert(
            start,
            end,
            AsnRecord {
                asn,
                name: name.to_string(),
                country: country.to_ascii_uppercase(),
            },
        );
    }

    /// The record covering `ip`, if any.
    pub fn lookup(&self, ip: u32) -> Option<&AsnRecord> {
        self.map.get(ip)
    }

    /// Render a lookup in the pipe-separated Team Cymru bulk-whois style:
    /// `AS | IP | CC | AS Name`, or a `NA` row when unmapped.
    pub fn whois_line(&self, ip: u32) -> String {
        let dotted = format!(
            "{}.{}.{}.{}",
            (ip >> 24) & 0xff,
            (ip >> 16) & 0xff,
            (ip >> 8) & 0xff,
            ip & 0xff
        );
        match self.lookup(ip) {
            Some(rec) => format!("{} | {} | {} | {}", rec.asn, dotted, rec.country, rec.name),
            None => format!("NA | {dotted} | NA | NA"),
        }
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

    fn db() -> AsnDb {
        let mut db = AsnDb::new();
        db.add_range(0x0500_0000, 0x0500_03FF, 5384, "EMIRATES-INTERNET", "ae");
        db.add_range(0x0500_0400, 0x0500_07FF, 12486, "YEMENNET", "YE");
        db
    }

    #[test]
    fn lookup_record() {
        let db = db();
        let rec = db.lookup(0x0500_0001).unwrap();
        assert_eq!(rec.asn, 5384);
        assert_eq!(rec.country, "AE");
        assert!(db.lookup(0x0600_0000).is_none());
    }

    #[test]
    fn whois_line_format() {
        let db = db();
        assert_eq!(
            db.whois_line(0x0500_0401),
            "12486 | 5.0.4.1 | YE | YEMENNET"
        );
        assert_eq!(db.whois_line(0x0900_0000), "NA | 9.0.0.0 | NA | NA");
    }

    #[test]
    fn counters() {
        assert_eq!(db().len(), 2);
        assert!(!db().is_empty());
        assert!(AsnDb::new().is_empty());
    }
}
