//! Scan-index serialization and longitudinal diffing.
//!
//! The paper's scans are point-in-time snapshots; its §2.2 history
//! (Websense leaving Yemen, Blue Coat withdrawing Syrian updates) is a
//! *longitudinal* story. This module makes that measurable:
//!
//! * [`ScanIndex::to_dump`] / [`ScanIndex::from_dump`] — a line-based,
//!   versioned dump format (in the spirit of Shodan's data exports), so
//!   snapshots can be archived and compared across campaigns;
//! * [`diff`] — what appeared, disappeared, or changed banner between
//!   two snapshots.

use std::collections::BTreeMap;

use filterwatch_netsim::SimTime;
use filterwatch_telemetry::wire::{
    decode_list, encode_list, escape, field, optional, read_lines, split, unescape, write_lines,
    Wire, WireError, ABSENT,
};

use crate::index::ScanIndex;
use crate::record::{RecordParts, ScanRecord};

/// Format marker written as the first line of every dump.
const MAGIC: &str = "filterwatch-scan-dump v1";

/// One dump line, tab-separated: ip, port, path, country, asn,
/// hostnames (a list field), capture second, banner and body snippet.
/// An absent country or asn is written as `-`.
impl Wire for ScanRecord {
    fn to_line(&self) -> String {
        let hostnames: Vec<&str> = self.hostnames().collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.ip(),
            self.port(),
            escape(self.path()),
            self.country().map_or_else(|| ABSENT.to_string(), escape),
            self.asn()
                .map_or_else(|| ABSENT.to_string(), |a| a.to_string()),
            encode_list(&hostnames),
            self.captured_at().secs(),
            escape(self.banner()),
            escape(self.body_snippet()),
        )
    }

    fn parse_line(line: &str) -> Result<ScanRecord, WireError> {
        let [ip, port, path, country, asn, hostnames, captured, banner, body] = split(line, '\t')?;
        // Fields parse left to right, so the first bad one is reported.
        let ip = field("ip", ip)?;
        let port = field("port", port)?;
        let path = unescape("path", path)?;
        let country = optional(country, |c| unescape("country", c))?;
        let asn = optional(asn, |a| field("asn", a))?;
        let hostnames = if hostnames.is_empty() {
            Vec::new()
        } else {
            decode_list("hostnames", hostnames)?
        };
        let captured_at = SimTime::from_secs(field("captured_at", captured)?);
        let banner = unescape("banner", banner)?;
        let body_snippet = unescape("body_snippet", body)?;
        Ok(ScanRecord::new(RecordParts {
            ip,
            port,
            path: &path,
            hostnames: &hostnames,
            banner: &banner,
            body_snippet: &body_snippet,
            country: country.as_deref(),
            asn,
            captured_at,
        }))
    }
}

impl ScanIndex {
    /// Serialize the index to the dump format. Only live records are
    /// dumped, in arena order — tombstoned slots awaiting compaction
    /// never reach a snapshot.
    pub fn to_dump(&self) -> String {
        write_lines(Some(MAGIC), self.live_records())
    }

    /// Parse a dump back into an index. Errors name the failing line.
    pub fn from_dump(text: &str) -> Result<ScanIndex, WireError> {
        read_lines(Some(MAGIC), text).map(ScanIndex::build)
    }
}

/// What changed between two scan snapshots.
#[derive(Debug, Clone, Default)]
pub struct IndexDiff {
    /// Endpoints present only in the newer snapshot.
    pub appeared: Vec<String>,
    /// Endpoints present only in the older snapshot.
    pub disappeared: Vec<String>,
    /// Endpoints present in both but with a different banner.
    pub changed: Vec<String>,
}

impl IndexDiff {
    /// Whether the two snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.disappeared.is_empty() && self.changed.is_empty()
    }
}

/// Compare two snapshots by `(ip, port, path)` endpoint key.
pub fn diff(older: &ScanIndex, newer: &ScanIndex) -> IndexDiff {
    let key = |r: &ScanRecord| format!("{}:{}{}", r.ip(), r.port(), r.path());
    let old: BTreeMap<String, &ScanRecord> = older.live_records().map(|r| (key(r), r)).collect();
    let new: BTreeMap<String, &ScanRecord> = newer.live_records().map(|r| (key(r), r)).collect();

    let mut out = IndexDiff::default();
    for (k, rec) in &new {
        match old.get(k) {
            None => out.appeared.push(k.clone()),
            Some(old_rec) if old_rec.banner() != rec.banner() => out.changed.push(k.clone()),
            Some(_) => {}
        }
    }
    for k in old.keys() {
        if !new.contains_key(k) {
            out.disappeared.push(k.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record at `ip:port` with `path`, `banner`, `body` and
    /// `hostnames`.
    fn parts<'a>(
        ip: &str,
        port: u16,
        path: &'a str,
        banner: &'a str,
        body: &'a str,
        hostnames: &'a [&'a str],
    ) -> ScanRecord {
        ScanRecord::new(RecordParts {
            ip: ip.parse().unwrap(),
            port,
            path,
            hostnames,
            banner,
            body_snippet: body,
            country: Some("QA"),
            asn: Some(42298),
            captured_at: SimTime::from_days(3),
        })
    }

    const BODY: &str = "<title>x</title>\nline2\twith tab";
    const HOSTS: [&str; 2] = ["a.example", "b.example"];

    fn rec(ip: &str, port: u16, banner: &str) -> ScanRecord {
        parts(ip, port, "/", banner, BODY, &HOSTS)
    }

    #[test]
    fn dump_round_trip() {
        // Hostnames are a list field: a comma inside one survives.
        let hosts = ["a,b.example", "c.example"];
        let comma = parts("5.0.0.3", 80, "/", "banner", BODY, &hosts);
        let index = ScanIndex::build(vec![
            rec("5.0.0.1", 80, "HTTP/1.1 200 OK\r\nServer: x\r\n"),
            rec(
                "5.0.0.2",
                8080,
                "HTTP/1.1 401 Unauthorized\r\nServer: netsweeper\r\n",
            ),
            comma,
        ]);
        let dump = index.to_dump();
        let restored = ScanIndex::from_dump(&dump).unwrap();
        assert_eq!(index.records(), restored.records());
    }

    #[test]
    fn dump_rejects_garbage() {
        assert!(ScanIndex::from_dump("").is_err());
        assert!(ScanIndex::from_dump("not a dump\n").is_err());
        let bad = format!("{MAGIC}\nonly\tthree\tfields\n");
        assert!(ScanIndex::from_dump(&bad).is_err());
        // Unknown and dangling escapes are errors, not silently dropped.
        let line = rec("5.0.0.1", 80, "banner").to_line();
        for bad in [
            line.replace("banner", "ban\\qner"),
            line.replace("banner", "banner\\"),
        ] {
            let err = ScanIndex::from_dump(&format!("{MAGIC}\n{bad}\n")).unwrap_err();
            assert_eq!(err.field, "banner");
            assert!(err.reason.starts_with("line 2:"), "{err}");
        }
    }

    #[test]
    fn diff_classifies_changes() {
        let old = ScanIndex::build(vec![
            rec("5.0.0.1", 80, "banner-a"),
            rec("5.0.0.2", 80, "banner-b"),
        ]);
        let new = ScanIndex::build(vec![
            rec("5.0.0.2", 80, "banner-b2"),
            rec("5.0.0.3", 80, "banner-c"),
        ]);
        let d = diff(&old, &new);
        assert_eq!(d.appeared, vec!["5.0.0.3:80/"]);
        assert_eq!(d.disappeared, vec!["5.0.0.1:80/"]);
        assert_eq!(d.changed, vec!["5.0.0.2:80/"]);
        assert!(!d.is_empty());
        assert!(diff(&old, &old).is_empty());
    }

    #[test]
    fn escaping_round_trips() {
        for s in [
            "plain",
            "tab\there",
            "nl\nhere",
            "bs\\here",
            "\r\n\t\\",
            "a,b",
        ] {
            let r = parts("5.0.0.1", 80, s, s, s, &HOSTS);
            assert_eq!(ScanRecord::parse_line(&r.to_line()), Ok(r));
        }
    }
}
