//! One scan-index entry.

use filterwatch_netsim::{IpAddr, SimTime};

/// What the crawler recorded for one responsive `ip:port/path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRecord {
    /// The probed address.
    pub ip: IpAddr,
    /// The probed port.
    pub port: u16,
    /// The request path the banner was captured from (`/` for plain
    /// banner grabs; crawlers also record well-known console paths).
    pub path: String,
    /// Status line + raw header block, as received.
    pub banner: String,
    /// Leading slice of the body (Shodan keeps a snippet, not the page).
    pub body_snippet: String,
    /// Hostnames known for the address (reverse-DNS analog).
    pub hostnames: Vec<String>,
    /// Country meta-data (from the crawler's geolocation feed).
    pub country: Option<String>,
    /// Origin AS meta-data.
    pub asn: Option<u32>,
    /// When the banner was captured.
    pub captured_at: SimTime,
}

impl ScanRecord {
    /// The searchable text of the record: everything a keyword query is
    /// matched against, including the `port/path` form (`8080/webadmin/`)
    /// that Table 2's Netsweeper keywords rely on.
    ///
    /// Building this string is the cost `ScanIndex` amortizes: the
    /// index caches `searchable_text().to_ascii_lowercase()` per record
    /// at construction, so queries never call this.
    pub(crate) fn searchable_text(&self) -> String {
        format!(
            "{} {}{} {} {} {}",
            self.ip,
            self.port,
            self.path,
            self.hostnames.join(" "),
            self.banner,
            self.body_snippet
        )
    }
}

impl std::fmt::Display for ScanRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}{} [{}] {}",
            self.ip,
            self.port,
            self.path,
            self.country.as_deref().unwrap_or("??"),
            self.banner.lines().next().unwrap_or("")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ScanRecord {
        ScanRecord {
            ip: "5.0.0.1".parse().unwrap(),
            port: 8080,
            path: "/webadmin/".into(),
            banner: "HTTP/1.1 401 Unauthorized\r\nServer: netsweeper/5.1\r\n".into(),
            body_snippet: "<title>Netsweeper WebAdmin</title>".into(),
            hostnames: vec!["gw.isp.qa".into()],
            country: Some("QA".into()),
            asn: Some(42298),
            captured_at: SimTime::ZERO,
        }
    }

    #[test]
    fn text_includes_port_path_form() {
        let text = record().searchable_text();
        assert!(text.contains("8080/webadmin/"));
        assert!(text.contains("netsweeper/5.1"));
        assert!(text.contains("gw.isp.qa"));
    }

    #[test]
    fn display_is_compact() {
        let s = record().to_string();
        assert!(s.starts_with("5.0.0.1:8080/webadmin/ [QA]"));
        assert!(s.contains("401"));
    }
}
