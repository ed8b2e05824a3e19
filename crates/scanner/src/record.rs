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

/// The widest `"{ip} {port}"` prefix of a searchable text.
const MAX_ENDPOINT_LEN: usize = "255.255.255.255 65535".len();

impl ScanRecord {
    /// Append the record's searchable text to `out`: everything a
    /// keyword query is matched against, including the `port/path` form
    /// (`8080/webadmin/`) that Table 2's Netsweeper keywords rely on.
    /// The text is `ip port+path hostnames banner body`, single-space
    /// separated, with the hostnames joined by single spaces.
    ///
    /// `ScanIndex` writes each record's text once, straight into its
    /// corpus arena, and lowercases it there; queries never rebuild it.
    pub(crate) fn push_searchable_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{} {}", self.ip, self.port);
        out.push_str(&self.path);
        out.push(' ');
        for (i, host) in self.hostnames.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(host);
        }
        out.push(' ');
        out.push_str(&self.banner);
        out.push(' ');
        out.push_str(&self.body_snippet);
    }

    /// An upper bound on the bytes
    /// [`push_searchable_text`](Self::push_searchable_text) appends:
    /// exact but for the address and port, taken at their widest.
    pub(crate) fn searchable_len_bound(&self) -> usize {
        // One separator per hostname over-counts the joins by one; the
        // `+ 3` is the separators around the hostnames and the banner.
        let hosts: usize = self.hostnames.iter().map(|h| h.len() + 1).sum();
        MAX_ENDPOINT_LEN + self.path.len() + hosts + self.banner.len() + self.body_snippet.len() + 3
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
        let record = record();
        let mut text = String::new();
        record.push_searchable_text(&mut text);
        assert_eq!(
            text,
            "5.0.0.1 8080/webadmin/ gw.isp.qa HTTP/1.1 401 Unauthorized\r\n\
             Server: netsweeper/5.1\r\n <title>Netsweeper WebAdmin</title>"
        );
        assert!(text.len() <= record.searchable_len_bound());
    }

    #[test]
    fn display_is_compact() {
        let s = record().to_string();
        assert!(s.starts_with("5.0.0.1:8080/webadmin/ [QA]"));
        assert!(s.contains("401"));
    }
}
