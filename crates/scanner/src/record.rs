//! One scan-index entry, held in one buffer.
//!
//! A [`ScanRecord`] keeps all of its text in one heap buffer laid out
//! as its searchable text in raw case,
//! `{ip} {port}{path} {hostnames joined by ' '} {banner} {body}`, with
//! the country code stored after it, outside the searchable span. Each
//! field is a slice of that buffer between two stored offsets, so the
//! keyword sweep scans [`ScanRecord::searchable_text`] with a
//! case-folding automaton and no copy of the text exists anywhere
//! else. Records are built only through [`ScanRecord::new`] from a
//! borrowed [`RecordParts`], so the buffer cannot disagree with the
//! fields: equality and `Clone` of the buffer are equality and `Clone`
//! of the fields.

use std::fmt;

use filterwatch_netsim::{IpAddr, SimTime};

/// The borrowed fields a [`ScanRecord`] is built from. `H` is the
/// hostname type, so callers holding `String`s and `&str`s both lend
/// them without copying.
#[derive(Debug)]
pub struct RecordParts<'a, H = &'a str> {
    /// The probed address.
    pub ip: IpAddr,
    /// The probed port.
    pub port: u16,
    /// The request path the banner was captured from (`/` for plain
    /// banner grabs; crawlers also record well-known console paths).
    pub path: &'a str,
    /// Hostnames known for the address (reverse-DNS analog).
    pub hostnames: &'a [H],
    /// Status line + raw header block, as received.
    pub banner: &'a str,
    /// Leading slice of the body (Shodan keeps a snippet, not the page).
    pub body_snippet: &'a str,
    /// Country meta-data (from the crawler's geolocation feed).
    pub country: Option<&'a str>,
    /// Origin AS meta-data.
    pub asn: Option<u32>,
    /// When the banner was captured.
    pub captured_at: SimTime,
}

/// Indices into [`ScanRecord`]'s `starts`, one per text field.
const PATH: usize = 0;
const HOSTS: usize = 1;
const BANNER: usize = 2;
const BODY: usize = 3;
const COUNTRY: usize = 4;

/// What the crawler recorded for one responsive `ip:port/path`.
#[derive(Clone, PartialEq, Eq)]
pub struct ScanRecord {
    /// `{ip} {port}{path} {hostnames} {banner} {body}{country}`.
    text: Box<str>,
    /// Where the path, hostnames, banner, body and country start in
    /// `text`; the searchable text ends where the country starts. Each
    /// of the first four fields ends one separator before the next
    /// field starts.
    starts: [usize; 5],
    /// Where each hostname but the last ends in `text` (empty for zero
    /// or one hostname, so a record with at most one owns no second
    /// heap object).
    host_ends: Box<[usize]>,
    /// Whether there is at least one hostname (`host_ends` tells how
    /// many).
    has_hostnames: bool,
    has_country: bool,
    ip: IpAddr,
    port: u16,
    asn: Option<u32>,
    captured_at: SimTime,
}

/// Decimal digits of `n`.
fn digits(n: u32) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Append `n` in decimal, as `{n}` formats it, without going through
/// `core::fmt`: records are minted 10⁵ at a time.
pub(crate) fn push_decimal(out: &mut String, n: u64) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

impl ScanRecord {
    /// Build a record from its parts, writing every text field once
    /// into one buffer of exactly the needed size.
    pub fn new<H: AsRef<str>>(parts: RecordParts<'_, H>) -> ScanRecord {
        let endpoint = parts
            .ip
            .octets()
            .iter()
            .map(|&octet| digits(octet.into()))
            .sum::<usize>()
            + 4 // three dots and the space before the port
            + digits(parts.port.into());
        let hosts: usize = parts.hostnames.iter().map(|h| h.as_ref().len()).sum();
        // Separators: between the hostnames, and after the path,
        // hostnames and banner.
        let len = endpoint
            + parts.path.len()
            + hosts
            + parts.hostnames.len().saturating_sub(1)
            + parts.banner.len()
            + parts.body_snippet.len()
            + parts.country.map_or(0, str::len)
            + 3;
        let mut text = String::with_capacity(len);
        for (i, octet) in parts.ip.octets().into_iter().enumerate() {
            if i > 0 {
                text.push('.');
            }
            push_decimal(&mut text, octet.into());
        }
        text.push(' ');
        push_decimal(&mut text, parts.port.into());
        let mut starts = [0; 5];
        starts[PATH] = text.len();
        text.push_str(parts.path);
        text.push(' ');
        starts[HOSTS] = text.len();
        let mut host_ends = Vec::with_capacity(parts.hostnames.len().saturating_sub(1));
        for (i, host) in parts.hostnames.iter().enumerate() {
            if i > 0 {
                host_ends.push(text.len());
                text.push(' ');
            }
            text.push_str(host.as_ref());
        }
        text.push(' ');
        starts[BANNER] = text.len();
        text.push_str(parts.banner);
        text.push(' ');
        starts[BODY] = text.len();
        text.push_str(parts.body_snippet);
        starts[COUNTRY] = text.len();
        text.push_str(parts.country.unwrap_or(""));
        debug_assert_eq!(text.len(), len);
        ScanRecord {
            text: text.into_boxed_str(),
            starts,
            host_ends: host_ends.into_boxed_slice(),
            has_hostnames: !parts.hostnames.is_empty(),
            has_country: parts.country.is_some(),
            ip: parts.ip,
            port: parts.port,
            asn: parts.asn,
            captured_at: parts.captured_at,
        }
    }

    /// The text between two offsets.
    fn slice(&self, start: usize, end: usize) -> &str {
        &self.text[start..end]
    }

    /// The probed address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// The probed port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The request path the banner was captured from.
    pub fn path(&self) -> &str {
        self.slice(self.starts[PATH], self.starts[HOSTS] - 1)
    }

    /// Hostnames known for the address, in capture order.
    pub fn hostnames(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        let count = if self.has_hostnames {
            self.host_ends.len() + 1
        } else {
            0
        };
        (0..count).map(|i| self.hostname(i))
    }

    /// Hostname `i`: it starts one separator after hostname `i - 1`
    /// ends, and the last one ends a separator before the banner.
    fn hostname(&self, i: usize) -> &str {
        let start = match i.checked_sub(1) {
            Some(prev) => self.host_ends[prev] + 1,
            None => self.starts[HOSTS],
        };
        let end = self
            .host_ends
            .get(i)
            .map_or(self.starts[BANNER] - 1, |&end| end);
        self.slice(start, end)
    }

    /// Status line + raw header block, as received.
    pub fn banner(&self) -> &str {
        self.slice(self.starts[BANNER], self.starts[BODY] - 1)
    }

    /// Leading slice of the body.
    pub fn body_snippet(&self) -> &str {
        self.slice(self.starts[BODY], self.starts[COUNTRY])
    }

    /// Country meta-data (from the crawler's geolocation feed).
    pub fn country(&self) -> Option<&str> {
        self.has_country
            .then(|| self.slice(self.starts[COUNTRY], self.text.len()))
    }

    /// Origin AS meta-data.
    pub fn asn(&self) -> Option<u32> {
        self.asn
    }

    /// When the banner was captured.
    pub fn captured_at(&self) -> SimTime {
        self.captured_at
    }

    /// Everything a keyword query is matched against, in raw case:
    /// `ip port+path hostnames banner body`, single-space separated,
    /// including the `port/path` form (`8080/webadmin/`) that Table 2's
    /// Netsweeper keywords rely on. The country is not part of it.
    pub fn searchable_text(&self) -> &str {
        self.slice(0, self.starts[COUNTRY])
    }
}

/// Prints the fields, as a derived `Debug` over them would.
impl fmt::Debug for ScanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanRecord")
            .field("ip", &self.ip)
            .field("port", &self.port)
            .field("path", &self.path())
            .field("banner", &self.banner())
            .field("body_snippet", &self.body_snippet())
            .field("hostnames", &self.hostnames().collect::<Vec<_>>())
            .field("country", &self.country())
            .field("asn", &self.asn)
            .field("captured_at", &self.captured_at)
            .finish()
    }
}

impl fmt::Display for ScanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}{} [{}] {}",
            self.ip,
            self.port,
            self.path(),
            self.country().unwrap_or("??"),
            self.banner().lines().next().unwrap_or("")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ScanRecord {
        ScanRecord::new(RecordParts {
            ip: "5.0.0.1".parse().unwrap(),
            port: 8080,
            path: "/webadmin/",
            hostnames: &["gw.isp.qa"],
            banner: "HTTP/1.1 401 Unauthorized\r\nServer: netsweeper/5.1\r\n",
            body_snippet: "<title>Netsweeper WebAdmin</title>",
            country: Some("QA"),
            asn: Some(42298),
            captured_at: SimTime::ZERO,
        })
    }

    /// The fields of a record under a derived `Debug`: the hand-written
    /// one must print the same.
    mod derived {
        use filterwatch_netsim::{IpAddr, SimTime};

        #[derive(Debug)]
        #[allow(dead_code)] // read only through `Debug`
        pub struct ScanRecord {
            pub ip: IpAddr,
            pub port: u16,
            pub path: String,
            pub banner: String,
            pub body_snippet: String,
            pub hostnames: Vec<String>,
            pub country: Option<String>,
            pub asn: Option<u32>,
            pub captured_at: SimTime,
        }
    }

    #[test]
    fn text_includes_port_path_form() {
        let record = record();
        assert_eq!(
            record.searchable_text(),
            "5.0.0.1 8080/webadmin/ gw.isp.qa HTTP/1.1 401 Unauthorized\r\n\
             Server: netsweeper/5.1\r\n <title>Netsweeper WebAdmin</title>"
        );
        // The buffer is exactly the searchable text and the country.
        assert_eq!(record.text.len(), record.searchable_text().len() + 2);
    }

    #[test]
    fn accessors_return_the_parts() {
        let r = record();
        assert_eq!(r.ip().to_string(), "5.0.0.1");
        assert_eq!(r.port(), 8080);
        assert_eq!(r.path(), "/webadmin/");
        assert_eq!(r.hostnames().collect::<Vec<_>>(), ["gw.isp.qa"]);
        assert_eq!(r.hostnames().len(), 1);
        assert_eq!(r.country(), Some("QA"));
        assert_eq!(r.asn(), Some(42298));
        assert_eq!(r.captured_at(), SimTime::ZERO);
    }

    #[test]
    fn endpoint_widths_are_exact() {
        // The buffer is sized before it is written, so every address
        // and port width must come out exact (`new` asserts it in debug
        // builds).
        for (ip, port) in [
            ("0.0.0.0", 0),
            ("9.10.99.100", 9),
            ("255.255.255.255", 65535),
            ("10.0.0.1", 10000),
        ] {
            let r = ScanRecord::new(RecordParts {
                ip: ip.parse().unwrap(),
                port,
                path: "/",
                hostnames: &[] as &[&str],
                banner: "",
                body_snippet: "",
                country: None,
                asn: None,
                captured_at: SimTime::ZERO,
            });
            assert_eq!(r.searchable_text(), format!("{ip} {port}/   "));
            assert_eq!(r.text.len(), r.searchable_text().len());
        }
    }

    #[test]
    fn debug_prints_the_fields_as_derived() {
        let r = record();
        let derived = derived::ScanRecord {
            ip: r.ip(),
            port: r.port(),
            path: r.path().into(),
            banner: r.banner().into(),
            body_snippet: r.body_snippet().into(),
            hostnames: r.hostnames().map(String::from).collect(),
            country: r.country().map(String::from),
            asn: r.asn(),
            captured_at: r.captured_at(),
        };
        assert_eq!(format!("{r:?}"), format!("{derived:?}"));
        assert_eq!(format!("{r:#?}"), format!("{derived:#?}"));
    }

    #[test]
    fn display_is_compact() {
        let s = record().to_string();
        assert!(s.starts_with("5.0.0.1:8080/webadmin/ [QA]"));
        assert!(s.contains("401"));
    }
}
