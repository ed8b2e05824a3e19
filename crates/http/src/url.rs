//! URL parsing tailored to URL-filtering work.
//!
//! The products under study categorize by *hostname* and sometimes by
//! full URL; the measurement clients fetch `http://host[:port]/path?query`
//! URLs. This parser covers exactly that shape: scheme `http`/`https`,
//! a hostname (or dotted-quad IP), optional port, path, optional query.
//! Fragments are stripped; userinfo is rejected (never appears in test
//! lists and is a known smuggling vector).

use std::fmt::{self, Write};
use std::sync::Arc;

use crate::HttpError;

/// A parsed absolute URL.
///
/// One shared buffer holds the display form
/// (`scheme://host[:port]path[?query]`) and every part is a slice of it,
/// so a clone bumps a reference count and [`Display`](fmt::Display)
/// writes the buffer as is. Two URLs are equal when their parts are.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Url {
    text: Arc<str>,
    /// Start of the host, just past `://`.
    host_start: usize,
    host_end: usize,
    /// Start of the path, past any explicit `:port`.
    path_start: usize,
    /// Start of the query, just past the `?`.
    query_start: Option<usize>,
    port: u16,
}

impl Url {
    /// Parse an absolute URL. A bare `host/path` form (no scheme) is
    /// accepted and treated as `http://`.
    pub fn parse(text: &str) -> Result<Self, HttpError> {
        let text = text.trim();
        if text.is_empty() {
            return Err(HttpError::InvalidUrl("empty".into()));
        }
        let (scheme, rest) = match text.split_once("://") {
            Some((s, rest)) => {
                let scheme = if s.eq_ignore_ascii_case("http") {
                    "http"
                } else if s.eq_ignore_ascii_case("https") {
                    "https"
                } else {
                    let s = s.to_ascii_lowercase();
                    return Err(HttpError::InvalidUrl(format!("unsupported scheme {s:?}")));
                };
                (scheme, rest)
            }
            None => ("http", text),
        };

        // Strip fragment.
        let rest = rest.split('#').next().unwrap_or("");

        let (authority, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.contains('@') {
            return Err(HttpError::InvalidUrl("userinfo not allowed".into()));
        }
        if authority.is_empty() {
            return Err(HttpError::InvalidUrl("missing host".into()));
        }

        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| HttpError::InvalidUrl(format!("bad port {p:?}")))?;
                (h, port)
            }
            None => (authority, default_port(scheme)),
        };
        if host.is_empty() {
            return Err(HttpError::InvalidUrl("missing host".into()));
        }
        if !host
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-')
        {
            return Err(HttpError::InvalidUrl(format!("bad host {host:?}")));
        }

        Ok(Url::assemble(scheme, host, port, path_query))
    }

    /// Convenience constructor for `http://host/` URLs.
    pub fn http(host: &str) -> Self {
        Url::assemble("http", host, 80, "/")
    }

    /// Convenience constructor for `http://host:port/path`.
    pub fn http_at(host: &str, port: u16, path: &str) -> Self {
        Url::assemble("http", host, port, path)
    }

    /// Write the display form into one buffer: the host lowercased, the
    /// port only when it is not the scheme's default, and `path_query`
    /// split at its first `?`.
    fn assemble(scheme: &str, host: &str, port: u16, path_query: &str) -> Self {
        let mut text = String::with_capacity(scheme.len() + host.len() + path_query.len() + 9);
        text.push_str(scheme);
        text.push_str("://");
        let host_start = text.len();
        text.push_str(host);
        text[host_start..].make_ascii_lowercase();
        let host_end = text.len();
        if port != default_port(scheme) {
            // Writing to a `String` cannot fail.
            let _ = write!(text, ":{port}");
        }
        let path_start = text.len();
        text.push_str(path_query);
        Url {
            query_start: path_query.find('?').map(|i| path_start + i + 1),
            text: text.into(),
            host_start,
            host_end,
            path_start,
            port,
        }
    }

    /// URL scheme (`http` or `https`).
    pub fn scheme(&self) -> &str {
        &self.text[..self.host_start - 3]
    }

    /// Lowercased hostname.
    pub fn host(&self) -> &str {
        &self.text[self.host_start..self.host_end]
    }

    /// Port (explicit or scheme default).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Path, always starting with `/`.
    pub fn path(&self) -> &str {
        // The path ends at the `?` before the query, or with the text.
        let end = self.query_start.map_or(self.text.len(), |q| q - 1);
        &self.text[self.path_start..end]
    }

    /// Raw query string, without the `?`.
    pub fn query(&self) -> Option<&str> {
        self.query_start.map(|q| &self.text[q..])
    }

    /// Path plus query as sent on the request line.
    pub fn path_and_query(&self) -> &str {
        &self.text[self.path_start..]
    }

    /// The host's [`registrable_domain`].
    pub fn registrable_domain(&self) -> &str {
        registrable_domain(self.host())
    }

    /// The value of one query parameter, if present (`k=v` pairs split
    /// on `&`; no percent-decoding).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Top-level domain label (`info` for `starwasher.info`), if any.
    pub fn tld(&self) -> Option<&str> {
        let last = self.host().rsplit('.').next()?;
        (!last.is_empty() && !last.chars().all(|c| c.is_ascii_digit())).then_some(last)
    }

    /// Replace the path (and clear the query).
    pub fn with_path(&self, path: &str) -> Self {
        Url::assemble(self.scheme(), self.host(), self.port, path)
    }
}

/// The registrable domain heuristic used for hostname-granularity
/// blocking: the last two labels of `host` (`foo.bar.example.info` →
/// `example.info`). Dotted-quad IPs are returned whole. Case is kept.
pub fn registrable_domain(host: &str) -> &str {
    if host.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return host;
    }
    match host.rfind('.').and_then(|last| host[..last].rfind('.')) {
        Some(dot) => &host[dot + 1..],
        None => host,
    }
}

/// The port a scheme implies when the URL names none.
fn default_port(scheme: &str) -> u16 {
    if scheme == "https" {
        443
    } else {
        80
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Url")
            .field("scheme", &self.scheme())
            .field("host", &self.host())
            .field("port", &self.port)
            .field("path", &self.path())
            .field("query", &self.query())
            .finish()
    }
}

impl std::str::FromStr for Url {
    type Err = HttpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_form() {
        let u = Url::parse("http://www.Example.COM:8080/a/b?x=1&y=2#frag").unwrap();
        assert_eq!(u.scheme(), "http");
        assert_eq!(u.host(), "www.example.com");
        assert_eq!(u.port(), 8080);
        assert_eq!(u.path(), "/a/b");
        assert_eq!(u.query(), Some("x=1&y=2"));
        assert_eq!(u.query_param("y"), Some("2"));
        assert_eq!(u.query_param("z"), None);
    }

    #[test]
    fn scheme_defaults() {
        assert_eq!(Url::parse("http://h.example/").unwrap().port(), 80);
        assert_eq!(Url::parse("https://h.example/").unwrap().port(), 443);
        assert_eq!(Url::parse("bare.example/x").unwrap().scheme(), "http");
    }

    #[test]
    fn missing_path_becomes_root() {
        let u = Url::parse("http://starwasher.info").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "http://starwasher.info/");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Url::parse("").is_err());
        assert!(Url::parse("ftp://x/").is_err());
        assert!(Url::parse("http://user@host/").is_err());
        assert!(Url::parse("http://:80/").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
        assert!(Url::parse("http://ho st/").is_err());
    }

    #[test]
    fn display_omits_default_port() {
        let u = Url::parse("http://h.example:80/x?q=1").unwrap();
        assert_eq!(u.to_string(), "http://h.example/x?q=1");
        let v = Url::parse("http://h.example:81/x").unwrap();
        assert_eq!(v.to_string(), "http://h.example:81/x");
    }

    #[test]
    fn registrable_domain() {
        assert_eq!(
            Url::parse("http://www.blog.example.info/")
                .unwrap()
                .registrable_domain(),
            "example.info"
        );
        assert_eq!(
            Url::parse("http://example.info/")
                .unwrap()
                .registrable_domain(),
            "example.info"
        );
        assert_eq!(
            Url::parse("http://localhost/")
                .unwrap()
                .registrable_domain(),
            "localhost"
        );
        assert_eq!(
            Url::parse("http://10.1.2.3/").unwrap().registrable_domain(),
            "10.1.2.3"
        );
    }

    #[test]
    fn tld() {
        assert_eq!(
            Url::parse("http://x.example.qa/").unwrap().tld(),
            Some("qa")
        );
        assert_eq!(Url::parse("http://10.0.0.1/").unwrap().tld(), None);
    }

    #[test]
    fn with_path() {
        let u = Url::parse("http://h.example/a?x=1").unwrap();
        let v = u.with_path("/b?y=2");
        assert_eq!(v.path(), "/b");
        assert_eq!(v.query(), Some("y=2"));
        let w = u.with_path("/plain");
        assert_eq!(w.query(), None);
    }

    #[test]
    fn http_at_constructor() {
        let u = Url::http_at("Admin.example", 8080, "/webadmin/deny?code=23");
        assert_eq!(u.host(), "admin.example");
        assert_eq!(u.port(), 8080);
        assert_eq!(u.path(), "/webadmin/deny");
        assert_eq!(u.query(), Some("code=23"));
    }

    #[test]
    fn path_and_query_round_trip() {
        let u = Url::parse("http://h/x/y?a=b").unwrap();
        assert_eq!(u.path_and_query(), "/x/y?a=b");
        let v = Url::parse("http://h/x").unwrap();
        assert_eq!(v.path_and_query(), "/x");
    }
}
