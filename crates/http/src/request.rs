//! Owned HTTP request messages.

use std::sync::Arc;

use crate::{Headers, Method, Url};

/// An HTTP request as issued by measurement clients and scanners, and as
/// inspected by filtering middleboxes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute target URL. Middleboxes categorize on this.
    pub url: Url,
    /// Request headers. [`host`](Self::host) derives `Host` from `url`
    /// when absent here.
    pub headers: Headers,
    /// Request body (only used by `POST` submissions).
    pub body: Arc<[u8]>,
}

impl Request {
    /// A `GET` request for `url` with a standard minimal header set.
    pub fn get(url: Url) -> Self {
        Request {
            method: Method::Get,
            url,
            headers: Headers::new(),
            body: Arc::from([]),
        }
    }

    /// A `POST` of `form` (already URL-encoded) to `url`.
    pub fn post_form(url: Url, form: &str) -> Self {
        let mut headers = Headers::new();
        headers.set("Content-Type", "application/x-www-form-urlencoded");
        Request {
            method: Method::Post,
            url,
            headers,
            body: Arc::from(form.as_bytes()),
        }
    }

    /// Builder-style: set a header (replacing existing values).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// The effective `Host` header value: an explicit header if present,
    /// otherwise derived from the URL.
    pub fn host(&self) -> String {
        if let Some(h) = self.headers.get("Host") {
            return h.to_string();
        }
        if self.url.port() == 80 && self.url.scheme() == "http" {
            self.url.host().to_string()
        } else {
            format!("{}:{}", self.url.host(), self.url.port())
        }
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// A form field from an `application/x-www-form-urlencoded` body
    /// (no percent-decoding; the simulation never needs it).
    pub fn form_field(&self, key: &str) -> Option<String> {
        let text = self.body_text();
        for pair in text.split('&') {
            if let Some((k, v)) = pair.split_once('=') {
                if k == key {
                    return Some(v.to_string());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_builder() {
        let r = Request::get(Url::parse("http://example.info/x").unwrap());
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.host(), "example.info");
        assert!(r.body.is_empty());
    }

    #[test]
    fn host_includes_nonstandard_port() {
        let r = Request::get(Url::parse("http://gw.example:8080/webadmin/").unwrap());
        assert_eq!(r.host(), "gw.example:8080");
    }

    #[test]
    fn explicit_host_header_wins() {
        let r =
            Request::get(Url::parse("http://a.example/").unwrap()).with_header("Host", "b.example");
        assert_eq!(r.host(), "b.example");
    }

    #[test]
    fn post_form_fields() {
        let r = Request::post_form(
            Url::parse("http://vendor.example/submit").unwrap(),
            "url=http://x.info/&category=pornography",
        );
        assert_eq!(r.form_field("url"), Some("http://x.info/".into()));
        assert_eq!(r.form_field("category"), Some("pornography".into()));
        assert_eq!(r.form_field("missing"), None);
        assert_eq!(
            r.headers.get("Content-Type"),
            Some("application/x-www-form-urlencoded")
        );
    }
}
