//! Owned HTTP response messages.

use std::fmt::Write;
use std::sync::Arc;

use crate::{Headers, Status};

/// An HTTP response: what services return, what middleboxes may replace
/// with a block page, and what measurement clients compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Response headers.
    pub headers: Headers,
    /// Response body.
    pub body: Arc<[u8]>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: Status) -> Self {
        Response {
            status,
            headers: Headers::new(),
            body: Arc::from([]),
        }
    }

    /// A `200 OK` HTML response.
    pub fn html(body: impl Into<String>) -> Self {
        let body: String = body.into();
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/html; charset=utf-8");
        Response {
            status: Status::OK,
            headers,
            body: Arc::from(body.into_bytes()),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: Status, body: impl Into<String>) -> Self {
        let body: String = body.into();
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/plain; charset=utf-8");
        Response {
            status,
            headers,
            body: Arc::from(body.into_bytes()),
        }
    }

    /// A `302 Found` redirect to `location`.
    pub fn redirect(location: &str) -> Self {
        let mut headers = Headers::new();
        headers.set("Location", location);
        Response {
            status: Status::FOUND,
            headers,
            body: Arc::from([]),
        }
    }

    /// A `404 Not Found` with a minimal body.
    pub fn not_found() -> Self {
        Response::text(Status::NOT_FOUND, "not found")
    }

    /// Builder-style: set a header (replacing existing values).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Builder-style: set the status.
    pub fn with_status(mut self, status: Status) -> Self {
        self.status = status;
        self
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// `Location` header, if this is a redirect.
    pub fn location(&self) -> Option<&str> {
        self.headers.get("Location")
    }

    /// HTML `<title>` of the body, if any.
    pub fn title(&self) -> Option<String> {
        crate::html::extract_title(&self.body_text())
    }

    /// The "banner" view of this response: status line plus raw header
    /// block — exactly what a Shodan-style crawler records.
    pub fn banner(&self) -> String {
        let mut out = String::new();
        self.write_banner(&mut out);
        out
    }

    /// Append the [`banner`](Self::banner) to `out`.
    pub fn write_banner(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "HTTP/1.1 {}\r\n", self.status);
        self.headers.write_wire(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_sets_content_type() {
        let r = Response::html("<html><title>T</title></html>");
        assert!(r.status.is_success());
        assert_eq!(
            r.headers.get("content-type"),
            Some("text/html; charset=utf-8")
        );
        assert_eq!(r.title(), Some("T".into()));
    }

    #[test]
    fn redirect_has_location() {
        let r = Response::redirect("http://www.cfauth.com/?cfru=abc");
        assert!(r.status.is_redirect());
        assert_eq!(r.location(), Some("http://www.cfauth.com/?cfru=abc"));
    }

    #[test]
    fn banner_contains_status_and_headers() {
        let r = Response::new(Status::UNAUTHORIZED).with_header("Server", "ProxySG");
        let banner = r.banner();
        assert!(banner.starts_with("HTTP/1.1 401 Unauthorized\r\n"));
        assert!(banner.contains("Server: ProxySG\r\n"));
    }

    #[test]
    fn builder_chains() {
        let r = Response::text(Status::OK, "hi")
            .with_status(Status::FORBIDDEN)
            .with_header("X-Filter", "on");
        assert_eq!(r.status, Status::FORBIDDEN);
        assert_eq!(r.headers.get("x-filter"), Some("on"));
        assert_eq!(r.body_text(), "hi");
    }

    #[test]
    fn not_found_is_error() {
        assert!(Response::not_found().status.is_error());
    }
}
