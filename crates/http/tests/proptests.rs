//! Property-based tests for the HTTP model.

use filterwatch_http::{registrable_domain, Headers, Response, Status, Url};
use proptest::prelude::*;

fn host_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,10}(\\.[a-z][a-z0-9-]{0,8}){0,3}"
}

fn path_strategy() -> impl Strategy<Value = String> {
    "(/[a-zA-Z0-9._-]{0,8}){0,4}".prop_map(|p| if p.is_empty() { "/".to_string() } else { p })
}

/// The split-and-join reading of the registrable domain: the host
/// lowercased, kept whole when it is all digits and dots, otherwise its
/// last two `.`-separated labels joined again.
fn split_and_join(host: &str) -> String {
    let host = host.to_ascii_lowercase();
    if host.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return host;
    }
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() <= 2 {
        host
    } else {
        labels[labels.len() - 2..].join(".")
    }
}

fn hash_of(url: &Url) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    url.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    /// Every accessor reads back the part the URL was written with,
    /// display → parse round-trips, and the other constructors build the
    /// URL `parse` builds from the same text.
    #[test]
    fn url_round_trip(https in any::<bool>(), host in host_strategy(),
                      upper in proptest::collection::vec(any::<bool>(), 40),
                      port in proptest::option::of(1u16..=65535), path in path_strategy(),
                      query in proptest::option::of("[a-z0-9=&]{0,20}")) {
        let scheme = if https { "https" } else { "http" };
        let default_port = if https { 443 } else { 80 };
        let mixed: String = host
            .chars()
            .zip(&upper)
            .map(|(c, &up)| if up { c.to_ascii_uppercase() } else { c })
            .collect();
        let authority = match port {
            Some(p) => format!("{mixed}:{p}"),
            None => mixed.clone(),
        };
        let path_query = match &query {
            Some(q) => format!("{path}?{q}"),
            None => path.clone(),
        };
        let url = Url::parse(&format!("{scheme}://{authority}{path_query}")).unwrap();
        prop_assert_eq!(url.scheme(), scheme);
        prop_assert_eq!(url.host(), host.as_str());
        prop_assert_eq!(url.port(), port.unwrap_or(default_port));
        prop_assert_eq!(url.path(), path.as_str());
        prop_assert_eq!(url.query(), query.as_deref());
        prop_assert_eq!(url.path_and_query(), path_query.as_str());
        let shown = match port.filter(|&p| p != default_port) {
            Some(p) => format!("{scheme}://{host}:{p}{path_query}"),
            None => format!("{scheme}://{host}{path_query}"),
        };
        prop_assert_eq!(url.to_string(), shown);
        prop_assert_eq!(
            format!("{url:?}"),
            format!(
                "Url {{ scheme: {scheme:?}, host: {host:?}, port: {}, path: {path:?}, query: {:?} }}",
                url.port(),
                query.as_deref()
            )
        );
        prop_assert_eq!(&Url::parse(&url.to_string()).unwrap(), &url);

        let elsewhere = Url::parse(&format!("{scheme}://{authority}/elsewhere?x=1")).unwrap();
        let moved = elsewhere.with_path(&path_query);
        prop_assert_eq!(&moved, &url);
        prop_assert_eq!(hash_of(&moved), hash_of(&url));
        if !https {
            let at = Url::http_at(&mixed, url.port(), &path_query);
            prop_assert_eq!(&at, &url);
            prop_assert_eq!(hash_of(&at), hash_of(&url));
        }
    }

    /// The registrable domain is the host's last two labels (or the
    /// dotted-quad itself), a suffix of the host.
    #[test]
    fn registrable_domain_is_suffix(host in host_strategy()) {
        let url = Url::parse(&format!("http://{host}/")).unwrap();
        let reg = url.registrable_domain();
        prop_assert!(url.host().ends_with(reg));
        let labels: Vec<&str> = host.split('.').collect();
        prop_assert_eq!(reg, labels[labels.len().saturating_sub(2)..].join("."));
    }

    /// `registrable_domain` agrees with the split-and-join reading on
    /// arbitrary hosts (empty labels, trailing dots, dotted quads,
    /// uppercase) and keeps the host's case.
    #[test]
    fn registrable_domain_agrees_with_split_and_join(host in prop_oneof![
        "[a-cX-Z0-9.]{0,14}",
        "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.?",
        "[a-zA-Z-]{0,6}(\\.[a-zA-Z0-9-]{0,6}){0,4}\\.?",
    ]) {
        let reg = registrable_domain(&host);
        prop_assert!(host.ends_with(reg));
        prop_assert_eq!(reg.to_ascii_lowercase(), split_and_join(&host));
        prop_assert_eq!(registrable_domain(&host.to_ascii_lowercase()), split_and_join(&host));
    }

    /// Headers: set-then-get returns the set value, case-insensitively.
    #[test]
    fn headers_set_get(name in "[A-Za-z][A-Za-z0-9-]{0,15}", v1 in "[ -~]{0,30}", v2 in "[ -~]{0,30}") {
        let mut h = Headers::new();
        h.append(name.clone(), v1);
        h.set(name.to_ascii_uppercase(), v2.clone());
        prop_assert_eq!(h.get_all(&name.to_ascii_lowercase()), vec![v2.as_str()]);
    }

    /// html::escape output never contains raw specials and round-trips
    /// length-monotonically.
    #[test]
    fn escape_is_safe(text in "\\PC{0,80}") {
        let escaped = filterwatch_http::html::escape(&text);
        prop_assert!(!escaped.contains('<'));
        prop_assert!(!escaped.contains('>'));
        prop_assert!(escaped.len() >= text.len());
    }

    /// A page built with html::page always yields its title back.
    #[test]
    fn page_title_extraction(title in "[ -~&&[^<>&\"']]{0,40}") {
        let doc = filterwatch_http::html::page(&title, "<p>body</p>");
        let extracted = filterwatch_http::html::extract_title(&doc);
        prop_assert_eq!(extracted, Some(title.trim().to_string()));
    }

    /// Banner text always starts with the status line.
    #[test]
    fn banner_starts_with_status(code in 100u16..600) {
        let resp = Response::new(Status(code));
        let prefix = format!("HTTP/1.1 {code}");
        prop_assert!(resp.banner().starts_with(&prefix));
    }
}
