//! Case-insensitive, ordered, multi-valued HTTP header map.
//!
//! Fingerprinting cares about details a plain `HashMap<String, String>`
//! loses: header *order* survives (banner text is compared as emitted),
//! names match case-insensitively but the original casing is preserved
//! (a `Via-Proxy` header must round-trip as `Via-Proxy`), and repeated
//! headers keep every value.

/// An ordered multimap of HTTP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Create an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header, keeping any existing values for the same name.
    pub fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Set a header, removing any previous values for the same name
    /// (case-insensitive).
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.remove(&name);
        self.entries.push((name, value.into()));
    }

    /// Remove all values for `name` (case-insensitive). Returns how many
    /// entries were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before - self.entries.len()
    }

    /// First value for `name` (case-insensitive), if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name` (case-insensitive), in insertion order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether any value exists for `name` (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of header entries (counting repeats).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Render as wire-format lines (`Name: value\r\n` per entry), the text
    /// scanners index and fingerprints match against.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        self.write_wire(&mut out);
        out
    }

    /// Append the [`to_wire`](Self::to_wire) lines to `out`.
    pub(crate) fn write_wire(&self, out: &mut String) {
        for (n, v) in &self.entries {
            out.push_str(n);
            out.push_str(": ");
            out.push_str(v);
            out.push_str("\r\n");
        }
    }
}

impl<N: Into<String>, V: Into<String>> FromIterator<(N, V)> for Headers {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut h = Headers::new();
        for (n, v) in iter {
            h.append(n, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup_preserves_original_case() {
        let mut h = Headers::new();
        h.append("Via-Proxy", "MWG 7.0");
        assert_eq!(h.get("via-proxy"), Some("MWG 7.0"));
        assert_eq!(h.to_wire(), "Via-Proxy: MWG 7.0\r\n");
    }

    #[test]
    fn append_keeps_repeats_set_replaces() {
        let mut h = Headers::new();
        h.append("X-Cache", "MISS");
        h.append("x-cache", "HIT");
        assert_eq!(h.get_all("X-CACHE"), vec!["MISS", "HIT"]);
        h.set("X-Cache", "BYPASS");
        assert_eq!(h.get_all("X-Cache"), vec!["BYPASS"]);
    }

    #[test]
    fn remove_reports_count() {
        let mut h: Headers = [("A", "1"), ("a", "2"), ("B", "3")].into_iter().collect();
        assert_eq!(h.remove("A"), 2);
        assert_eq!(h.len(), 1);
        assert!(!h.contains("a"));
        assert!(h.contains("b"));
    }

    #[test]
    fn order_is_insertion_order() {
        let h: Headers = [("Server", "x"), ("Date", "y"), ("Via", "z")]
            .into_iter()
            .collect();
        let names: Vec<&str> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Server", "Date", "Via"]);
    }

    #[test]
    fn empty_map() {
        let h = Headers::new();
        assert!(h.is_empty());
        assert_eq!(h.to_wire(), "");
        assert_eq!(h.get("anything"), None);
    }
}
