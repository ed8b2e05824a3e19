//! HTTP request methods.

/// The subset of HTTP methods the toolchain uses.
///
/// Measurement clients and scanners only ever issue `GET`; vendor
/// submission portals accept `POST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Retrieve a resource (the default).
    #[default]
    Get,
    /// Submit a form (vendor URL-submission portals).
    Post,
}

impl Method {
    /// Canonical token, e.g. `"GET"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_get() {
        assert_eq!(Method::default(), Method::Get);
    }

    #[test]
    fn display() {
        assert_eq!(Method::Post.to_string(), "POST");
    }
}
