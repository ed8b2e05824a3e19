//! Error type of the URL parser.

/// An error raised while parsing a URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The URL text could not be parsed; the payload explains why.
    InvalidUrl(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::InvalidUrl(why) => write!(f, "invalid URL: {why}"),
        }
    }
}

impl std::error::Error for HttpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(HttpError::InvalidUrl("no host".into())
            .to_string()
            .contains("no host"));
    }
}
