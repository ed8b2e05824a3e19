//! Fingerprinting plugins.

use crate::matcher::Matcher;

/// A `(port, path)` pair the engine fetches on a candidate host.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Target {
    /// TCP port.
    pub port: u16,
    /// Request path.
    pub path: String,
}

impl Target {
    /// Build a target.
    pub fn new(port: u16, path: &str) -> Self {
        Target {
            port,
            path: path.to_string(),
        }
    }
}

/// A product signature: matchers evaluated against the responses from a
/// set of targets. The plugin hits if **any** matcher hits on **any**
/// target's response (WhatWeb semantics: each plugin aggregates several
/// alternative matches).
#[derive(Debug, Clone)]
pub struct Plugin {
    /// Plugin name (shows up in findings).
    pub name: &'static str,
    /// Product slug the plugin identifies (`ProductKind::slug` values).
    pub product: &'static str,
    /// Targets this plugin wants fetched (the engine deduplicates
    /// across plugins).
    pub targets: Vec<Target>,
    /// The alternative signatures.
    pub matchers: Vec<Matcher>,
}

impl Plugin {
    /// Create a plugin probing the default target (`80:/`).
    pub fn new(name: &'static str, product: &'static str) -> Self {
        Plugin {
            name,
            product,
            targets: vec![Target::new(80, "/")],
            matchers: Vec::new(),
        }
    }

    /// Builder-style: add a probe target.
    pub fn probing(mut self, port: u16, path: &str) -> Self {
        self.targets.push(Target::new(port, path));
        self
    }

    /// Builder-style: add an alternative matcher.
    pub fn matching(mut self, m: Matcher) -> Self {
        self.matchers.push(m);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_pattern::Pattern;

    #[test]
    fn builder() {
        let p = Plugin::new("test", "bluecoat")
            .probing(8080, "/console")
            .matching(Matcher::HeaderExists("Server"))
            .matching(Matcher::TitleMatches(Pattern::parse("x").unwrap()));
        assert_eq!(p.targets.len(), 2);
        assert_eq!(p.matchers.len(), 2);
        assert_eq!(p.targets[0], Target::new(80, "/"));
    }
}
