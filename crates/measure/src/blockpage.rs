//! Vendor block-page signatures.
//!
//! §5: "Manual analysis identified regular expressions corresponding to
//! the vendors' block pages and automated analysis identified all URLs
//! which matched a given block page regular expression." The library
//! here is that regex set, expressed with `filterwatch_pattern`. It is
//! deliberately *independent* of the products crate — like the paper's
//! analysts, it matches what deployments actually emit, not what the
//! vendor source code says.
//!
//! The library is query-compiled: both signature tiers are
//! [`CompiledPatternSet`]s, so a classify call answers every literal
//! signature of a tier in a single case-folding automaton pass over the
//! trace text, without copying it, and stops at the tier's first match
//! (wildcard signatures ride the verified fallback tier). The standard
//! signatures are compiled once per process and shared by every library
//! (so by every measurement client); each library keeps its own
//! telemetry handle, and per-call latency can be recorded into a
//! histogram on it via [`BlockPageLibrary::with_telemetry`].

use std::sync::{Arc, OnceLock};

use filterwatch_pattern::{CompiledPatternSet, Pattern, PatternSet};
use filterwatch_telemetry::TelemetryHandle;

/// Histogram metric recording wall nanoseconds per classify call.
pub const CLASSIFY_LATENCY_METRIC: &str = "classify.wall_nanos";

/// Bucket bounds (ns) for [`CLASSIFY_LATENCY_METRIC`].
const CLASSIFY_LATENCY_BUCKETS: &[f64] = &[
    250.0,
    1_000.0,
    4_000.0,
    16_000.0,
    64_000.0,
    256_000.0,
    1_024_000.0,
];

/// A classified block observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMatch {
    /// The vendor the block page was attributed to, if identifiable
    /// (`None` = explicit block page with no recognizable vendor
    /// signature — e.g. a branding-stripped deployment).
    pub product: Option<String>,
    /// The signature that fired.
    pub evidence: String,
}

/// The two compiled signature tiers: vendor signatures, then the
/// generic explicit-denial fallback.
#[derive(Debug)]
struct Signatures {
    vendors: CompiledPatternSet,
    generic: CompiledPatternSet,
}

/// The vendor block-page signature library.
#[derive(Debug, Clone)]
pub struct BlockPageLibrary {
    signatures: Arc<Signatures>,
    telemetry: TelemetryHandle,
}

impl Default for BlockPageLibrary {
    fn default() -> Self {
        BlockPageLibrary::standard()
    }
}

impl BlockPageLibrary {
    /// The standard library covering the four studied products plus a
    /// generic explicit-denial fallback. The signatures compile on the
    /// first call; later calls share them.
    // Signature patterns are static literals that the library's tests parse.
    #[allow(clippy::expect_used)]
    pub fn standard() -> Self {
        static STANDARD: OnceLock<Arc<Signatures>> = OnceLock::new();
        let signatures = STANDARD.get_or_init(|| {
            let mut vendors = PatternSet::new();
            // McAfee SmartFilter / Web Gateway.
            vendors.insert("smartfilter", Pattern::literal("mcafee web gateway"));
            vendors.insert("smartfilter", Pattern::literal("via-proxy"));
            // Blue Coat: the cfauth redirect or the WebFilter portal page.
            vendors.insert("bluecoat", Pattern::literal("www.cfauth.com"));
            vendors.insert("bluecoat", Pattern::literal("cfru="));
            vendors.insert("bluecoat", Pattern::literal("blue coat webfilter"));
            // Netsweeper: the deny URL and the deny page wording.
            vendors.insert("netsweeper", Pattern::literal("webadmin/deny"));
            vendors.insert(
                "netsweeper",
                Pattern::parse("web page blocked*netsweeper").expect("static"),
            );
            // Websense: the 15871 block-page URL or page branding.
            vendors.insert(
                "websense",
                Pattern::parse(":15871/*blockpage.cgi").expect("static"),
            );
            vendors.insert("websense", Pattern::literal("websense"));

            let mut generic = PatternSet::new();
            generic.insert("generic", Pattern::literal("has been blocked"));
            generic.insert(
                "generic",
                Pattern::parse("access denied|access to this site is blocked").expect("static"),
            );
            generic.insert(
                "generic",
                Pattern::literal("access restricted by network policy"),
            );

            Arc::new(Signatures {
                vendors: CompiledPatternSet::compile(vendors),
                generic: CompiledPatternSet::compile(generic),
            })
        });
        BlockPageLibrary {
            signatures: Arc::clone(signatures),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Builder-style: record a per-call latency histogram
    /// ([`CLASSIFY_LATENCY_METRIC`]) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        telemetry.register_histogram(CLASSIFY_LATENCY_METRIC, CLASSIFY_LATENCY_BUCKETS);
        self.telemetry = telemetry;
        self
    }

    /// Classify a fetch trace (concatenated URLs, banners and bodies of
    /// every hop). Vendor signatures win over the generic fallback.
    pub fn classify(&self, trace_text: &str) -> Option<BlockMatch> {
        self.telemetry
            .observe_timed(CLASSIFY_LATENCY_METRIC, "", || {
                self.classify_inner(trace_text)
            })
    }

    fn classify_inner(&self, trace_text: &str) -> Option<BlockMatch> {
        // Each tier stops at its lowest-index match; nothing is copied.
        let Signatures { vendors, generic } = &*self.signatures;
        let vendor = vendors.first_match(trace_text);
        if let Some((name, pattern)) = vendor.and_then(|index| vendors.set().get(index)) {
            return Some(BlockMatch {
                product: Some(name.to_string()),
                evidence: format!("vendor signature /{pattern}/"),
            });
        }
        let generic_match = generic.first_match(trace_text);
        let (_, pattern) = generic_match.and_then(|index| generic.set().get(index))?;
        Some(BlockMatch {
            product: None,
            evidence: format!("generic denial /{pattern}/"),
        })
    }

    /// Number of vendor signatures loaded.
    pub fn vendor_signature_count(&self) -> usize {
        self.signatures.vendors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_each_vendor() {
        let lib = BlockPageLibrary::standard();
        let cases = [
            ("redirected to http://www.cfauth.com/?cfru=Zm9v", "bluecoat"),
            (
                "http://gw:8080/webadmin/deny?dpid=36 <title>Web Page Blocked</title>",
                "netsweeper",
            ),
            (
                "http://gw:15871/cgi-bin/blockpage.cgi?ws-session=3 websense content gateway",
                "websense",
            ),
            (
                "<title>McAfee Web Gateway - Notification</title> URL Blocked",
                "smartfilter",
            ),
        ];
        for (text, expected) in cases {
            let m = lib
                .classify(text)
                .unwrap_or_else(|| panic!("no match for {expected}"));
            assert_eq!(m.product.as_deref(), Some(expected), "{text}");
        }
    }

    #[test]
    fn generic_denial_without_branding() {
        let lib = BlockPageLibrary::standard();
        let m = lib
            .classify("<h1>Access Denied</h1><p>the page has been blocked.</p>")
            .unwrap();
        assert_eq!(m.product, None);
    }

    #[test]
    fn ordinary_pages_do_not_match() {
        let lib = BlockPageLibrary::standard();
        assert!(lib
            .classify("<title>Free Web Proxy</title> surf anonymously")
            .is_none());
        assert!(lib.classify("<title>News of the day</title>").is_none());
    }

    #[test]
    fn vendor_beats_generic() {
        let lib = BlockPageLibrary::standard();
        let m = lib
            .classify("Access Denied ... Blue Coat WebFilter policy")
            .unwrap();
        assert_eq!(m.product.as_deref(), Some("bluecoat"));
    }

    #[test]
    fn library_size() {
        assert!(BlockPageLibrary::standard().vendor_signature_count() >= 8);
    }

    #[test]
    fn evidence_strings_are_stable() {
        let lib = BlockPageLibrary::standard();
        let m = lib.classify("Server: ProxySG cfru=x").unwrap();
        assert_eq!(m.evidence, "vendor signature /cfru=/");
        let g = lib.classify("access denied by policy").unwrap();
        assert_eq!(
            g.evidence,
            "generic denial /access denied|access to this site is blocked/"
        );
    }

    #[test]
    fn telemetry_records_classify_latency() {
        let telemetry = TelemetryHandle::enabled();
        let lib = BlockPageLibrary::standard().with_telemetry(telemetry.clone());
        lib.classify("Server: ProxySG");
        lib.classify("nothing to see");
        let snapshot = telemetry.snapshot();
        let histogram = snapshot
            .histogram_named(CLASSIFY_LATENCY_METRIC)
            .expect("classify latency histogram");
        assert_eq!(histogram.total, 2);
        assert_eq!(histogram.bounds, CLASSIFY_LATENCY_BUCKETS.to_vec());
    }

    #[test]
    fn shared_signatures_keep_separate_telemetry() {
        let first_handle = TelemetryHandle::enabled();
        let second_handle = TelemetryHandle::enabled();
        let first = BlockPageLibrary::standard().with_telemetry(first_handle.clone());
        let second = BlockPageLibrary::standard().with_telemetry(second_handle.clone());
        let vendor_page = "Server: ProxySG cfru=x";
        let first_match = first.classify(vendor_page).expect("vendor match");
        second.classify("access denied by policy");
        for handle in [&first_handle, &second_handle] {
            let snapshot = handle.snapshot();
            let histogram = snapshot
                .histogram_named(CLASSIFY_LATENCY_METRIC)
                .expect("classify latency histogram");
            assert_eq!(histogram.total, 1, "one classify per handle");
        }
        let later = BlockPageLibrary::standard();
        assert_eq!(later.classify(vendor_page), Some(first_match));
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let lib = BlockPageLibrary::standard();
        lib.classify("Server: ProxySG");
        // No handle attached: nothing to snapshot, and no panic.
        assert!(TelemetryHandle::disabled().snapshot().is_empty());
    }
}
