//! The in-network measurement client (§4.1).
//!
//! "Tests of Web page accessibility are performed using a measurement
//! client that accesses a specified list of URLs in the 'field' i.e.,
//! the location where censorship is suspected. This client software also
//! triggers the same set of URLs to be accessed from a server in our lab
//! at the University of Toronto ... The results of the Web page accesses
//! in the field and lab are compared to determine if the page was
//! blocked in the field location."
//!
//! The client follows redirects (vendor block pages are often served via
//! a redirect to a deny host) and classifies final responses against the
//! [`blockpage`] signature library — the "regular expressions
//! corresponding to the vendors' block pages" of §5. The per-URL verdict
//! distinguishes explicit blocking from ambiguous failures (timeouts,
//! resets), which the studied products avoid (§4.1) but the simulator
//! can still produce under fault injection. For measurements through
//! genuinely flaky paths (§4.4), the [`resilience`] module layers
//! retries with deterministic backoff, per-vantage circuit breakers and
//! quorum verdicts on top of the same client.

pub mod blockpage;
pub mod client;
pub mod resilience;
pub mod similarity;
pub mod stats;
pub mod verdict;

pub use blockpage::{BlockMatch, BlockPageLibrary};
pub use client::{FetchTrace, MeasurementClient, Observation};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, FaultClass, MeasurementQuality, QuorumPolicy,
    ResilienceConfig, RetryPolicy,
};
pub use similarity::body_similarity;
pub use stats::{to_csv, RunSummary};
pub use verdict::{UrlVerdict, Verdict, VerdictLabel, VerdictLine};
