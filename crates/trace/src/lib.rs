//! # filterwatch-trace
//!
//! End-to-end causal tracing for the filterwatch pipeline.
//!
//! The paper's confirm methodology lives or dies on being able to argue
//! *why* a URL was labeled blocked — which fetch, which middlebox hop,
//! which fingerprint match, which retest. This crate provides that
//! argument as data:
//!
//! - **Deterministic ids** ([`TraceId`], [`SpanId`]): derived from the
//!   campaign seed with no ambient entropy, so traces are reproducible
//!   byte for byte.
//! - **A collector** ([`TraceHandle`]): the telemetry-handle pattern —
//!   disabled means `None` inside and zero overhead; enabled threads a
//!   stack of open spans through netsim flows, measure fetch/retry/
//!   breaker/quorum paths, fingerprint matches and core identify/
//!   confirm stages. Strictly an observer: no RNG draws, no clock
//!   movement, so campaign tables are byte-identical with tracing on
//!   or off.
//! - **A stable wire format**: [`TraceEvent`] lines through the shared
//!   `filterwatch_telemetry::wire` codec.
//! - **Reconstruction** ([`tree`]): span trees rebuilt from parent
//!   links alone — invariant under event-log line reordering.
//! - **Provenance** ([`ProvenanceIndex`]): query by URL, vantage or
//!   verdict; `explain` renders the full causal chain behind any
//!   verdict as byte-stable text (surfaced by the `tables` binary).
//!
//! A traced run ([`TraceMode::Full`]) records every span and point.

pub mod event;
pub mod handle;
pub mod ids;
pub mod provenance;
pub mod step;
pub mod tree;

pub use event::{from_log, to_log, TraceEvent};
pub use handle::{ScopeId, TraceHandle, TraceMode};
pub use ids::{SpanId, TraceId};
pub use provenance::ProvenanceIndex;
pub use step::StepKind;
pub use tree::{build_forest, profile, render_forest, render_profile};
