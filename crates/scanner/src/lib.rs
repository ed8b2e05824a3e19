//! Internet-wide scanning and the keyword-searchable scan index.
//!
//! §3.1: "The Shodan search engine indexes the IP addresses of externally
//! visible devices on the Internet. Entries in Shodan consist of an IP
//! address, along with meta-data and HTTP headers observed when the IP
//! address was accessed by the search engine. ... We search for these
//! keywords, in combination with each of the two letter country-code
//! top-level domains, to maximize the set of results we obtain."
//!
//! This crate is the Shodan analog for the simulated Internet:
//!
//! * [`ScanEngine`] — a parallel banner-grab crawler that walks the
//!   hosts of every allocated prefix, probing the HTTP ports they bind
//!   (and the `/webadmin/` path on 8080, as crawlers that follow links
//!   would record) and capturing status line + headers + a body snippet
//!   per responsive endpoint;
//! * [`ScanIndex`] — the resulting keyword-searchable index: sharded
//!   ([`shard`]), interned ([`intern`]), bitset-posted ([`bitset`]),
//!   incrementally ingestable via [`ScanIndex::apply_delta`], with
//!   country/ccTLD-scoped queries and a cached per-epoch sweep plan;
//! * [`keywords`] — the Table 2 keyword table per product;
//! * [`synth`] — a deterministic synthetic banner generator for
//!   exercising shard boundaries at 10⁴–10⁶ records.
//!
//! Snapshots serialize via [`dump`] for longitudinal comparison (what
//! appeared/disappeared between campaigns — the §2.2 vendor-withdrawal
//! stories are diffs of exactly this kind).
//!
//! Like the real thing, the index only ever sees **externally visible**
//! services — a filter whose console binds to internal address space
//! never appears, which is exactly the §6.1 limitation.

pub mod bitset;
pub mod census;
pub mod dump;
pub mod engine;
pub mod index;
pub mod intern;
pub mod keywords;
pub mod merge;
mod record;
pub mod shard;
pub mod synth;

pub use bitset::DenseBitSet;
pub use census::{enrich, CensusRecord, CensusSweep};
pub use dump::{diff, IndexDiff};
pub use engine::ScanEngine;
pub use index::{DeltaStats, IndexStats, ProductHits, ScanIndex};
pub use intern::{Interner, Sym};
pub use merge::{ordered_flatten, ordered_merge_by_key};
pub use record::ScanRecord;
pub use shard::{IndexShard, ShardConfig, ShardEpoch};
pub use synth::{synth_churn, synth_records, synth_records_with, SYNTH_COUNTRIES};
