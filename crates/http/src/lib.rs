//! Minimal HTTP/1.1 model and wire codec for the filterwatch toolchain.
//!
//! Every stage of the paper's methodology is an HTTP conversation:
//! Shodan-style banner grabs read raw response heads, WhatWeb-style
//! fingerprinting inspects headers/titles/redirects, measurement clients
//! fetch URLs and compare bodies, and the vendor products themselves are
//! HTTP middleboxes that answer with block pages. This crate provides the
//! shared vocabulary:
//!
//! * [`Method`], [`Status`], [`Headers`] — message components, with the
//!   case-insensitive multi-valued header semantics real products rely on;
//! * [`Url`] — a pragmatic `http://host:port/path?query` parser (enough
//!   for URL-filtering work: no userinfo, fragments stripped);
//! * [`Request`] / [`Response`] — owned messages with builder APIs;
//! * [`codec`] — byte-exact serialization and an incremental parser, so
//!   scanners can work from captured bytes rather than structured objects;
//! * [`html`] — the few HTML inspection helpers fingerprinting needs
//!   (title extraction, tiny page templating).
//!
//! The model is synchronous and allocation-friendly ([`bytes::Bytes`]
//! bodies): the simulated Internet in `filterwatch-netsim` is
//! deterministic and single-address-space, so there is no need for an
//! async runtime.

pub mod codec;
mod error;
mod headers;
pub mod html;
mod method;
mod request;
mod response;
mod status;
mod url;

pub use error::HttpError;
pub use headers::Headers;
pub use method::Method;
pub use request::Request;
pub use response::Response;
pub use status::Status;
pub use url::{registrable_domain, Url};
