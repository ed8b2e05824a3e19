//! A deterministic simulated Internet.
//!
//! The paper's measurements ran against the real 2012–2013 Internet —
//! Shodan crawls, in-country vantage points, vendor middleboxes deployed
//! in national ISPs. None of that is available to a reproduction, so this
//! crate provides the substitute substrate: a **single-process,
//! deterministic model of the Internet** with just enough fidelity for
//! every step of the methodology to run unchanged:
//!
//! * an IPv4 address space carved into prefixes owned by autonomous
//!   systems ([`registry`]), each located in a country;
//! * DNS ([`dns`]) mapping hostnames to addresses, its names held in
//!   the deterministic string table ([`intern`]) that the scanner's
//!   scan index shares;
//! * hosts running HTTP [`service`]s on ports — origin sites, admin
//!   consoles, vendor portals;
//! * networks (ISPs) whose egress traffic traverses a chain of
//!   [`middlebox`]es — this is where `filterwatch-products` plugs in its
//!   URL filters;
//! * vantage points ([`vantage`]) — "testers" attached to a network, from
//!   which URL fetches originate (the field clients and the Toronto lab);
//! * a virtual [`clock`](time) measured in seconds/days, so
//!   submit-and-retest-in-3-days protocols run instantly, and a
//!   `(time, seq)`-ordered [`event`] queue on it, where the
//!   orchestrator parks campaign deadlines;
//! * seeded randomness and per-network [`fault`] injection (packet drop,
//!   TCP reset, transient DNS failure, truncation, latency jitter and
//!   deterministic outage windows on the virtual clock), reproducing the
//!   flaky measurement conditions of §4.4.
//!
//! Everything is deterministic: construct [`Internet::new`] with a seed
//! and the same experiment produces byte-identical results.
//!
//! # Concurrency model
//!
//! Fetches take `&self` — services and middleboxes use interior
//! mutability where they are stateful — so a scanner may probe the
//! simulated address space from many threads. A fetch runs straight
//! through on the caller's thread; of the `Internet`'s own state it
//! locks only the shared fault RNG and whichever recorders are switched
//! on. Topology changes (adding hosts, registering domains) take
//! `&mut self`.
//!
//! # Example
//!
//! ```
//! use filterwatch_netsim::{Internet, NetworkSpec, service::StaticSite};
//! use filterwatch_http::Url;
//!
//! let mut net = Internet::new(42);
//! net.registry_mut().register_country("CA", "Canada", "ca");
//! let asn = net.registry_mut().register_as(7777, "EXAMPLE-NET", "CA");
//! let prefix = net.registry_mut().allocate_prefix(asn, 8).unwrap();
//! let isp = net.add_network(NetworkSpec::new("example-isp", asn, "CA").with_cidr(prefix));
//! let ip = net.alloc_ip(isp).unwrap();
//! net.add_host(ip, isp, &["www.example.ca"]);
//! net.add_service(ip, 80, Box::new(StaticSite::new("Hello", "<p>hi</p>")));
//! let vp = net.add_vantage("tester", isp);
//!
//! let outcome = net.fetch(vp, &Url::parse("http://www.example.ca/").unwrap());
//! assert!(outcome.response().unwrap().status.is_success());
//! ```

pub mod dns;
pub mod event;
pub mod fault;
pub mod flowlog;
pub mod intern;
pub mod internet;
pub mod ip;
pub mod middlebox;
pub mod outcome;
pub mod registry;
pub mod rng;
pub mod service;
pub mod time;
pub mod vantage;

pub use dns::Dns;
pub use event::{EventId, EventQueue};
pub use fault::{Fault, FaultProfile, FaultProfileError, OutageWindow};
pub use flowlog::{FlowDisposition, FlowRecord};
pub use internet::{Host, Internet, Network, NetworkId, NetworkSpec};
pub use ip::{Cidr, IpAddr};
pub use middlebox::{Flapping, FlowCtx, Middlebox, Verdict};
pub use outcome::FetchOutcome;
pub use registry::{Asn, CountryCode, Registry};
pub use service::{Service, ServiceCtx};
pub use time::SimTime;
pub use vantage::{Vantage, VantageId};
