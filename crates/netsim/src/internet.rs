//! The simulated Internet: topology, routing and the fetch path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use filterwatch_http::{Request, Response, Url};
use filterwatch_telemetry::TelemetryHandle;
use filterwatch_trace::{StepKind, TraceHandle};
use parking_lot::Mutex;
use rand::rngs::StdRng;

use crate::dns::Dns;
use crate::fault::{Fault, FaultProfile};
use crate::flowlog::{FlowDisposition, FlowRecord};
use crate::ip::{Cidr, IpAddr};
use crate::middlebox::{Chain, FlowCtx, Middlebox, Verdict};
use crate::outcome::FetchOutcome;
use crate::registry::{Asn, CountryCode, Registry};
use crate::rng::labelled_rng;
use crate::service::{Service, ServiceCtx};
use crate::time::SimTime;
use crate::vantage::{Vantage, VantageId};

/// Handle to a network (ISP) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkId(pub(crate) usize);

/// Description of a network to be added to the simulation.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Human-readable name ("etisalat", "toronto-lab").
    pub name: String,
    /// Owning autonomous system.
    pub asn: Asn,
    /// Country the network operates in.
    pub country: CountryCode,
    /// Address space the network announces.
    pub cidrs: Vec<Cidr>,
    /// Fault model for flows originating in this network.
    pub faults: FaultProfile,
}

impl NetworkSpec {
    /// A new spec with no prefixes and a clean fault profile.
    pub fn new(name: &str, asn: Asn, country: &str) -> Self {
        NetworkSpec {
            name: name.to_string(),
            asn,
            country: CountryCode::new(country),
            cidrs: Vec::new(),
            faults: FaultProfile::clean(),
        }
    }

    /// Builder-style: announce a prefix.
    pub fn with_cidr(mut self, cidr: Cidr) -> Self {
        self.cidrs.push(cidr);
        self
    }

    /// Builder-style: set the fault profile.
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }
}

/// A network (ISP, campus, lab) in the simulation.
pub struct Network {
    /// Handle of this network.
    pub id: NetworkId,
    /// Human-readable name.
    pub name: String,
    /// Owning AS.
    pub asn: Asn,
    /// Operating country.
    pub country: CountryCode,
    /// Announced prefixes.
    pub cidrs: Vec<Cidr>,
    /// Egress middlebox chain (URL filters plug in here).
    pub(crate) chain: Chain,
    /// Fault model for client flows.
    pub faults: FaultProfile,
}

impl Network {
    /// Names of the middleboxes on the egress path, in order.
    pub fn middlebox_names(&self) -> Vec<&str> {
        self.chain.names()
    }
}

/// A host: an address with hostnames and port-bound services.
pub struct Host {
    /// The host's address.
    pub ip: IpAddr,
    /// The network the address belongs to.
    pub network: NetworkId,
    /// Hostnames registered in DNS for this host.
    pub hostnames: Vec<String>,
    services: BTreeMap<u16, Box<dyn Service>>,
}

impl Host {
    /// Ports with a bound service, in order.
    pub fn open_ports(&self) -> Vec<u16> {
        self.services.keys().copied().collect()
    }

    /// Whether a service is bound to `port`. A connection to any other
    /// port fails, so a crawler only needs to probe ports that serve.
    pub fn serves(&self, port: u16) -> bool {
        self.services.contains_key(&port)
    }
}

/// The simulated Internet. See the [crate docs](crate) for an overview.
pub struct Internet {
    seed: u64,
    now_secs: AtomicU64,
    rng: Mutex<StdRng>,
    registry: Registry,
    dns: Dns,
    networks: Vec<Network>,
    hosts: BTreeMap<IpAddr, Host>,
    vantages: Vec<Vantage>,
    flow_log: Mutex<Vec<FlowRecord>>,
    flow_log_enabled: std::sync::atomic::AtomicBool,
    telemetry: TelemetryHandle,
    tracer: TraceHandle,
}

/// Source address used for scanner probes (outside all simulated networks).
const PROBE_SOURCE: IpAddr = IpAddr::from_octets(198, 51, 100, 1);

impl Internet {
    /// Create an empty simulated Internet with the given world seed.
    pub fn new(seed: u64) -> Self {
        Internet {
            seed,
            now_secs: AtomicU64::new(0),
            rng: Mutex::new(labelled_rng(seed, "internet/faults")),
            registry: Registry::new(),
            dns: Dns::new(),
            networks: Vec::new(),
            hosts: BTreeMap::new(),
            vantages: Vec::new(),
            flow_log: Mutex::new(Vec::new()),
            flow_log_enabled: std::sync::atomic::AtomicBool::new(false),
            telemetry: TelemetryHandle::disabled(),
            tracer: TraceHandle::disabled(),
        }
    }

    /// Attach a telemetry collector; fetches then record per-network
    /// counters, per-vendor verdict counts and a wall-clock latency
    /// histogram. The default handle is disabled and records nothing.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle (cheap to clone; disabled by default).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Attach a trace collector; fetches then emit causal point events
    /// (DNS, path faults, middlebox hops, origin replies) under
    /// whichever span the measurement layer has open. The tracer is
    /// a pure observer — it never draws from the fault RNG and never
    /// moves the virtual clock — so fetch outcomes are identical with
    /// tracing on or off.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// The trace handle (cheap to clone; disabled by default).
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// Enable or disable flow logging (disabled by default; logging
    /// every fetch costs memory on long campaigns).
    pub fn set_flow_log(&self, enabled: bool) {
        self.flow_log_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Snapshot the flow log.
    pub fn flow_log(&self) -> Vec<FlowRecord> {
        self.flow_log.lock().clone()
    }

    /// Clear the flow log, returning how many records were dropped.
    pub fn clear_flow_log(&self) -> usize {
        let mut log = self.flow_log.lock();
        let n = log.len();
        log.clear();
        n
    }

    fn log_flow(
        &self,
        net: &Network,
        client: IpAddr,
        url: &filterwatch_http::Url,
        disposition: FlowDisposition,
    ) {
        self.telemetry.counter_add("fetch.total", &net.name, 1);
        let kind = match &disposition {
            FlowDisposition::InjectedDnsFailure => "dnsfail-injected",
            other => other.head().to_token(),
        };
        self.telemetry.counter_add("fetch.disposition", kind, 1);
        match &disposition {
            FlowDisposition::Intercepted { middlebox, .. }
            | FlowDisposition::DroppedBy(middlebox)
            | FlowDisposition::ResetBy(middlebox) => {
                self.telemetry
                    .counter_add("middlebox.verdict", middlebox, 1);
            }
            _ => {}
        }
        if self.flow_log_enabled.load(Ordering::Relaxed) {
            self.flow_log.lock().push(FlowRecord {
                at: self.now(),
                client,
                network: net.name.clone(),
                url: url.to_string(),
                disposition,
            });
        }
    }

    /// The world seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.now_secs.load(Ordering::Relaxed))
    }

    /// Advance the virtual clock by whole seconds.
    pub fn advance_secs(&self, secs: u64) {
        self.now_secs.fetch_add(secs, Ordering::Relaxed);
    }

    /// Advance the virtual clock by whole days.
    pub fn advance_days(&self, days: u64) {
        self.advance_secs(days * crate::time::SECS_PER_DAY);
    }

    /// The prefix/AS/country ground truth.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the registry (topology building).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The global DNS zone.
    pub fn dns(&self) -> &Dns {
        &self.dns
    }

    /// Mutable access to DNS (topology building and experiments that
    /// register fresh researcher-controlled domains).
    pub fn dns_mut(&mut self) -> &mut Dns {
        &mut self.dns
    }

    /// Add a network. The spec's prefixes should have been allocated from
    /// this world's registry so that geolocation agrees with topology.
    pub fn add_network(&mut self, spec: NetworkSpec) -> NetworkId {
        let id = NetworkId(self.networks.len());
        self.networks.push(Network {
            id,
            name: spec.name,
            asn: spec.asn,
            country: spec.country,
            cidrs: spec.cidrs,
            chain: Chain::new(),
            faults: spec.faults,
        });
        id
    }

    /// Look up a network.
    pub fn network(&self, id: NetworkId) -> &Network {
        &self.networks[id.0]
    }

    /// All networks, in creation order.
    pub fn networks(&self) -> impl Iterator<Item = &Network> {
        self.networks.iter()
    }

    /// Find a network by name.
    pub fn network_by_name(&self, name: &str) -> Option<&Network> {
        self.networks.iter().find(|n| n.name == name)
    }

    /// Append a middlebox to a network's egress chain.
    pub fn attach_middlebox(&mut self, net: NetworkId, mb: Arc<dyn Middlebox>) {
        self.networks[net.0].chain.push(mb);
    }

    /// Replace a network's fault profile (chaos campaigns inject faults
    /// after the topology is built).
    pub fn set_network_faults(&mut self, net: NetworkId, faults: FaultProfile) {
        self.networks[net.0].faults = faults;
    }

    /// Allocate the lowest unused address in the network's prefixes.
    pub fn alloc_ip(&self, net: NetworkId) -> Option<IpAddr> {
        let network = &self.networks[net.0];
        for cidr in &network.cidrs {
            for ip in cidr.iter() {
                if !self.hosts.contains_key(&ip) && !self.vantages.iter().any(|v| v.ip == ip) {
                    return Some(ip);
                }
            }
        }
        None
    }

    /// Add a host at `ip` inside `net`, registering `hostnames` in DNS.
    ///
    /// # Panics
    /// If the address is outside the network's prefixes or already used.
    pub fn add_host(&mut self, ip: IpAddr, net: NetworkId, hostnames: &[&str]) {
        let network = &self.networks[net.0];
        assert!(
            network.cidrs.iter().any(|c| c.contains(ip)),
            "{ip} outside prefixes of network {:?}",
            network.name
        );
        assert!(!self.hosts.contains_key(&ip), "host {ip} already exists");
        for h in hostnames {
            self.dns.register(h, ip);
        }
        self.hosts.insert(
            ip,
            Host {
                ip,
                network: net,
                hostnames: hostnames.iter().map(|s| s.to_string()).collect(),
                services: BTreeMap::new(),
            },
        );
    }

    /// Remove a host and its DNS records. Returns whether it existed.
    pub fn remove_host(&mut self, ip: IpAddr) -> bool {
        match self.hosts.remove(&ip) {
            Some(host) => {
                for h in &host.hostnames {
                    self.dns.remove(h);
                }
                true
            }
            None => false,
        }
    }

    /// Bind a service to `ip:port`.
    ///
    /// # Panics
    /// If the host does not exist or the port is taken.
    // Documented panic: binding a service to a missing host is a world-building bug.
    #[allow(clippy::panic)]
    pub fn add_service(&mut self, ip: IpAddr, port: u16, service: Box<dyn Service>) {
        let host = self
            .hosts
            .get_mut(&ip)
            .unwrap_or_else(|| panic!("no host at {ip}"));
        assert!(
            !host.services.contains_key(&port),
            "port {port} on {ip} already bound"
        );
        host.services.insert(port, service);
    }

    /// Look up a host by address.
    pub fn host(&self, ip: IpAddr) -> Option<&Host> {
        self.hosts.get(&ip)
    }

    /// All hosts in address order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.values()
    }

    /// The hosts inside `cidr`, in address order. Cost grows with the
    /// hosts found, not with the size of the prefix.
    pub fn hosts_in(&self, cidr: Cidr) -> impl Iterator<Item = &Host> {
        self.hosts
            .range(cidr.first()..=cidr.last())
            .map(|(_, host)| host)
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Register a vantage point (tester) inside `net`.
    // A full network is a world-sizing bug, not bad input.
    #[allow(clippy::panic)]
    pub fn add_vantage(&mut self, name: &str, net: NetworkId) -> VantageId {
        let ip = self.alloc_ip(net).unwrap_or_else(|| {
            panic!(
                "network {:?} has no free addresses",
                self.networks[net.0].name
            )
        });
        let id = VantageId(self.vantages.len());
        self.vantages.push(Vantage::new(name, net, ip));
        id
    }

    /// Look up a vantage point.
    pub fn vantage(&self, id: VantageId) -> &Vantage {
        &self.vantages[id.0]
    }

    /// Record a client-side event (e.g. a circuit-breaker skip) in the
    /// flow log and telemetry, attributed to the vantage's network. No
    /// packet traverses the simulation — this exists so the audit log
    /// also covers fetches a measurement client *decided not to make*.
    pub fn log_vantage_event(&self, vantage: VantageId, url: &Url, disposition: FlowDisposition) {
        let v = &self.vantages[vantage.0];
        let network = &self.networks[v.network.0];
        let kind = match &disposition {
            FlowDisposition::BreakerSkip(_) => "breaker-skip",
            _ => "client-event",
        };
        self.telemetry.counter_add("fetch.disposition", kind, 1);
        if self.flow_log_enabled.load(Ordering::Relaxed) {
            self.flow_log.lock().push(FlowRecord {
                at: self.now(),
                client: v.ip,
                network: network.name.clone(),
                url: url.to_string(),
                disposition,
            });
        }
    }

    /// Fetch `url` as the given vantage point: resolve, traverse the
    /// vantage network's fault profile and middlebox chain, hit the
    /// origin service, and carry the response back.
    pub fn fetch(&self, vantage: VantageId, url: &Url) -> FetchOutcome {
        let v = &self.vantages[vantage.0];
        self.fetch_as(v.network, v.ip, &Request::get(url.clone()))
    }

    /// Fetch an arbitrary request as the given vantage point.
    pub fn fetch_request(&self, vantage: VantageId, req: &Request) -> FetchOutcome {
        let v = &self.vantages[vantage.0];
        self.fetch_as(v.network, v.ip, req)
    }

    /// Fetch a request as a client at `client_ip` inside `net`: resolve,
    /// consult the network's fault profile, walk its middlebox chain,
    /// hit the origin service and carry the response back. The fetch
    /// runs to completion before it returns and records its wall time
    /// in the `fetch.wall_nanos` histogram.
    pub fn fetch_as(&self, net: NetworkId, client_ip: IpAddr, req: &Request) -> FetchOutcome {
        self.telemetry
            .observe_timed("fetch.wall_nanos", "", || self.carry(net, client_ip, req))
    }

    /// The fetch itself, stage by stage. Each stage emits its trace
    /// point and, when it ends the flow, its flow-log record.
    fn carry(&self, net: NetworkId, client_ip: IpAddr, req: &Request) -> FetchOutcome {
        let network = &self.networks[net.0];

        // 1. DNS.
        let Some(dest_ip) = self.dns.resolve(req.url.host()) else {
            self.tracer.point(
                StepKind::Dns,
                self.now().secs(),
                &[("host", &req.url.host()), ("outcome", &"fail")],
            );
            self.log_flow(network, client_ip, &req.url, FlowDisposition::DnsFailure);
            return FetchOutcome::DnsFailure;
        };
        self.tracer.point(
            StepKind::Dns,
            self.now().secs(),
            &[
                ("host", &req.url.host()),
                ("ip", &dest_ip),
                ("outcome", &"ok"),
            ],
        );

        // 2. Access-path faults. Deterministic outage windows are checked
        // first (no RNG draw); probabilistic faults each draw only when
        // their probability is non-zero, so clean profiles leave the
        // shared fault stream untouched.
        if let Some(fault) = network.faults.sample_at(self.now(), &mut *self.rng.lock()) {
            let (outcome, disposition) = match fault {
                Fault::Timeout => (FetchOutcome::Timeout, FlowDisposition::PathFault("timeout")),
                Fault::Reset => (FetchOutcome::Reset, FlowDisposition::PathFault("reset")),
                Fault::DnsFailure => (
                    FetchOutcome::DnsFailure,
                    FlowDisposition::InjectedDnsFailure,
                ),
                Fault::Truncated => (FetchOutcome::Truncated, FlowDisposition::Truncated),
                Fault::Outage { resumes_at } => (
                    FetchOutcome::Timeout,
                    FlowDisposition::Outage {
                        resumes_at_secs: resumes_at.secs(),
                    },
                ),
            };
            let kind = match &disposition {
                FlowDisposition::PathFault(kind) => kind,
                FlowDisposition::InjectedDnsFailure => "dns-failure",
                FlowDisposition::Truncated => "truncated",
                FlowDisposition::Outage { .. } => "outage",
                _ => "other",
            };
            match &disposition {
                FlowDisposition::Outage { resumes_at_secs } => self.tracer.point(
                    StepKind::PathFault,
                    self.now().secs(),
                    &[("kind", &kind), ("resumes-at", resumes_at_secs)],
                ),
                _ => self
                    .tracer
                    .point(StepKind::PathFault, self.now().secs(), &[("kind", &kind)]),
            }
            self.log_flow(network, client_ip, &req.url, disposition);
            return outcome;
        }

        // 3. Egress middleboxes.
        let flow = FlowCtx {
            now: self.now(),
            client_ip,
        };
        let (verdict, passed) = network.chain.run_request(req, &flow);
        for hop in 0..passed {
            self.tracer.point(
                StepKind::MbHop,
                self.now().secs(),
                &[
                    ("middlebox", &network.chain.name_at(hop).unwrap_or_default()),
                    ("action", &"forward"),
                ],
            );
        }
        let decider = network.chain.name_at(passed).unwrap_or_default();
        match verdict {
            Verdict::Forward => {}
            Verdict::Respond(resp) => {
                let resp = network.chain.run_response(req, *resp, &flow, passed);
                self.tracer.point(
                    StepKind::MbHop,
                    self.now().secs(),
                    &[
                        ("middlebox", &decider),
                        ("action", &"respond"),
                        ("status", &resp.status.code()),
                    ],
                );
                self.log_flow(
                    network,
                    client_ip,
                    &req.url,
                    FlowDisposition::Intercepted {
                        middlebox: decider.to_string(),
                        status: resp.status.code(),
                    },
                );
                return FetchOutcome::Ok(resp);
            }
            Verdict::Drop => {
                self.tracer.point(
                    StepKind::MbHop,
                    self.now().secs(),
                    &[("middlebox", &decider), ("action", &"drop")],
                );
                self.log_flow(
                    network,
                    client_ip,
                    &req.url,
                    FlowDisposition::DroppedBy(decider.to_string()),
                );
                return FetchOutcome::Timeout;
            }
            Verdict::Reset => {
                self.tracer.point(
                    StepKind::MbHop,
                    self.now().secs(),
                    &[("middlebox", &decider), ("action", &"reset")],
                );
                self.log_flow(
                    network,
                    client_ip,
                    &req.url,
                    FlowDisposition::ResetBy(decider.to_string()),
                );
                return FetchOutcome::Reset;
            }
        }

        // 4. Origin service.
        let Some(resp) = self.origin_response(dest_ip, req.url.port(), req, client_ip) else {
            self.tracer.point(
                StepKind::OriginReply,
                self.now().secs(),
                &[("error", &"connect-failed")],
            );
            self.log_flow(network, client_ip, &req.url, FlowDisposition::ConnectFailed);
            return FetchOutcome::ConnectFailed;
        };

        // 5. Response path back through the chain.
        let resp = network.chain.run_response(req, resp, &flow, passed);
        self.tracer.point(
            StepKind::OriginReply,
            self.now().secs(),
            &[("status", &resp.status.code())],
        );
        self.log_flow(
            network,
            client_ip,
            &req.url,
            FlowDisposition::Origin(resp.status.code()),
        );
        FetchOutcome::Ok(resp)
    }

    /// Probe `ip:port` directly from outside the simulated networks (the
    /// scanner's path): no DNS, no egress filtering, no fault injection.
    pub fn probe(&self, ip: IpAddr, port: u16, req: &Request) -> FetchOutcome {
        match self.origin_response(ip, port, req, PROBE_SOURCE) {
            Some(resp) => FetchOutcome::Ok(resp),
            None => FetchOutcome::ConnectFailed,
        }
    }

    fn origin_response(
        &self,
        ip: IpAddr,
        port: u16,
        req: &Request,
        client_ip: IpAddr,
    ) -> Option<Response> {
        let host = self.hosts.get(&ip)?;
        let service = host.services.get(&port)?;
        let ctx = ServiceCtx {
            now: self.now(),
            client_ip,
        };
        Some(service.handle(req, &ctx))
    }

    /// A stable digest of the built topology: countries, ASes, networks
    /// (with their middlebox chains and fault profiles), hosts (with
    /// hostnames and open ports) and vantage points.
    ///
    /// Two [`Internet`]s built by the same deterministic recipe produce
    /// the same digest, so generative test harnesses can assert "same
    /// plan ⇒ same world" cheaply, and world minimizers can detect when
    /// a shrink step actually changed the topology. The digest covers
    /// construction-time shape only — never the clock, the RNG state,
    /// the flow log or telemetry — so it is unchanged by running
    /// measurements against the world.
    pub fn topology_digest(&self) -> u64 {
        // FNV-1a, stable across platforms and runs.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h ^= 0xff; // field separator
            h = h.wrapping_mul(PRIME);
        };
        for c in self.registry.countries() {
            eat(c.code.as_str().as_bytes());
            eat(c.name.as_bytes());
            eat(c.cctld.as_bytes());
        }
        for rec in self.registry.ases() {
            eat(&rec.asn.0.to_le_bytes());
            eat(rec.name.as_bytes());
            eat(rec.country.as_str().as_bytes());
        }
        for net in &self.networks {
            eat(net.name.as_bytes());
            eat(&net.asn.0.to_le_bytes());
            eat(net.country.as_str().as_bytes());
            for cidr in &net.cidrs {
                eat(cidr.to_string().as_bytes());
            }
            for name in net.middlebox_names() {
                eat(name.as_bytes());
            }
            eat(format!("{:?}", net.faults).as_bytes());
        }
        for (ip, host) in &self.hosts {
            eat(&ip.value().to_le_bytes());
            for name in &host.hostnames {
                eat(name.as_bytes());
            }
            for port in host.open_ports() {
                eat(&port.to_le_bytes());
            }
        }
        for v in &self.vantages {
            eat(v.name.as_bytes());
            eat(&v.ip.value().to_le_bytes());
        }
        h
    }
}

impl std::fmt::Debug for Internet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Internet")
            .field("seed", &self.seed)
            .field("now", &self.now())
            .field("networks", &self.networks.len())
            .field("hosts", &self.hosts.len())
            .field("vantages", &self.vantages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::StaticSite;
    use filterwatch_http::Status;
    use filterwatch_telemetry::wire::Wire;

    /// Build a two-network world: a clean lab and a filtered ISP.
    fn world() -> (Internet, NetworkId, NetworkId) {
        let mut net = Internet::new(7);
        net.registry_mut().register_country("CA", "Canada", "ca");
        net.registry_mut().register_country("YE", "Yemen", "ye");
        let lab_as = net.registry_mut().register_as(239, "UTORONTO", "CA");
        let isp_as = net.registry_mut().register_as(12486, "YEMENNET", "YE");
        let lab_prefix = net.registry_mut().allocate_prefix(lab_as, 1).unwrap();
        let isp_prefix = net.registry_mut().allocate_prefix(isp_as, 1).unwrap();
        let lab = net.add_network(NetworkSpec::new("lab", lab_as, "CA").with_cidr(lab_prefix));
        let isp = net.add_network(NetworkSpec::new("isp", isp_as, "YE").with_cidr(isp_prefix));
        (net, lab, isp)
    }

    struct BlockAll;

    impl Middlebox for BlockAll {
        fn name(&self) -> &str {
            "block-all"
        }
        fn process_request(&self, _req: &Request, _ctx: &FlowCtx) -> Verdict {
            Verdict::respond(Response::text(Status::FORBIDDEN, "blocked"))
        }
    }

    #[test]
    fn end_to_end_fetch() {
        let (mut net, lab, _isp) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "<p>ok</p>")));
        let vp = net.add_vantage("tester", lab);
        let out = net.fetch(vp, &Url::parse("http://www.site.ca/").unwrap());
        let resp = out.response().expect("should fetch");
        assert_eq!(resp.title(), Some("Site".into()));
    }

    #[test]
    fn dns_failure_when_unregistered() {
        let (mut net, lab, _) = world();
        let vp = net.add_vantage("tester", lab);
        assert_eq!(
            net.fetch(vp, &Url::parse("http://nosuch.example/").unwrap()),
            FetchOutcome::DnsFailure
        );
    }

    #[test]
    fn connect_failed_on_wrong_port_or_missing_host() {
        let (mut net, lab, _) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "")));
        let vp = net.add_vantage("tester", lab);
        assert_eq!(
            net.fetch(vp, &Url::parse("http://www.site.ca:8080/").unwrap()),
            FetchOutcome::ConnectFailed
        );
        // Host with no services at all.
        let ip2 = net.alloc_ip(lab).unwrap();
        net.add_host(ip2, lab, &["bare.site.ca"]);
        assert_eq!(
            net.fetch(vp, &Url::parse("http://bare.site.ca/").unwrap()),
            FetchOutcome::ConnectFailed
        );
    }

    #[test]
    fn middlebox_blocks_isp_but_not_lab() {
        let (mut net, lab, isp) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "")));
        net.attach_middlebox(isp, Arc::new(BlockAll));

        let field = net.add_vantage("field", isp);
        let lab_vp = net.add_vantage("lab", lab);
        let url = Url::parse("http://www.site.ca/").unwrap();

        let blocked = net.fetch(field, &url).into_response().unwrap();
        assert_eq!(blocked.status, Status::FORBIDDEN);
        let open = net.fetch(lab_vp, &url).into_response().unwrap();
        assert!(open.status.is_success());
    }

    #[test]
    fn probe_bypasses_filtering_and_dns() {
        let (mut net, _lab, isp) = world();
        let ip = net.alloc_ip(isp).unwrap();
        net.add_host(ip, isp, &[]);
        net.add_service(ip, 8080, Box::new(StaticSite::new("Console", "")));
        net.attach_middlebox(isp, Arc::new(BlockAll));

        let req = Request::get(Url::http_at(&ip.to_string(), 8080, "/"));
        let out = net.probe(ip, 8080, &req);
        assert!(out.is_ok());
        assert_eq!(net.probe(ip, 80, &req), FetchOutcome::ConnectFailed);
        assert!(net.host(ip).unwrap().serves(8080));
        assert!(!net.host(ip).unwrap().serves(80));
    }

    #[test]
    fn hosts_in_walks_one_prefix_in_address_order() {
        let (mut net, lab, isp) = world();
        let isp_prefix = net.network(isp).cidrs[0];
        let picks: Vec<IpAddr> = [9, 2, 5]
            .iter()
            .map(|&n| isp_prefix.iter().nth(n).unwrap())
            .collect();
        for &ip in &picks {
            net.add_host(ip, isp, &[]);
        }
        let lab_ip = net.alloc_ip(lab).unwrap();
        net.add_host(lab_ip, lab, &[]);
        let found: Vec<IpAddr> = net.hosts_in(isp_prefix).map(|h| h.ip).collect();
        assert_eq!(found, vec![picks[1], picks[2], picks[0]]);
        let lab_prefix = net.network(lab).cidrs[0];
        assert_eq!(net.hosts_in(lab_prefix).count(), 1);
        let empty = Cidr::new(IpAddr::from_octets(10, 0, 0, 0), 24);
        assert_eq!(net.hosts_in(empty).count(), 0);
    }

    #[test]
    fn faults_fire_deterministically() {
        let (mut net, _lab, isp) = world();
        let mut spec = NetworkSpec::new("flaky", net.network(isp).asn, "YE");
        spec.faults = FaultProfile::lossy(1.0);
        // Reuse the ISP prefix space is not allowed; allocate fresh.
        let asn = net.network(isp).asn;
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        spec.cidrs.push(prefix);
        let flaky = net.add_network(spec);
        let vp = net.add_vantage("t", flaky);
        let out = net.fetch(vp, &Url::parse("http://5.0.0.1/").unwrap());
        assert_eq!(out, FetchOutcome::Timeout);
    }

    #[test]
    fn outage_window_downs_the_path_until_it_passes() {
        let (mut net, lab, _) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "")));
        let profile = FaultProfile::clean()
            .try_with_outage(SimTime::from_secs(10), SimTime::from_secs(50))
            .unwrap();
        net.set_network_faults(lab, profile);
        net.set_flow_log(true);
        let vp = net.add_vantage("t", lab);
        let url = Url::parse("http://www.site.ca/").unwrap();

        assert!(net.fetch(vp, &url).is_ok(), "before the window");
        net.advance_secs(10);
        assert_eq!(net.fetch(vp, &url), FetchOutcome::Timeout);
        net.advance_secs(40);
        assert!(net.fetch(vp, &url).is_ok(), "after the window");

        let log = net.flow_log();
        assert_eq!(
            log[1].disposition,
            FlowDisposition::Outage {
                resumes_at_secs: 50
            }
        );
    }

    #[test]
    fn injected_dns_and_truncation_surface_as_outcomes() {
        let (mut net, lab, _) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "")));
        let vp = net.add_vantage("t", lab);
        let url = Url::parse("http://www.site.ca/").unwrap();

        net.set_network_faults(
            lab,
            FaultProfile::clean().try_with_dns_failures(1.0).unwrap(),
        );
        net.set_flow_log(true);
        assert_eq!(net.fetch(vp, &url), FetchOutcome::DnsFailure);
        net.set_network_faults(lab, FaultProfile::clean().try_with_truncation(1.0).unwrap());
        assert_eq!(net.fetch(vp, &url), FetchOutcome::Truncated);

        let log = net.flow_log();
        assert_eq!(log[0].disposition, FlowDisposition::InjectedDnsFailure);
        assert_eq!(log[1].disposition, FlowDisposition::Truncated);
    }

    #[test]
    fn vantage_events_land_in_flow_log_and_telemetry() {
        let (mut net, lab, _) = world();
        net.set_flow_log(true);
        net.set_telemetry(filterwatch_telemetry::TelemetryHandle::enabled());
        let vp = net.add_vantage("t", lab);
        let url = Url::parse("http://www.site.ca/").unwrap();
        net.log_vantage_event(vp, &url, FlowDisposition::BreakerSkip("t".into()));

        let log = net.flow_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].network, "lab");
        assert_eq!(log[0].disposition, FlowDisposition::BreakerSkip("t".into()));
        let snap = net.telemetry().snapshot();
        assert_eq!(
            snap.counters_named("fetch.disposition"),
            vec![("breaker-skip", 1)]
        );
        // No fetch was actually carried.
        assert!(snap.counters_named("fetch.total").is_empty());
    }

    #[test]
    fn clock_advances() {
        let (net, _, _) = world();
        assert_eq!(net.now(), SimTime::ZERO);
        net.advance_days(3);
        net.advance_secs(5);
        assert_eq!(net.now().days(), 3);
        assert_eq!(net.now().secs(), 3 * crate::time::SECS_PER_DAY + 5);
    }

    #[test]
    fn remove_host_clears_dns() {
        let (mut net, lab, _) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["gone.site.ca"]);
        assert!(net.dns().resolve("gone.site.ca").is_some());
        assert!(net.remove_host(ip));
        assert!(net.dns().resolve("gone.site.ca").is_none());
        assert!(!net.remove_host(ip));
    }

    #[test]
    fn alloc_ip_skips_vantage_addresses() {
        let (mut net, lab, _) = world();
        let vp = net.add_vantage("t", lab);
        let vantage_ip = net.vantage(vp).ip;
        let next = net.alloc_ip(lab).unwrap();
        assert_ne!(vantage_ip, next);
    }

    #[test]
    #[should_panic(expected = "outside prefixes")]
    fn add_host_outside_prefix_panics() {
        let (mut net, lab, _) = world();
        net.add_host("99.99.99.99".parse().unwrap(), lab, &[]);
    }

    struct SilentDropper;

    impl Middlebox for SilentDropper {
        fn name(&self) -> &str {
            "silent-dropper"
        }
        fn process_request(&self, req: &Request, _ctx: &FlowCtx) -> Verdict {
            if req.url.host().contains("dropme") {
                Verdict::Drop
            } else if req.url.host().contains("resetme") {
                Verdict::Reset
            } else {
                Verdict::Forward
            }
        }
    }

    #[test]
    fn drop_and_reset_verdicts_surface_as_transport_failures() {
        let (mut net, lab, isp) = world();
        for host in ["www.dropme.ca", "www.resetme.ca", "www.okay.ca"] {
            let ip = net.alloc_ip(lab).unwrap();
            net.add_host(ip, lab, &[host]);
            net.add_service(ip, 80, Box::new(StaticSite::new("S", "")));
        }
        net.attach_middlebox(isp, Arc::new(SilentDropper));
        net.set_flow_log(true);
        let vp = net.add_vantage("t", isp);
        assert_eq!(
            net.fetch(vp, &Url::parse("http://www.dropme.ca/").unwrap()),
            FetchOutcome::Timeout
        );
        assert_eq!(
            net.fetch(vp, &Url::parse("http://www.resetme.ca/").unwrap()),
            FetchOutcome::Reset
        );
        assert!(net
            .fetch(vp, &Url::parse("http://www.okay.ca/").unwrap())
            .is_ok());
        let log = net.flow_log();
        use crate::flowlog::FlowDisposition;
        assert!(
            matches!(&log[0].disposition, FlowDisposition::DroppedBy(n) if n == "silent-dropper")
        );
        assert!(
            matches!(&log[1].disposition, FlowDisposition::ResetBy(n) if n == "silent-dropper")
        );
    }

    #[test]
    fn flow_log_records_dispositions() {
        use crate::flowlog::FlowDisposition;
        let (mut net, lab, isp) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "")));
        net.attach_middlebox(isp, Arc::new(BlockAll));
        let field = net.add_vantage("field", isp);
        let lab_vp = net.add_vantage("lab", lab);

        // Disabled by default: nothing recorded.
        let url = Url::parse("http://www.site.ca/").unwrap();
        let _ = net.fetch(lab_vp, &url);
        assert!(net.flow_log().is_empty());

        net.set_flow_log(true);
        let _ = net.fetch(lab_vp, &url);
        let _ = net.fetch(field, &url);
        let _ = net.fetch(lab_vp, &Url::parse("http://nosuch.example/").unwrap());
        let log = net.flow_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].disposition, FlowDisposition::Origin(200));
        assert!(matches!(
            &log[1].disposition,
            FlowDisposition::Intercepted { middlebox, status: 403 } if middlebox == "block-all"
        ));
        assert_eq!(log[2].disposition, FlowDisposition::DnsFailure);
        assert_eq!(log[1].network, "isp");
        assert!(log[0].to_line().contains("www.site.ca"));
        assert_eq!(net.clear_flow_log(), 3);
        assert!(net.flow_log().is_empty());
    }

    #[test]
    fn telemetry_counts_fetches_and_verdicts() {
        let (mut net, lab, isp) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &["www.site.ca"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("Site", "")));
        net.attach_middlebox(isp, Arc::new(BlockAll));
        net.set_telemetry(filterwatch_telemetry::TelemetryHandle::enabled());
        let field = net.add_vantage("field", isp);
        let lab_vp = net.add_vantage("lab", lab);

        let url = Url::parse("http://www.site.ca/").unwrap();
        let _ = net.fetch(lab_vp, &url);
        let _ = net.fetch(field, &url);
        let _ = net.fetch(field, &url);

        let snap = net.telemetry().snapshot();
        assert_eq!(
            snap.counters_named("fetch.total"),
            vec![("isp", 2), ("lab", 1)]
        );
        assert_eq!(
            snap.counters_named("middlebox.verdict"),
            vec![("block-all", 2)]
        );
        assert_eq!(
            snap.counters_named("fetch.disposition"),
            vec![("intercepted", 2), ("origin", 1)]
        );
        let lat = snap.histogram_named("fetch.wall_nanos").unwrap();
        assert_eq!(lat.total, 3);
    }

    #[test]
    fn network_lookup_by_name() {
        let (net, _, _) = world();
        assert!(net.network_by_name("isp").is_some());
        assert!(net.network_by_name("nope").is_none());
    }

    #[test]
    fn open_ports_reported_in_order() {
        let (mut net, lab, _) = world();
        let ip = net.alloc_ip(lab).unwrap();
        net.add_host(ip, lab, &[]);
        net.add_service(ip, 8080, Box::new(StaticSite::new("b", "")));
        net.add_service(ip, 80, Box::new(StaticSite::new("a", "")));
        assert_eq!(net.host(ip).unwrap().open_ports(), vec![80, 8080]);
    }

    #[test]
    fn topology_digest_is_reproducible_and_shape_sensitive() {
        let (a, _, _) = world();
        let (b, _, _) = world();
        assert_eq!(a.topology_digest(), b.topology_digest());

        // Adding a host changes the digest.
        let (mut c, lab, _) = world();
        let ip = c.alloc_ip(lab).unwrap();
        c.add_host(ip, lab, &["extra.example"]);
        assert_ne!(a.topology_digest(), c.topology_digest());

        // Attaching a middlebox changes it too.
        let (mut d, _, isp) = world();
        d.attach_middlebox(isp, Arc::new(BlockAll));
        assert_ne!(a.topology_digest(), d.topology_digest());
    }

    #[test]
    fn topology_digest_ignores_runtime_state() {
        let (net, lab_net, _) = world();
        let before = net.topology_digest();
        let mut net = net;
        let ip = net.alloc_ip(lab_net).unwrap();
        net.add_host(ip, lab_net, &["site.example"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("s", "hello")));
        let shaped = net.topology_digest();
        assert_ne!(before, shaped);

        // Fetching and advancing the clock leave the digest untouched.
        let v = net.add_vantage("tester", lab_net);
        let with_vantage = net.topology_digest();
        assert_ne!(shaped, with_vantage, "vantages are part of the shape");
        let url = Url::parse("http://site.example/").unwrap();
        let _ = net.fetch(v, &url);
        net.advance_days(3);
        assert_eq!(net.topology_digest(), with_vantage);
    }
}
