//! Property-based tests for the simulated-Internet substrate.

use filterwatch_http::{Request, Response, Url};
use filterwatch_netsim::middlebox::Chain;
use filterwatch_netsim::service::StaticSite;
use filterwatch_netsim::{
    Cidr, Dns, Fault, FaultProfile, FlowCtx, Internet, IpAddr, Middlebox, NetworkSpec, SimTime,
    Verdict,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A middlebox that tags responses with its index; optionally the one
/// that blocks.
struct Tagged {
    name: String,
    blocks: bool,
}

impl Middlebox for Tagged {
    fn name(&self) -> &str {
        &self.name
    }
    fn process_request(&self, _req: &Request, _ctx: &FlowCtx) -> Verdict {
        if self.blocks {
            Verdict::respond(Response::text(
                filterwatch_http::Status::FORBIDDEN,
                "blocked",
            ))
        } else {
            Verdict::Forward
        }
    }
    fn process_response(&self, _req: &Request, mut resp: Response, _ctx: &FlowCtx) -> Response {
        resp.headers.append("X-Chain", self.name.clone());
        resp
    }
}

/// The dotted-quad reading `IpAddr::from_str` has always had: split on
/// `.`, four parts, each a `u8`, with these error texts.
fn reference_quad(s: &str) -> Result<IpAddr, String> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 4 {
        return Err(format!("bad IPv4 address {s:?}"));
    }
    let mut octets = [0u8; 4];
    for (i, p) in parts.iter().enumerate() {
        octets[i] = p.parse().map_err(|_| format!("bad octet {p:?} in {s:?}"))?;
    }
    Ok(IpAddr::from_octets(
        octets[0], octets[1], octets[2], octets[3],
    ))
}

proptest! {
    /// IP display → parse is the identity.
    #[test]
    fn ip_round_trip(v in any::<u32>()) {
        let ip = IpAddr(v);
        let reparsed: IpAddr = ip.to_string().parse().unwrap();
        prop_assert_eq!(ip, reparsed);
    }

    /// A CIDR contains exactly `size()` addresses, its first and last,
    /// and nothing just outside.
    #[test]
    fn cidr_bounds(v in any::<u32>(), len in 20u8..=32) {
        let cidr = Cidr::new(IpAddr(v), len);
        prop_assert!(cidr.contains(cidr.first()));
        prop_assert!(cidr.contains(cidr.last()));
        prop_assert_eq!(cidr.iter().count() as u64, cidr.size());
        if cidr.first().value() > 0 {
            prop_assert!(!cidr.contains(IpAddr(cidr.first().value() - 1)));
        }
        if cidr.last().value() < u32::MAX {
            prop_assert!(!cidr.contains(IpAddr(cidr.last().value() + 1)));
        }
    }

    /// CIDR display → parse round-trips.
    #[test]
    fn cidr_round_trip(v in any::<u32>(), len in 0u8..=32) {
        let cidr = Cidr::new(IpAddr(v), len);
        let reparsed: Cidr = cidr.to_string().parse().unwrap();
        prop_assert_eq!(cidr, reparsed);
    }

    /// DNS: registered names resolve; unregistered don't (no aliasing).
    #[test]
    fn dns_exactness(names in proptest::collection::btree_set("[a-z]{1,8}\\.[a-z]{2,4}", 1..8)) {
        let mut dns = Dns::new();
        let names: Vec<String> = names.into_iter().collect();
        for (i, name) in names.iter().enumerate() {
            dns.register(name, IpAddr(i as u32 + 1));
        }
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(dns.resolve(name), Some(IpAddr(i as u32 + 1)));
        }
        prop_assert_eq!(dns.resolve("definitely-not-registered.example"), None);
    }

    /// Any sequence of registrations, re-registrations, removals and
    /// revivals, each name spelled in mixed case with trailing dots,
    /// leaves the zone agreeing with a `BTreeMap` model of its exact
    /// records: resolution, counts and the hostname order of `records`.
    #[test]
    fn dns_matches_a_btreemap_model(
        names in proptest::collection::btree_set("[a-z]{1,6}\\.[a-z]{2,3}", 1..6),
        ops in proptest::collection::vec(
            (0u8..3, any::<usize>(), any::<u32>(), 0usize..3, any::<u32>()),
            0..40,
        ),
    ) {
        let names: Vec<String> = names.into_iter().collect();
        let mut dns = Dns::new();
        let mut model: BTreeMap<String, IpAddr> = BTreeMap::new();
        for (op, pick, upper, dots, ip) in ops {
            let name = &names[pick % names.len()];
            let spelled: String = name
                .chars()
                .enumerate()
                .map(|(i, c)| if upper >> (i % 32) & 1 == 1 { c.to_ascii_uppercase() } else { c })
                .chain(std::iter::repeat('.').take(dots))
                .collect();
            // Two draws in three register, so names are re-registered
            // and revived as often as they are removed.
            if op < 2 {
                dns.register(&spelled, IpAddr(ip));
                model.insert(name.clone(), IpAddr(ip));
            } else {
                prop_assert_eq!(dns.remove(&spelled), model.remove(name).is_some(), "{:?}", spelled);
            }
            prop_assert_eq!(dns.len(), model.len());
            prop_assert_eq!(dns.is_empty(), model.is_empty());
            for name in &names {
                prop_assert_eq!(dns.resolve(name), model.get(name).copied(), "{:?}", name);
            }
        }
        let records: Vec<(&str, IpAddr)> = dns.records().collect();
        let want: Vec<(&str, IpAddr)> = model.iter().map(|(name, &ip)| (name.as_str(), ip)).collect();
        prop_assert_eq!(records, want);
    }

    /// The allocation-free quad parser reads arbitrary text exactly as
    /// the split-and-parse reading does, errors included, and reads
    /// every displayed address back.
    #[test]
    fn quad_parser_agrees_with_reference(
        text in "[0-9.+a]{0,16}",
        four_parts in "([0-9+a]{0,4}\\.){3}[0-9+]{0,4}",
        dotted in "[0-9]{1,3}(\\.[0-9]{1,3}){2,4}",
        printable in "\\PC{0,16}",
        a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>(),
    ) {
        for s in [&text, &four_parts, &dotted, &printable] {
            let reference = reference_quad(s);
            prop_assert_eq!(IpAddr::parse_quad(s).ok(), reference.clone().ok(), "{:?}", s);
            prop_assert_eq!(s.parse::<IpAddr>(), reference, "{:?}", s);
        }
        let ip = IpAddr::from_octets(a, b, c, d);
        prop_assert_eq!(IpAddr::parse_quad(&ip.to_string()), Ok(ip));
    }

    /// A mixed-case or trailing-dot name resolves as its lowercase form
    /// does, through exact, wildcard and literal records alike.
    #[test]
    fn dns_resolve_ignores_case_and_trailing_dots(
        name in "[a-z]{1,8}\\.[a-z]{2,4}",
        sub in "[a-z]{1,6}",
        upper in proptest::collection::vec(any::<bool>(), 20),
        dots in 0usize..3,
        v in any::<u32>(),
    ) {
        let mut dns = Dns::new();
        dns.register(&name, IpAddr(1));
        dns.register_wildcard(&format!("zone.{name}"), IpAddr(2));
        let spell = |host: &str| -> String {
            let mixed: String = host
                .chars()
                .zip(upper.iter().cycle())
                .map(|(c, &up)| if up { c.to_ascii_uppercase() } else { c })
                .collect();
            mixed + &".".repeat(dots)
        };
        for host in [
            name.clone(),
            format!("{sub}.zone.{name}"),
            format!("{sub}.{name}"),
            IpAddr(v).to_string(),
        ] {
            prop_assert_eq!(dns.resolve(&spell(&host)), dns.resolve(&host), "{:?}", spell(&host));
        }
        prop_assert_eq!(dns.resolve(&spell(&name)), Some(IpAddr(1)));
        prop_assert_eq!(dns.resolve(&spell(&format!("{sub}.zone.{name}"))), Some(IpAddr(2)));
        prop_assert_eq!(dns.resolve(&spell(&IpAddr(v).to_string())), Some(IpAddr(v)));
    }

    /// SimTime display → parse is the identity.
    #[test]
    fn simtime_round_trips(d in 0u64..10_000, s in 0u64..86_400) {
        let t = SimTime::from_days(d).plus_secs(s);
        let reparsed: SimTime = t.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, t);
    }

    /// SimTime arithmetic: days/secs agree.
    #[test]
    fn simtime_arithmetic(d in 0u64..10_000, s in 0u64..86_400) {
        let t = SimTime::from_days(d).plus_secs(s);
        prop_assert_eq!(t.days(), d);
        prop_assert_eq!(t.secs(), d * 86_400 + s);
        prop_assert_eq!(t.plus_days(1).days(), d + 1);
    }

    /// Fault sampling frequency tracks the configured probability.
    #[test]
    fn fault_rate_tracks_probability(prob in 0.0f64..=1.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let profile = FaultProfile::lossy(prob);
        let n = 2_000;
        let fails = (0..n).filter(|_| profile.sample(&mut rng).is_some()).count();
        let observed = fails as f64 / n as f64;
        prop_assert!((observed - prob).abs() < 0.08, "prob {prob} observed {observed}");
    }

    /// Outage windows are pure functions of the virtual clock: inside
    /// `[from, until)` every sample is an outage, outside none is (on an
    /// otherwise-clean profile), regardless of the RNG seed.
    #[test]
    fn outage_windows_pure(
        from in 0u64..100_000,
        len in 1u64..100_000,
        t in 0u64..300_000,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let until = from + len;
        let profile = FaultProfile::clean()
            .try_with_outage(SimTime::from_secs(from), SimTime::from_secs(until))
            .unwrap();
        let fault = profile.sample_at(SimTime::from_secs(t), &mut rng);
        if (from..until).contains(&t) {
            prop_assert_eq!(fault, Some(Fault::Outage { resumes_at: SimTime::from_secs(until) }));
        } else {
            prop_assert_eq!(fault, None);
        }
    }

    /// `try_new` accepts exactly the unit interval, in every position.
    #[test]
    fn try_new_accepts_exactly_unit_interval(p in -1.0f64..2.0) {
        let ok = (0.0..=1.0).contains(&p);
        prop_assert_eq!(FaultProfile::try_new(p, 0.0, 0.0, 0.0).is_ok(), ok);
        prop_assert_eq!(FaultProfile::try_new(0.0, p, 0.0, 0.0).is_ok(), ok);
        prop_assert_eq!(FaultProfile::try_new(0.0, 0.0, p, 0.0).is_ok(), ok);
        prop_assert_eq!(FaultProfile::try_new(0.0, 0.0, 0.0, p).is_ok(), ok);
    }

    /// Registry prefix allocations never overlap, and every allocated
    /// address geolocates to its AS's country.
    #[test]
    fn registry_allocations_disjoint(sizes in proptest::collection::vec(0u32..3, 1..8)) {
        let mut net = Internet::new(0);
        net.registry_mut().register_country("XX", "Testland", "xx");
        let mut cidrs = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let asn = net.registry_mut().register_as(1000 + i as u32, "TEST", "XX");
            let cidr = net.registry_mut().allocate_prefix(asn, 1 << sz).unwrap();
            cidrs.push((cidr, asn));
        }
        for (i, &(a, asn_a)) in cidrs.iter().enumerate() {
            prop_assert_eq!(net.registry().asn_of(a.first()), Some(asn_a));
            prop_assert_eq!(net.registry().asn_of(a.last()), Some(asn_a));
            for &(b, _) in &cidrs[i + 1..] {
                prop_assert!(!a.contains(b.first()) && !b.contains(a.first()),
                             "{a} overlaps {b}");
            }
        }
    }

    /// alloc_ip hands out distinct in-prefix addresses until exhaustion.
    #[test]
    fn alloc_ip_unique(n in 1usize..60) {
        let mut net = Internet::new(0);
        net.registry_mut().register_country("XX", "Testland", "xx");
        let asn = net.registry_mut().register_as(64512, "TEST", "XX");
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        let netid = net.add_network(NetworkSpec::new("t", asn, "XX").with_cidr(prefix));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n {
            let ip = net.alloc_ip(netid).unwrap();
            prop_assert!(prefix.contains(ip));
            prop_assert!(seen.insert(ip), "duplicate {ip}");
            net.add_host(ip, netid, &[]);
        }
    }

    /// A fetch for a registered static site always succeeds from a clean
    /// network, regardless of path.
    #[test]
    fn clean_fetch_always_succeeds(path in "(/[a-z0-9]{0,6}){0,3}") {
        let mut net = Internet::new(0);
        net.registry_mut().register_country("XX", "Testland", "xx");
        let asn = net.registry_mut().register_as(64512, "TEST", "XX");
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        let netid = net.add_network(NetworkSpec::new("t", asn, "XX").with_cidr(prefix));
        let ip = net.alloc_ip(netid).unwrap();
        net.add_host(ip, netid, &["site.xx"]);
        net.add_service(ip, 80, Box::new(StaticSite::new("T", "<p>x</p>")));
        let vp = net.add_vantage("v", netid);
        let path = if path.is_empty() { "/".to_string() } else { path };
        let url = Url::parse(&format!("http://site.xx{path}")).unwrap();
        let out = net.fetch(vp, &url);
        prop_assert!(out.is_ok(), "{out:?}");
    }
}

proptest! {
    /// The event queue against a sorted reference model, under
    /// arbitrary interleavings of schedule / pop: every pop returns the
    /// minimum live `(time, seq)` key, `len` and `next_deadline` track
    /// the model after every step, and a final drain yields the
    /// remaining events in nondecreasing `(time, seq)` order.
    #[test]
    fn event_queue_matches_reference_under_schedule_pop(
        ops in proptest::collection::vec((0u8..10, 0u64..1_000), 1..200)
    ) {
        use filterwatch_netsim::{EventId, EventQueue};
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut live: Vec<(EventId, u64)> = Vec::new();
        for &(choice, t) in &ops {
            if choice <= 5 {
                // Schedule (weighted so queues actually grow).
                let id = q.schedule(SimTime::from_secs(t), t);
                live.push((id, t));
            } else {
                // Pop: must be the minimum live (time, seq).
                let expect = live.iter().map(|&(id, tt)| (tt, id.value())).min();
                match q.pop() {
                    Some((at, id, payload)) => {
                        prop_assert_eq!(Some((at.secs(), id.value())), expect);
                        prop_assert_eq!(payload, at.secs());
                        live.retain(|&(lid, _)| lid != id);
                    }
                    None => prop_assert!(expect.is_none(), "queue empty but model is not"),
                }
            }
            prop_assert_eq!(q.len(), live.len());
            prop_assert_eq!(q.next_deadline().map(|d| d.secs()),
                            live.iter().map(|&(_, tt)| tt).min());
        }
        // Drain: everything left pops in exact (time, seq) order.
        let mut expect: Vec<(u64, u64)> = live.iter().map(|&(id, tt)| (tt, id.value())).collect();
        expect.sort();
        let mut drained = Vec::new();
        while let Some((at, id, _)) = q.pop() {
            drained.push((at.secs(), id.value()));
        }
        prop_assert_eq!(drained, expect);
        prop_assert!(q.is_empty());
    }

    /// Ties dominate: at least 1,000 events on at most three deadlines,
    /// interleaved with pops. Nearly every heap comparison ties on
    /// time, so only the `seq` half of the key can put each pop at the
    /// model's minimum — and so in `seq` order within each deadline.
    #[test]
    fn event_queue_pops_ties_in_seq_order(
        ops in proptest::collection::vec((0u64..3, any::<bool>()), 1_000..1_200)
    ) {
        use filterwatch_netsim::EventQueue;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = std::collections::BTreeSet::new();
        for (i, &(t, pop_after)) in ops.iter().enumerate() {
            let id = q.schedule(SimTime::from_secs(t), i as u64);
            model.insert((t, id.value()));
            if pop_after {
                let (at, id, _) = q.pop().expect("just scheduled");
                prop_assert_eq!(Some((at.secs(), id.value())), model.pop_first());
            }
        }
        while let Some((at, id, _)) = q.pop() {
            prop_assert_eq!(Some((at.secs(), id.value())), model.pop_first());
        }
        prop_assert!(model.is_empty());
    }
}

proptest! {
    /// Chain invariant: a response traverses exactly the boxes *before*
    /// the decider, in reverse order — no matter where the decider sits.
    #[test]
    fn chain_reverse_prefix_invariant(n in 1usize..8, block_at in proptest::option::of(0usize..8)) {
        let block_at = block_at.map(|b| b % n);
        let mut chain = Chain::new();
        for i in 0..n {
            chain.push(Arc::new(Tagged {
                name: format!("box{i}"),
                blocks: block_at == Some(i),
            }));
        }
        let ctx = FlowCtx {
            now: SimTime::ZERO,
            client_ip: IpAddr(1),
        };
        let req = Request::get(Url::parse("http://x.example/").unwrap());
        let (verdict, passed) = chain.run_request(&req, &ctx);
        match block_at {
            Some(b) => {
                prop_assert_eq!(passed, b);
                prop_assert!(matches!(verdict, Verdict::Respond(_)));
            }
            None => {
                prop_assert_eq!(passed, n);
                prop_assert_eq!(verdict, Verdict::Forward);
            }
        }
        let resp = chain.run_response(&req, Response::text(filterwatch_http::Status::OK, ""), &ctx, passed);
        let tags = resp.headers.get_all("X-Chain");
        let expect: Vec<String> = (0..passed).rev().map(|i| format!("box{i}")).collect();
        prop_assert_eq!(tags, expect.iter().map(String::as_str).collect::<Vec<_>>());
    }
}
