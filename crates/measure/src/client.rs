//! The dual-vantage measurement client.

use filterwatch_http::{Response, Url};
use filterwatch_netsim::{FetchOutcome, FlowDisposition, Internet, VantageId};
use filterwatch_trace::StepKind;
use std::fmt::{Display, Write};

use crate::blockpage::BlockPageLibrary;
use crate::resilience::{
    CircuitBreaker, FaultClass, MeasurementQuality, QualityCounters, ResilienceConfig, RetryPolicy,
};
use crate::similarity::{body_similarity, MODIFIED_THRESHOLD};
use crate::verdict::{UrlVerdict, Verdict};

/// The hops of one redirect-following fetch.
#[derive(Debug, Clone)]
pub struct FetchTrace {
    /// `(url, outcome)` per hop, in order.
    pub hops: Vec<(Url, FetchOutcome)>,
}

impl FetchTrace {
    /// The final hop's outcome.
    // A fetch trace always records at least its first hop.
    #[allow(clippy::expect_used)]
    pub fn final_outcome(&self) -> &FetchOutcome {
        &self.hops.last().expect("trace has at least one hop").1
    }

    /// The final hop's response, if one arrived.
    pub fn final_response(&self) -> Option<&Response> {
        self.final_outcome().response()
    }

    /// The final response's body bytes (empty when none arrived).
    fn final_body(&self) -> &[u8] {
        self.final_response().map_or(&[], |r| &r.body)
    }

    /// All text a block-page classifier should see: every hop's URL,
    /// banner and body, written into one buffer.
    pub fn text(&self) -> String {
        // Room per hop for its URL and banner lines; bodies are sized
        // exactly, so a typical trace allocates once.
        const HOP_ROOM: usize = 256;
        let size = self
            .hops
            .iter()
            .map(|(_, outcome)| HOP_ROOM + outcome.response().map_or(0, |resp| resp.body.len()));
        let mut out = String::with_capacity(size.sum());
        for (url, outcome) in &self.hops {
            // Writing to a `String` cannot fail.
            let _ = writeln!(out, "{url}");
            if let Some(resp) = outcome.response() {
                resp.write_banner(&mut out);
                out.push('\n');
                out.push_str(&String::from_utf8_lossy(&resp.body));
                out.push('\n');
            }
        }
        out
    }
}

/// What one vantage observed for one URL.
#[derive(Debug, Clone)]
pub enum Observation {
    /// An HTTP response was ultimately received.
    Reached {
        /// Final status code.
        status: u16,
        /// The full trace (for classification and logs).
        trace: FetchTrace,
    },
    /// The fetch failed at the transport layer.
    Failed {
        /// The failing outcome (never [`FetchOutcome::Ok`]); its
        /// `label()` is the text verdicts and logs carry.
        outcome: FetchOutcome,
    },
}

impl Observation {
    /// Whether a response arrived.
    pub fn reached(&self) -> bool {
        matches!(self, Observation::Reached { .. })
    }
}

/// The §4.1 measurement client: field + lab vantage points.
///
/// By default the client is single-shot. [`with_resilience`]
/// (`MeasurementClient::with_resilience`) layers on retries with
/// backoff, per-vantage circuit breakers and quorum verdicts — all of
/// [`test_url`](MeasurementClient::test_url) and the list helpers then
/// route through the resilient path transparently.
pub struct MeasurementClient {
    field: VantageId,
    lab: VantageId,
    library: BlockPageLibrary,
    max_redirects: usize,
    resilience: ResilienceConfig,
    field_breaker: Option<CircuitBreaker>,
    lab_breaker: Option<CircuitBreaker>,
    quality: QualityCounters,
    retries_used: std::sync::atomic::AtomicU64,
}

impl MeasurementClient {
    /// A client testing from `field`, controlled against `lab`.
    pub fn new(field: VantageId, lab: VantageId) -> Self {
        MeasurementClient {
            field,
            lab,
            library: BlockPageLibrary::standard(),
            max_redirects: 5,
            resilience: ResilienceConfig::default(),
            field_breaker: None,
            lab_breaker: None,
            quality: QualityCounters::default(),
            retries_used: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Builder-style: record classifier latency (and any future client
    /// metrics) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: filterwatch_telemetry::TelemetryHandle) -> Self {
        self.library = self.library.with_telemetry(telemetry);
        self
    }

    /// Builder-style: enable retry/breaker/quorum behaviour.
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Self {
        self.field_breaker = config.breaker.map(CircuitBreaker::new);
        self.lab_breaker = config.breaker.map(CircuitBreaker::new);
        self.resilience = config;
        self
    }

    /// The active resilience configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Snapshot the measurement-quality counters accumulated so far.
    pub fn quality(&self) -> MeasurementQuality {
        let trips = self.field_breaker.as_ref().map_or(0, |b| b.trips())
            + self.lab_breaker.as_ref().map_or(0, |b| b.trips());
        self.quality.snapshot(trips)
    }

    /// The field vantage.
    pub fn field(&self) -> VantageId {
        self.field
    }

    /// The lab vantage.
    pub fn lab(&self) -> VantageId {
        self.lab
    }

    /// Fetch a URL from one vantage, following redirects.
    pub fn fetch(&self, net: &Internet, vantage: VantageId, url: &Url) -> Observation {
        let tracer = net.tracer();
        let scope = tracer.open(
            StepKind::Fetch,
            net.now().secs(),
            &[("vantage", &net.vantage(vantage).name), ("url", url)],
        );
        let obs = self.fetch_inner(net, vantage, url);
        let outcome: &dyn Display = match &obs {
            Observation::Reached { status, .. } => status,
            Observation::Failed { outcome } => outcome,
        };
        tracer.close(scope, net.now().secs(), &[("outcome", outcome)]);
        obs
    }

    fn fetch_inner(&self, net: &Internet, vantage: VantageId, url: &Url) -> Observation {
        let mut hops = Vec::new();
        let mut current = url.clone();
        for _ in 0..=self.max_redirects {
            let outcome = net.fetch(vantage, &current);
            let next = match &outcome {
                FetchOutcome::Ok(resp) if resp.status.is_redirect() => resp
                    .location()
                    .and_then(|loc| self.resolve_location(&current, loc)),
                FetchOutcome::Ok(_) => None,
                _failure => {
                    hops.push((current, outcome));
                    return self.finish(hops);
                }
            };
            match next {
                Some(next_url) => {
                    net.tracer()
                        .point(StepKind::Redirect, net.now().secs(), &[("to", &next_url)]);
                    // Hand the hop its URL by value instead of cloning
                    // it: `current` moves into `hops` as `next_url`
                    // takes its place.
                    hops.push((std::mem::replace(&mut current, next_url), outcome));
                }
                None => {
                    hops.push((current, outcome));
                    return self.finish(hops);
                }
            }
        }
        self.finish(hops)
    }

    fn resolve_location(&self, base: &Url, location: &str) -> Option<Url> {
        if location.starts_with("http://") || location.starts_with("https://") {
            Url::parse(location).ok()
        } else if location.starts_with('/') {
            Some(base.with_path(location))
        } else {
            None
        }
    }

    fn finish(&self, hops: Vec<(Url, FetchOutcome)>) -> Observation {
        let trace = FetchTrace { hops };
        match trace.final_outcome() {
            FetchOutcome::Ok(resp) => Observation::Reached {
                status: resp.status.code(),
                trace,
            },
            failure => Observation::Failed {
                outcome: failure.clone(),
            },
        }
    }

    /// Fetch a URL from one vantage with the configured retry policy:
    /// retryable transport failures back off (advancing the virtual
    /// clock, which is what lets retries outlast outage windows) and
    /// re-fetch, up to the attempt limit and retry budget. With the
    /// default single-attempt policy this is exactly [`fetch`]
    /// (`MeasurementClient::fetch`) — no clock movement, no extra work.
    pub fn fetch_with_retries(&self, net: &Internet, vantage: VantageId, url: &Url) -> Observation {
        use std::sync::atomic::Ordering;
        let policy = &self.resilience.retry;
        // The backoff label is a pure function of the vantage and URL;
        // render it at most once across all attempts.
        let mut backoff_label: Option<String> = None;
        let mut attempt = 1u32;
        loop {
            QualityCounters::bump(&self.quality.fetch_attempts);
            let obs = self.fetch(net, vantage, url);
            let Observation::Failed { outcome } = &obs else {
                return obs;
            };
            if attempt >= policy.max_attempts || RetryPolicy::classify(outcome) == FaultClass::Fatal
            {
                return obs;
            }
            if let Some(budget) = policy.budget {
                if self.retries_used.load(Ordering::Relaxed) >= budget {
                    return obs;
                }
            }
            let label = backoff_label
                .get_or_insert_with(|| format!("{}/{}", net.vantage(vantage).name, url));
            let wait = policy.backoff_secs(attempt, net.seed(), label);
            net.tracer().point(
                StepKind::Retry,
                net.now().secs(),
                &[
                    ("attempt", &attempt),
                    ("wait-secs", &wait),
                    ("error", outcome),
                ],
            );
            net.advance_secs(wait);
            net.telemetry()
                .counter_add("retry.attempt", outcome.label(), 1);
            QualityCounters::bump(&self.quality.retries);
            self.retries_used.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
    }

    /// Test one URL: fetch from the field and from the lab, compare
    /// (§4.1), and classify any explicit block page. With resilience
    /// enabled this becomes N quorum trials of breaker-guarded,
    /// retry-backed fetches.
    pub fn test_url(&self, net: &Internet, url: &Url) -> UrlVerdict {
        let tracer = net.tracer();
        let scope = tracer.open(StepKind::UrlTest, net.now().secs(), &[("url", url)]);
        let verdict = if self.resilience.is_passthrough() {
            let field = self.fetch(net, self.field, url);
            let lab = self.fetch(net, self.lab, url);
            self.compare(&field, &lab)
        } else {
            self.test_url_quorum(net, url)
        };
        QualityCounters::bump(&self.quality.verdicts);
        if verdict.is_inconclusive() {
            QualityCounters::bump(&self.quality.inconclusive);
        }
        tracer.point(
            StepKind::Verdict,
            net.now().secs(),
            &[
                ("verdict", &verdict.kind().to_token()),
                ("product", &verdict.blocked_by().unwrap_or("-")),
            ],
        );
        tracer.close(scope, net.now().secs(), &[]);
        UrlVerdict {
            url: url.to_string(),
            verdict,
        }
    }

    /// One breaker-guarded, retry-backed field/lab comparison.
    fn test_url_trial(&self, net: &Internet, url: &Url) -> Verdict {
        // Breaker check first: a vantage known to be down is skipped
        // without burning retry budget, and the skip is auditable in the
        // flow log.
        for (vantage, breaker) in [
            (self.field, &self.field_breaker),
            (self.lab, &self.lab_breaker),
        ] {
            if let Some(b) = breaker {
                if !b.allows(net.now()) {
                    let name = net.vantage(vantage).name.clone();
                    QualityCounters::bump(&self.quality.breaker_skips);
                    net.tracer().point(
                        StepKind::BreakerOpen,
                        net.now().secs(),
                        &[("vantage", &name)],
                    );
                    net.log_vantage_event(vantage, url, FlowDisposition::BreakerSkip(name.clone()));
                    return Verdict::Inconclusive {
                        reason: format!("circuit breaker open for vantage {name}"),
                    };
                }
            }
        }
        let field = self.fetch_with_retries(net, self.field, url);
        if let Some(b) = &self.field_breaker {
            match &field {
                Observation::Reached { .. } => b.record_success(),
                Observation::Failed { .. } => b.record_failure(net.now()),
            }
        }
        let lab = self.fetch_with_retries(net, self.lab, url);
        if let Some(b) = &self.lab_breaker {
            match &lab {
                Observation::Reached { .. } => b.record_success(),
                Observation::Failed { .. } => b.record_failure(net.now()),
            }
        }
        self.compare(&field, &lab)
    }

    /// Run quorum trials and aggregate: the most common verdict wins if
    /// it reaches the quorum, otherwise the URL is `Inconclusive`.
    fn test_url_quorum(&self, net: &Internet, url: &Url) -> Verdict {
        let tracer = net.tracer();
        let quorum = self.resilience.quorum;
        let mut verdicts: Vec<(Verdict, u32)> = Vec::new();
        for n in 0..quorum.trials() {
            QualityCounters::bump(&self.quality.quorum_trials);
            let scope = tracer.open(StepKind::Trial, net.now().secs(), &[("n", &(n + 1))]);
            let v = self.test_url_trial(net, url);
            tracer.close(
                scope,
                net.now().secs(),
                &[("verdict", &v.kind().to_token())],
            );
            match verdicts.iter_mut().find(|(seen, _)| Self::agree(seen, &v)) {
                Some((_, count)) => *count += 1,
                None => verdicts.push((v, 1)),
            }
        }
        // Ties resolve to the latest-seen verdict (`max_by_key` keeps
        // the last maximum) — trial order is deterministic, so so is the
        // aggregate. `QuorumPolicy` runs at least one trial.
        let Some((best, count)) = verdicts.iter().max_by_key(|(_, count)| *count) else {
            return Verdict::Inconclusive {
                reason: "no quorum: no trials ran".into(),
            };
        };
        tracer.point(
            StepKind::Quorum,
            net.now().secs(),
            &[
                ("best", &best.kind().to_token()),
                ("count", count),
                ("trials", &quorum.trials()),
                ("need", &quorum.quorum()),
            ],
        );
        if *count >= quorum.quorum() {
            best.clone()
        } else {
            Verdict::Inconclusive {
                reason: format!(
                    "no quorum: best {count}/{} trials agreed on {} (need {})",
                    quorum.trials(),
                    best.kind().to_token(),
                    quorum.quorum()
                ),
            }
        }
    }

    /// Whether two trial verdicts corroborate each other for quorum
    /// purposes. Labels must match; blocks must also attribute the same
    /// product (a Netsweeper page and a SmartFilter page are different
    /// findings, not two votes for "blocked").
    fn agree(a: &Verdict, b: &Verdict) -> bool {
        match (a, b) {
            (Verdict::Blocked(x), Verdict::Blocked(y)) => x.product == y.product,
            _ => a.kind() == b.kind(),
        }
    }

    /// Compare a field observation against the lab control.
    pub fn compare(&self, field: &Observation, lab: &Observation) -> Verdict {
        // Lab failure first: no control, no conclusion.
        let lab_trace = match lab {
            Observation::Reached { trace, .. } => trace,
            Observation::Failed { outcome } => {
                return Verdict::Unavailable {
                    lab_error: outcome.label().to_string(),
                }
            }
        };

        match field {
            Observation::Failed { outcome } => Verdict::Inaccessible {
                field_error: outcome.label().to_string(),
            },
            Observation::Reached { trace, .. } => {
                // A block page in the field that is absent in the lab.
                match self.library.classify(&trace.text()) {
                    Some(block) if self.library.classify(&lab_trace.text()).is_none() => {
                        Verdict::Blocked(block)
                    }
                    _ => {
                        // No explicit denial: compare content. A strong
                        // divergence between the two copies is covert
                        // in-path tampering. Byte-identical copies have
                        // identical token sets (similarity exactly 1.0),
                        // so they skip the tokenizer.
                        let (field_body, lab_body) = (trace.final_body(), lab_trace.final_body());
                        let similarity = if field_body == lab_body {
                            1.0
                        } else {
                            body_similarity(
                                &String::from_utf8_lossy(field_body),
                                &String::from_utf8_lossy(lab_body),
                            )
                        };
                        if similarity < MODIFIED_THRESHOLD {
                            Verdict::Modified { similarity }
                        } else {
                            Verdict::Accessible
                        }
                    }
                }
            }
        }
    }

    /// Test a list of URLs in order.
    pub fn test_list(&self, net: &Internet, urls: &[Url]) -> Vec<UrlVerdict> {
        urls.iter().map(|u| self.test_url(net, u)).collect()
    }

    /// Repeat a list test `runs` times (Challenge 2: inconsistent
    /// blocking needs repetition). Returns one verdict vector per run.
    pub fn test_list_repeated(
        &self,
        net: &Internet,
        urls: &[Url],
        runs: usize,
    ) -> Vec<Vec<UrlVerdict>> {
        (0..runs).map(|_| self.test_list(net, urls)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_http::{Request, Status};
    use filterwatch_netsim::service::StaticSite;
    use filterwatch_netsim::{FlowCtx, Middlebox, NetworkSpec, Verdict as MbVerdict};
    use std::sync::Arc;

    /// A toy filter that redirects requests for hosts containing
    /// "blocked" to an in-ISP deny host.
    struct RedirectBlocker {
        deny_url: String,
    }

    impl Middlebox for RedirectBlocker {
        fn name(&self) -> &str {
            "redirect-blocker"
        }
        fn process_request(&self, req: &Request, _ctx: &FlowCtx) -> MbVerdict {
            if req.url.host().contains("blocked") {
                MbVerdict::respond(Response::redirect(&self.deny_url))
            } else {
                MbVerdict::Forward
            }
        }
    }

    fn world() -> (Internet, MeasurementClient) {
        let mut net = Internet::new(3);
        net.registry_mut().register_country("CA", "Canada", "ca");
        net.registry_mut().register_country("YE", "Yemen", "ye");
        let lab_as = net.registry_mut().register_as(239, "UTORONTO", "CA");
        let isp_as = net.registry_mut().register_as(12486, "YEMENNET", "YE");
        let lab_p = net.registry_mut().allocate_prefix(lab_as, 1).unwrap();
        let isp_p = net.registry_mut().allocate_prefix(isp_as, 1).unwrap();
        let lab = net.add_network(NetworkSpec::new("lab", lab_as, "CA").with_cidr(lab_p));
        let isp = net.add_network(NetworkSpec::new("isp", isp_as, "YE").with_cidr(isp_p));

        // Origin site (outside the ISP).
        let site_ip = net.alloc_ip(lab).unwrap();
        net.add_host(site_ip, lab, &["www.blocked-news.org"]);
        net.add_service(
            site_ip,
            80,
            Box::new(StaticSite::new("News", "<p>stories</p>")),
        );
        let ok_ip = net.alloc_ip(lab).unwrap();
        net.add_host(ok_ip, lab, &["www.fine.org"]);
        net.add_service(ok_ip, 80, Box::new(StaticSite::new("Fine", "<p>ok</p>")));

        // Deny host inside the ISP.
        let deny_ip = net.alloc_ip(isp).unwrap();
        net.add_host(deny_ip, isp, &["deny.isp.ye"]);
        net.add_service(
            deny_ip,
            8080,
            Box::new(StaticSite::new(
                "Web Page Blocked",
                "<p>netsweeper deny</p>",
            )),
        );
        net.attach_middlebox(
            isp,
            Arc::new(RedirectBlocker {
                deny_url: "http://deny.isp.ye:8080/webadmin/deny?dpid=36".into(),
            }),
        );

        let field = net.add_vantage("field", isp);
        let lab_vp = net.add_vantage("lab", lab);
        let client = MeasurementClient::new(field, lab_vp);
        (net, client)
    }

    #[test]
    fn blocked_url_follows_redirect_and_classifies() {
        let (net, client) = world();
        let v = client.test_url(&net, &Url::parse("http://www.blocked-news.org/").unwrap());
        assert!(v.verdict.is_blocked(), "{:?}", v.verdict);
        assert_eq!(v.verdict.blocked_by(), Some("netsweeper"));
    }

    #[test]
    fn accessible_url_matches_lab() {
        let (net, client) = world();
        let v = client.test_url(&net, &Url::parse("http://www.fine.org/").unwrap());
        assert!(v.verdict.is_accessible(), "{:?}", v.verdict);
    }

    #[test]
    fn unresolvable_url_is_unavailable() {
        let (net, client) = world();
        let v = client.test_url(&net, &Url::parse("http://no-such-host.example/").unwrap());
        // Lab can't reach it either → no conclusion.
        assert!(
            matches!(v.verdict, Verdict::Unavailable { .. }),
            "{:?}",
            v.verdict
        );
    }

    #[test]
    fn trace_records_hops() {
        let (net, client) = world();
        let obs = client.fetch(
            &net,
            client.field(),
            &Url::parse("http://www.blocked-news.org/").unwrap(),
        );
        let Observation::Reached { status, trace } = obs else {
            panic!("expected reach");
        };
        assert_eq!(status, Status::OK.code());
        assert_eq!(trace.hops.len(), 2);
        assert!(trace.text().contains("webadmin/deny"));
    }

    /// A middlebox that covertly rewrites pages from a target host
    /// instead of blocking them.
    struct Tamperer;

    impl Middlebox for Tamperer {
        fn name(&self) -> &str {
            "tamperer"
        }
        fn process_request(&self, _req: &Request, _ctx: &FlowCtx) -> MbVerdict {
            MbVerdict::Forward
        }
        fn process_response(&self, req: &Request, resp: Response, _ctx: &FlowCtx) -> Response {
            if req.url.host().contains("tampered") {
                Response::html(
                    "<html><body>replacement narrative entirely different words                      official statement supersedes prior material</body></html>",
                )
            } else {
                resp
            }
        }
    }

    #[test]
    fn covert_tampering_is_detected_as_modified() {
        let (mut net, _) = world();
        let isp = net.network_by_name("isp").unwrap().id;
        let lab = net.network_by_name("lab").unwrap().id;
        net.attach_middlebox(isp, Arc::new(Tamperer));
        let site_ip = net.alloc_ip(lab).unwrap();
        net.add_host(site_ip, lab, &["www.tampered-news.org"]);
        net.add_service(
            site_ip,
            80,
            Box::new(StaticSite::new(
                "News",
                "<p>independent reporting with many original words</p>",
            )),
        );
        let field = net.add_vantage("field2", isp);
        let lab_vp = net.add_vantage("lab2", lab);
        let client = MeasurementClient::new(field, lab_vp);
        let v = client.test_url(&net, &Url::parse("http://www.tampered-news.org/").unwrap());
        let Verdict::Modified { similarity } = v.verdict else {
            panic!("expected modified, got {:?}", v.verdict);
        };
        assert!(similarity < 0.5, "{similarity}");
        // The untouched site still reads accessible through the same path.
        let ok = client.test_url(&net, &Url::parse("http://www.fine.org/").unwrap());
        assert!(ok.verdict.is_accessible(), "{:?}", ok.verdict);
    }

    /// An observation whose single hop answered 200 with `body`.
    fn reached(body: &str) -> Observation {
        let url = Url::parse("http://www.fine.org/").unwrap();
        Observation::Reached {
            status: 200,
            trace: FetchTrace {
                hops: vec![(url, FetchOutcome::Ok(Response::html(body)))],
            },
        }
    }

    #[test]
    fn compare_reads_markup_and_case_noise_as_accessible() {
        let (_, client) = world();
        let lab = reached("<html><body><p>the quick brown fox</p></body></html>");
        // Byte-identical copies.
        assert_eq!(client.compare(&lab.clone(), &lab), Verdict::Accessible);
        // Same words under different markup and case: the bytes differ,
        // so the similarity path decides, and finds the same text.
        let restyled = reached("<div><span>THE</span> Quick   brown FOX</div>");
        assert_eq!(client.compare(&restyled, &lab), Verdict::Accessible);
        // Different words still read as modified.
        let rewritten = reached("<p>a state notice replaced this page</p>");
        assert!(matches!(
            client.compare(&rewritten, &lab),
            Verdict::Modified { .. }
        ));
    }

    #[test]
    fn test_list_preserves_order() {
        let (net, client) = world();
        let urls = [
            Url::parse("http://www.fine.org/").unwrap(),
            Url::parse("http://www.blocked-news.org/").unwrap(),
        ];
        let verdicts = client.test_list(&net, &urls);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].verdict.is_accessible());
        assert!(verdicts[1].verdict.is_blocked());
    }

    #[test]
    fn repeated_runs_return_each_run() {
        let (net, client) = world();
        let urls = [Url::parse("http://www.fine.org/").unwrap()];
        let runs = client.test_list_repeated(&net, &urls, 3);
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn default_client_is_passthrough_and_inert() {
        let (net, client) = world();
        let before = net.now();
        let v = client.test_url(&net, &Url::parse("http://www.fine.org/").unwrap());
        assert!(v.verdict.is_accessible());
        assert_eq!(net.now(), before, "no clock movement without resilience");
        let q = client.quality();
        assert_eq!(q.fetch_attempts, 0, "plain path bypasses the retry engine");
        assert_eq!(q.retries, 0);
        assert_eq!(q.verdicts, 1);
        assert_eq!(q.inconclusive, 0);
    }

    #[test]
    fn retries_ride_out_an_outage_window() {
        use filterwatch_netsim::{FaultProfile, SimTime};
        let (mut net, client) = world();
        let isp = net.network_by_name("isp").unwrap().id;
        net.set_network_faults(
            isp,
            FaultProfile::clean()
                .try_with_outage(SimTime::ZERO, SimTime::from_secs(20))
                .unwrap(),
        );
        let client = client.with_resilience(crate::resilience::ResilienceConfig::chaos());

        let obs = client.fetch_with_retries(
            &net,
            client.field(),
            &Url::parse("http://www.fine.org/").unwrap(),
        );
        assert!(obs.reached(), "retries should outlast the outage: {obs:?}");
        assert!(net.now() >= SimTime::from_secs(20), "backoff advanced time");
        let q = client.quality();
        assert!(q.retries >= 1, "{q:?}");
        assert_eq!(q.fetch_attempts, q.retries + 1);
    }

    #[test]
    fn breaker_skips_dead_vantage_and_yields_inconclusive() {
        let (mut net, client) = world();
        let isp = net.network_by_name("isp").unwrap().id;
        net.set_network_faults(isp, filterwatch_netsim::FaultProfile::lossy(1.0));
        net.set_flow_log(true);
        let client = client.with_resilience(crate::resilience::ResilienceConfig::chaos());

        // First URL: every trial fails end-to-end; the third consecutive
        // failure trips the field breaker. The verdict is an honest
        // Inaccessible (lab reached it, field never did).
        let v1 = client.test_url(&net, &Url::parse("http://www.fine.org/").unwrap());
        assert_eq!(
            v1.verdict.kind().to_token(),
            "inaccessible",
            "{:?}",
            v1.verdict
        );

        // Second URL: the breaker is open, all trials are skipped, and
        // the verdict is Inconclusive — not a false Accessible.
        let v2 = client.test_url(&net, &Url::parse("http://www.blocked-news.org/").unwrap());
        assert!(v2.verdict.is_inconclusive(), "{:?}", v2.verdict);

        let q = client.quality();
        assert_eq!(q.breaker_trips, 1, "{q:?}");
        assert_eq!(q.breaker_skips, 3, "one per skipped trial: {q:?}");
        assert_eq!(q.inconclusive, 1);
        assert_eq!(q.verdicts, 2);

        let skips: Vec<_> = net
            .flow_log()
            .into_iter()
            .filter(|r| matches!(r.disposition, FlowDisposition::BreakerSkip(_)))
            .collect();
        assert_eq!(skips.len(), 3);
        assert!(skips
            .iter()
            .all(|r| r.url == "http://www.blocked-news.org/"));
    }

    /// A filter that cycles block / forward / drop per request, so three
    /// quorum trials each see a different verdict.
    struct CyclingFilter(std::sync::atomic::AtomicUsize);

    impl Middlebox for CyclingFilter {
        fn name(&self) -> &str {
            "cycler"
        }
        fn process_request(&self, req: &Request, _ctx: &FlowCtx) -> MbVerdict {
            if !req.url.host().contains("flappy") {
                return MbVerdict::Forward;
            }
            match self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 3 {
                0 => MbVerdict::respond(Response::text(
                    filterwatch_http::Status::FORBIDDEN,
                    "netsweeper deny webadmin",
                )),
                1 => MbVerdict::Forward,
                _ => MbVerdict::Drop,
            }
        }
    }

    #[test]
    fn quorum_disagreement_is_inconclusive() {
        let (mut net, _) = world();
        let isp = net.network_by_name("isp").unwrap().id;
        let lab = net.network_by_name("lab").unwrap().id;
        net.attach_middlebox(isp, Arc::new(CyclingFilter(Default::default())));
        let site_ip = net.alloc_ip(lab).unwrap();
        net.add_host(site_ip, lab, &["www.flappy.org"]);
        net.add_service(site_ip, 80, Box::new(StaticSite::new("F", "<p>x</p>")));
        let field = net.add_vantage("field3", isp);
        let lab_vp = net.add_vantage("lab3", lab);
        // No retries (a Drop would otherwise be retried into the next
        // cycle phase); quorum of 3 with no two trials agreeing.
        let config = crate::resilience::ResilienceConfig {
            retry: crate::resilience::RetryPolicy::single(),
            breaker: None,
            quorum: crate::resilience::QuorumPolicy::majority(3),
        };
        let client = MeasurementClient::new(field, lab_vp).with_resilience(config);
        let v = client.test_url(&net, &Url::parse("http://www.flappy.org/").unwrap());
        let Verdict::Inconclusive { reason } = &v.verdict else {
            panic!("expected inconclusive, got {:?}", v.verdict);
        };
        assert!(reason.contains("no quorum"), "{reason}");
        let q = client.quality();
        assert_eq!(q.quorum_trials, 3);
        assert_eq!(q.inconclusive, 1);
    }
}
