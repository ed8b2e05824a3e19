//! Websense Web proxy gateways.
//!
//! Table 2 signatures: Shodan keywords `"blockpage.cgi"` and
//! `"gateway websense"`; WhatWeb validation via a `Location` header
//! redirecting to a host on **port 15871** with a `ws-session`
//! parameter. The product's history in the paper: ONI identified it in
//! Yemen, and in 2009 the vendor "discontinu\[ed\] support of their
//! product for the Yemen government" \[35\] — modelled as a frozen update
//! subscription.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use filterwatch_http::{html, Request, Response, Status};
use filterwatch_netsim::{FlowCtx, Middlebox, Service, ServiceCtx, SimTime, Verdict};

use crate::blockpage::explicit_block_page;
use crate::cloud::VendorCloud;
use crate::license::{effective_db_time, LicensePool};
use crate::policy::FilterPolicy;

/// The port Websense block pages are served on.
pub const BLOCKPAGE_PORT: u16 = 15871;

/// A Websense gateway deployment.
pub struct WebsenseBox {
    name: String,
    cloud: Arc<VendorCloud>,
    policy: FilterPolicy,
    /// Host (name or address text) serving the block pages on
    /// port 15871 — usually the gateway itself.
    gateway_host: String,
    license: Option<LicensePool>,
    strip_branding: bool,
    frozen_at: Option<SimTime>,
    session_counter: AtomicU64,
}

impl WebsenseBox {
    /// A deployment redirecting blocked requests to
    /// `http://{gateway_host}:15871/cgi-bin/blockpage.cgi`.
    pub fn new(
        name: &str,
        cloud: Arc<VendorCloud>,
        policy: FilterPolicy,
        gateway_host: &str,
    ) -> Self {
        WebsenseBox {
            name: name.to_string(),
            cloud,
            policy,
            gateway_host: gateway_host.to_string(),
            license: None,
            strip_branding: false,
            frozen_at: None,
            session_counter: AtomicU64::new(1),
        }
    }

    /// Limit filtering to a concurrent-user license pool (Yemen, §4.4).
    pub fn with_license_pool(mut self, pool: LicensePool) -> Self {
        self.license = Some(pool);
        self
    }

    /// Remove vendor branding (generic in-line block page).
    pub fn with_stripped_branding(mut self) -> Self {
        self.strip_branding = true;
        self
    }

    /// Freeze the categorization updates at `at` (vendor withdrew
    /// support, as in Yemen 2009).
    pub fn with_frozen_subscription(mut self, at: SimTime) -> Self {
        self.frozen_at = Some(at);
        self
    }

    /// The blocking policy in force.
    pub fn policy(&self) -> &FilterPolicy {
        &self.policy
    }
}

impl Middlebox for WebsenseBox {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_request(&self, req: &Request, ctx: &FlowCtx) -> Verdict {
        if let Some(pool) = &self.license {
            if pool.filtering_offline() {
                return Verdict::Forward;
            }
        }
        let as_of = effective_db_time(ctx.now, self.frozen_at);
        let cats = self.cloud.lookup(&req.url, as_of);
        match self.policy.decide(req.url.registrable_domain(), &cats) {
            Some(category) => {
                if self.strip_branding {
                    return Verdict::respond(explicit_block_page(
                        "Access Denied",
                        "Access restricted by network policy",
                        &req.url.to_string(),
                        &category,
                    ));
                }
                let session = self.session_counter.fetch_add(1, Ordering::Relaxed);
                Verdict::respond(Response::redirect(&format!(
                    "http://{}:{}/cgi-bin/blockpage.cgi?ws-session={session}&cat={}&url={}",
                    self.gateway_host,
                    BLOCKPAGE_PORT,
                    category.replace(' ', "+"),
                    req.url
                )))
            }
            None => Verdict::Forward,
        }
    }
}

/// The block-page service bound on port 15871 of the gateway host.
#[derive(Debug, Clone, Default)]
pub struct WebsenseBlockpage;

impl Service for WebsenseBlockpage {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        if req.url.path().starts_with("/cgi-bin/blockpage.cgi") {
            let category = req
                .url
                .query_param("cat")
                .unwrap_or("Restricted")
                .replace('+', " ");
            let url = req.url.query_param("url").unwrap_or("(unknown)");
            let session = req.url.query_param("ws-session").unwrap_or("0");
            return Response::html(html::page(
                "Content Gateway Websense - Access Denied",
                &format!(
                    "<h1>Access to this site is blocked</h1>\
                     <p>URL: <code>{}</code></p>\
                     <p>Category: <b>{}</b></p>\
                     <p class=\"footer\">Websense Content Gateway \
                     (ws-session {})</p>",
                    html::escape(url),
                    html::escape(&category),
                    html::escape(session)
                ),
            ))
            .with_status(Status::FORBIDDEN)
            .with_header("Server", "Websense-Content-Gateway");
        }
        // Banner for scanners probing the port directly.
        Response::html(html::page(
            "Content Gateway Websense",
            "<p>Websense Content Gateway block page service (blockpage.cgi).</p>",
        ))
        .with_header("Server", "Websense-Content-Gateway")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_http::Url;

    fn flow(now: SimTime) -> FlowCtx {
        FlowCtx {
            now,
            client_ip: "5.0.0.10".parse().unwrap(),
        }
    }

    fn svc_ctx() -> ServiceCtx {
        ServiceCtx {
            now: SimTime::ZERO,
            client_ip: "5.0.0.10".parse().unwrap(),
        }
    }

    fn cloud() -> Arc<VendorCloud> {
        let c = Arc::new(VendorCloud::new(crate::ProductKind::Websense, 5));
        c.seed_categorization("adultsite.example", "Adult Content");
        c
    }

    #[test]
    fn block_redirects_to_port_15871_with_session() {
        let ws = WebsenseBox::new(
            "ws",
            cloud(),
            FilterPolicy::blocking(["Adult Content"]),
            "gw.texas-util.us",
        );
        let Verdict::Respond(resp) = ws.process_request(
            &Request::get(Url::parse("http://adultsite.example/").unwrap()),
            &flow(SimTime::ZERO),
        ) else {
            panic!("expected block")
        };
        let loc = resp.location().unwrap();
        assert!(loc.contains(":15871/cgi-bin/blockpage.cgi"), "{loc}");
        assert!(loc.contains("ws-session=1"), "{loc}");
        // Session counter increments.
        let Verdict::Respond(resp2) = ws.process_request(
            &Request::get(Url::parse("http://adultsite.example/").unwrap()),
            &flow(SimTime::ZERO),
        ) else {
            panic!()
        };
        assert!(resp2.location().unwrap().contains("ws-session=2"));
    }

    #[test]
    fn frozen_subscription_reproduces_yemen_2009() {
        let c = cloud();
        // A site categorized after the vendor pulled updates.
        c.seed_categorization_at(
            "new-adult.example",
            "Adult Content",
            SimTime::from_days(100),
        );
        let ws = WebsenseBox::new(
            "ws@yemen",
            Arc::clone(&c),
            FilterPolicy::blocking(["Adult Content"]),
            "gw",
        )
        .with_frozen_subscription(SimTime::from_days(50));
        // Old entries still block…
        assert!(matches!(
            ws.process_request(
                &Request::get(Url::parse("http://adultsite.example/").unwrap()),
                &flow(SimTime::from_days(200)),
            ),
            Verdict::Respond(_)
        ));
        // …but nothing categorized after the freeze does.
        assert_eq!(
            ws.process_request(
                &Request::get(Url::parse("http://new-adult.example/").unwrap()),
                &flow(SimTime::from_days(200)),
            ),
            Verdict::Forward
        );
    }

    #[test]
    fn license_pool_causes_intermittent_filtering() {
        let ws = WebsenseBox::new(
            "ws",
            cloud(),
            FilterPolicy::blocking(["Adult Content"]),
            "gw",
        )
        .with_license_pool(LicensePool::new(5, 10, 3, "yemen-ws"));
        let req = Request::get(Url::parse("http://adultsite.example/").unwrap());
        let outcomes: Vec<bool> = (0..50)
            .map(|_| {
                matches!(
                    ws.process_request(&req, &flow(SimTime::ZERO)),
                    Verdict::Respond(_)
                )
            })
            .collect();
        assert!(outcomes.iter().any(|&b| b), "never blocked");
        assert!(outcomes.iter().any(|&b| !b), "never bypassed");
    }

    #[test]
    fn blockpage_service_signatures() {
        let resp = WebsenseBlockpage.handle(
            &Request::get(
                Url::parse("http://gw:15871/cgi-bin/blockpage.cgi?ws-session=7&cat=Adult+Content&url=http://x/")
                    .unwrap(),
            ),
            &svc_ctx(),
        );
        assert_eq!(resp.status, Status::FORBIDDEN);
        let lower = resp.body_text().to_ascii_lowercase();
        assert!(lower.contains("websense"));
        assert!(lower.contains("adult content"));
        let banner_probe = WebsenseBlockpage.handle(
            &Request::get(Url::parse("http://gw:15871/").unwrap()),
            &svc_ctx(),
        );
        let text = format!(
            "{}{}",
            banner_probe.banner().to_ascii_lowercase(),
            banner_probe.body_text().to_ascii_lowercase()
        );
        assert!(text.contains("blockpage.cgi"));
        assert!(text.contains("gateway websense"));
    }

    #[test]
    fn stripped_branding_blocks_inline() {
        let ws = WebsenseBox::new(
            "ws",
            cloud(),
            FilterPolicy::blocking(["Adult Content"]),
            "gw",
        )
        .with_stripped_branding();
        let Verdict::Respond(resp) = ws.process_request(
            &Request::get(Url::parse("http://adultsite.example/").unwrap()),
            &flow(SimTime::ZERO),
        ) else {
            panic!()
        };
        assert!(resp.location().is_none());
        assert!(!resp.body_text().to_ascii_lowercase().contains("websense"));
    }
}
