//! McAfee SmartFilter: software URL filter (McAfee Web Gateway family).
//!
//! Table 2 signatures: Shodan keywords `"mcafee web gateway"` and
//! `"url blocked"`; WhatWeb validation by a `Via-Proxy` header or an HTML
//! title containing "McAfee Web Gateway". The middlebox here emits both
//! unless the deployment strips branding (the §6 evasion tactic).

use std::sync::Arc;

use filterwatch_http::{html, Request, Response, Status};
use filterwatch_netsim::{FlowCtx, Middlebox, Service, ServiceCtx, SimTime, Verdict};

use crate::blockpage::explicit_block_page;
use crate::cloud::VendorCloud;
use crate::license::effective_db_time;
use crate::policy::FilterPolicy;

/// A SmartFilter deployment in an ISP's egress path.
pub struct SmartFilterBox {
    name: String,
    cloud: Arc<VendorCloud>,
    policy: FilterPolicy,
    strip_branding: bool,
    frozen_at: Option<SimTime>,
}

impl SmartFilterBox {
    /// A deployment using `cloud`'s database under `policy`.
    pub fn new(name: &str, cloud: Arc<VendorCloud>, policy: FilterPolicy) -> Self {
        SmartFilterBox {
            name: name.to_string(),
            cloud,
            policy,
            strip_branding: false,
            frozen_at: None,
        }
    }

    /// Remove vendor branding from block pages and headers (§6 evasion).
    pub fn with_stripped_branding(mut self) -> Self {
        self.strip_branding = true;
        self
    }

    /// Freeze the update subscription at `at` (no newer categorizations
    /// reach this box).
    pub fn with_frozen_subscription(mut self, at: SimTime) -> Self {
        self.frozen_at = Some(at);
        self
    }

    /// The blocking policy in force.
    pub fn policy(&self) -> &FilterPolicy {
        &self.policy
    }

    fn block_page(&self, url: &str, category: &str) -> Response {
        if self.strip_branding {
            explicit_block_page(
                "Notification",
                "Access restricted by network policy",
                url,
                category,
            )
        } else {
            explicit_block_page(
                "McAfee Web Gateway - Notification",
                "McAfee Web Gateway: URL Blocked by SmartFilter policy",
                url,
                category,
            )
            .with_header("Via-Proxy", "McAfee Web Gateway 7.3")
        }
    }
}

impl Middlebox for SmartFilterBox {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_request(&self, req: &Request, ctx: &FlowCtx) -> Verdict {
        let as_of = effective_db_time(ctx.now, self.frozen_at);
        let cats = self.cloud.lookup(&req.url, as_of);
        match self.policy.decide(req.url.registrable_domain(), &cats) {
            Some(category) => Verdict::respond(self.block_page(&req.url.to_string(), &category)),
            None => Verdict::Forward,
        }
    }
}

/// The externally visible McAfee Web Gateway administration console —
/// the misconfiguration §3 scans for.
#[derive(Debug, Clone, Default)]
pub struct SmartFilterConsole;

impl Service for SmartFilterConsole {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        if req.url.path().starts_with("/mwg") || req.url.path() == "/" {
            Response::html(html::page(
                "McAfee Web Gateway",
                "<h1>McAfee Web Gateway</h1>\n\
                 <p>Administrator sign-in. URL Blocked lists and SmartFilter \
                 policy are managed from this console.</p>\n\
                 <form method=\"post\" action=\"/mwg/login\">\
                 <input name=\"user\"/><input name=\"pass\" type=\"password\"/>\
                 </form>",
            ))
            .with_status(Status::UNAUTHORIZED)
            .with_header("Server", "MWG/7.3.2")
            .with_header("Via-Proxy", "McAfee Web Gateway 7.3")
            .with_header("WWW-Authenticate", "Basic realm=\"McAfee Web Gateway\"")
        } else {
            Response::not_found()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_http::Url;
    use filterwatch_urllists::Category;

    fn flow(now: SimTime) -> FlowCtx {
        FlowCtx {
            now,
            client_ip: "5.0.0.10".parse().unwrap(),
        }
    }

    fn setup() -> (Arc<VendorCloud>, SmartFilterBox) {
        let cloud = Arc::new(VendorCloud::new(crate::ProductKind::SmartFilter, 5));
        cloud.seed_categorization("porn-site.example", "Pornography");
        cloud.seed_categorization("proxyhub.example", "Anonymizers");
        let sf = SmartFilterBox::new(
            "smartfilter@test",
            Arc::clone(&cloud),
            FilterPolicy::blocking(["Pornography"]),
        );
        (cloud, sf)
    }

    #[test]
    fn blocks_enabled_category_only() {
        let (_, sf) = setup();
        let blocked = sf.process_request(
            &Request::get(Url::parse("http://porn-site.example/").unwrap()),
            &flow(SimTime::ZERO),
        );
        let Verdict::Respond(page) = blocked else {
            panic!("expected block")
        };
        assert_eq!(page.status, Status::FORBIDDEN);
        assert_eq!(
            page.title(),
            Some("McAfee Web Gateway - Notification".into())
        );
        assert_eq!(
            page.headers.get("Via-Proxy"),
            Some("McAfee Web Gateway 7.3")
        );

        // Proxy category exists in the DB but is not in this policy
        // (Challenge 1: Saudi Arabia's deployment).
        let passed = sf.process_request(
            &Request::get(Url::parse("http://proxyhub.example/").unwrap()),
            &flow(SimTime::ZERO),
        );
        assert_eq!(passed, Verdict::Forward);
    }

    #[test]
    fn stripped_branding_removes_signatures() {
        let (cloud, _) = setup();
        let sf = SmartFilterBox::new("sf", cloud, FilterPolicy::blocking(["Pornography"]))
            .with_stripped_branding();
        let Verdict::Respond(page) = sf.process_request(
            &Request::get(Url::parse("http://porn-site.example/").unwrap()),
            &flow(SimTime::ZERO),
        ) else {
            panic!("expected block")
        };
        assert!(!page.headers.contains("Via-Proxy"));
        assert!(!page.body_text().contains("McAfee"));
        // Still an explicit block page.
        assert!(page.body_text().contains("has been blocked"));
    }

    #[test]
    fn frozen_subscription_misses_new_entries() {
        let (cloud, _) = setup();
        cloud.seed_categorization_at("late.example", "Pornography", SimTime::from_days(5));
        let sf = SmartFilterBox::new("sf", cloud, FilterPolicy::blocking(["Pornography"]))
            .with_frozen_subscription(SimTime::from_days(2));
        let verdict = sf.process_request(
            &Request::get(Url::parse("http://late.example/").unwrap()),
            &flow(SimTime::from_days(10)),
        );
        assert_eq!(verdict, Verdict::Forward);
    }

    #[test]
    fn console_carries_table2_signatures() {
        let console = SmartFilterConsole;
        let resp = console.handle(
            &Request::get(Url::parse("http://gw.example/").unwrap()),
            &ServiceCtx {
                now: SimTime::ZERO,
                client_ip: "198.51.100.1".parse().unwrap(),
            },
        );
        let banner = resp.banner().to_ascii_lowercase();
        let body = resp.body_text().to_ascii_lowercase();
        assert!(banner.contains("via-proxy"));
        assert!(body.contains("mcafee web gateway"));
        assert!(body.contains("url blocked"));
        assert_eq!(resp.title(), Some("McAfee Web Gateway".into()));
    }

    #[test]
    fn uses_oni_category_submissions() {
        // End-to-end with the cloud: submit a proxy site, retest later.
        let (cloud, _) = setup();
        let sf = SmartFilterBox::new(
            "sf",
            Arc::clone(&cloud),
            FilterPolicy::blocking(["Anonymizers"]),
        );
        cloud.register_site_profile("starwasher.info", Category::AnonymizersProxies);
        let req = Request::get(Url::parse("http://starwasher.info/").unwrap());
        assert_eq!(
            sf.process_request(&req, &flow(SimTime::ZERO)),
            Verdict::Forward
        );
        cloud.submit(
            &Url::parse("http://starwasher.info/").unwrap(),
            crate::SubmitterProfile::NAIVE,
            SimTime::ZERO,
        );
        let later = flow(SimTime::from_days(5));
        assert!(matches!(
            sf.process_request(&req, &later),
            Verdict::Respond(_)
        ));
    }
}
