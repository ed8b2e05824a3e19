//! Netsweeper Content Filtering.
//!
//! Table 2 signatures: Shodan keywords `"netsweeper"`, `"webadmin"`,
//! `"webadmin/deny"`, `"8080/webadmin/"`; WhatWeb has built-in detection
//! of the WebAdmin console. Blocked requests are redirected to the
//! deployment's deny page at `:8080/webadmin/deny`.
//!
//! Two behaviours from §4.4 are modelled explicitly:
//!
//! * **In-country categorization queueing** — "we have observed
//!   Netsweeper queuing Web sites for categorization once they have been
//!   accessed within the country". With [`NetsweeperBox::with_queueing`],
//!   every uncategorized URL a client fetches is pushed to the vendor's
//!   crawl queue, which is why the paper could not pre-verify
//!   accessibility before submitting.
//! * **License-limited filtering** — via
//!   `LicensePool`, reproducing Yemen's
//!   intermittent "offline" filtering.
//!
//! The module also provides the operator-facing **category test site**
//! (`denypagetests.netsweeper.com/category/catno/N` for the 66 numbered
//! categories) the paper used to enumerate YemenNet's blocked categories.

use std::sync::Arc;

use filterwatch_http::{html, Request, Response, Status};
use filterwatch_netsim::{FlowCtx, Middlebox, Service, ServiceCtx, SimTime, Verdict};

use crate::blockpage::explicit_block_page;
use crate::cloud::VendorCloud;
use crate::license::{effective_db_time, LicensePool};
use crate::policy::FilterPolicy;
use crate::taxonomy::{netsweeper_category_name, netsweeper_catno, NETSWEEPER_CATEGORIES};

/// Canonical hostname of the category test site.
pub const DENYPAGETESTS_HOST: &str = "denypagetests.netsweeper.com";

/// A Netsweeper deployment on an ISP's egress path.
pub struct NetsweeperBox {
    name: String,
    cloud: Arc<VendorCloud>,
    policy: FilterPolicy,
    /// Host (name or address text) of the deployment's WebAdmin console,
    /// used as the deny-page redirect target.
    deny_host: String,
    queue_uncategorized: bool,
    license: Option<LicensePool>,
    strip_branding: bool,
    frozen_at: Option<SimTime>,
}

impl NetsweeperBox {
    /// A deployment redirecting blocked requests to
    /// `http://{deny_host}:8080/webadmin/deny`.
    pub fn new(name: &str, cloud: Arc<VendorCloud>, policy: FilterPolicy, deny_host: &str) -> Self {
        NetsweeperBox {
            name: name.to_string(),
            cloud,
            policy,
            deny_host: deny_host.to_string(),
            queue_uncategorized: false,
            license: None,
            strip_branding: false,
            frozen_at: None,
        }
    }

    /// Enable in-country categorization queueing (§4.4).
    pub fn with_queueing(mut self) -> Self {
        self.queue_uncategorized = true;
        self
    }

    /// Limit filtering to a concurrent-user license pool (§4.4 Challenge 2).
    pub fn with_license_pool(mut self, pool: LicensePool) -> Self {
        self.license = Some(pool);
        self
    }

    /// Remove vendor branding from deny redirects (§6 evasion): blocked
    /// requests get a generic in-line block page instead.
    pub fn with_stripped_branding(mut self) -> Self {
        self.strip_branding = true;
        self
    }

    /// Freeze the categorization feed at `at`.
    pub fn with_frozen_subscription(mut self, at: SimTime) -> Self {
        self.frozen_at = Some(at);
        self
    }

    /// The blocking policy in force.
    pub fn policy(&self) -> &FilterPolicy {
        &self.policy
    }
}

impl Middlebox for NetsweeperBox {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_request(&self, req: &Request, ctx: &FlowCtx) -> Verdict {
        // License exhaustion: filtering silently offline for this flow.
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
                        "Web Page Blocked",
                        "This page is not available on this network",
                        &req.url.to_string(),
                        &category,
                    ));
                }
                let catno = netsweeper_catno(&category).unwrap_or(66);
                Verdict::respond(Response::redirect(&format!(
                    "http://{}:8080/webadmin/deny?dpid={catno}&dpruleid=1&cat={}&url={}",
                    self.deny_host,
                    category.replace(' ', "+"),
                    req.url
                )))
            }
            None => {
                if self.queue_uncategorized && cats.is_empty() {
                    self.cloud.queue_for_categorization(req.url.host(), ctx.now);
                }
                Verdict::Forward
            }
        }
    }
}

/// The WebAdmin console + deny-page service, bound on port 8080 of the
/// deployment's console host.
#[derive(Debug, Clone, Default)]
pub struct NetsweeperConsole;

impl Service for NetsweeperConsole {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        let path = req.url.path();
        if path.starts_with("/webadmin/deny") {
            let category = req
                .url
                .query_param("dpid")
                .and_then(|d| d.parse::<u8>().ok())
                .and_then(netsweeper_category_name)
                .unwrap_or("Restricted");
            let url = req.url.query_param("url").unwrap_or("(unknown)");
            return Response::html(html::page(
                "Web Page Blocked",
                &format!(
                    "<h1>Web Page Blocked!</h1>\
                     <p>The page you have requested has been blocked: <code>{}</code></p>\
                     <p>Category: <b>{}</b></p>\
                     <p class=\"footer\">Powered by Netsweeper. \
                     If you believe the page is categorized in error, use the \
                     Netsweeper test-a-site service.</p>",
                    html::escape(url),
                    html::escape(category)
                ),
            ))
            .with_status(Status::FORBIDDEN)
            .with_header("Server", "netsweeper/5.1");
        }
        if path == "/webadmin" || path.starts_with("/webadmin/") {
            return Response::html(html::page(
                "Netsweeper WebAdmin",
                "<h1>Netsweeper WebAdmin</h1><p>Operator sign-in to the \
                 Netsweeper content filtering policy manager (8080/webadmin/). \
                 Deny page template: /webadmin/deny</p>",
            ))
            .with_status(Status::UNAUTHORIZED)
            .with_header("Server", "netsweeper/5.1");
        }
        if path == "/" {
            return Response::redirect("/webadmin/");
        }
        Response::not_found()
    }
}

/// The vendor's category test site: 66 pages, one per numbered category,
/// each pre-categorized in the vendor database so that a correctly
/// functioning deployment blocks exactly the pages whose categories the
/// operator enabled.
#[derive(Debug, Clone, Default)]
pub struct DenyPageTestsSite;

impl Service for DenyPageTestsSite {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        let path = req.url.path();
        if let Some(rest) = path.strip_prefix("/category/catno/") {
            if let Ok(n) = rest.trim_end_matches('/').parse::<u8>() {
                if let Some(name) = netsweeper_category_name(n) {
                    return Response::html(html::page(
                        &format!("Netsweeper Category Test {n}"),
                        &format!(
                            "<h1>Category test page</h1>\
                             <p>This page is categorized as <b>{}</b> (catno {n}).</p>\
                             <p>If you can read this, your deployment does not \
                             block this category.</p>",
                            html::escape(name)
                        ),
                    ));
                }
            }
            return Response::not_found();
        }
        if path == "/" {
            let mut list = String::new();
            for (i, name) in NETSWEEPER_CATEGORIES.iter().enumerate() {
                list.push_str(&format!(
                    "<li><a href=\"/category/catno/{}\">{}</a></li>\n",
                    i + 1,
                    html::escape(name)
                ));
            }
            return Response::html(html::page(
                "Netsweeper Deny Page Tests",
                &format!("<h1>Category test pages</h1><ol>{list}</ol>"),
            ));
        }
        Response::not_found()
    }
}

/// Seed the vendor cloud with the test site's per-path categorizations
/// (done by the vendor when the site is stood up).
pub fn seed_denypagetests(cloud: &VendorCloud) {
    for (i, name) in NETSWEEPER_CATEGORIES.iter().enumerate() {
        cloud.seed_categorization(
            &format!("{DENYPAGETESTS_HOST}/category/catno/{}", i + 1),
            name,
        );
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

    fn svc_ctx() -> ServiceCtx {
        ServiceCtx {
            now: SimTime::ZERO,
            client_ip: "5.0.0.10".parse().unwrap(),
        }
    }

    fn cloud() -> Arc<VendorCloud> {
        let c = Arc::new(VendorCloud::new(crate::ProductKind::Netsweeper, 5));
        c.seed_categorization("freeproxy.example", "Proxy Anonymizer");
        c
    }

    #[test]
    fn blocked_request_redirects_to_deny_page() {
        let ns = NetsweeperBox::new(
            "ns@ooredoo",
            cloud(),
            FilterPolicy::blocking(["Proxy Anonymizer"]),
            "gw.ooredoo.qa",
        );
        let Verdict::Respond(resp) = ns.process_request(
            &Request::get(Url::parse("http://freeproxy.example/").unwrap()),
            &flow(SimTime::ZERO),
        ) else {
            panic!("expected block")
        };
        let loc = resp.location().unwrap();
        assert!(
            loc.starts_with("http://gw.ooredoo.qa:8080/webadmin/deny?"),
            "{loc}"
        );
        assert!(loc.contains("dpid=36"), "{loc}"); // Proxy Anonymizer catno
    }

    #[test]
    fn queueing_pushes_unknown_hosts() {
        let c = cloud();
        c.register_site_profile("newproxy.info", Category::AnonymizersProxies);
        let ns = NetsweeperBox::new(
            "ns",
            Arc::clone(&c),
            FilterPolicy::blocking(["Proxy Anonymizer"]),
            "gw",
        )
        .with_queueing();
        let req = Request::get(Url::parse("http://newproxy.info/").unwrap());
        assert_eq!(
            ns.process_request(&req, &flow(SimTime::ZERO)),
            Verdict::Forward
        );
        // The access queued the site; days later it is blocked without
        // any submission.
        let later = flow(SimTime::from_days(10));
        assert!(
            matches!(ns.process_request(&req, &later), Verdict::Respond(_)),
            "queued site should eventually block"
        );
    }

    #[test]
    fn no_queueing_without_flag() {
        let c = cloud();
        c.register_site_profile("quiet.info", Category::AnonymizersProxies);
        let ns = NetsweeperBox::new(
            "ns",
            Arc::clone(&c),
            FilterPolicy::blocking(["Proxy Anonymizer"]),
            "gw",
        );
        let req = Request::get(Url::parse("http://quiet.info/").unwrap());
        ns.process_request(&req, &flow(SimTime::ZERO));
        assert_eq!(
            ns.process_request(&req, &flow(SimTime::from_days(10))),
            Verdict::Forward
        );
    }

    #[test]
    fn license_exhaustion_waves_traffic_through() {
        let ns = NetsweeperBox::new(
            "ns@yemen",
            cloud(),
            FilterPolicy::blocking(["Proxy Anonymizer"]),
            "gw",
        )
        .with_license_pool(LicensePool::new(0, 10, 1, "t"));
        // Licensed for zero users: almost every flow bypasses.
        let req = Request::get(Url::parse("http://freeproxy.example/").unwrap());
        let forwards = (0..100)
            .filter(|_| ns.process_request(&req, &flow(SimTime::ZERO)) == Verdict::Forward)
            .count();
        assert!(forwards > 80, "forwards {forwards}");
    }

    #[test]
    fn console_deny_page_has_signatures() {
        let resp = NetsweeperConsole.handle(
            &Request::get(
                Url::parse("http://gw:8080/webadmin/deny?dpid=23&url=http://x.info/").unwrap(),
            ),
            &svc_ctx(),
        );
        assert_eq!(resp.status, Status::FORBIDDEN);
        let text = resp.body_text();
        assert!(text.contains("Web Page Blocked"));
        assert!(text.contains("Pornography")); // dpid 23
        assert!(text.to_ascii_lowercase().contains("netsweeper"));
        assert!(resp.banner().to_ascii_lowercase().contains("netsweeper"));
    }

    #[test]
    fn console_login_and_root_redirect() {
        let login = NetsweeperConsole.handle(
            &Request::get(Url::parse("http://gw:8080/webadmin/").unwrap()),
            &svc_ctx(),
        );
        assert_eq!(login.status, Status::UNAUTHORIZED);
        assert!(login.body_text().contains("8080/webadmin/"));
        let root = NetsweeperConsole.handle(
            &Request::get(Url::parse("http://gw:8080/").unwrap()),
            &svc_ctx(),
        );
        assert_eq!(root.location(), Some("/webadmin/"));
    }

    #[test]
    fn denypagetests_site_serves_66_categories() {
        let site = DenyPageTestsSite;
        for n in [1u8, 23, 36, 66] {
            let resp = site.handle(
                &Request::get(
                    Url::parse(&format!("http://{DENYPAGETESTS_HOST}/category/catno/{n}")).unwrap(),
                ),
                &svc_ctx(),
            );
            assert!(resp.status.is_success(), "catno {n}");
            assert!(resp.body_text().contains(&format!("catno {n}")));
        }
        let missing = site.handle(
            &Request::get(
                Url::parse(&format!("http://{DENYPAGETESTS_HOST}/category/catno/67")).unwrap(),
            ),
            &svc_ctx(),
        );
        assert!(missing.status.is_error());
        let index = site.handle(
            &Request::get(Url::parse(&format!("http://{DENYPAGETESTS_HOST}/")).unwrap()),
            &svc_ctx(),
        );
        assert_eq!(index.body_text().matches("<li>").count(), 66);
    }

    #[test]
    fn seeded_denypagetests_block_per_category() {
        let c = cloud();
        seed_denypagetests(&c);
        let ns = NetsweeperBox::new(
            "ns",
            Arc::clone(&c),
            FilterPolicy::blocking(["Pornography"]),
            "gw",
        );
        let blocked = ns.process_request(
            &Request::get(
                Url::parse(&format!("http://{DENYPAGETESTS_HOST}/category/catno/23")).unwrap(),
            ),
            &flow(SimTime::ZERO),
        );
        assert!(matches!(blocked, Verdict::Respond(_)));
        let open = ns.process_request(
            &Request::get(
                Url::parse(&format!("http://{DENYPAGETESTS_HOST}/category/catno/30")).unwrap(),
            ),
            &flow(SimTime::ZERO),
        );
        assert_eq!(open, Verdict::Forward);
    }

    #[test]
    fn stripped_branding_blocks_inline() {
        let ns = NetsweeperBox::new(
            "ns",
            cloud(),
            FilterPolicy::blocking(["Proxy Anonymizer"]),
            "gw",
        )
        .with_stripped_branding();
        let Verdict::Respond(resp) = ns.process_request(
            &Request::get(Url::parse("http://freeproxy.example/").unwrap()),
            &flow(SimTime::ZERO),
        ) else {
            panic!("expected block")
        };
        assert!(resp.location().is_none());
        assert!(!resp.body_text().to_ascii_lowercase().contains("netsweeper"));
    }
}
