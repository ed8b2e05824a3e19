//! Blue Coat ProxySG (Web proxy) + WebFilter (URL filter).
//!
//! Table 2 signatures: Shodan keywords `"proxysg"` and `"cfru="`; WhatWeb
//! validation via a `Location` header pointing at `www.cfauth.com`. Blue
//! Coat deployments redirect blocked requests to the cfauth portal with
//! the original URL base64-encoded in the `cfru` parameter.
//!
//! §4.5 (Challenge 3) shows the product is often deployed as *plain
//! traffic-management proxy* with filtering delegated to SmartFilter —
//! modelled here as a [`FilterPolicy::allow_all`] policy with response
//! annotation still on.

use std::sync::Arc;

use filterwatch_http::{html, Request, Response, Status};
use filterwatch_netsim::{FlowCtx, Middlebox, Service, ServiceCtx, SimTime, Verdict};

use crate::blockpage::{base64, base64_decode, explicit_block_page};
use crate::cloud::VendorCloud;
use crate::license::effective_db_time;
use crate::policy::FilterPolicy;

/// A ProxySG appliance on an ISP's egress path.
pub struct BlueCoatProxy {
    name: String,
    cloud: Arc<VendorCloud>,
    policy: FilterPolicy,
    annotate_responses: bool,
    strip_branding: bool,
    frozen_at: Option<SimTime>,
}

impl BlueCoatProxy {
    /// A proxy filtering with `policy` against `cloud`'s WebFilter DB.
    pub fn new(name: &str, cloud: Arc<VendorCloud>, policy: FilterPolicy) -> Self {
        BlueCoatProxy {
            name: name.to_string(),
            cloud,
            policy,
            annotate_responses: true,
            strip_branding: false,
            frozen_at: None,
        }
    }

    /// A pure traffic-management deployment: proxies and annotates but
    /// never blocks (the Etisalat configuration of §4.5).
    pub fn traffic_management_only(name: &str, cloud: Arc<VendorCloud>) -> Self {
        BlueCoatProxy::new(name, cloud, FilterPolicy::allow_all())
    }

    /// Remove vendor branding (no cfauth redirect, generic block page,
    /// no Via annotation).
    pub fn with_stripped_branding(mut self) -> Self {
        self.strip_branding = true;
        self.annotate_responses = false;
        self
    }

    /// Freeze the WebFilter update subscription (Syria sanctions, §2.2).
    pub fn with_frozen_subscription(mut self, at: SimTime) -> Self {
        self.frozen_at = Some(at);
        self
    }

    /// The blocking policy in force.
    pub fn policy(&self) -> &FilterPolicy {
        &self.policy
    }
}

impl Middlebox for BlueCoatProxy {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_request(&self, req: &Request, ctx: &FlowCtx) -> Verdict {
        let as_of = effective_db_time(ctx.now, self.frozen_at);
        let cats = self.cloud.lookup(&req.url, as_of);
        match self.policy.decide(req.url.registrable_domain(), &cats) {
            Some(category) => {
                if self.strip_branding {
                    Verdict::respond(explicit_block_page(
                        "Access Denied",
                        "Access restricted by network policy",
                        &req.url.to_string(),
                        &category,
                    ))
                } else {
                    let cfru = base64(req.url.to_string().as_bytes());
                    Verdict::respond(Response::redirect(&format!(
                        "http://www.cfauth.com/?cfru={cfru}"
                    )))
                }
            }
            None => Verdict::Forward,
        }
    }

    fn process_response(&self, _req: &Request, resp: Response, _ctx: &FlowCtx) -> Response {
        if self.annotate_responses && !self.strip_branding {
            let mut resp = resp;
            resp.headers
                .append("Via", format!("1.1 {} (Blue Coat ProxySG)", self.name));
            resp.headers.append("X-BlueCoat-Via", short_id(&self.name));
            resp
        } else {
            resp
        }
    }
}

/// Stable eight-hex-character appliance identifier, as ProxySG emits in
/// `X-BlueCoat-Via`.
fn short_id(name: &str) -> String {
    format!("{:08x}", filterwatch_netsim::rng::mix(0, name) as u32)
}

/// The externally visible ProxySG management console.
#[derive(Debug, Clone, Default)]
pub struct ProxySgConsole;

impl Service for ProxySgConsole {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        if req.url.path() == "/" || req.url.path().starts_with("/Secure") {
            Response::html(html::page(
                "Blue Coat ProxySG - Management Console",
                "<h1>ProxySG</h1><p>Administrative interface. Authentication required.</p>",
            ))
            .with_status(Status::UNAUTHORIZED)
            .with_header("Server", "ProxySG")
            .with_header("WWW-Authenticate", "Basic realm=\"ProxySG Console\"")
        } else {
            Response::not_found()
        }
    }
}

/// The ProxySG intercept port (8080): a proxy answering a direct GET
/// with its coaching/authentication redirect — the behaviour that put
/// `cfru=` strings into Shodan's index.
#[derive(Debug, Clone, Default)]
pub struct ProxySgIntercept;

impl Service for ProxySgIntercept {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        let cfru = base64(req.url.to_string().as_bytes());
        Response::redirect(&format!("http://www.cfauth.com/?cfru={cfru}"))
            .with_header("Server", "ProxySG")
    }
}

/// The `www.cfauth.com` block-page portal blocked requests redirect to.
#[derive(Debug, Clone, Default)]
pub struct CfAuthPortal;

impl Service for CfAuthPortal {
    fn handle(&self, req: &Request, _ctx: &ServiceCtx) -> Response {
        let original = req
            .url
            .query_param("cfru")
            .and_then(base64_decode)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_else(|| "(unknown)".to_string());
        Response::html(html::page(
            "Blue Coat WebFilter - Access Denied",
            &format!(
                "<h1>Access Denied</h1>\
                 <p>Your request for <code>{}</code> was denied by Blue Coat WebFilter policy.</p>",
                html::escape(&original)
            ),
        ))
        .with_status(Status::FORBIDDEN)
        .with_header("Server", "Blue Coat Systems")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_http::Url;

    fn flow() -> FlowCtx {
        FlowCtx {
            now: SimTime::ZERO,
            client_ip: "5.0.0.10".parse().unwrap(),
        }
    }

    fn cloud() -> Arc<VendorCloud> {
        let c = Arc::new(VendorCloud::new(crate::ProductKind::BlueCoat, 5));
        c.seed_categorization("proxyhub.example", "Proxy Avoidance");
        c
    }

    #[test]
    fn blocking_redirects_to_cfauth_with_cfru() {
        let bc = BlueCoatProxy::new("bc1", cloud(), FilterPolicy::blocking(["Proxy Avoidance"]));
        let url = Url::parse("http://proxyhub.example/").unwrap();
        let Verdict::Respond(resp) = bc.process_request(&Request::get(url.clone()), &flow()) else {
            panic!("expected redirect")
        };
        assert!(resp.status.is_redirect());
        let loc = resp.location().unwrap();
        assert!(loc.starts_with("http://www.cfauth.com/?cfru="));
        let cfru = loc.split("cfru=").nth(1).unwrap();
        let decoded = String::from_utf8(base64_decode(cfru).unwrap()).unwrap();
        assert_eq!(decoded, "http://proxyhub.example/");
    }

    #[test]
    fn traffic_management_only_never_blocks_but_annotates() {
        let bc = BlueCoatProxy::traffic_management_only("etisalat-psg", cloud());
        let req = Request::get(Url::parse("http://proxyhub.example/").unwrap());
        assert_eq!(bc.process_request(&req, &flow()), Verdict::Forward);
        let resp = bc.process_response(&req, Response::new(Status::OK), &flow());
        assert!(resp
            .headers
            .get("Via")
            .unwrap()
            .contains("Blue Coat ProxySG"));
        assert!(resp.headers.contains("X-BlueCoat-Via"));
    }

    #[test]
    fn stripped_branding_hides_everything() {
        let bc = BlueCoatProxy::new("bc", cloud(), FilterPolicy::blocking(["Proxy Avoidance"]))
            .with_stripped_branding();
        let req = Request::get(Url::parse("http://proxyhub.example/").unwrap());
        let Verdict::Respond(resp) = bc.process_request(&req, &flow()) else {
            panic!("expected block")
        };
        assert!(resp.location().is_none());
        assert!(!resp.body_text().contains("Blue Coat"));
        let annotated = bc.process_response(&req, Response::new(Status::OK), &flow());
        assert!(!annotated.headers.contains("Via"));
    }

    #[test]
    fn intercept_port_emits_cfru_redirect() {
        let resp = ProxySgIntercept.handle(
            &Request::get(Url::parse("http://1.2.3.4:8080/").unwrap()),
            &ServiceCtx {
                now: SimTime::ZERO,
                client_ip: "198.51.100.1".parse().unwrap(),
            },
        );
        assert!(resp.status.is_redirect());
        let loc = resp.location().unwrap();
        assert!(loc.contains("www.cfauth.com"));
        assert!(loc.contains("cfru="));
    }

    #[test]
    fn console_banner_says_proxysg() {
        let resp = ProxySgConsole.handle(
            &Request::get(Url::parse("http://1.2.3.4/").unwrap()),
            &ServiceCtx {
                now: SimTime::ZERO,
                client_ip: "198.51.100.1".parse().unwrap(),
            },
        );
        assert!(resp.banner().to_ascii_lowercase().contains("proxysg"));
        assert!(resp.title().unwrap().contains("ProxySG"));
    }

    #[test]
    fn cfauth_portal_echoes_original_url() {
        let cfru = base64(b"http://blocked.example/page");
        let resp = CfAuthPortal.handle(
            &Request::get(Url::parse(&format!("http://www.cfauth.com/?cfru={cfru}")).unwrap()),
            &ServiceCtx {
                now: SimTime::ZERO,
                client_ip: "5.0.0.1".parse().unwrap(),
            },
        );
        assert_eq!(resp.status, Status::FORBIDDEN);
        assert!(resp.body_text().contains("blocked.example/page"));
        // Garbage cfru is tolerated.
        let junk = CfAuthPortal.handle(
            &Request::get(Url::parse("http://www.cfauth.com/?cfru=!!!").unwrap()),
            &ServiceCtx {
                now: SimTime::ZERO,
                client_ip: "5.0.0.1".parse().unwrap(),
            },
        );
        assert!(junk.body_text().contains("(unknown)"));
    }

    #[test]
    fn short_id_is_stable() {
        assert_eq!(short_id("a"), short_id("a"));
        assert_ne!(short_id("a"), short_id("b"));
        assert_eq!(short_id("x").len(), 8);
    }
}
