//! Vendor submission portals as HTTP services.
//!
//! The paper's confirmation lever is a *public web interface*: McAfee's
//! TrustedSource URL ticketing, Blue Coat's Site Review, Netsweeper's
//! "test-a-site" \[20\], Websense's CSI. [`SubmissionPortal`] models that
//! front end: an HTTP form handler that derives the submitter's profile
//! from the request itself — source address and contact e-mail — and
//! files the submission with the vendor cloud.
//!
//! This is where the §6.2 cat-and-mouse plays out concretely: a vendor
//! screening researchers keys on (1) the submitting IP (defeated by
//! proxies/Tor — i.e. by *not* submitting from the known research lab
//! prefix) and (2) the e-mail address (defeated by throwaway webmail).
//! The hosting-provider signal is a property of the submitted domain,
//! which the portal receives as vetted metadata from the cloud's
//! reviewer side.

use std::sync::Arc;

use filterwatch_http::{html, Method, Request, Response, Status, Url};
use filterwatch_netsim::{Cidr, Service, ServiceCtx};

use crate::cloud::VendorCloud;
use crate::submit::SubmitterProfile;

/// Webmail domains whose addresses a vendor cannot attribute.
const WEBMAIL_DOMAINS: &[&str] = &["freemail.example", "webmail.example", "quickpost.example"];

/// The vendor's public URL-submission web form.
pub struct SubmissionPortal {
    cloud: Arc<VendorCloud>,
    /// Prefixes the vendor associates with the research effort
    /// (submissions sourced here are attributable).
    research_prefixes: Vec<Cidr>,
    /// Prefixes of popular cloud/hosting providers (domains hosted here
    /// are too damaging to blanket-reject).
    popular_hosting_prefixes: Vec<Cidr>,
}

impl SubmissionPortal {
    /// A portal filing into `cloud`.
    pub fn new(cloud: Arc<VendorCloud>) -> Self {
        SubmissionPortal {
            cloud,
            research_prefixes: Vec::new(),
            popular_hosting_prefixes: Vec::new(),
        }
    }

    /// Mark a prefix as belonging to the research effort (the vendor's
    /// screening list).
    pub fn with_research_prefix(mut self, cidr: Cidr) -> Self {
        self.research_prefixes.push(cidr);
        self
    }

    /// Mark a prefix as a popular hosting provider.
    pub fn with_popular_hosting_prefix(mut self, cidr: Cidr) -> Self {
        self.popular_hosting_prefixes.push(cidr);
        self
    }

    /// Derive the submitter profile the vendor would infer from this
    /// request: who sent it, from where, hosting what.
    fn infer_profile(
        &self,
        req: &Request,
        ctx: &ServiceCtx,
        host_ip: Option<&str>,
    ) -> SubmitterProfile {
        let via_proxy = !self
            .research_prefixes
            .iter()
            .any(|p| p.contains(ctx.client_ip));
        let webmail_address = req
            .form_field("email")
            .map(|e| {
                WEBMAIL_DOMAINS
                    .iter()
                    .any(|d| e.to_ascii_lowercase().ends_with(d))
            })
            .unwrap_or(false);
        let popular_hosting =
            match host_ip.and_then(|t| t.parse::<filterwatch_netsim::IpAddr>().ok()) {
                Some(ip) => self.popular_hosting_prefixes.iter().any(|p| p.contains(ip)),
                // Unknown hosting: give the submitter the benefit of the
                // doubt (the vendor cannot key on what it cannot resolve).
                None => true,
            };
        SubmitterProfile {
            via_proxy,
            webmail_address,
            popular_hosting,
        }
    }
}

impl Service for SubmissionPortal {
    fn handle(&self, req: &Request, ctx: &ServiceCtx) -> Response {
        match (req.method, req.url.path()) {
            (Method::Get, "/") | (Method::Get, "/submit") => Response::html(html::page(
                &format!("{} URL Submission", self.cloud.product().name()),
                "<h1>Submit a site for review</h1>\
                 <form method=\"post\" action=\"/submit\">\
                 <input name=\"url\"/><input name=\"email\"/>\
                 <input name=\"host_ip\" type=\"hidden\"/>\
                 <input type=\"submit\" value=\"Submit\"/></form>",
            )),
            (Method::Post, "/submit") => {
                let Some(url_text) = req.form_field("url") else {
                    return Response::text(Status::BAD_REQUEST, "missing url field");
                };
                let Ok(url) = Url::parse(&url_text) else {
                    return Response::text(Status::BAD_REQUEST, "unparseable url");
                };
                let host_ip = req.form_field("host_ip");
                let profile = self.infer_profile(req, ctx, host_ip.as_deref());
                let receipt = self.cloud.submit(&url, profile, ctx.now);
                // Vendors acknowledge politely regardless of the
                // internal decision — the researcher only learns the
                // outcome by retesting.
                let _ = receipt;
                Response::html(html::page(
                    "Submission received",
                    "<p>Thank you. Your submission will be reviewed.</p>",
                ))
            }
            _ => Response::not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_netsim::SimTime;
    use filterwatch_urllists::Category;

    fn setup(reject: bool) -> (Arc<VendorCloud>, SubmissionPortal) {
        let cloud = Arc::new(VendorCloud::new(crate::ProductKind::SmartFilter, 5));
        cloud.register_site_profile("target.info", Category::Pornography);
        cloud.set_reject_flaggable(reject);
        let portal = SubmissionPortal::new(Arc::clone(&cloud))
            .with_research_prefix("9.9.9.0/24".parse().unwrap())
            .with_popular_hosting_prefix("5.0.4.0/22".parse().unwrap());
        (cloud, portal)
    }

    fn ctx(client: &str) -> ServiceCtx {
        ServiceCtx {
            now: SimTime::ZERO,
            client_ip: client.parse().unwrap(),
        }
    }

    fn submit_req(email: &str, host_ip: &str) -> Request {
        Request::post_form(
            Url::parse("http://portal.vendor.example/submit").unwrap(),
            &format!("url=http://target.info/&email={email}&host_ip={host_ip}"),
        )
    }

    #[test]
    fn form_page_served() {
        let (_, portal) = setup(false);
        let resp = portal.handle(
            &Request::get(Url::parse("http://portal.vendor.example/").unwrap()),
            &ctx("1.2.3.4"),
        );
        assert!(resp.body_text().contains("Submit a site"));
    }

    #[test]
    fn accepted_submission_lands_in_cloud() {
        let (cloud, portal) = setup(false);
        let resp = portal.handle(
            &submit_req("a@freemail.example", "5.0.4.1"),
            &ctx("1.2.3.4"),
        );
        assert!(resp.status.is_success());
        let later = SimTime::from_days(10);
        assert!(!cloud
            .lookup(&Url::parse("http://target.info/").unwrap(), later)
            .is_empty());
    }

    #[test]
    fn screening_vendor_flags_lab_sourced_submissions() {
        let (cloud, portal) = setup(true);
        // Submitted straight from the research prefix with an
        // institutional address: silently disregarded.
        let _ = portal.handle(&submit_req("a@university.edu", "5.0.4.1"), &ctx("9.9.9.7"));
        assert!(cloud
            .lookup(
                &Url::parse("http://target.info/").unwrap(),
                SimTime::from_days(10)
            )
            .is_empty());
        // Same submission, proxied and from webmail: accepted.
        let _ = portal.handle(&submit_req("a@webmail.example", "5.0.4.1"), &ctx("7.7.7.7"));
        assert!(!cloud
            .lookup(
                &Url::parse("http://target.info/").unwrap(),
                SimTime::from_days(10)
            )
            .is_empty());
    }

    #[test]
    fn screening_vendor_flags_niche_hosting() {
        let (cloud, portal) = setup(true);
        // Covert submitter but the domain sits on unknown niche space.
        let _ = portal.handle(&submit_req("a@webmail.example", "8.8.1.1"), &ctx("7.7.7.7"));
        assert!(cloud
            .lookup(
                &Url::parse("http://target.info/").unwrap(),
                SimTime::from_days(10)
            )
            .is_empty());
    }

    #[test]
    fn malformed_submissions_rejected() {
        let (_, portal) = setup(false);
        let bad = Request::post_form(
            Url::parse("http://portal.vendor.example/submit").unwrap(),
            "email=x@y.example",
        );
        assert_eq!(
            portal.handle(&bad, &ctx("1.2.3.4")).status,
            Status::BAD_REQUEST
        );
        let unparseable = Request::post_form(
            Url::parse("http://portal.vendor.example/submit").unwrap(),
            "url=ht!tp://bro ken/",
        );
        assert_eq!(
            portal.handle(&unparseable, &ctx("1.2.3.4")).status,
            Status::BAD_REQUEST
        );
    }

    #[test]
    fn portal_acknowledges_without_leaking_decision() {
        // Whether screened or not, the page looks the same (§4.2: the
        // researcher learns the outcome only by retesting).
        let (_, accepting) = setup(false);
        let (_, screening) = setup(true);
        let ok = accepting.handle(
            &submit_req("a@freemail.example", "5.0.4.1"),
            &ctx("1.1.1.1"),
        );
        let silently_dropped =
            screening.handle(&submit_req("a@university.edu", "5.0.4.1"), &ctx("9.9.9.1"));
        assert_eq!(ok.body_text(), silently_dropped.body_text());
    }
}
