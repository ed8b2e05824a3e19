//! The vendor cloud: categorization database and submission pipeline.
//!
//! §6.2: "URL filtering products view their database of URLs as a key
//! differentiator ... By allowing individuals/administrators to submit
//! sites to be blocked in different categories, they effectively
//! crowdsource the database maintenance process." The confirmation
//! methodology (§4.2) exploits exactly this channel.
//!
//! One [`VendorCloud`] exists per product family. It holds:
//!
//! * the master categorization database (time-stamped entries, so a
//!   deployment with a **frozen update subscription** — Websense in Yemen
//!   after 2009 — can look the database up "as of" its freeze date);
//! * an **oracle** of site ground truth: what a human reviewer visiting a
//!   domain would conclude it is. Experiments register a profile whenever
//!   they stand up a site; submissions for domains without a profile are
//!   rejected (the reviewer can't reach the site);
//! * the **review pipeline**: a submission is accepted or declined at
//!   review time and, if accepted, becomes visible in the database after
//!   a sampled 2–5 day delay — the reason the paper retests "after 3–5
//!   days";
//! * the Netsweeper-style **crawl queue** (§4.4): URLs accessed inside a
//!   deployment are queued for categorization, which is why the paper
//!   could not pre-verify accessibility before submitting to Netsweeper;
//! * the Table 5 **evasion policy**: optionally disregard submissions
//!   that are linkable to researchers ([`SubmitterProfile::is_flaggable`]).
//!
//! All randomness (review delays, acceptance draws) comes from a
//! generator seeded at construction, so the whole review pipeline is
//! deterministic per world seed.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use filterwatch_http::{registrable_domain, Url};
use filterwatch_netsim::SimTime;
use filterwatch_urllists::Category;
use parking_lot::Mutex;

use crate::catalog::ProductKind;
use crate::submit::SubmitterProfile;
use crate::taxonomy;

/// Outcome of a URL submission, as the researcher eventually infers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionReceipt {
    /// Whether the submission will ever take effect.
    pub accepted: bool,
    /// Why it was (not) accepted.
    pub reason: String,
    /// When the categorization becomes visible to deployments.
    pub visible_after: Option<SimTime>,
    /// The vendor category the reviewer assigned.
    pub category: Option<String>,
}

/// One row of the cloud's intake log (used by reports and tests).
#[derive(Debug, Clone)]
pub struct IntakeRecord {
    /// The submitted or crawled key (registrable domain or URL key).
    pub key: String,
    /// Virtual time of intake.
    pub at: SimTime,
    /// Whether it was accepted.
    pub accepted: bool,
    /// `"submission"` or `"crawl"`.
    pub source: &'static str,
}

#[derive(Debug, Clone)]
struct Pending {
    key: String,
    category: String,
    apply_at: SimTime,
}

#[derive(Debug)]
struct Inner {
    /// World seed; review decisions are pure functions of (seed, key),
    /// so outcomes do not depend on the order experiments run in.
    seed: u64,
    /// key → (vendor category, time the entry became visible).
    db: BTreeMap<String, Vec<(String, SimTime)>>,
    /// Ground truth: registrable domain → content profile.
    oracle: BTreeMap<String, Category>,
    pending: Vec<Pending>,
    /// Keys the crawler has already looked at (never re-crawled).
    crawled: std::collections::BTreeSet<String>,
    review_days: (u64, u64),
    crawl_days: (u64, u64),
    acceptance: f64,
    crawl_acceptance: f64,
    reject_flaggable: bool,
    log: Vec<IntakeRecord>,
}

/// A product family's cloud service. See the module docs.
pub struct VendorCloud {
    product: ProductKind,
    inner: Mutex<Inner>,
}

impl VendorCloud {
    /// Create a cloud for `product` with vendor-typical review behaviour.
    pub fn new(product: ProductKind, seed: u64) -> Self {
        let (review_days, acceptance) = match product {
            // SmartFilter's URL submission tool reviews promptly; the
            // paper saw five-for-five application within a few days.
            ProductKind::SmartFilter => ((3, 4), 1.0),
            ProductKind::BlueCoat => ((3, 5), 1.0),
            // Netsweeper's "test-a-site" reviews fast but imperfectly
            // (Du saw 5 of 6 submissions take effect).
            ProductKind::Netsweeper => ((2, 4), 0.92),
            ProductKind::Websense => ((3, 5), 1.0),
        };
        VendorCloud {
            product,
            inner: Mutex::new(Inner {
                seed: filterwatch_netsim::rng::mix(seed, product.slug()),
                db: BTreeMap::new(),
                oracle: BTreeMap::new(),
                pending: Vec::new(),
                crawled: std::collections::BTreeSet::new(),
                review_days,
                crawl_days: (6, 10),
                acceptance,
                crawl_acceptance: 1.0,
                reject_flaggable: false,
                log: Vec::new(),
            }),
        }
    }

    /// Which product family this cloud serves.
    pub fn product(&self) -> ProductKind {
        self.product
    }

    /// Enable/disable the Table 5 evasion tactic: disregard submissions
    /// linkable to researchers.
    pub fn set_reject_flaggable(&self, on: bool) {
        self.inner.lock().reject_flaggable = on;
    }

    /// Override the acceptance probability for user submissions.
    pub fn set_acceptance_rate(&self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate));
        self.inner.lock().acceptance = rate;
    }

    /// Register ground truth for a domain: what a reviewer visiting it
    /// would see. Called whenever an experiment or world builder stands
    /// up a site.
    pub fn register_site_profile(&self, domain: &str, content: Category) {
        self.inner
            .lock()
            .oracle
            .insert(domain.to_ascii_lowercase(), content);
    }

    /// Directly enter a categorization, visible from time zero — the
    /// pre-existing database shipped with the product.
    pub fn seed_categorization(&self, key: &str, vendor_category: &str) {
        self.seed_categorization_at(key, vendor_category, SimTime::ZERO);
    }

    /// Directly enter a categorization visible from `at`.
    pub fn seed_categorization_at(&self, key: &str, vendor_category: &str, at: SimTime) {
        self.inner
            .lock()
            .db
            .entry(key.to_ascii_lowercase())
            .or_default()
            .push((vendor_category.to_string(), at));
    }

    /// Submit a URL for categorization/blocking (the §4.2 lever).
    pub fn submit(
        &self,
        url: &Url,
        submitter: SubmitterProfile,
        now: SimTime,
    ) -> SubmissionReceipt {
        let mut inner = self.inner.lock();
        inner.apply_pending(now);
        let key = url.registrable_domain().to_string();

        if inner.reject_flaggable && submitter.is_flaggable() {
            inner.log(IntakeRecord {
                key,
                at: now,
                accepted: false,
                source: "submission",
            });
            return SubmissionReceipt {
                accepted: false,
                reason: "intake flagged the submission as researcher activity".into(),
                visible_after: None,
                category: None,
            };
        }

        let Some(&content) = inner.oracle.get(&key) else {
            inner.log(IntakeRecord {
                key,
                at: now,
                accepted: false,
                source: "submission",
            });
            return SubmissionReceipt {
                accepted: false,
                reason: "reviewer could not reach or classify the site".into(),
                visible_after: None,
                category: None,
            };
        };

        let category = taxonomy::vendor_category(self.product, content).to_string();
        let accepted = inner.acceptance >= 1.0
            || unit_draw(inner.seed, &format!("accept/{key}")) < inner.acceptance;
        if !accepted {
            inner.log(IntakeRecord {
                key,
                at: now,
                accepted: false,
                source: "submission",
            });
            return SubmissionReceipt {
                accepted: false,
                reason: "reviewer declined the submission".into(),
                visible_after: None,
                category: Some(category),
            };
        }

        let (min, max) = inner.review_days;
        let delay = min
            + filterwatch_netsim::rng::mix(inner.seed, &format!("delay/{key}")) % (max - min + 1);
        let apply_at = now.plus_days(delay);
        inner.pending.push(Pending {
            key: key.clone(),
            category: category.clone(),
            apply_at,
        });
        inner.log(IntakeRecord {
            key,
            at: now,
            accepted: true,
            source: "submission",
        });
        SubmissionReceipt {
            accepted: true,
            reason: format!("accepted; review completes in {delay} day(s)"),
            visible_after: Some(apply_at),
            category: Some(category),
        }
    }

    /// Queue a host seen inside a deployment for categorization —
    /// Netsweeper's DB-expansion behaviour (§4.4). A no-op for unknown
    /// or already-handled hosts.
    pub fn queue_for_categorization(&self, host: &str, now: SimTime) {
        let mut inner = self.inner.lock();
        inner.apply_pending(now);
        let host = ascii_lowercase(host);
        let key = registrable_domain(&host);
        if inner.db.contains_key(key)
            || inner.pending.iter().any(|p| p.key == key)
            || inner.crawled.contains(key)
        {
            return;
        }
        let key = key.to_string();
        inner.crawled.insert(key.clone());
        let Some(&content) = inner.oracle.get(&key) else {
            return;
        };
        let category = taxonomy::vendor_category(self.product, content).to_string();
        let accepted = inner.crawl_acceptance >= 1.0
            || unit_draw(inner.seed, &format!("crawl-accept/{key}")) < inner.crawl_acceptance;
        if !accepted {
            inner.log(IntakeRecord {
                key,
                at: now,
                accepted: false,
                source: "crawl",
            });
            return;
        }
        let (min, max) = inner.crawl_days;
        let delay = min
            + filterwatch_netsim::rng::mix(inner.seed, &format!("crawl-delay/{key}"))
                % (max - min + 1);
        let apply_at = now.plus_days(delay);
        inner.pending.push(Pending {
            key: key.clone(),
            category,
            apply_at,
        });
        inner.log(IntakeRecord {
            key,
            at: now,
            accepted: true,
            source: "crawl",
        });
    }

    /// Look up the categories for a URL, as visible at `as_of`.
    ///
    /// Key precedence: exact `host/path` entry (used by the Netsweeper
    /// deny-page test URLs), then exact hostname, then registrable
    /// domain (hostname-granularity blocking, §4.6).
    pub fn lookup(&self, url: &Url, as_of: SimTime) -> BTreeSet<String> {
        let mut inner = self.inner.lock();
        inner.apply_pending(as_of);
        let path_key = format!("{}{}", url.host(), url.path());
        let keys = [
            path_key.trim_end_matches('/'),
            url.host(),
            url.registrable_domain(),
        ];
        for key in keys {
            let cats = inner.visible(key, as_of);
            if !cats.is_empty() {
                return cats;
            }
        }
        BTreeSet::new()
    }

    /// Look up categories for a bare hostname at `as_of`.
    pub fn lookup_host(&self, host: &str, as_of: SimTime) -> BTreeSet<String> {
        let mut inner = self.inner.lock();
        inner.apply_pending(as_of);
        let host = ascii_lowercase(host);
        let cats = inner.visible(&host, as_of);
        if !cats.is_empty() {
            return cats;
        }
        inner.visible(registrable_domain(&host), as_of)
    }

    /// Number of keys visible at `as_of`.
    pub fn db_size(&self, as_of: SimTime) -> usize {
        let mut inner = self.inner.lock();
        inner.apply_pending(as_of);
        inner
            .db
            .iter()
            .filter(|(_, entries)| entries.iter().any(|(_, at)| *at <= as_of))
            .count()
    }

    /// Intake log snapshot.
    pub fn intake_log(&self) -> Vec<IntakeRecord> {
        self.inner.lock().log.clone()
    }
}

impl Inner {
    fn apply_pending(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].apply_at <= now {
                let p = self.pending.swap_remove(i);
                self.db
                    .entry(p.key)
                    .or_default()
                    .push((p.category, p.apply_at));
            } else {
                i += 1;
            }
        }
    }

    fn visible(&self, key: &str, as_of: SimTime) -> BTreeSet<String> {
        self.db
            .get(key)
            .map(|entries| {
                entries
                    .iter()
                    .filter(|(_, at)| *at <= as_of)
                    .map(|(cat, _)| cat.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn log(&mut self, rec: IntakeRecord) {
        self.log.push(rec);
    }
}

impl std::fmt::Debug for VendorCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VendorCloud")
            .field("product", &self.product)
            .finish()
    }
}

/// A uniform draw in [0, 1) that is a pure function of `(seed, label)`.
fn unit_draw(seed: u64, label: &str) -> f64 {
    (filterwatch_netsim::rng::mix(seed, label) >> 11) as f64 / (1u64 << 53) as f64
}

/// `host` ASCII-lowercased, copied only when it has an uppercase byte.
fn ascii_lowercase(host: &str) -> Cow<'_, str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(text: &str) -> Url {
        Url::parse(text).unwrap()
    }

    fn cloud() -> VendorCloud {
        VendorCloud::new(ProductKind::SmartFilter, 7)
    }

    #[test]
    fn seeded_entries_visible_immediately() {
        let c = cloud();
        c.seed_categorization("proxyhub.example", "Anonymizers");
        let cats = c.lookup(&url("http://www.proxyhub.example/"), SimTime::ZERO);
        assert!(cats.contains("Anonymizers"));
    }

    #[test]
    fn submission_applies_after_review_delay() {
        let c = cloud();
        c.register_site_profile("starwasher.info", Category::AnonymizersProxies);
        let receipt = c.submit(
            &url("http://starwasher.info/"),
            SubmitterProfile::NAIVE,
            SimTime::ZERO,
        );
        assert!(receipt.accepted, "{}", receipt.reason);
        let visible = receipt.visible_after.unwrap();
        assert!(
            (3..=4).contains(&visible.days()),
            "delay {} days",
            visible.days()
        );
        assert_eq!(receipt.category.as_deref(), Some("Anonymizers"));

        // Before the review completes: uncategorized.
        assert!(c
            .lookup(&url("http://starwasher.info/"), SimTime::from_days(1))
            .is_empty());
        // After: categorized.
        let after = c.lookup(&url("http://starwasher.info/"), SimTime::from_days(5));
        assert!(after.contains("Anonymizers"));
    }

    #[test]
    fn submission_for_unknown_site_rejected() {
        let c = cloud();
        let receipt = c.submit(
            &url("http://ghost.info/"),
            SubmitterProfile::NAIVE,
            SimTime::ZERO,
        );
        assert!(!receipt.accepted);
        assert!(receipt.reason.contains("reviewer"));
    }

    #[test]
    fn evasion_policy_rejects_flaggable_submitters() {
        let c = cloud();
        c.register_site_profile("target.info", Category::Pornography);
        c.set_reject_flaggable(true);
        let naive = c.submit(
            &url("http://target.info/"),
            SubmitterProfile::NAIVE,
            SimTime::ZERO,
        );
        assert!(!naive.accepted);
        let covert = c.submit(
            &url("http://target.info/"),
            SubmitterProfile::COVERT,
            SimTime::ZERO,
        );
        assert!(covert.accepted, "{}", covert.reason);
    }

    #[test]
    fn frozen_lookup_hides_later_entries() {
        let c = cloud();
        c.seed_categorization_at("newsite.info", "Pornography", SimTime::from_days(10));
        // A deployment frozen at day 5 never sees it.
        assert!(c
            .lookup(&url("http://newsite.info/"), SimTime::from_days(5))
            .is_empty());
        assert!(!c
            .lookup(&url("http://newsite.info/"), SimTime::from_days(10))
            .is_empty());
    }

    #[test]
    fn crawl_queue_categorizes_known_sites_eventually() {
        let c = VendorCloud::new(ProductKind::Netsweeper, 3);
        c.register_site_profile("freshproxy.info", Category::AnonymizersProxies);
        c.queue_for_categorization("www.freshproxy.info", SimTime::ZERO);
        // Unknown host: silently ignored.
        c.queue_for_categorization("nothing.example", SimTime::ZERO);

        let later = SimTime::from_days(10);
        let cats = c.lookup_host("freshproxy.info", later);
        // Crawl categorization is deterministic by default.
        assert!(cats.contains("Proxy Anonymizer"), "cats: {cats:?}");
        assert!(c.lookup_host("nothing.example", later).is_empty());
    }

    #[test]
    fn crawl_queue_is_idempotent() {
        let c = VendorCloud::new(ProductKind::Netsweeper, 3);
        c.register_site_profile("dup.info", Category::Pornography);
        c.queue_for_categorization("dup.info", SimTime::ZERO);
        c.queue_for_categorization("dup.info", SimTime::ZERO);
        let crawls = c
            .intake_log()
            .iter()
            .filter(|r| r.source == "crawl")
            .count();
        assert_eq!(crawls, 1);
    }

    #[test]
    fn path_keys_take_precedence() {
        let c = VendorCloud::new(ProductKind::Netsweeper, 1);
        c.seed_categorization(
            "denypagetests.netsweeper.com/category/catno/23",
            "Pornography",
        );
        c.seed_categorization(
            "denypagetests.netsweeper.com/category/catno/36",
            "Proxy Anonymizer",
        );
        let t = SimTime::ZERO;
        assert!(c
            .lookup(
                &url("http://denypagetests.netsweeper.com/category/catno/23"),
                t
            )
            .contains("Pornography"));
        assert!(c
            .lookup(
                &url("http://denypagetests.netsweeper.com/category/catno/36"),
                t
            )
            .contains("Proxy Anonymizer"));
        // The bare host is uncategorized.
        assert!(c
            .lookup(&url("http://denypagetests.netsweeper.com/"), t)
            .is_empty());
    }

    #[test]
    fn registrable_domain_granularity() {
        let c = cloud();
        c.seed_categorization("gallery.info", "Pornography");
        // Any subdomain of the registrable domain is covered.
        assert!(!c
            .lookup(&url("http://cdn.img.gallery.info/x.jpg"), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn acceptance_rate_zero_rejects() {
        let c = cloud();
        c.register_site_profile("a.info", Category::Pornography);
        c.set_acceptance_rate(0.0);
        // gen_bool(0.0) is invalid; acceptance>=1.0 shortcut used, so 0.0 must sample.
        let r = c.submit(
            &url("http://a.info/"),
            SubmitterProfile::NAIVE,
            SimTime::ZERO,
        );
        assert!(!r.accepted);
    }

    #[test]
    fn db_size_and_log() {
        let c = cloud();
        c.seed_categorization("x.info", "Pornography");
        c.register_site_profile("y.info", Category::Pornography);
        c.submit(
            &url("http://y.info/"),
            SubmitterProfile::NAIVE,
            SimTime::ZERO,
        );
        assert_eq!(c.db_size(SimTime::ZERO), 1);
        assert_eq!(c.db_size(SimTime::from_days(6)), 2);
        assert_eq!(c.intake_log().len(), 1);
    }
}
