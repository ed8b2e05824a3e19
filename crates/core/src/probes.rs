//! Auxiliary §4 probes: the category test site, category availability
//! probing, and the inconsistency study.
//!
//! * [`run_denypagetests`] — §4.4's alternative validation: query the 66
//!   category-specific URLs of `denypagetests.netsweeper.com` from
//!   inside a deployment and read off which categories the operator
//!   enabled (the paper found exactly five in YemenNet).
//! * [`category_probe`] — §4.3 Challenge 1: before creating test sites,
//!   determine which vendor categories an ISP actually blocks by
//!   fetching *pre-categorized* well-known sites (Saudi Arabia blocked
//!   SmartFilter's pornography category but not its proxy category).
//! * [`inconsistency_probe`] — §4.4 Challenge 2: repeat a fixed URL set
//!   many times and measure flip-flopping verdicts (license-limited
//!   deployments filter intermittently).

use filterwatch_http::Url;
use filterwatch_products::netsweeper::DENYPAGETESTS_HOST;
use filterwatch_products::taxonomy::{self, netsweeper_category_name};
use filterwatch_products::ProductKind;
use filterwatch_urllists::{Category, TestList};

use crate::world::{CampaignWorld, World};

/// Result of querying the Netsweeper category test site from a vantage.
#[derive(Debug, Clone)]
pub struct CategoryTestResult {
    /// `(catno, category name)` of every blocked test page.
    pub blocked: Vec<(u8, String)>,
    /// Number of test pages that loaded normally.
    pub open: usize,
}

impl CategoryTestResult {
    /// Names of the blocked categories, in catno order.
    pub fn blocked_names(&self) -> Vec<&str> {
        self.blocked.iter().map(|(_, n)| n.as_str()).collect()
    }
}

/// Query all 66 `denypagetests.netsweeper.com/category/catno/N` pages
/// from inside `isp`, repeating `runs` times (a page counts as blocked
/// if any run blocks it — license-limited deployments flicker).
// The deny-page test URLs are built from static data and always parse.
#[allow(clippy::expect_used)]
pub fn run_denypagetests(world: &World, isp: &str, runs: usize) -> CategoryTestResult {
    let client = world.client(isp);
    let mut blocked = Vec::new();
    let mut open = 0;
    for catno in 1u8..=66 {
        let url = Url::parse(&format!(
            "http://{DENYPAGETESTS_HOST}/category/catno/{catno}"
        ))
        .expect("test url");
        let mut hit = false;
        for _ in 0..runs.max(1) {
            if client.test_url(&world.net, &url).verdict.is_blocked() {
                hit = true;
                break;
            }
        }
        if hit {
            let name = netsweeper_category_name(catno).unwrap_or("?").to_string();
            blocked.push((catno, name));
        } else {
            open += 1;
        }
    }
    CategoryTestResult { blocked, open }
}

/// One row of a category-availability probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryProbeRow {
    /// The ONI category probed.
    pub category: Category,
    /// The vendor's name for it.
    pub vendor_category: String,
    /// The pre-categorized representative URL fetched.
    pub url: String,
    /// Whether the ISP blocked it.
    pub blocked: bool,
}

/// Probe which of `categories` an ISP blocks, by fetching one well-known
/// (globally pre-categorized) site per category from the field vantage.
// Representative URLs come from the static test list and always parse.
#[allow(clippy::expect_used)]
pub fn category_probe(
    world: &World,
    isp: &str,
    product: ProductKind,
    categories: &[Category],
) -> Vec<CategoryProbeRow> {
    let client = world.client(isp);
    let global = TestList::global(1);
    categories
        .iter()
        .map(|&cat| {
            let rep = global.in_category(cat)[0].url.clone();
            let url = Url::parse(&rep).expect("list url");
            let blocked = client.test_url(&world.net, &url).verdict.is_blocked();
            CategoryProbeRow {
                category: cat,
                vendor_category: taxonomy::vendor_category(product, cat).to_string(),
                url: rep,
                blocked,
            }
        })
        .collect()
}

/// The inconsistency study: per-run blocked counts over a fixed URL set.
#[derive(Debug, Clone)]
pub struct InconsistencyReport {
    /// URLs probed (all in categories the ISP nominally blocks).
    pub urls: Vec<String>,
    /// Blocked-verdict matrix: `matrix[run][url]`.
    pub matrix: Vec<Vec<bool>>,
}

impl InconsistencyReport {
    /// URLs that were blocked in some runs and accessible in others.
    pub fn inconsistent_urls(&self) -> usize {
        if self.matrix.is_empty() {
            return 0;
        }
        (0..self.urls.len())
            .filter(|&i| {
                let col: Vec<bool> = self.matrix.iter().map(|row| row[i]).collect();
                col.iter().any(|&b| b) && col.iter().any(|&b| !b)
            })
            .count()
    }

    /// Blocked count per run.
    pub fn per_run_blocked(&self) -> Vec<usize> {
        self.matrix
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .collect()
    }
}

/// Repeat the nominally-blocked proxy URLs `runs` times inside `isp`.
// The probe URLs are string literals that always parse.
#[allow(clippy::expect_used)]
pub fn inconsistency_probe(world: &World, isp: &str, runs: usize) -> InconsistencyReport {
    let client = world.client(isp);
    let global = TestList::global(2);
    let urls: Vec<String> = global
        .urls
        .iter()
        .filter(|u| {
            matches!(
                u.category,
                Category::AnonymizersProxies | Category::Vpn | Category::Translation
            )
        })
        .map(|u| u.url.clone())
        .collect();
    let parsed: Vec<Url> = urls.iter().map(|u| Url::parse(u).expect("url")).collect();
    let matrix = (0..runs)
        .map(|_| {
            parsed
                .iter()
                .map(|u| client.test_url(&world.net, u).verdict.is_blocked())
                .collect()
        })
        .collect();
    InconsistencyReport { urls, matrix }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn yemennet_denypagetests_matches_paper_exactly() {
        let w = World::paper(DEFAULT_SEED);
        let result = run_denypagetests(&w, "yemennet", 4);
        // §4.4: "five categories were blocked: adult images, phishing,
        // pornography, proxy anonymizers, and search keywords."
        assert_eq!(
            result.blocked_names(),
            // In catno order; the set matches the paper's five.
            vec![
                "Adult Images",
                "Pornography",
                "Phishing",
                "Proxy Anonymizer",
                "Search Keywords"
            ],
            "{result:?}"
        );
        assert_eq!(result.open, 61);
    }

    #[test]
    fn ooredoo_denypagetests_reflects_policy() {
        let w = World::paper(DEFAULT_SEED);
        let result = run_denypagetests(&w, "ooredoo", 1);
        let names = result.blocked_names();
        assert!(names.contains(&"Proxy Anonymizer"), "{names:?}");
        assert!(names.contains(&"Alternative Lifestyles"));
        assert!(!names.contains(&"Pornography"));
    }

    #[test]
    fn challenge1_category_probe_saudi_vs_uae() {
        let w = World::paper(DEFAULT_SEED);
        let cats = [Category::AnonymizersProxies, Category::Pornography];
        let saudi = category_probe(&w, "bayanat", ProductKind::SmartFilter, &cats);
        assert!(
            !saudi[0].blocked,
            "Saudi should not block proxies: {saudi:?}"
        );
        assert!(saudi[1].blocked, "Saudi should block pornography");
        let uae = category_probe(&w, "etisalat", ProductKind::SmartFilter, &cats);
        assert!(uae[0].blocked, "Etisalat blocks anonymizers");
        assert!(uae[1].blocked);
        assert_eq!(saudi[0].vendor_category, "Anonymizers");
    }

    #[test]
    fn challenge2_yemen_is_inconsistent_saudi_is_not() {
        let w = World::paper(DEFAULT_SEED);
        let yemen = inconsistency_probe(&w, "yemennet", 10);
        assert!(
            yemen.inconsistent_urls() > 0,
            "{:?}",
            yemen.per_run_blocked()
        );
        let runs = yemen.per_run_blocked();
        assert!(runs.iter().any(|&n| n < yemen.urls.len()), "{runs:?}");

        let saudi = inconsistency_probe(&w, "nournet", 10);
        // Saudi's SmartFilter doesn't block proxies at all — and does so
        // consistently.
        assert_eq!(saudi.inconsistent_urls(), 0);
        assert!(saudi.per_run_blocked().iter().all(|&n| n == 0));
    }
}
