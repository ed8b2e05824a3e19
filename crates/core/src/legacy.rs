//! Vendor-withdrawal scenarios (§2.2 policy history).
//!
//! "In 2009, our identification of Websense in Yemen led to the vendor
//! discontinuing support of their product for the Yemen government" \[35\];
//! Blue Coat likewise "withdraw\[ed\] update support from Syria" under
//! sanctions [26, 32]. Both are the same mechanism: the deployed box
//! keeps its last database snapshot and keeps filtering, but nothing
//! categorized after the cut-off ever reaches it.
//!
//! [`vendor_withdrawal`] replays the story end to end and also takes
//! scan snapshots before and after, demonstrating the longitudinal use
//! of the scan-index diff.

use std::sync::Arc;

use filterwatch_http::Url;
use filterwatch_measure::MeasurementClient;
use filterwatch_netsim::service::StaticSite;
use filterwatch_netsim::{Internet, NetworkSpec, SimTime};
use filterwatch_products::websense::{WebsenseBlockpage, WebsenseBox, BLOCKPAGE_PORT};
use filterwatch_products::{FilterPolicy, ProductKind, VendorCloud};
use filterwatch_scanner::{diff, ScanEngine};

/// The outcome of the withdrawal replay.
#[derive(Debug, Clone)]
pub struct WithdrawalReport {
    /// Day the vendor froze the deployment's updates.
    pub frozen_at_day: u64,
    /// A site categorized *before* the freeze: blocked at the end?
    pub old_entry_blocks: bool,
    /// A site categorized *after* the freeze: blocked at the end?
    pub new_entry_blocks: bool,
    /// Scan-diff endpoints that disappeared when the operator also took
    /// the console offline after losing vendor support.
    pub endpoints_disappeared: usize,
}

/// Replay the Websense/Yemen 2009 story on a purpose-built mini-world.
// A fixed two-network world with literal URLs: no step here can fail.
#[allow(clippy::expect_used)]
pub fn vendor_withdrawal(seed: u64) -> WithdrawalReport {
    let mut net = Internet::new(seed);
    net.registry_mut().register_country("YE", "Yemen", "ye");
    net.registry_mut().register_country("CA", "Canada", "ca");
    let lab_as = net.registry_mut().register_as(239, "UTORONTO", "CA");
    let isp_as = net.registry_mut().register_as(12486, "YEMENNET", "YE");
    let lab_p = net
        .registry_mut()
        .allocate_prefix(lab_as, 1)
        .expect("prefix");
    let isp_p = net
        .registry_mut()
        .allocate_prefix(isp_as, 1)
        .expect("prefix");
    let lab_net = net.add_network(NetworkSpec::new("lab", lab_as, "CA").with_cidr(lab_p));
    let isp = net.add_network(NetworkSpec::new("yemennet-2008", isp_as, "YE").with_cidr(isp_p));

    // Content: one adult site known to the vendor from the start, one
    // that appears (and is categorized) only after the freeze.
    let cloud = Arc::new(VendorCloud::new(ProductKind::Websense, seed));
    let freeze = SimTime::from_days(30);
    cloud.seed_categorization("old-adult.example", "Adult Content");
    cloud.seed_categorization_at("new-adult.example", "Adult Content", SimTime::from_days(60));
    for (host, title) in [("old-adult.example", "Old"), ("new-adult.example", "New")] {
        let ip = net.alloc_ip(lab_net).expect("ip");
        net.add_host(ip, lab_net, &[&format!("www.{host}")]);
        net.add_service(ip, 80, Box::new(StaticSite::new(title, "<p>gallery</p>")));
    }

    // The deployment: filtering on, updates frozen at day 30.
    let ws = WebsenseBox::new(
        "websense@yemennet",
        Arc::clone(&cloud),
        FilterPolicy::blocking(["Adult Content"]),
        "gw.yemennet-2008.ye",
    )
    .with_frozen_subscription(freeze);
    net.attach_middlebox(isp, Arc::new(ws));
    let console_ip = net.alloc_ip(isp).expect("ip");
    net.add_host(console_ip, isp, &["gw.yemennet-2008.ye"]);
    net.add_service(console_ip, BLOCKPAGE_PORT, Box::new(WebsenseBlockpage));

    let field = net.add_vantage("field", isp);
    let lab = net.add_vantage("lab", lab_net);
    let client = MeasurementClient::new(field, lab);

    // Snapshot the external surface while the vendor still supports the
    // deployment.
    let before = ScanEngine::new().with_threads(1).scan(&net);

    // Time passes well beyond both the freeze and the later
    // categorization.
    net.advance_days(100);
    let old_entry_blocks = client
        .test_url(
            &net,
            &Url::parse("http://www.old-adult.example/").expect("url"),
        )
        .verdict
        .is_blocked();
    let new_entry_blocks = client
        .test_url(
            &net,
            &Url::parse("http://www.new-adult.example/").expect("url"),
        )
        .verdict
        .is_blocked();

    // After losing support, the operator decommissions the gateway's
    // public surface; the longitudinal diff shows it vanishing.
    net.remove_host(console_ip);
    let after = ScanEngine::new().with_threads(1).scan(&net);
    let d = diff(&before, &after);

    WithdrawalReport {
        frozen_at_day: freeze.days(),
        old_entry_blocks,
        new_entry_blocks,
        endpoints_disappeared: d.disappeared.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn withdrawal_freezes_the_database() {
        let report = vendor_withdrawal(7);
        assert_eq!(report.frozen_at_day, 30);
        // The pre-freeze entry keeps blocking forever…
        assert!(report.old_entry_blocks);
        // …but nothing categorized after the vendor pulled support does.
        assert!(!report.new_entry_blocks);
        // And the decommissioned console shows up in the scan diff.
        assert!(report.endpoints_disappeared >= 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = vendor_withdrawal(3);
        let b = vendor_withdrawal(3);
        assert_eq!(a.old_entry_blocks, b.old_entry_blocks);
        assert_eq!(a.endpoints_disappeared, b.endpoints_disappeared);
    }
}
