//! Quickstart: identify a URL filter and confirm it censors, in ~60 lines.
//!
//! ```text
//! cargo run -p filterwatch-suite --example quickstart
//! ```
//!
//! Builds the simulated 2012–2013 world, runs the §3 identification
//! pipeline to find Netsweeper's externally visible console in Ooredoo
//! (Qatar), then runs the §4 confirmation methodology: create fresh
//! proxy-service domains, submit half to the vendor's test-a-site
//! channel, wait a few (virtual) days, and retest.

use filterwatch_core::confirm::{run_case_study, CaseStudySpec, SiteAccess};
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::world::SiteKind;
use filterwatch_core::{World, DEFAULT_SEED};
use filterwatch_products::{ProductKind, SubmitterProfile};

fn main() {
    let mut world = World::paper(DEFAULT_SEED);

    // --- Stage 1: identify (scan -> keyword search -> validate -> geo).
    println!("scanning the simulated Internet...");
    let report = IdentifyPipeline::new().run(&world.net);
    let qatar: Vec<_> = report
        .installations
        .iter()
        .filter(|i| i.country == "QA")
        .collect();
    println!("installations validated in Qatar:");
    for inst in &qatar {
        println!(
            "  {} at {} ({}, {}) — evidence: {}",
            inst.product,
            inst.ip,
            inst.asn.map(|a| format!("AS{a}")).unwrap_or_default(),
            inst.as_name,
            inst.evidence.first().map(String::as_str).unwrap_or("-"),
        );
    }

    // --- Stage 2: confirm the Netsweeper installation censors.
    let spec = CaseStudySpec {
        label: "Netsweeper / Qatar / Ooredoo".into(),
        product: ProductKind::Netsweeper,
        isp: "ooredoo".into(),
        date: "8/2013".into(),
        site_kind: SiteKind::ProxyService,
        n_sites: 12,
        n_submit: 6,
        category_label: "Proxy anonymizer".into(),
        // Netsweeper queues accessed URLs for categorization, so we
        // submit first and skip pre-verification (§4.4).
        access: SiteAccess::AfterSubmit,
        wait_days: 4,
        retest_runs: 1,
        submitter: SubmitterProfile::COVERT,
    };
    println!("\nrunning the confirmation methodology against Ooredoo...");
    let result = run_case_study(&mut world, &spec);
    println!(
        "submitted {} fresh proxy domains; after {} days {} of {} are blocked \
         (holdout: {} of {}); product attributed: {:?}",
        result.spec.n_submit,
        result.spec.wait_days,
        result.submitted_blocked,
        result.spec.n_submit,
        result.holdout_blocked,
        result.spec.n_sites - result.spec.n_submit,
        result.attributed_products,
    );
    println!(
        "==> Netsweeper {} for censorship in Ooredoo",
        if result.confirmed {
            "CONFIRMED"
        } else {
            "not confirmed"
        }
    );
}
