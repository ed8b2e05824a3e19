//! The §6 evasion experiments (Table 5).
//!
//! Each stage of the methodology has a counter-move available to vendors
//! or operators; this module reruns the pipeline under each tactic and
//! reports what survives:
//!
//! | Stage | Technique | Evasion tactic |
//! |---|---|---|
//! | Identify installations | port scans (Shodan) | do not allow the device to be accessed externally |
//! | Validate installations | WhatWeb | remove evidence of the product from headers |
//! | Confirm censorship | in-country testing + URL submission | identify and disregard researcher submissions |
//!
//! The headline result the paper stresses: identification and
//! confirmation are independent, so **confirmation still works when
//! identification is fully evaded**, and counter-evasion (proxied
//! submissions, webmail, popular hosting) restores confirmation even
//! against submission-screening vendors.

use filterwatch_products::{ProductKind, SubmitterProfile};

use crate::confirm::{run_case_study, CaseStudySpec, SiteAccess};
use crate::identify::IdentifyPipeline;
use crate::report::TextTable;
use crate::world::{SiteKind, World, WorldOptions};

/// The outcome of one evasion scenario.
#[derive(Debug, Clone)]
pub struct EvasionScenario {
    /// Scenario label.
    pub label: String,
    /// Which tactic was active.
    pub tactic: &'static str,
    /// Validated installations found by the identification pipeline.
    pub installations_found: usize,
    /// Whether the confirmation methodology still confirmed censorship
    /// in the probe ISP.
    pub confirmation_succeeded: bool,
    /// Whether the block pages still attributed a vendor.
    pub vendor_attributed: bool,
}

/// The standard confirmation probe used across scenarios: SmartFilter
/// pornography in Nournet (a clean, deterministic positive case).
fn probe_spec(submitter: SubmitterProfile) -> CaseStudySpec {
    CaseStudySpec {
        label: "evasion-probe".into(),
        product: ProductKind::SmartFilter,
        isp: "nournet".into(),
        date: "-".into(),
        site_kind: SiteKind::AdultImages,
        n_sites: 6,
        n_submit: 3,
        category_label: "Pornography".into(),
        access: SiteAccess::VerifyFirst,
        wait_days: 4,
        retest_runs: 1,
        submitter,
    }
}

/// Run one scenario: build a world with `options`, identify, confirm.
pub fn run_scenario(
    label: &str,
    tactic: &'static str,
    options: WorldOptions,
    submitter: SubmitterProfile,
) -> EvasionScenario {
    let mut world = World::build(options);
    let report = IdentifyPipeline::new().run(&world.net);
    let confirmation = run_case_study(&mut world, &probe_spec(submitter));
    EvasionScenario {
        label: label.to_string(),
        tactic,
        installations_found: report.installations.len(),
        confirmation_succeeded: confirmation.confirmed,
        vendor_attributed: !confirmation.attributed_products.is_empty(),
    }
}

/// Run the full Table 5 scenario suite.
pub fn run_table5(seed: u64) -> Vec<EvasionScenario> {
    vec![
        run_scenario(
            "baseline",
            "none",
            WorldOptions {
                seed,
                ..WorldOptions::default()
            },
            SubmitterProfile::NAIVE,
        ),
        run_scenario(
            "hidden installations",
            "do not allow device to be accessed externally",
            WorldOptions {
                seed,
                hidden_consoles: true,
                ..WorldOptions::default()
            },
            SubmitterProfile::NAIVE,
        ),
        run_scenario(
            "stripped headers",
            "remove evidence of product from headers",
            WorldOptions {
                seed,
                strip_branding: true,
                ..WorldOptions::default()
            },
            SubmitterProfile::NAIVE,
        ),
        run_scenario(
            "submission screening vs naive researcher",
            "identify and disregard our submissions",
            WorldOptions {
                seed,
                reject_flaggable_submissions: true,
                ..WorldOptions::default()
            },
            SubmitterProfile::NAIVE,
        ),
        run_scenario(
            "submission screening vs covert researcher",
            "identify and disregard our submissions (countered)",
            WorldOptions {
                seed,
                reject_flaggable_submissions: true,
                ..WorldOptions::default()
            },
            SubmitterProfile::COVERT,
        ),
    ]
}

/// Render the scenario suite as the Table 5 companion table.
pub fn render_table5(scenarios: &[EvasionScenario]) -> String {
    let mut table = TextTable::new([
        "Scenario",
        "Evasion tactic",
        "Installations identified",
        "Censorship confirmed?",
        "Vendor attributed?",
    ]);
    for s in scenarios {
        table.row([
            s.label.clone(),
            s.tactic.to_string(),
            s.installations_found.to_string(),
            if s.confirmation_succeeded {
                "yes".into()
            } else {
                "no".to_string()
            },
            if s.vendor_attributed {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shape() {
        let scenarios = run_table5(1);
        assert_eq!(scenarios.len(), 5);
        let baseline = &scenarios[0];
        let hidden = &scenarios[1];
        let stripped = &scenarios[2];
        let screened_naive = &scenarios[3];
        let screened_covert = &scenarios[4];

        // Baseline: plenty of installations, confirmation works.
        assert!(baseline.installations_found >= 10, "{baseline:?}");
        assert!(baseline.confirmation_succeeded);
        assert!(baseline.vendor_attributed);

        // Tactic 1: identification fully evaded; confirmation unaffected.
        assert_eq!(hidden.installations_found, 0, "{hidden:?}");
        assert!(hidden.confirmation_succeeded);

        // Tactic 2: header stripping kills identification AND vendor
        // attribution, but censorship is still confirmed (the submission
        // channel itself names the product).
        assert_eq!(stripped.installations_found, 0, "{stripped:?}");
        assert!(stripped.confirmation_succeeded);
        assert!(!stripped.vendor_attributed);

        // Tactic 3: naive submissions are discarded → not confirmed;
        // the §6.2 counter-evasion restores confirmation.
        assert!(!screened_naive.confirmation_succeeded, "{screened_naive:?}");
        assert!(
            screened_covert.confirmation_succeeded,
            "{screened_covert:?}"
        );

        let text = render_table5(&scenarios);
        assert!(text.contains("Evasion tactic"));
    }
}
