//! Ablations: how the methodology degrades as its preconditions erode.
//!
//! The paper's discussion (§6) is qualitative about its limitations;
//! these sweeps make them quantitative in the simulation:
//!
//! * [`visibility_sweep`] — identification recall as a function of the
//!   fraction of installations that are externally visible. Confirmation
//!   runs alongside as the control: it never degrades, because it does
//!   not depend on visibility at all.
//! * [`acceptance_sweep`] — confirmation yield as a function of the
//!   vendor's submission-acceptance rate (Netsweeper's imperfect
//!   test-a-site reviews generalize to a curve).
//! * [`license_sweep`] — observed blocking rate as a function of how
//!   under-licensed a deployment is (the Yemen mechanism), with the
//!   analytic expectation alongside.

use filterwatch_geodb::GeoDb;
use filterwatch_products::license::LicensePool;
use filterwatch_products::{ProductKind, SubmitterProfile};
use filterwatch_scanner::ScanEngine;

use crate::confirm::{run_case_study, CaseStudySpec, SiteAccess};
use crate::identify::IdentifyPipeline;
use crate::report::TextTable;
use crate::world::{CampaignWorld, SiteKind, World, WorldOptions};

/// One row of the visibility sweep.
#[derive(Debug, Clone)]
pub struct VisibilityRow {
    /// Fraction of consoles externally visible.
    pub visibility: f64,
    /// Installations the identification pipeline validated.
    pub identified: usize,
    /// Identification recall relative to the fully visible world.
    pub recall: f64,
    /// Whether the confirmation control still succeeded.
    pub confirmed: bool,
}

fn probe_spec() -> CaseStudySpec {
    CaseStudySpec {
        label: "ablation-probe".into(),
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
        submitter: SubmitterProfile::COVERT,
    }
}

/// Sweep console visibility over `steps` (each in `[0, 1]`).
pub fn visibility_sweep(seed: u64, steps: &[f64]) -> Vec<VisibilityRow> {
    let baseline = {
        let world = World::paper(seed);
        IdentifyPipeline::new().run(&world.net).installations.len()
    };
    steps
        .iter()
        .map(|&visibility| {
            let mut world = World::build(WorldOptions {
                seed,
                console_visibility: visibility,
                ..WorldOptions::default()
            });
            let identified = IdentifyPipeline::new().run(&world.net).installations.len();
            let confirmed = run_case_study(&mut world, &probe_spec()).confirmed;
            VisibilityRow {
                visibility,
                identified,
                recall: if baseline == 0 {
                    0.0
                } else {
                    identified as f64 / baseline as f64
                },
                confirmed,
            }
        })
        .collect()
}

/// One row of the acceptance sweep.
#[derive(Debug, Clone)]
pub struct AcceptanceRow {
    /// Vendor submission acceptance probability.
    pub acceptance: f64,
    /// Submitted sites blocked at retest (of 6).
    pub submitted_blocked: usize,
    /// Whether the row still confirms.
    pub confirmed: bool,
}

/// Sweep the Netsweeper test-a-site acceptance rate and rerun the
/// Ooredoo case study at each point.
pub fn acceptance_sweep(seed: u64, rates: &[f64]) -> Vec<AcceptanceRow> {
    rates
        .iter()
        .map(|&acceptance| {
            let mut world = World::paper(seed);
            world
                .cloud(ProductKind::Netsweeper)
                .set_acceptance_rate(acceptance);
            let spec = CaseStudySpec {
                label: "acceptance-probe".into(),
                product: ProductKind::Netsweeper,
                isp: "ooredoo".into(),
                date: "-".into(),
                site_kind: SiteKind::ProxyService,
                n_sites: 12,
                n_submit: 6,
                category_label: "Proxy anonymizer".into(),
                access: SiteAccess::AfterSubmit,
                wait_days: 4,
                retest_runs: 1,
                submitter: SubmitterProfile::COVERT,
            };
            let r = run_case_study(&mut world, &spec);
            AcceptanceRow {
                acceptance,
                submitted_blocked: r.submitted_blocked,
                confirmed: r.confirmed,
            }
        })
        .collect()
}

/// One row of the license sweep.
#[derive(Debug, Clone)]
pub struct LicenseRow {
    /// Licensed concurrent users.
    pub licensed: u32,
    /// Peak demand.
    pub peak: u32,
    /// Empirical fraction of flows that bypassed filtering.
    pub observed_bypass: f64,
    /// Analytic expectation.
    pub expected_bypass: f64,
}

/// Sweep license-pool sizing and compare empirical bypass rates with the
/// analytic expectation.
pub fn license_sweep(
    seed: u64,
    peak: u32,
    licensed_steps: &[u32],
    samples: usize,
) -> Vec<LicenseRow> {
    licensed_steps
        .iter()
        .map(|&licensed| {
            let pool = LicensePool::new(licensed, peak, seed, &format!("sweep/{licensed}"));
            let bypassed = (0..samples).filter(|_| pool.filtering_offline()).count();
            LicenseRow {
                licensed,
                peak,
                observed_bypass: bypassed as f64 / samples as f64,
                expected_bypass: pool.expected_bypass_rate(),
            }
        })
        .collect()
}

/// One row of the geolocation-error sweep.
#[derive(Debug, Clone)]
pub struct GeoErrorRow {
    /// Fraction of prefixes whose country label was corrupted.
    pub error_rate: f64,
    /// Installations whose reported country matched ground truth.
    pub correct_country: usize,
    /// Installations found (constant — geolocation does not gate
    /// discovery, only attribution).
    pub total: usize,
}

/// Sweep the quality of the consumer-side geolocation database, in the
/// Internet-Census workflow where enrichment is the consumer's problem:
/// a corrupted fraction of prefixes is attributed to the wrong country,
/// and installation discovery is unaffected while country attribution
/// degrades proportionally.
pub fn geo_error_sweep(seed: u64, error_rates: &[f64]) -> Vec<GeoErrorRow> {
    use crate::identify::IdentifyPipeline;

    let world = World::paper(seed);
    let index = ScanEngine::new().scan(&world.net);
    let truth_geo = crate::geo::build_geodb(world.net.registry());
    let asn_db = crate::geo::build_asndb(world.net.registry());
    let pipeline = IdentifyPipeline::new();

    error_rates
        .iter()
        .map(|&error_rate| {
            let geo = corrupted_geodb(world.net.registry(), seed, error_rate);
            let report = pipeline.run_on_index_with_geo(&world.net, &index, &geo, &asn_db);
            let correct = report
                .installations
                .iter()
                .filter(|i| truth_geo.lookup(i.ip.value()) == Some(i.country.as_str()))
                .count();
            GeoErrorRow {
                error_rate,
                correct_country: correct,
                total: report.installations.len(),
            }
        })
        .collect()
}

/// Build a geolocation database where each prefix's country is swapped
/// for another registered country with probability `error_rate`
/// (deterministically per `(seed, prefix)`).
fn corrupted_geodb(registry: &filterwatch_netsim::Registry, seed: u64, error_rate: f64) -> GeoDb {
    let countries: Vec<String> = registry
        .countries()
        .map(|c| c.code.as_str().to_string())
        .collect();
    let mut db = GeoDb::new();
    for &(cidr, asn) in registry.prefixes() {
        let Some(rec) = registry.as_record(asn) else {
            continue;
        };
        let label = format!("geo-error/{cidr}");
        let draw = (filterwatch_netsim::rng::mix(seed, &label) >> 11) as f64 / (1u64 << 53) as f64;
        let country = if draw < error_rate {
            // Pick a deterministic *different* country.
            let idx = (filterwatch_netsim::rng::mix(seed, &format!("{label}/pick"))
                % countries.len() as u64) as usize;
            let candidate = &countries[idx];
            if candidate == rec.country.as_str() {
                countries[(idx + 1) % countries.len()].clone()
            } else {
                candidate.clone()
            }
        } else {
            rec.country.as_str().to_string()
        };
        db.add_range(cidr.first().value(), cidr.last().value(), &country);
    }
    db
}

/// Render the geolocation-error sweep as a text table.
pub fn render_geo_error(rows: &[GeoErrorRow]) -> String {
    let mut t = TextTable::new([
        "DB error rate",
        "Installations found",
        "Correct country",
        "Attribution accuracy",
    ]);
    for r in rows {
        t.row([
            format!("{:.0}%", r.error_rate * 100.0),
            r.total.to_string(),
            r.correct_country.to_string(),
            if r.total == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", r.correct_country as f64 / r.total as f64)
            },
        ]);
    }
    t.render()
}

/// Render the visibility sweep as a text table.
pub fn render_visibility(rows: &[VisibilityRow]) -> String {
    let mut t = TextTable::new(["Visibility", "Identified", "Recall", "Confirmation control"]);
    for r in rows {
        t.row([
            format!("{:.0}%", r.visibility * 100.0),
            r.identified.to_string(),
            format!("{:.2}", r.recall),
            if r.confirmed {
                "confirmed".into()
            } else {
                "FAILED".to_string()
            },
        ]);
    }
    t.render()
}

/// Render the acceptance sweep as a text table.
pub fn render_acceptance(rows: &[AcceptanceRow]) -> String {
    let mut t = TextTable::new(["Acceptance rate", "Submitted blocked (of 6)", "Confirmed?"]);
    for r in rows {
        t.row([
            format!("{:.2}", r.acceptance),
            r.submitted_blocked.to_string(),
            if r.confirmed {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    t.render()
}

/// Render the license sweep as a text table.
pub fn render_license(rows: &[LicenseRow]) -> String {
    let mut t = TextTable::new([
        "Licensed",
        "Peak demand",
        "Observed bypass",
        "Expected bypass",
    ]);
    for r in rows {
        t.row([
            r.licensed.to_string(),
            r.peak.to_string(),
            format!("{:.3}", r.observed_bypass),
            format!("{:.3}", r.expected_bypass),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn visibility_recall_is_monotone_and_confirmation_flat() {
        let rows = visibility_sweep(DEFAULT_SEED, &[0.0, 0.5, 1.0]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].identified, 0);
        assert!(rows[1].identified > 0);
        assert!(rows[1].identified < rows[2].identified);
        assert!((rows[2].recall - 1.0).abs() < f64::EPSILON);
        // Confirmation never cares about visibility.
        assert!(rows.iter().all(|r| r.confirmed), "{rows:?}");
    }

    #[test]
    fn acceptance_zero_kills_confirmation_one_maximizes_it() {
        let rows = acceptance_sweep(DEFAULT_SEED, &[0.0, 1.0]);
        assert_eq!(rows[0].submitted_blocked, 0);
        assert!(!rows[0].confirmed);
        assert_eq!(rows[1].submitted_blocked, 6);
        assert!(rows[1].confirmed);
    }

    #[test]
    fn license_sweep_matches_expectation() {
        let rows = license_sweep(1, 16, &[0, 8, 16], 4000);
        for r in &rows {
            assert!(
                (r.observed_bypass - r.expected_bypass).abs() < 0.05,
                "{r:?}"
            );
        }
        // Fully licensed: never bypasses.
        assert_eq!(rows[2].observed_bypass, 0.0);
    }

    #[test]
    fn geo_error_degrades_attribution_not_discovery() {
        let rows = geo_error_sweep(DEFAULT_SEED, &[0.0, 0.5, 1.0]);
        let total = rows[0].total;
        assert!(total > 0);
        // Discovery is constant across error rates.
        assert!(rows.iter().all(|r| r.total == total), "{rows:?}");
        // Perfect DB: perfect attribution; full corruption: none correct.
        assert_eq!(rows[0].correct_country, total);
        assert_eq!(rows[2].correct_country, 0);
        assert!(
            rows[1].correct_country > 0 && rows[1].correct_country < total,
            "{rows:?}"
        );
    }

    #[test]
    fn renderers_produce_tables() {
        let v = render_visibility(&visibility_sweep(1, &[1.0]));
        assert!(v.contains("Recall"));
        let l = render_license(&license_sweep(1, 8, &[4], 100));
        assert!(l.contains("bypass"));
    }
}
