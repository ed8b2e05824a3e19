//! Stage 2: confirming censorship via vendor submission channels
//! (§4, Table 3).
//!
//! "The basic idea is to test sites (under our control) that are not
//! blocked within the ISP, and then submit a subset of these sites to
//! the appropriate URL filter vendor. After 3-5 days, we retest the
//! sites and observe whether or not the submitted sites are blocked."

use filterwatch_measure::{MeasurementClient, MeasurementQuality, UrlVerdict};
use filterwatch_products::{ProductKind, SubmitterProfile};

use crate::report::TextTable;
use crate::world::{CampaignWorld, ControlledSite, SiteKind, World};

/// When a case study touches its sites from inside the ISP before the
/// retest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteAccess {
    /// Test every site in-country before submitting, counting how many
    /// are accessible (the paper's default ordering).
    VerifyFirst,
    /// Submit first, then access every site in-country. Netsweeper
    /// needs this: accessing the sites queues them for categorization
    /// (§4.4), so the paper "operates on the assumption that none of
    /// our sites will be blocked prior".
    AfterSubmit,
    /// No in-country access before the retest, for studies whose
    /// pre-submission picture comes from a test-list sweep instead.
    RetestOnly,
}

/// Parameters of one case study (one Table 3 row).
#[derive(Debug, Clone)]
pub struct CaseStudySpec {
    /// Row label.
    pub label: String,
    /// The vendor whose submission channel is exercised.
    pub product: ProductKind,
    /// Network name of the ISP under test (must have a field vantage).
    pub isp: String,
    /// Date label for the report (metadata only).
    pub date: String,
    /// Content hosted on the controlled sites.
    pub site_kind: SiteKind,
    /// Number of controlled sites created.
    pub n_sites: usize,
    /// How many of them are submitted.
    pub n_submit: usize,
    /// Category label for the report row.
    pub category_label: String,
    /// When the sites are accessed in-country before the retest.
    pub access: SiteAccess,
    /// Days to wait before the retest (the paper's 3–5).
    pub wait_days: u64,
    /// Retest repetitions per site; >1 for ISPs with inconsistent
    /// blocking (§4.4 Challenge 2) — a site counts as blocked if any
    /// run blocks it.
    pub retest_runs: usize,
    /// How the submission presents to the vendor (§6.2).
    pub submitter: SubmitterProfile,
}

/// The outcome of one case study.
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// The spec that produced this result.
    pub spec: CaseStudySpec,
    /// Of the created sites, how many were accessible before submission
    /// (`None` unless the access order is [`SiteAccess::VerifyFirst`]).
    pub accessible_before: Option<usize>,
    /// Submissions the vendor channel acknowledged as accepted.
    pub submissions_accepted: usize,
    /// Submitted sites found blocked at retest.
    pub submitted_blocked: usize,
    /// Held-out (unsubmitted) sites found blocked at retest.
    pub holdout_blocked: usize,
    /// Block-page product attributions seen at retest (deduplicated).
    pub attributed_products: Vec<String>,
    /// Retest verdicts the machinery declined to render (quorum
    /// disagreement or breaker skips); zero on clean paths.
    pub retest_inconclusive: usize,
    /// Every retest verdict, run by run, each run in site order
    /// (submitted sites first).
    pub retest_verdicts: Vec<UrlVerdict>,
    /// Measurement-quality counters the case study's client accumulated
    /// (retries, breaker trips, quorum trials).
    pub quality: MeasurementQuality,
    /// The §4.2 verdict: is the product confirmed to be used for
    /// censorship in this ISP?
    pub confirmed: bool,
}

impl CaseStudyResult {
    /// `"5/10"`-style created/submitted counts for the report.
    pub fn submitted_of_created(&self) -> String {
        format!("{}/{}", self.spec.n_submit, self.spec.n_sites)
    }

    /// `"5/5"`-style blocked/submitted counts for the report.
    pub fn blocked_of_submitted(&self) -> String {
        format!("{}/{}", self.submitted_blocked, self.spec.n_submit)
    }
}

/// A case study paused between stage boundaries.
///
/// [`begin_case`] produces one; [`submit_case`], [`announce_wait`] and
/// [`retest_case`] carry it through the submit → wait → retest
/// protocol. [`run_case_study`] is the thin linear composition; the
/// orchestrator drives the same functions with the wait serviced by a
/// deadline queue instead of an inline clock advance, and a checkpoint
/// written at every boundary.
pub struct CaseInProgress {
    /// The spec being executed.
    pub spec: CaseStudySpec,
    /// The spec's label as a trace and telemetry token: lowercase,
    /// with spaces and `/` dashed (`blue-coat---uae---etisalat`).
    case_label: String,
    sites: Vec<ControlledSite>,
    client: MeasurementClient,
    accessible_before: Option<usize>,
    submissions_accepted: usize,
    case_scope: filterwatch_trace::ScopeId,
    submit_span: filterwatch_telemetry::SpanId,
    submit_scope: filterwatch_trace::ScopeId,
}

/// Baseline stage: open the case's telemetry/trace scopes, create the
/// controlled sites, and (for [`SiteAccess::VerifyFirst`]) verify their
/// accessibility from the in-country vantage.
pub fn begin_case(world: &mut impl CampaignWorld, spec: &CaseStudySpec) -> CaseInProgress {
    assert!(
        spec.n_submit <= spec.n_sites,
        "cannot submit more than created"
    );
    let telemetry = world.net().telemetry().clone();
    let tracer = world.net().tracer().clone();
    let now = world.net().now().secs();
    let case_label = spec.label.to_lowercase().replace([' ', '/'], "-");
    let case_scope = tracer.open(
        filterwatch_trace::StepKind::Case,
        now,
        &[
            ("case", &case_label),
            ("isp", &spec.isp),
            ("product", &spec.product.slug()),
        ],
    );
    let submit_span = telemetry.span_start(
        filterwatch_telemetry::stage::CONFIRM_SUBMIT,
        &spec.label,
        now,
    );
    let submit_scope = tracer.open(
        filterwatch_trace::StepKind::Stage,
        now,
        &[("name", &"confirm.submit")],
    );
    let sites = world.create_controlled_sites(spec.site_kind, spec.n_sites);
    let client = world.client(&spec.isp);

    let accessible_before = (spec.access == SiteAccess::VerifyFirst).then(|| {
        sites
            .iter()
            .filter(|s| {
                client
                    .test_url(world.net(), &s.test_url())
                    .verdict
                    .is_accessible()
            })
            .count()
    });

    CaseInProgress {
        spec: spec.clone(),
        case_label,
        sites,
        client,
        accessible_before,
        submissions_accepted: 0,
        case_scope,
        submit_span,
        submit_scope,
    }
}

/// Submit stage: hand the first `n_submit` sites to the vendor channel,
/// perform the in-country accesses [`SiteAccess::AfterSubmit`]
/// requires, and close the submit span.
pub fn submit_case(world: &mut impl CampaignWorld, case: &mut CaseInProgress) {
    let spec = &case.spec;
    let net = world.net();
    let telemetry = net.telemetry().clone();
    let tracer = net.tracer().clone();

    // Submit the first n_submit sites to the vendor.
    let cloud = world.cloud(spec.product);
    let now = net.now();
    let mut submissions_accepted = 0;
    for site in &case.sites[..spec.n_submit] {
        let submit_url = site.submit_url();
        let receipt = cloud.submit(&submit_url, spec.submitter, now);
        tracer.point(
            filterwatch_trace::StepKind::Submit,
            now.secs(),
            &[
                ("url", &submit_url),
                ("accepted", &if receipt.accepted { "yes" } else { "no" }),
            ],
        );
        if receipt.accepted {
            submissions_accepted += 1;
        }
    }

    // For the submit-first ordering, the paper still *accesses* all the
    // domains in-country (which is what queues them at Netsweeper).
    if spec.access == SiteAccess::AfterSubmit {
        for site in &case.sites {
            let _ = case.client.test_url(net, &site.test_url());
        }
    }

    // Submissions accepted by the vendor now sit in its review queue
    // until the retest observes the outcome.
    telemetry.counter_add(
        "confirm.submissions",
        spec.product.slug(),
        submissions_accepted as u64,
    );
    telemetry.gauge_set(
        "confirm.queue_depth",
        spec.product.slug(),
        submissions_accepted as i64,
    );
    tracer.close(case.submit_scope, net.now().secs(), &[]);
    telemetry.span_end(case.submit_span, net.now().secs());
    case.submissions_accepted = submissions_accepted;
}

/// Wait stage, announce half: record the wait in the trace and return
/// the absolute virtual-clock deadline (in seconds) at which the retest
/// may begin. The caller owns the clock advance — inline for the linear
/// driver, a deadline-queue wakeup for the orchestrator — so both reach
/// the deadline by the same arithmetic.
pub fn announce_wait(world: &impl CampaignWorld, case: &CaseInProgress) -> u64 {
    let net = world.net();
    net.tracer().point(
        filterwatch_trace::StepKind::Wait,
        net.now().secs(),
        &[("days", &case.spec.wait_days)],
    );
    net.now().plus_days(case.spec.wait_days).secs()
}

/// Retest stage: re-fetch every site from the in-country vantage,
/// render the §4.2 verdict, and close the case's scopes.
pub fn retest_case(world: &impl CampaignWorld, case: CaseInProgress) -> CaseStudyResult {
    let CaseInProgress {
        spec,
        case_label,
        sites,
        client,
        accessible_before,
        submissions_accepted,
        case_scope,
        submit_span: _,
        submit_scope: _,
    } = case;
    let net = world.net();
    let telemetry = net.telemetry().clone();
    let tracer = net.tracer().clone();
    let retest_span = telemetry.span_start(
        filterwatch_telemetry::stage::CONFIRM_RETEST,
        &spec.label,
        net.now().secs(),
    );
    let retest_scope = tracer.open(
        filterwatch_trace::StepKind::Stage,
        net.now().secs(),
        &[("name", &"confirm.retest")],
    );
    // Retest: a site is blocked if any retest run blocks it.
    let mut blocked = vec![false; sites.len()];
    let mut attributed: Vec<String> = Vec::new();
    let mut retest_inconclusive = 0;
    let mut retest_verdicts = Vec::with_capacity(sites.len() * spec.retest_runs.max(1));
    for _ in 0..spec.retest_runs.max(1) {
        for (i, site) in sites.iter().enumerate() {
            let v = client.test_url(net, &site.test_url());
            if v.verdict.is_blocked() {
                blocked[i] = true;
                if let Some(p) = v.verdict.blocked_by() {
                    if !attributed.iter().any(|a| a == p) {
                        attributed.push(p.to_string());
                    }
                }
            } else if v.verdict.is_inconclusive() {
                retest_inconclusive += 1;
            }
            retest_verdicts.push(v);
        }
    }
    let submitted_blocked = blocked[..spec.n_submit].iter().filter(|&&b| b).count();
    let holdout_blocked = blocked[spec.n_submit..].iter().filter(|&&b| b).count();

    // Ethics note (§4.6): the simulated adult-image sites only ever host
    // placeholder markers, and the test URL is the benign object, so
    // there is nothing to take down; domains are never reused (the forge
    // remembers every mint).

    // Confirmation: the majority of submitted sites became blocked.
    let confirmed = submitted_blocked * 2 > spec.n_submit;

    telemetry.gauge_set("confirm.queue_depth", spec.product.slug(), 0);
    telemetry.event(
        net.now().secs(),
        "confirm.verdict",
        &[
            ("case", &case_label),
            ("blocked", &submitted_blocked),
            ("submitted", &spec.n_submit),
            ("confirmed", &if confirmed { "yes" } else { "no" }),
        ],
    );
    tracer.close(retest_scope, net.now().secs(), &[]);
    tracer.point(
        filterwatch_trace::StepKind::Verdict,
        net.now().secs(),
        &[
            (
                "verdict",
                &if confirmed {
                    "confirmed"
                } else {
                    "unconfirmed"
                },
            ),
            ("blocked", &submitted_blocked),
            ("submitted", &spec.n_submit),
        ],
    );
    tracer.close(
        case_scope,
        net.now().secs(),
        &[("confirmed", &if confirmed { "yes" } else { "no" })],
    );
    telemetry.span_end(retest_span, net.now().secs());

    CaseStudyResult {
        spec,
        accessible_before,
        submissions_accepted,
        submitted_blocked,
        holdout_blocked,
        attributed_products: attributed,
        retest_inconclusive,
        retest_verdicts,
        quality: client.quality(),
        confirmed,
    }
}

/// Run one case study against the world, advancing its virtual clock:
/// the thin linear composition of the stage functions.
pub fn run_case_study(world: &mut impl CampaignWorld, spec: &CaseStudySpec) -> CaseStudyResult {
    let mut case = begin_case(world, spec);
    submit_case(world, &mut case);
    let _deadline = announce_wait(world, &case);
    world.net().advance_days(spec.wait_days);
    retest_case(world, case)
}

/// The ten case studies of Table 3, in row order.
pub fn table3_specs() -> Vec<CaseStudySpec> {
    let covert = SubmitterProfile::COVERT;
    vec![
        CaseStudySpec {
            label: "Blue Coat / UAE / Etisalat".into(),
            product: ProductKind::BlueCoat,
            isp: "etisalat".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 6,
            n_submit: 3,
            category_label: "Proxy Avoidance".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 5,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Blue Coat / Qatar / Ooredoo".into(),
            product: ProductKind::BlueCoat,
            isp: "ooredoo".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 6,
            n_submit: 3,
            category_label: "Proxy Avoidance".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 5,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / Qatar / Ooredoo".into(),
            product: ProductKind::SmartFilter,
            isp: "ooredoo".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / Saudi Arabia / Bayanat Al-Oula".into(),
            product: ProductKind::SmartFilter,
            isp: "bayanat".into(),
            date: "9/2012".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / Saudi Arabia / Nournet".into(),
            product: ProductKind::SmartFilter,
            isp: "nournet".into(),
            date: "5/2013".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / UAE / Etisalat".into(),
            product: ProductKind::SmartFilter,
            isp: "etisalat".into(),
            date: "9/2012".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 10,
            n_submit: 5,
            category_label: "Anonymizers".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / UAE / Etisalat".into(),
            product: ProductKind::SmartFilter,
            isp: "etisalat".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            access: SiteAccess::VerifyFirst,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Netsweeper / Qatar / Ooredoo".into(),
            product: ProductKind::Netsweeper,
            isp: "ooredoo".into(),
            date: "8/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 12,
            n_submit: 6,
            category_label: "Proxy anonymizer".into(),
            access: SiteAccess::AfterSubmit,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Netsweeper / UAE / Du".into(),
            product: ProductKind::Netsweeper,
            isp: "du".into(),
            date: "3/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 12,
            n_submit: 6,
            category_label: "Proxy anonymizer".into(),
            access: SiteAccess::AfterSubmit,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Netsweeper / Yemen / YemenNet".into(),
            product: ProductKind::Netsweeper,
            isp: "yemennet".into(),
            date: "3/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 12,
            n_submit: 6,
            category_label: "Proxy anonymizer".into(),
            access: SiteAccess::AfterSubmit,
            wait_days: 4,
            retest_runs: 3,
            submitter: covert,
        },
    ]
}

/// Run all Table 3 case studies in order on one world.
pub fn run_table3(world: &mut World) -> Vec<CaseStudyResult> {
    table3_specs()
        .iter()
        .map(|spec| run_case_study(world, spec))
        .collect()
}

/// Render case study results as the Table 3 text table.
pub fn render_table3(results: &[CaseStudyResult]) -> String {
    let mut table = TextTable::new([
        "Product",
        "ISP",
        "Date",
        "Sites submitted",
        "Category",
        "Sites blocked",
        "Confirmed?",
    ]);
    for r in results {
        let isp_desc = {
            let parts: Vec<&str> = r.spec.label.split(" / ").collect();
            parts.last().map(|s| s.to_string()).unwrap_or_default()
        };
        table.row([
            r.spec.product.name().to_string(),
            isp_desc,
            r.spec.date.clone(),
            r.submitted_of_created(),
            r.spec.category_label.clone(),
            r.blocked_of_submitted(),
            if r.confirmed {
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
    use crate::world::World;
    use crate::DEFAULT_SEED;

    #[test]
    fn smartfilter_saudi_confirms_five_of_five() {
        let mut w = World::paper(DEFAULT_SEED);
        let spec = &table3_specs()[3]; // Bayanat Al-Oula
        let r = run_case_study(&mut w, spec);
        assert_eq!(r.accessible_before, Some(10));
        assert_eq!(r.submitted_blocked, 5, "{r:?}");
        assert_eq!(r.holdout_blocked, 0);
        assert!(r.confirmed);
        assert_eq!(r.attributed_products, vec!["smartfilter".to_string()]);
    }

    #[test]
    fn bluecoat_etisalat_not_confirmed() {
        let mut w = World::paper(DEFAULT_SEED);
        let spec = &table3_specs()[0];
        let r = run_case_study(&mut w, spec);
        assert_eq!(r.submitted_blocked, 0, "{r:?}");
        assert!(!r.confirmed);
        // The submissions were accepted by the vendor — the ISP just
        // does not filter with Blue Coat (Challenge 3).
        assert_eq!(r.submissions_accepted, 3);
    }

    #[test]
    fn netsweeper_ooredoo_confirms() {
        let mut w = World::paper(DEFAULT_SEED);
        let spec = &table3_specs()[7];
        let r = run_case_study(&mut w, spec);
        assert!(r.confirmed, "{r:?}");
        // test-a-site reviews are imperfect (per-domain draws), so the
        // standalone run asserts the confirmation verdict, not an exact
        // count; the pinned-seed full-table test checks exact counts.
        assert!(r.submitted_blocked >= 4, "{r:?}");
        assert_eq!(
            r.accessible_before, None,
            "Netsweeper skips pre-verification"
        );
    }

    #[test]
    fn full_table3_shape_matches_paper() {
        let mut w = World::paper(DEFAULT_SEED);
        let results = run_table3(&mut w);
        assert_eq!(results.len(), 10);
        // Rows 0-2 (Blue Coat ×2, SmartFilter Qatar): not confirmed.
        for r in &results[..3] {
            assert!(!r.confirmed, "{}: {r:?}", r.spec.label);
            assert_eq!(r.submitted_blocked, 0, "{}", r.spec.label);
        }
        // Rows 3-9: confirmed.
        for r in &results[3..] {
            assert!(r.confirmed, "{}: {:?}", r.spec.label, r);
        }
        // SmartFilter rows block five of five.
        for r in &results[3..7] {
            assert_eq!(r.submitted_blocked, 5, "{}", r.spec.label);
        }
        // Netsweeper rows reproduce the paper exactly with the pinned
        // default seed: 6/6 in Ooredoo, 5/6 in Du, 6/6 in YemenNet.
        let netsweeper_counts: Vec<usize> =
            results[7..].iter().map(|r| r.submitted_blocked).collect();
        assert_eq!(netsweeper_counts, vec![6, 5, 6]);
        let text = render_table3(&results);
        assert!(text.contains("Etisalat"));
        assert!(text.contains("5/10"));
    }

    #[test]
    fn retest_only_fetches_nothing_before_the_retest() {
        let mut w = World::paper(DEFAULT_SEED);
        w.net.set_flow_log(true);
        let spec = CaseStudySpec {
            access: SiteAccess::RetestOnly,
            ..table3_specs()[3].clone()
        };
        let flows = w.net.flow_log().len();
        let mut case = begin_case(&mut w, &spec);
        submit_case(&mut w, &mut case);
        let deadline = announce_wait(&w, &case);
        w.net.advance_secs(deadline - w.net.now().secs());
        assert_eq!(w.net.flow_log().len(), flows, "a site was fetched early");
        let r = retest_case(&w, case);
        assert_eq!(r.accessible_before, None);
        assert!(w.net.flow_log().len() > flows);
        assert_eq!(r.retest_verdicts.len(), spec.n_sites);
        assert!(r.confirmed, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "cannot submit more")]
    fn oversubmission_rejected() {
        let mut w = World::paper(1);
        let mut spec = table3_specs()[0].clone();
        spec.n_submit = spec.n_sites + 1;
        run_case_study(&mut w, &spec);
    }
}
