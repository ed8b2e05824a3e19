//! Running the paper's identify and confirm stages on a generated world
//! and rendering the outcome as stable text.
//!
//! Each deployment's case study is a [`case_spec`] run through
//! `filterwatch_core::confirm`, the one implementation of §4.2 that
//! the paper world runs too; the stage functions here are thin
//! wrappers over it. [`run_campaign`] is the single entry point
//! everything in the testkit byte-compares on: the invariant suite
//! runs it on metamorphic variants of one plan, the golden framework
//! snapshots its [`GeneratedReport::stable_text`], and the
//! differential runner diffs it across configurations that must not
//! matter.

use filterwatch_core::confirm::{
    announce_wait, begin_case, retest_case, submit_case, CaseInProgress, CaseStudyResult,
    CaseStudySpec, SiteAccess,
};
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::CampaignWorld;
use filterwatch_measure::ResilienceConfig;
use filterwatch_products::{ProductKind, SubmitterProfile};
use filterwatch_scanner::ScanEngine;
use filterwatch_telemetry::wire::Wire;
use filterwatch_telemetry::TelemetryHandle;
use filterwatch_trace::{build_forest, render_forest, TraceHandle};
use filterwatch_urllists::TestList;

use crate::plan::ScenarioPlan;
use crate::worldgen::{build_world, deployment_name, GeneratedWorld};

/// Days waited between submission and retest — past every vendor's
/// maximum review delay, so accepted submissions are always in effect
/// at retest.
pub const WAIT_DAYS: u64 = 6;

/// How a campaign run is configured (the knobs that must NOT change
/// verdicts).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Resilience configuration for every measurement client.
    pub resilience: ResilienceConfig,
    /// Attach an enabled telemetry collector to the world.
    pub telemetry: bool,
}

impl RunConfig {
    /// The canonical configuration for a plan: passthrough resilience on
    /// clean worlds, the chaos profile (retries + breaker + quorum) when
    /// the plan injects faults.
    pub fn for_plan(plan: &ScenarioPlan) -> RunConfig {
        RunConfig {
            resilience: if plan.fault.is_clean() {
                ResilienceConfig::default()
            } else {
                ResilienceConfig::chaos()
            },
            telemetry: false,
        }
    }

    /// Build the plan's world with this configuration applied.
    pub(crate) fn build_world(&self, plan: &ScenarioPlan) -> GeneratedWorld {
        let mut gw = build_world(plan);
        gw.resilience = self.resilience.clone();
        if self.telemetry {
            gw.net.set_telemetry(TelemetryHandle::enabled());
        }
        gw
    }
}

/// The outcome of one deployment's case study.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Deployment index in the plan.
    pub deployment: usize,
    /// The vendor exercised.
    pub product: ProductKind,
    /// Sites minted / submitted.
    pub n_sites: usize,
    /// Of which submitted.
    pub n_submit: usize,
    /// Submissions the vendor accepted.
    pub submissions_accepted: usize,
    /// Submitted sites blocked at retest.
    pub submitted_blocked: usize,
    /// Held-out sites blocked at retest.
    pub holdout_blocked: usize,
    /// Retest verdicts the machinery declined to render.
    pub retest_inconclusive: usize,
    /// §4.2 verdict: majority of submitted sites became blocked.
    pub confirmed: bool,
    /// Stable per-site retest lines (submitted first, then held out).
    pub retest_lines: Vec<String>,
}

impl CaseOutcome {
    /// Fold deployment `deployment`'s case-study result into its outcome.
    pub(crate) fn from_result(deployment: usize, r: &CaseStudyResult) -> CaseOutcome {
        let spec = &r.spec;
        let retest_lines = r
            .retest_verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let side = if i % spec.n_sites < spec.n_submit {
                    "submitted"
                } else {
                    "heldout"
                };
                format!("{side} {}", v.line().to_line())
            })
            .collect();
        CaseOutcome {
            deployment,
            product: spec.product,
            n_sites: spec.n_sites,
            n_submit: spec.n_submit,
            submissions_accepted: r.submissions_accepted,
            submitted_blocked: r.submitted_blocked,
            holdout_blocked: r.holdout_blocked,
            retest_inconclusive: r.retest_inconclusive,
            confirmed: r.confirmed,
            retest_lines,
        }
    }
}

/// A full generated-campaign report.
#[derive(Debug, Clone)]
pub struct GeneratedReport {
    /// The plan that was run.
    pub plan: ScenarioPlan,
    /// Topology digest of the built world (before any site minting).
    pub topology_digest: u64,
    /// Stage-1 installations table (stable rendering).
    pub identify_table: String,
    /// Pre-submission verdict sweep of the global test list from every
    /// deployment vantage (`depN <url> <label> <product>` lines).
    pub list_lines: Vec<String>,
    /// Per-deployment case studies, in plan order.
    pub cases: Vec<CaseOutcome>,
}

impl GeneratedReport {
    /// The comparison surface metamorphic variants must agree on:
    /// verdict data only — no plan echo, no topology digest, no counts
    /// that scale with world size rather than filtering behaviour.
    pub fn comparable_text(&self) -> String {
        let mut out = String::new();
        out.push_str("## identify\n");
        out.push_str(&self.identify_table);
        out.push_str("\n## list sweep\n");
        for line in &self.list_lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("\n## cases\n");
        for c in &self.cases {
            out.push_str(&format!(
                "dep{} {} submitted={}/{} accepted={} blocked={} holdout_blocked={} \
                 inconclusive={} confirmed={}\n",
                c.deployment,
                c.product.slug(),
                c.n_submit,
                c.n_sites,
                c.submissions_accepted,
                c.submitted_blocked,
                c.holdout_blocked,
                c.retest_inconclusive,
                if c.confirmed { "yes" } else { "no" },
            ));
            for line in &c.retest_lines {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// The full stable rendering: plan summary and topology digest on
    /// top of [`GeneratedReport::comparable_text`]. Byte-identical for
    /// the same (plan, config) — this is what goldens snapshot.
    pub fn stable_text(&self) -> String {
        format!(
            "# generated campaign\nplan: {}\ntopology: {:016x}\n\n{}",
            self.plan.summary(),
            self.topology_digest,
            self.comparable_text()
        )
    }
}

/// The §4.2 case study run against deployment `i`: its sites submitted
/// covertly, one retest after [`WAIT_DAYS`], and no in-country access
/// before it, since the list sweep covers the pre-submission picture.
pub fn case_spec(plan: &ScenarioPlan, i: usize) -> CaseStudySpec {
    let d = &plan.deployments[i];
    let name = deployment_name(i, d);
    CaseStudySpec {
        label: name.clone(),
        product: d.product,
        isp: name,
        date: "-".into(),
        site_kind: d.content,
        n_sites: d.n_sites,
        n_submit: d.n_submit,
        category_label: d.content.category().name().into(),
        access: SiteAccess::RetestOnly,
        wait_days: WAIT_DAYS,
        retest_runs: 1,
        submitter: SubmitterProfile::COVERT,
    }
}

/// One deployment's case study between baseline and retest.
pub struct CaseInFlight {
    /// Deployment index in the plan.
    pub deployment: usize,
    case: CaseInProgress,
}

/// Stage 1 on a generated world: scan, identify, render installations.
pub fn identify_stage(gw: &GeneratedWorld) -> String {
    let index = ScanEngine::new().scan(&gw.net);
    let identify = IdentifyPipeline::new().run_on_index(&gw.net, &index);
    identify.render_installations()
}

/// Pre-submission sweep of the (pre-categorized) global list from
/// every deployment vantage. Its clients carry the world's resilience,
/// which the run set from its [`RunConfig`] when it built the world, so
/// `_config` goes unused.
// Global test-list URLs are static and always parse.
#[allow(clippy::expect_used)]
pub fn sweep_stage(gw: &GeneratedWorld, _config: &RunConfig) -> Vec<String> {
    let list = TestList::global(gw.plan.urls_per_category);
    let mut list_lines = Vec::new();
    for (dep, d) in gw.plan.deployments.iter().enumerate() {
        let client = gw.client(&deployment_name(dep, d));
        for test_url in &list.urls {
            let url = filterwatch_http::Url::parse(&test_url.url).expect("list URL");
            let v = client.test_url(&gw.net, &url);
            list_lines.push(format!("dep{dep} {}", v.line().to_line()));
        }
    }
    list_lines
}

/// Stage 2a for deployment `i`: [`begin_case`] on its [`case_spec`].
pub fn baseline_stage(gw: &mut GeneratedWorld, i: usize) -> CaseInFlight {
    let spec = case_spec(&gw.plan, i);
    CaseInFlight {
        deployment: i,
        case: begin_case(gw, &spec),
    }
}

/// Stage 2b: [`submit_case`].
pub fn submit_stage(gw: &mut GeneratedWorld, case: &mut CaseInFlight) {
    submit_case(gw, &mut case.case);
}

/// Stage 2d, after the review window: [`retest_case`], folded into the
/// deployment's outcome. The retest client is the one the baseline
/// stage built, with the world's resilience, so `_config` goes unused.
pub fn retest_stage(gw: &GeneratedWorld, _config: &RunConfig, case: CaseInFlight) -> CaseOutcome {
    CaseOutcome::from_result(case.deployment, &retest_case(gw, case.case))
}

/// Run the full loop — identify, sweep the test list, then one
/// submit-and-retest case study per deployment — with the plan's
/// canonical [`RunConfig`].
pub fn run_campaign(plan: &ScenarioPlan) -> GeneratedReport {
    run_campaign_with(plan, &RunConfig::for_plan(plan))
}

/// Run the full loop with an explicit configuration. This is the
/// linear driver over the stage functions above; the orchestrator's
/// `GeneratedDriver` runs the same stages under checkpointed
/// scheduling, and the crash-recovery battery holds the two
/// byte-identical.
pub fn run_campaign_with(plan: &ScenarioPlan, config: &RunConfig) -> GeneratedReport {
    drive_campaign(&mut config.build_world(plan), config)
}

/// The stage driver over an already-built (and instrumented) world.
fn drive_campaign(gw: &mut GeneratedWorld, config: &RunConfig) -> GeneratedReport {
    let topology_digest = gw.net.topology_digest();

    // Stage 1: identify, then the pre-submission list sweep.
    let identify_table = identify_stage(gw);
    let list_lines = sweep_stage(gw, config);

    // Stage 2: one case study per deployment, sequentially (the virtual
    // clock advances past the vendor review window between each).
    let cases = (0..gw.plan.deployments.len())
        .map(|i| {
            let mut case = baseline_stage(gw, i);
            submit_stage(gw, &mut case);
            let deadline = announce_wait(gw, &case.case);
            gw.net.advance_secs(deadline - gw.net.now().secs());
            retest_stage(gw, config, case)
        })
        .collect();

    GeneratedReport {
        plan: gw.plan.clone(),
        topology_digest,
        identify_table,
        list_lines,
        cases,
    }
}

/// Everything a campaign run leaves behind when every observation
/// surface is switched on: the report plus the raw per-flow log and the
/// rendered causal trace forest. The `fetch-surfaces` golden pins all
/// three, since agreement on the report alone would still let a change
/// to the fetch path reorder or drop interior observations.
#[derive(Debug, Clone)]
pub struct CampaignForensics {
    /// The campaign report (same surface as [`run_campaign_with`]).
    pub report: GeneratedReport,
    /// Every flow the world carried, as stable wire lines.
    pub flow_lines: Vec<String>,
    /// The rendered causal trace forest of the whole campaign.
    pub trace_forest: String,
}

/// Run the full loop with the flow log and tracer enabled, returning
/// the report together with both observation surfaces.
pub fn run_campaign_forensic(plan: &ScenarioPlan, config: &RunConfig) -> CampaignForensics {
    let mut gw = config.build_world(plan);
    gw.net.set_flow_log(true);
    gw.net.set_tracer(TraceHandle::enabled(plan.seed));
    let report = drive_campaign(&mut gw, config);
    let flow_lines = gw.net.flow_log().iter().map(|r| r.to_line()).collect();
    let trace_forest = render_forest(&build_forest(&gw.net.tracer().take()));
    CampaignForensics {
        report,
        flow_lines,
        trace_forest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::strategies::plan_for_seed;

    #[test]
    fn campaign_runs_and_reports_every_deployment() {
        let plan = plan_for_seed(0);
        let report = run_campaign(&plan);
        assert_eq!(report.cases.len(), plan.deployments.len());
        for (c, d) in report.cases.iter().zip(&plan.deployments) {
            assert_eq!(c.n_sites, d.n_sites);
            assert_eq!(c.retest_lines.len(), d.n_sites);
        }
        assert_eq!(
            report.list_lines.len(),
            plan.deployments.len() * TestList::global(plan.urls_per_category).urls.len()
        );
    }

    #[test]
    fn accepted_majorities_confirm_on_clean_worlds() {
        // On a clean, non-flapping world the arithmetic is exact: every
        // accepted submission is blocked at retest, nothing else is.
        for seed in 0..16 {
            let mut plan = plan_for_seed(seed);
            plan.fault = FaultPlan::Clean;
            for d in &mut plan.deployments {
                d.flapping = None;
            }
            let report = run_campaign(&plan);
            for c in &report.cases {
                assert_eq!(
                    c.submitted_blocked, c.submissions_accepted,
                    "seed {seed}: {c:?}"
                );
                assert_eq!(c.holdout_blocked, 0, "seed {seed}: {c:?}");
                assert_eq!(
                    c.confirmed,
                    c.submissions_accepted * 2 > c.n_submit,
                    "seed {seed}: {c:?}"
                );
            }
        }
    }

    #[test]
    fn stable_text_is_byte_identical_across_runs() {
        let plan = plan_for_seed(5);
        let a = run_campaign(&plan).stable_text();
        let b = run_campaign(&plan).stable_text();
        assert_eq!(a, b);
    }
}
