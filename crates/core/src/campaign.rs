//! One-call measurement campaigns.
//!
//! A downstream user of the methodology wants the paper's full loop —
//! identify everywhere, confirm in the ISPs where a field tester exists,
//! characterize whatever confirmed — as a single call that produces a
//! publishable report. [`Campaign`] is that entry point; the staged
//! functions in [`identify`](crate::identify), [`confirm`](crate::confirm)
//! and [`characterize`](crate::characterize) remain available for
//! bespoke studies.
//!
//! Chaos campaigns layer two knobs on top: [`Campaign::with_field_faults`]
//! injects a [`FaultProfile`] into every field ISP under test, and
//! [`Campaign::with_resilience`] arms the measurement clients with
//! retries, circuit breakers and quorum verdicts to absorb that noise.
//! The invariant (pinned by the `resilience` integration suite) is that
//! the identify and confirm tables stay byte-identical to the clean run
//! at the same seed — chaos shows up only in the report's measurement
//! quality section.

use filterwatch_measure::{MeasurementQuality, ResilienceConfig};
use filterwatch_netsim::FaultProfile;
use filterwatch_products::ProductKind;
use filterwatch_telemetry::{stage, Snapshot, TelemetryHandle};
use filterwatch_trace::{StepKind, TraceEvent, TraceHandle, TraceMode};

use crate::characterize::{characterize, Characterization, Table4Column};
use crate::confirm::{render_table3, table3_specs, CaseInProgress, CaseStudyResult, CaseStudySpec};
use crate::identify::{IdentificationReport, IdentifyPipeline};
use crate::world::{World, WorldOptions};

/// A configured campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// World construction options.
    pub options: WorldOptions,
    /// Confirmation case studies to run, in order.
    pub confirmations: Vec<CaseStudySpec>,
    /// URLs per category for characterization lists.
    pub list_urls_per_category: usize,
    /// Characterization repetitions (ride out flaky deployments).
    pub characterize_runs: usize,
    /// Resilience configuration for every measurement client the
    /// campaign builds (passthrough by default).
    pub resilience: ResilienceConfig,
    /// Fault profile injected into each field ISP named by the
    /// confirmation specs before measurement starts (`None` = clean).
    pub field_faults: Option<FaultProfile>,
    /// Causal tracing mode ([`TraceMode::Off`] by default). Tracing is
    /// a pure observer — it never draws randomness or moves the clock —
    /// so identify/confirm tables are byte-identical in every mode.
    pub trace: TraceMode,
}

impl Campaign {
    /// The paper's campaign: the ten Table 3 case studies, Table 4
    /// characterization of whatever confirms.
    pub fn standard(seed: u64) -> Self {
        Campaign {
            options: WorldOptions {
                seed,
                ..WorldOptions::default()
            },
            confirmations: table3_specs(),
            list_urls_per_category: 2,
            characterize_runs: 3,
            resilience: ResilienceConfig::default(),
            field_faults: None,
            trace: TraceMode::Off,
        }
    }

    /// A reduced campaign for demos and chaos testing: four Table 3 case
    /// studies (Blue Coat and SmartFilter in the Gulf ISPs plus the two
    /// deterministic Netsweeper deployments) and a single-URL-per-
    /// category characterization. YemenNet is deliberately excluded —
    /// its license-limited deployment *fails open* (an accessible page,
    /// not a transport error), which no retry policy can distinguish
    /// from genuine reachability, so its counts are not stable under
    /// fetch-count changes.
    pub fn demo(seed: u64) -> Self {
        let specs = table3_specs();
        Campaign {
            confirmations: [0, 3, 7, 8].iter().map(|&i| specs[i].clone()).collect(),
            list_urls_per_category: 1,
            characterize_runs: 1,
            ..Campaign::standard(seed)
        }
    }

    /// Builder-style: arm measurement clients with retry/breaker/quorum
    /// behaviour.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Builder-style: inject a fault profile into every field ISP under
    /// test (chaos mode). Pair with [`Campaign::with_resilience`] —
    /// faults without retries will flip verdicts.
    pub fn with_field_faults(mut self, faults: FaultProfile) -> Self {
        self.field_faults = Some(faults);
        self
    }

    /// Builder-style: set the causal tracing mode. The resulting
    /// report carries the trace event log in
    /// [`CampaignReport::trace`].
    pub fn with_trace(mut self, mode: TraceMode) -> Self {
        self.trace = mode;
        self
    }

    /// Run the whole campaign: the thin linear composition of
    /// [`CampaignRun`]'s stage methods. The orchestrator drives the
    /// same methods with `Wait` deadlines serviced by a deadline queue and
    /// a checkpoint written at every stage boundary.
    pub fn run(self) -> CampaignReport {
        let mut run = CampaignRun::begin(self);
        run.identify();
        for i in 0..run.case_count() {
            run.baseline(i);
            run.submit();
            let deadline = run.announce_wait();
            run.advance_to(deadline);
            run.retest();
        }
        run.characterize_confirmed();
        run.finish()
    }
}

/// A campaign in flight, paused between stage boundaries.
///
/// [`CampaignRun::begin`] builds the world and opens the campaign's
/// telemetry/trace scopes; the stage methods (`identify`, then per case
/// `baseline` → `submit` → `announce_wait` → `advance_to` → `retest`,
/// then `characterize_confirmed`) execute one stage each; `finish`
/// closes the scopes and assembles the [`CampaignReport`]. Because the
/// world is a pure function of the seed and stages draw all state from
/// it, replaying the same stage sequence reproduces the same report —
/// the property the orchestrator's checkpoint/restore path rests on.
pub struct CampaignRun {
    campaign: Campaign,
    world: World,
    telemetry: TelemetryHandle,
    tracer: TraceHandle,
    campaign_span: filterwatch_telemetry::SpanId,
    campaign_scope: filterwatch_trace::ScopeId,
    identification: Option<IdentificationReport>,
    confirmations: Vec<CaseStudyResult>,
    current_case: Option<CaseInProgress>,
    characterizations: Vec<(ProductKind, Characterization)>,
}

impl CampaignRun {
    /// Build the world, arm resilience/faults, and open the campaign's
    /// telemetry span and trace scope.
    // Case-study ISPs are networks the paper world builds, so the lookup cannot miss.
    #[allow(clippy::panic)]
    pub fn begin(campaign: Campaign) -> CampaignRun {
        let mut world = World::build(campaign.options.clone());
        world.resilience = campaign.resilience.clone();
        if let Some(faults) = &campaign.field_faults {
            // Chaos strikes the censoring access networks the campaign
            // measures through; the lab control path stays clean, as the
            // paper's Toronto vantage effectively was.
            let mut isps: Vec<&str> = campaign
                .confirmations
                .iter()
                .map(|s| s.isp.as_str())
                .collect();
            isps.sort_unstable();
            isps.dedup();
            for isp in isps {
                let id = world
                    .net
                    .network_by_name(isp)
                    .unwrap_or_else(|| panic!("unknown ISP {isp:?}"))
                    .id;
                world.net.set_network_faults(id, faults.clone());
            }
        }

        // Campaigns are the auditable entry point, so they always record
        // telemetry; the staged functions inherit whatever handle the
        // world's Internet carries (disabled by default).
        let telemetry = TelemetryHandle::enabled();
        world.net.set_telemetry(telemetry.clone());
        let tracer = TraceHandle::for_mode(campaign.trace, campaign.options.seed);
        world.net.set_tracer(tracer.clone());
        let campaign_span =
            telemetry.span_start(stage::CAMPAIGN, "standard campaign", world.net.now().secs());
        let campaign_scope = tracer.open(
            StepKind::Campaign,
            world.net.now().secs(),
            &[("seed", &campaign.options.seed)],
        );

        CampaignRun {
            campaign,
            world,
            telemetry,
            tracer,
            campaign_span,
            campaign_scope,
            identification: None,
            confirmations: Vec::new(),
            current_case: None,
            characterizations: Vec::new(),
        }
    }

    /// Stage 1: identify installations across the simulated Internet.
    pub fn identify(&mut self) {
        self.identification = Some(IdentifyPipeline::new().run(&self.world.net));
    }

    /// Number of confirmation case studies this campaign will run.
    pub fn case_count(&self) -> usize {
        self.campaign.confirmations.len()
    }

    /// Completed case-study results so far, in spec order.
    pub fn confirmations(&self) -> &[CaseStudyResult] {
        &self.confirmations
    }

    /// The current virtual-clock time in seconds.
    pub fn now_secs(&self) -> u64 {
        self.world.net.now().secs()
    }

    /// The campaign's trace handle — orchestration observers attach
    /// checkpoint/resume/timer steps through it.
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// The campaign's telemetry handle.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The ISP vantage the given case measures through.
    pub fn case_isp(&self, case: usize) -> &str {
        &self.campaign.confirmations[case].isp
    }

    /// Stage 2a (per case): open the case scopes, create controlled
    /// sites, pre-verify where the ordering allows. Cases must be
    /// driven in spec order.
    pub fn baseline(&mut self, case: usize) {
        assert_eq!(
            case,
            self.confirmations.len(),
            "cases must be driven in order"
        );
        assert!(self.current_case.is_none(), "case already in progress");
        let spec = self.campaign.confirmations[case].clone();
        self.current_case = Some(crate::confirm::begin_case(&mut self.world, &spec));
    }

    /// Stage 2b: submit the chosen subset to the vendor channel.
    // Stages run in order; calling one before its predecessor is a caller bug.
    #[allow(clippy::expect_used)]
    pub fn submit(&mut self) {
        let mut case = self.current_case.take().expect("baseline first");
        crate::confirm::submit_case(&mut self.world, &mut case);
        self.current_case = Some(case);
    }

    /// Stage 2c: record the wait and return the absolute virtual-clock
    /// deadline (seconds) at which the retest may run.
    // Stages run in order; calling one before its predecessor is a caller bug.
    #[allow(clippy::expect_used)]
    pub fn announce_wait(&mut self) -> u64 {
        let case = self.current_case.as_ref().expect("submit first");
        crate::confirm::announce_wait(&self.world, case)
    }

    /// Advance the world's virtual clock to an absolute deadline
    /// (no-op if already past).
    pub fn advance_to(&mut self, deadline_secs: u64) {
        let now = self.world.net.now().secs();
        if deadline_secs > now {
            self.world.net.advance_secs(deadline_secs - now);
        }
    }

    /// Stage 2d: retest every site and render the case verdict.
    // Stages run in order; calling one before its predecessor is a caller bug.
    #[allow(clippy::expect_used)]
    pub fn retest(&mut self) {
        let case = self.current_case.take().expect("announce_wait first");
        let result = crate::confirm::retest_case(&self.world, case);
        self.confirmations.push(result);
    }

    /// Stage 3: characterize every ISP where some product confirmed.
    pub fn characterize_confirmed(&mut self) {
        let mut confirmed_isps: Vec<(String, ProductKind)> = Vec::new();
        for r in &self.confirmations {
            if r.confirmed && !confirmed_isps.iter().any(|(isp, _)| *isp == r.spec.isp) {
                confirmed_isps.push((r.spec.isp.clone(), r.spec.product));
            }
        }
        for (isp, product) in &confirmed_isps {
            let scope = self.tracer.open(
                StepKind::Stage,
                self.world.net.now().secs(),
                &[("name", &"characterize"), ("isp", isp)],
            );
            let ch = characterize(
                &self.world,
                isp,
                self.campaign.list_urls_per_category,
                self.campaign.characterize_runs,
            );
            self.tracer.close(scope, self.world.net.now().secs(), &[]);
            self.characterizations.push((*product, ch));
        }
    }

    /// Close the campaign scopes and assemble the report.
    // Every stage sequence starts with identify, so finish always has its result.
    #[allow(clippy::expect_used)]
    pub fn finish(self) -> CampaignReport {
        let CampaignRun {
            campaign,
            world,
            telemetry,
            tracer,
            campaign_span,
            campaign_scope,
            identification,
            confirmations,
            current_case: _,
            characterizations,
        } = self;
        tracer.close(campaign_scope, world.net.now().secs(), &[]);
        telemetry.span_end(campaign_span, world.net.now().secs());

        // Roll every stage client's quality counters into one campaign-
        // level view for the report's measurement quality section.
        let mut quality = MeasurementQuality::default();
        for r in &confirmations {
            quality.absorb(&r.quality);
        }
        for (_, ch) in &characterizations {
            quality.absorb(&ch.quality);
        }

        CampaignReport {
            seed: campaign.options.seed,
            finished_at_day: world.net.now().days(),
            identification: identification.expect("identify stage must run before finish"),
            confirmations,
            characterizations,
            quality,
            telemetry: telemetry.snapshot(),
            trace: tracer.take(),
        }
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// World seed the campaign ran under.
    pub seed: u64,
    /// Virtual day the campaign finished on.
    pub finished_at_day: u64,
    /// Stage 1 output.
    pub identification: IdentificationReport,
    /// Stage 2 outputs, in spec order.
    pub confirmations: Vec<CaseStudyResult>,
    /// Stage 3 outputs for each confirmed ISP.
    pub characterizations: Vec<(ProductKind, Characterization)>,
    /// Aggregate measurement quality across every stage client: fetch
    /// attempts, retries, breaker trips/skips, quorum trials and the
    /// inconclusive rate. All zeros on a clean passthrough run.
    pub quality: MeasurementQuality,
    /// Everything the campaign's telemetry collector recorded: spans per
    /// stage, counters (per-vendor verdicts among them), histograms and
    /// the event log.
    pub telemetry: Snapshot,
    /// The causal trace event log (empty unless the campaign ran with
    /// [`Campaign::with_trace`]). Feed it to
    /// `filterwatch_trace::ProvenanceIndex` to explain any verdict.
    pub trace: Vec<TraceEvent>,
}

impl CampaignReport {
    /// Number of confirmed censorship deployments.
    pub fn confirmed_count(&self) -> usize {
        self.confirmations.iter().filter(|r| r.confirmed).count()
    }

    /// The identify-stage verdict table as stable text — chaos runs are
    /// byte-compared against clean runs on exactly this rendering, so it
    /// must contain verdicts only, never timing or quality noise.
    pub fn identify_table(&self) -> String {
        self.identification.render_installations()
    }

    /// The confirm-stage verdict table as stable text (same byte-
    /// comparison contract as [`CampaignReport::identify_table`]).
    pub fn confirm_table(&self) -> String {
        render_table3(&self.confirmations)
    }

    /// Render the whole campaign as a markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# filterwatch campaign report\n\nseed {} — finished on virtual day {}\n\n",
            self.seed, self.finished_at_day
        ));

        out.push_str("## Identified installations\n\n");
        out.push_str("| Product | Country | ASN | AS name | IP |\n|---|---|---|---|---|\n");
        for inst in &self.identification.installations {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                inst.product.name(),
                inst.country,
                inst.asn.map(|a| format!("AS{a}")).unwrap_or_default(),
                inst.as_name,
                inst.ip
            ));
        }

        out.push_str("\n## Confirmation case studies\n\n");
        out.push_str(
            "| Case | Date | Submitted | Blocked | Holdout blocked | Confirmed |\n|---|---|---|---|---|---|\n",
        );
        for r in &self.confirmations {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                r.spec.label,
                r.spec.date,
                r.submitted_of_created(),
                r.blocked_of_submitted(),
                r.holdout_blocked,
                if r.confirmed { "**yes**" } else { "no" }
            ));
        }

        out.push_str("\n## Blocked content themes in confirmed networks\n\n");
        out.push_str("| Product | Network |");
        for col in Table4Column::ALL {
            out.push_str(&format!(" {} |", col.name()));
        }
        out.push_str("\n|---|---|---|---|---|---|---|---|\n");
        for (product, ch) in &self.characterizations {
            out.push_str(&format!(
                "| {} | {} (AS{}) |",
                product.name(),
                ch.country,
                ch.asn
            ));
            for col in Table4Column::ALL {
                out.push_str(if ch.column_marked(col) { " x |" } else { "  |" });
            }
            out.push('\n');
        }

        out.push_str("\n## Measurement quality\n\n");
        let q = &self.quality;
        out.push_str("| Metric | Value |\n|---|---|\n");
        out.push_str(&format!("| Fetch attempts | {} |\n", q.fetch_attempts));
        out.push_str(&format!("| Retries | {} |\n", q.retries));
        out.push_str(&format!("| Breaker trips | {} |\n", q.breaker_trips));
        out.push_str(&format!("| Breaker skips | {} |\n", q.breaker_skips));
        out.push_str(&format!("| Quorum trials | {} |\n", q.quorum_trials));
        out.push_str(&format!(
            "| Inconclusive verdicts | {}/{} ({:.1}%) |\n",
            q.inconclusive,
            q.verdicts,
            q.inconclusive_rate() * 100.0
        ));

        // The stable rendering (virtual-clock timings only): the whole
        // report is a pure function of the seed, byte-identical across
        // runs, which is what the golden-snapshot suite checks against.
        // Wall-clock profiles live in `tables -- telemetry --wall`.
        out.push_str("\n## Telemetry\n\n```text\n");
        out.push_str(&filterwatch_telemetry::render::stable_text_report(
            &self.telemetry,
        ));
        out.push_str("```\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn standard_campaign_reproduces_the_paper() {
        let report = Campaign::standard(DEFAULT_SEED).run();
        assert_eq!(report.confirmations.len(), 10);
        assert_eq!(report.confirmed_count(), 7);
        // Characterization covers the distinct confirmed ISPs:
        // bayanat, nournet, etisalat, ooredoo, du, yemennet.
        assert_eq!(report.characterizations.len(), 6);
        assert!(report.identification.installations.len() >= 30);
        assert!(report.finished_at_day >= 40, "{}", report.finished_at_day);
    }

    #[test]
    fn markdown_report_contains_all_sections() {
        let report = Campaign::standard(DEFAULT_SEED).run();
        let md = report.to_markdown();
        assert!(md.contains("# filterwatch campaign report"));
        assert!(md.contains("## Identified installations"));
        assert!(md.contains("## Confirmation case studies"));
        assert!(md.contains("## Blocked content themes"));
        assert!(md.contains("## Measurement quality"));
        // A clean passthrough run absorbs no noise.
        assert!(md.contains("| Retries | 0 |"), "{md}");
        assert!(md.contains("Netsweeper / Yemen / YemenNet"));
        assert!(md.contains("**yes**"));
        // Markdown tables stay rectangular: every themes row has the
        // right number of columns.
        for line in md
            .lines()
            .filter(|l| l.starts_with("| McAfee") || l.starts_with("| Netsweeper"))
        {
            if line.contains("(AS") {
                assert_eq!(line.matches('|').count(), 9, "{line}");
            }
        }
    }

    #[test]
    fn demo_campaign_is_a_stable_subset() {
        let report = Campaign::demo(DEFAULT_SEED).run();
        assert_eq!(report.confirmations.len(), 4);
        // Blue Coat in Etisalat does not confirm (traffic management
        // only); the SmartFilter and Netsweeper rows do.
        assert_eq!(report.confirmed_count(), 3);
        assert_eq!(report.characterizations.len(), 3);
        assert_eq!(report.quality.retries, 0, "clean run retries nothing");
        assert_eq!(report.quality.inconclusive, 0);
        assert!(report.quality.verdicts > 0);
        let identify = report.identify_table();
        assert!(identify.contains("Netsweeper"), "{identify}");
        let confirm = report.confirm_table();
        assert!(confirm.contains("Confirmed?"), "{confirm}");
        assert!(confirm.contains("Bayanat"), "{confirm}");
    }
}
