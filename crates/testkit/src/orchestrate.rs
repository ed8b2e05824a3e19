//! Generated-world campaigns under the orchestrator.
//!
//! [`GeneratedDriver`] adapts a generated campaign to the
//! orchestrator's [`StageDriver`] surface, running the same
//! `filterwatch_core::confirm` stages as the linear
//! [`runner`](crate::runner), so a generated campaign runs as a
//! crash-safe resumable state machine: the scheduler owns the
//! transitions and the checkpoints, the driver owns the world. A
//! `generated:<seed>` descriptor rebuilds the plan through
//! [`plan_for_seed`], which keeps checkpoints self-contained — the
//! whole campaign identity is one short wire line. Run and resume one
//! with `filterwatch_orchestrator::{run_orchestrated,
//! resume_orchestrated}`; resuming rebuilds the driver from the
//! checkpoint's descriptor with [`GeneratedDriver::new`].
//!
//! The crash-recovery battery (`tests/crashrecovery.rs`) kills one of
//! these at every checkpoint boundary across the seed battery and
//! byte-compares the resumed [`GeneratedReport::comparable_text`]
//! against the uninterrupted run's.

use filterwatch_core::confirm::{
    announce_wait, begin_case, retest_case, submit_case, CaseInProgress, CaseStudyResult,
};
use filterwatch_measure::ResilienceConfig;
use filterwatch_orchestrator::{
    CampaignDescriptor, CampaignKind, CaseCkpt, StageDriver, StageState, StepOutcome,
};

use filterwatch_telemetry::wire::Wire;

use crate::runner::{
    case_spec, identify_stage, sweep_stage, CaseOutcome, GeneratedReport, RunConfig,
};
use crate::strategies::plan_for_seed;
use crate::worldgen::GeneratedWorld;

/// [`StageDriver`] over a generated world: the testkit's counterpart
/// to the orchestrator's `PaperDriver`.
pub struct GeneratedDriver {
    descriptor: CampaignDescriptor,
    config: RunConfig,
    gw: GeneratedWorld,
    topology_digest: u64,
    identify_table: String,
    list_lines: Vec<String>,
    results: Vec<CaseStudyResult>,
    current: Option<CaseInProgress>,
}

impl GeneratedDriver {
    /// Rebuild the descriptor's generated world. Fails unless the
    /// descriptor is `generated:<seed>`, with or without `:chaos`: a
    /// generated campaign installs no causal tracer, so a `:trace`
    /// flag is refused rather than silently recording nothing.
    pub fn new(descriptor: CampaignDescriptor) -> Result<GeneratedDriver, String> {
        if descriptor.kind != CampaignKind::Generated {
            return Err(format!(
                "not a generated-campaign descriptor: {}",
                descriptor.to_line()
            ));
        }
        if descriptor.trace {
            return Err(format!(
                "generated campaigns record no trace; drop the trace flag: {}",
                descriptor.to_line()
            ));
        }
        let plan = plan_for_seed(descriptor.seed);
        let mut config = RunConfig::for_plan(&plan);
        if descriptor.chaos {
            config.resilience = ResilienceConfig::chaos();
        }
        let gw = config.build_world(&plan);
        let topology_digest = gw.net.topology_digest();
        Ok(GeneratedDriver {
            descriptor,
            config,
            gw,
            topology_digest,
            identify_table: String::new(),
            list_lines: Vec::new(),
            results: Vec::new(),
            current: None,
        })
    }

    /// Assemble the report. Call only once the orchestrator has driven
    /// the campaign to `Done`.
    pub fn into_report(self) -> GeneratedReport {
        GeneratedReport {
            plan: self.gw.plan.clone(),
            topology_digest: self.topology_digest,
            identify_table: self.identify_table,
            list_lines: self.list_lines,
            cases: self
                .results
                .iter()
                .enumerate()
                .map(|(i, r)| CaseOutcome::from_result(i, r))
                .collect(),
        }
    }
}

impl StageDriver for GeneratedDriver {
    fn descriptor(&self) -> &CampaignDescriptor {
        &self.descriptor
    }

    fn case_count(&self) -> usize {
        self.gw.plan.deployments.len()
    }

    fn completed_cases(&self) -> usize {
        self.results.len()
    }

    fn now_secs(&self) -> u64 {
        self.gw.net.now().secs()
    }

    // The scheduler runs stages in order, so a submit or retest always has its case.
    #[allow(clippy::expect_used)]
    fn execute(&mut self, stage: &StageState) -> StepOutcome {
        match *stage {
            StageState::Identify => {
                self.identify_table = identify_stage(&self.gw);
                self.list_lines = sweep_stage(&self.gw, &self.config);
            }
            StageState::Baseline { case } => {
                assert!(self.current.is_none(), "a case is already in flight");
                let spec = case_spec(&self.gw.plan, case);
                self.current = Some(begin_case(&mut self.gw, &spec));
            }
            StageState::Submit { .. } => {
                let case = self.current.as_mut().expect("baseline stage first");
                submit_case(&mut self.gw, case);
            }
            StageState::Retest { .. } => {
                let case = self.current.take().expect("submit stage first");
                self.results.push(retest_case(&self.gw, case));
            }
            // Generated campaigns have no characterization stage; the
            // scheduler still visits the boundary so checkpoints share
            // one canonical sequence with paper campaigns.
            StageState::Characterize => {}
            // The scheduler never executes these.
            StageState::Wait { .. } | StageState::Done => {}
        }
        StepOutcome::Complete
    }

    // The scheduler announces a wait only after its case's submit stage.
    #[allow(clippy::expect_used)]
    fn wait_deadline_secs(&mut self, _case: usize) -> u64 {
        let case = self.current.as_ref().expect("submit stage first");
        announce_wait(&self.gw, case)
    }

    fn advance_to_secs(&mut self, deadline_secs: u64) {
        let now = self.gw.net.now().secs();
        if deadline_secs > now {
            self.gw.net.advance_secs(deadline_secs - now);
        }
    }

    fn case_checkpoint(&self, case: usize) -> CaseCkpt {
        CaseCkpt::from_result(case, &self.results[case])
    }

    fn stage_vantage(&self, stage: &StageState) -> Option<String> {
        stage.case().map(|c| format!("dep{c}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign;
    use filterwatch_orchestrator::{run_orchestrated, CampaignCheckpoint};

    #[test]
    fn generated_descriptors_only() {
        let err = GeneratedDriver::new(CampaignDescriptor::new(CampaignKind::Demo, 5));
        assert!(err.is_err());
    }

    #[test]
    fn trace_flag_is_refused_by_name() {
        let traced = CampaignDescriptor::new(CampaignKind::Generated, 5).with_trace();
        match GeneratedDriver::new(traced) {
            Ok(_) => panic!("a generated:5:trace descriptor built a driver"),
            Err(err) => assert!(err.contains("trace flag: generated:5:trace"), "{err}"),
        }
        let chaos = CampaignDescriptor::new(CampaignKind::Generated, 5).with_chaos();
        assert!(GeneratedDriver::new(chaos).is_ok());
    }

    #[test]
    fn orchestrated_run_matches_linear_runner() {
        let seed = 3;
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed);
        let driver = GeneratedDriver::new(descriptor).expect("generated driver");
        let (driver, checkpoints) = run_orchestrated(driver).expect("generated run");
        let linear = run_campaign(&plan_for_seed(seed));
        assert_eq!(driver.into_report().stable_text(), linear.stable_text());
        // 1 initial + identify→baseline + 4 per case + characterize→done.
        let deployments = plan_for_seed(seed).deployments.len();
        assert_eq!(checkpoints.len(), 3 + 4 * deployments);

        // Case checkpoints record what the retest saw: the quorum trials
        // of this faulted plan's clients, and no attribution for case 0,
        // which blocked nothing.
        let last = checkpoints.last().expect("the run wrote checkpoints");
        let cases = CampaignCheckpoint::parse_line(last)
            .expect("own checkpoint parses")
            .cases;
        assert_eq!(cases.len(), deployments);
        for case in &cases {
            assert!(case.quality.quorum_trials > 0, "{}", case.to_line());
        }
        let quiet = &cases[0];
        assert_eq!((quiet.submitted_blocked, quiet.holdout_blocked), (0, 0));
        assert!(quiet.attributed.is_empty(), "{}", quiet.to_line());
    }
}
