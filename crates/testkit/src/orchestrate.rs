//! Generated-world campaigns under the orchestrator.
//!
//! [`GeneratedDriver`] adapts the [`runner`](crate::runner) stage
//! functions to the orchestrator's
//! [`StageDriver`](filterwatch_orchestrator::StageDriver) surface, so a
//! generated campaign runs as a crash-safe resumable state machine: the
//! scheduler owns the transitions and the checkpoints, the driver owns
//! the world. A `generated:<seed>` descriptor rebuilds the plan through
//! [`plan_for_seed`], which keeps checkpoints self-contained — the
//! whole campaign identity is one short wire line.
//!
//! The crash-recovery battery (`tests/crashrecovery.rs`) kills one of
//! these at every checkpoint boundary across the seed battery and
//! byte-compares the resumed [`GeneratedReport::comparable_text`]
//! against the uninterrupted run's.

use filterwatch_measure::{MeasurementQuality, ResilienceConfig};
use filterwatch_orchestrator::{
    replay, CampaignCheckpoint, CampaignDescriptor, CampaignKind, CampaignStatus, CaseCkpt,
    Orchestrator, Outcome, ResumeError, StageDriver, StageState, StepOutcome,
};

use filterwatch_telemetry::wire::{Wire, WireError};

use crate::runner::{
    baseline_stage, identify_stage, retest_stage, submit_stage, sweep_stage, CaseInFlight,
    CaseOutcome, GeneratedReport, RunConfig, WAIT_DAYS,
};
use crate::strategies::plan_for_seed;
use crate::worldgen::{build_world, GeneratedWorld};

/// [`StageDriver`] over a generated world: the testkit's counterpart
/// to the orchestrator's `PaperDriver`.
pub struct GeneratedDriver {
    descriptor: CampaignDescriptor,
    config: RunConfig,
    gw: GeneratedWorld,
    topology_digest: u64,
    identify_table: String,
    list_lines: Vec<String>,
    cases: Vec<CaseOutcome>,
    current: Option<CaseInFlight>,
}

impl GeneratedDriver {
    /// Rebuild the descriptor's generated world. Fails unless the
    /// descriptor is `generated:<seed>`.
    pub fn new(descriptor: CampaignDescriptor) -> Result<GeneratedDriver, String> {
        if descriptor.kind != CampaignKind::Generated {
            return Err(format!(
                "not a generated-campaign descriptor: {}",
                descriptor.to_line()
            ));
        }
        let plan = plan_for_seed(descriptor.seed);
        let mut config = RunConfig::for_plan(&plan);
        if descriptor.chaos {
            config.resilience = ResilienceConfig::chaos();
        }
        let gw = build_world(&plan);
        let topology_digest = gw.net.topology_digest();
        Ok(GeneratedDriver {
            descriptor,
            config,
            gw,
            topology_digest,
            identify_table: String::new(),
            list_lines: Vec::new(),
            cases: Vec::new(),
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
            cases: self.cases,
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
        self.cases.len()
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
                self.current = Some(baseline_stage(&mut self.gw, case));
            }
            StageState::Submit { .. } => {
                let mut case = self.current.take().expect("baseline stage first");
                submit_stage(&mut self.gw, &mut case);
                self.current = Some(case);
            }
            StageState::Retest { .. } => {
                let case = self.current.take().expect("submit stage first");
                self.cases.push(retest_stage(&self.gw, &self.config, case));
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

    fn wait_deadline_secs(&mut self, _case: usize) -> u64 {
        self.gw.net.now().plus_days(WAIT_DAYS).secs()
    }

    fn advance_to_secs(&mut self, deadline_secs: u64) {
        let now = self.gw.net.now().secs();
        if deadline_secs > now {
            self.gw.net.advance_secs(deadline_secs - now);
        }
    }

    fn case_checkpoint(&self, case: usize) -> CaseCkpt {
        let c = &self.cases[case];
        CaseCkpt {
            index: case,
            // Generated campaigns don't pre-verify; the sweep covers
            // the pre-submission picture instead.
            accessible_before: None,
            submissions_accepted: c.submissions_accepted,
            submitted_blocked: c.submitted_blocked,
            holdout_blocked: c.holdout_blocked,
            retest_inconclusive: c.retest_inconclusive,
            confirmed: c.confirmed,
            attributed: vec![c.product.slug().to_string()],
            quality: MeasurementQuality::default(),
        }
    }

    fn stage_vantage(&self, stage: &StageState) -> Option<String> {
        stage.case().map(|c| format!("dep{c}"))
    }
}

/// Run one generated campaign under the orchestrator, uninterrupted,
/// returning its report plus every checkpoint line the run wrote.
pub fn run_generated_campaign(
    descriptor: CampaignDescriptor,
) -> Result<(GeneratedReport, Vec<String>), String> {
    let driver = GeneratedDriver::new(descriptor)?;
    let mut orch = Orchestrator::new(vec![driver]);
    match orch.run() {
        Outcome::Complete => {}
        Outcome::Crashed { at_checkpoint } => {
            return Err(format!(
                "unexpected crash at checkpoint {at_checkpoint} with no crash plan"
            ))
        }
    }
    let checkpoints = orch.checkpoints(0).to_vec();
    let mut drivers = orch.into_drivers();
    match drivers.pop() {
        Some((driver, CampaignStatus::Done)) => Ok((driver.into_report(), checkpoints)),
        Some((_, status)) => Err(format!("campaign did not finish: {status:?}")),
        None => Err("no campaign scheduled".to_string()),
    }
}

/// Restore a generated campaign from a checkpoint line and run it to
/// completion. The resumed [`GeneratedReport::comparable_text`] is
/// byte-identical to the uninterrupted run's.
pub fn resume_generated_campaign(checkpoint_line: &str) -> Result<GeneratedReport, ResumeError> {
    let ckpt = CampaignCheckpoint::parse_line(checkpoint_line).map_err(ResumeError::Parse)?;
    let mut driver = GeneratedDriver::new(ckpt.descriptor.clone())
        .map_err(|e| ResumeError::Parse(WireError::new("campaign", e)))?;
    let stage = replay(&mut driver, &ckpt)?;
    let mut orch = Orchestrator::with_stages(vec![(driver, stage)]);
    match orch.run() {
        Outcome::Complete => {}
        Outcome::Crashed { at_checkpoint } => {
            return Err(ResumeError::Drift(format!(
                "unexpected crash at checkpoint {at_checkpoint} with no crash plan"
            )))
        }
    }
    let mut drivers = orch.into_drivers();
    match drivers.pop() {
        Some((driver, CampaignStatus::Done)) => Ok(driver.into_report()),
        Some((_, status)) => Err(ResumeError::Drift(format!(
            "resumed campaign did not finish: {status:?}"
        ))),
        None => Err(ResumeError::Drift("no campaign scheduled".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign;

    #[test]
    fn generated_descriptors_only() {
        let err = GeneratedDriver::new(CampaignDescriptor::new(CampaignKind::Demo, 5));
        assert!(err.is_err());
    }

    #[test]
    fn orchestrated_run_matches_linear_runner() {
        let seed = 3;
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed);
        let (report, checkpoints) = run_generated_campaign(descriptor).expect("generated run");
        let linear = run_campaign(&plan_for_seed(seed));
        assert_eq!(report.stable_text(), linear.stable_text());
        // 1 initial + identify→baseline + 4 per case + characterize→done.
        let deployments = plan_for_seed(seed).deployments.len();
        assert_eq!(checkpoints.len(), 3 + 4 * deployments);
    }
}
