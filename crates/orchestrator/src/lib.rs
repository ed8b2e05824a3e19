//! Crash-safe resumable campaign state machines.
//!
//! The paper's confirm stage is inherently long-running: submit a URL
//! subset to the vendor, wait 3–5 days, retest (§5). The core crate
//! runs that as one linear in-memory loop, so an interruption loses
//! the whole campaign. This crate reifies a campaign as an explicit
//! state machine over typed stages —
//!
//! ```text
//! Identify → Baseline(c) → Submit(c) → Wait(c, deadline) → Retest(c) ─┐
//!               ↑ ───────────────── next case ──────────────────────── ┘
//!                                  → Characterize → Done
//! ```
//!
//! — driven by a virtual-time scheduler ([`Orchestrator`]) that runs
//! many campaigns concurrently, parking `Wait` stages on a deadline
//! [`EventQueue`](filterwatch_netsim::EventQueue) instead of blocking.
//! Every stage transition writes a [`CampaignCheckpoint`] line through
//! the workspace's one [`Wire`] codec; a campaign
//! killed at any boundary restores via [`replay`] to byte-identical
//! identify/confirm tables. Supervision handles the unreliable-vantage
//! reality: [`CrashPlan`] injects deterministic crashes for the
//! recovery battery, a watchdog quarantines campaigns wedged past
//! their stall budget as `Inconclusive` (reusing the measure crate's
//! [`CircuitBreaker`](filterwatch_measure::CircuitBreaker)), and
//! per-vantage rate limits spread concurrent campaigns' load without
//! ever touching their world clocks.

pub mod checkpoint;
pub mod driver;
pub mod resume;
pub mod scheduler;
pub mod stage;

pub use checkpoint::{CampaignCheckpoint, CaseCkpt};
pub use driver::{PaperDriver, StageDriver, StallPlan, StallingDriver, StepOutcome};
pub use resume::{replay, ResumeError};
pub use scheduler::{CampaignStatus, CrashPlan, Orchestrator, Outcome, WatchdogConfig};
pub use stage::{CampaignDescriptor, CampaignKind, StageHead, StageState};

use filterwatch_core::campaign::CampaignReport;
use filterwatch_telemetry::wire::{Wire, WireError};

/// Run one paper campaign (standard or demo) under the orchestrator,
/// uninterrupted, returning its report plus every checkpoint line the
/// run wrote. The tables in the report are byte-identical to
/// [`Campaign::run`](filterwatch_core::campaign::Campaign::run) at the
/// same descriptor — the orchestrator changes *when* stages run, never
/// what they measure.
pub fn run_paper_campaign(
    descriptor: CampaignDescriptor,
) -> Result<(CampaignReport, Vec<String>), String> {
    let driver = PaperDriver::new(descriptor)?;
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

/// Restore a paper campaign from a checkpoint line, run it to
/// completion, and return its report. The identify/confirm tables are
/// byte-identical to the uninterrupted run's.
pub fn resume_paper_campaign(checkpoint_line: &str) -> Result<CampaignReport, ResumeError> {
    let ckpt = CampaignCheckpoint::parse_line(checkpoint_line).map_err(ResumeError::Parse)?;
    let mut driver = PaperDriver::new(ckpt.descriptor.clone())
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
