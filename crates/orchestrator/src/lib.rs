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
//! many campaigns concurrently, parking `Wait` stages in a deadline
//! map instead of blocking.
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
pub use scheduler::{CampaignStatus, CrashPlan, Orchestrator, Outcome};
pub use stage::{CampaignDescriptor, CampaignKind, StageHead, StageState};

use filterwatch_telemetry::wire::{Wire, WireError};

/// Run one campaign under the orchestrator, uninterrupted, and return
/// its finished driver plus every checkpoint line the run wrote. The
/// driver's report is byte-identical to the linear run's at the same
/// descriptor: the orchestrator changes *when* stages run, never what
/// they measure.
pub fn run_orchestrated<D: StageDriver>(driver: D) -> Result<(D, Vec<String>), String> {
    run_to_done(Orchestrator::new(vec![driver]))
}

/// Restore a campaign from a checkpoint line, with `build` turning the
/// line's descriptor into a fresh driver (`PaperDriver::new`, or the
/// testkit's `GeneratedDriver::new`), run it to completion, and return
/// the finished driver. Its report is byte-identical to the
/// uninterrupted run's.
pub fn resume_orchestrated<D: StageDriver>(
    checkpoint_line: &str,
    build: impl FnOnce(CampaignDescriptor) -> Result<D, String>,
) -> Result<D, ResumeError> {
    let ckpt = CampaignCheckpoint::parse_line(checkpoint_line).map_err(ResumeError::Parse)?;
    let mut driver = build(ckpt.descriptor.clone())
        .map_err(|e| ResumeError::Parse(WireError::new("campaign", e)))?;
    let stage = replay(&mut driver, &ckpt)?;
    run_to_done(Orchestrator::with_stages(vec![(driver, stage)]))
        .map(|(driver, _)| driver)
        .map_err(ResumeError::Drift)
}

/// Drive a one-campaign orchestrator to `Done`.
fn run_to_done<D: StageDriver>(mut orch: Orchestrator<D>) -> Result<(D, Vec<String>), String> {
    if let Outcome::Crashed { at_checkpoint } = orch.run() {
        return Err(format!(
            "unexpected crash at checkpoint {at_checkpoint} with no crash plan"
        ));
    }
    let checkpoints = orch.checkpoints(0).to_vec();
    match orch.into_drivers().pop() {
        Some((driver, CampaignStatus::Done)) => Ok((driver, checkpoints)),
        Some((_, status)) => Err(format!("campaign did not finish: {status:?}")),
        None => Err("no campaign scheduled".to_string()),
    }
}
