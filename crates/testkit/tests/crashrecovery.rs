//! The crash-recovery differential battery.
//!
//! For every seed in the battery, run a generated campaign
//! uninterrupted under the orchestrator, then kill a fresh copy at
//! EVERY checkpoint boundary, resume each corpse from its last
//! checkpoint line, and byte-compare the resumed
//! `comparable_text` against the uninterrupted run's. Any divergence —
//! a stage replayed out of order, a clock advanced twice, RNG drawn
//! during restore — fails with the boundary that exposed it.
//!
//! The sweep honours `FILTERWATCH_SEEDS` (comma-separated) so CI can
//! widen or narrow the battery without a code change. A fixed handful
//! of `generated:<seed>:chaos` descriptors runs the same kill-and-resume
//! sweep with every client on the chaos resilience profile.

use filterwatch_measure::ResilienceConfig;
use filterwatch_orchestrator::{
    resume_orchestrated, run_orchestrated, CampaignCheckpoint, CampaignDescriptor, CampaignKind,
    CrashPlan, Orchestrator, Outcome, ResumeError,
};
use filterwatch_telemetry::wire::Wire;
use filterwatch_testkit::{
    plan_for_seed, run_campaign_with, seeds_from_env, GeneratedDriver, GeneratedReport, RunConfig,
};

const BATTERY: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// Chaos descriptors for two clean plans, whose own configuration is
/// passthrough, and one faulted plan.
const CHAOS_BATTERY: &[u64] = &[0, 1, 3];

fn run_uninterrupted(
    descriptor: &CampaignDescriptor,
) -> Result<(GeneratedReport, Vec<String>), String> {
    let (driver, checkpoints) = run_orchestrated(GeneratedDriver::new(descriptor.clone())?)?;
    Ok((driver.into_report(), checkpoints))
}

/// Run the campaign uninterrupted and check it against the linear
/// runner under `config`, then kill a fresh copy right after each of
/// its checkpoints in turn, resume it from that line, and compare the
/// resumed `comparable_text`. Returns the uninterrupted run's last
/// checkpoint.
fn kill_at_every_boundary(
    descriptor: CampaignDescriptor,
    config: &RunConfig,
) -> Result<CampaignCheckpoint, String> {
    let name = descriptor.to_line();
    let (reference, checkpoints) = run_uninterrupted(&descriptor)?;
    let want = reference.comparable_text();
    let linear = run_campaign_with(&plan_for_seed(descriptor.seed), config).comparable_text();
    assert_eq!(want, linear, "{name}: orchestrator changed verdicts");
    for (step, line) in (0u64..).zip(&checkpoints) {
        let driver = GeneratedDriver::new(descriptor.clone())?;
        let mut orch = Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(step));
        assert_eq!(
            orch.run(),
            Outcome::Crashed {
                at_checkpoint: step
            },
            "{name}: crash plan missed step {step}"
        );
        assert_eq!(orch.checkpoints(0).last(), Some(line), "{name} step {step}");
        let stage = CampaignCheckpoint::parse_line(line)
            .map_err(|e| e.to_string())?
            .stage;
        let resumed = resume_orchestrated(line, GeneratedDriver::new)
            .map_err(|e| format!("{name}: resume from step {step}: {e}"))?
            .into_report();
        assert_eq!(
            resumed.comparable_text(),
            want,
            "{name}: tables diverged resuming from boundary {step} ({})",
            stage.to_line()
        );
    }
    let last = checkpoints.last().ok_or("the run wrote no checkpoint")?;
    CampaignCheckpoint::parse_line(last).map_err(|e| e.to_string())
}

#[test]
fn kill_at_every_checkpoint_boundary_resumes_byte_identical() {
    for seed in seeds_from_env(BATTERY).expect("seed list") {
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed);
        kill_at_every_boundary(descriptor, &RunConfig::for_plan(&plan_for_seed(seed)))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A chaos descriptor arms every client, the case clients included,
/// with the chaos resilience profile, and resumes byte-identical from
/// every boundary.
#[test]
fn chaos_descriptors_resume_byte_identical_at_every_boundary() {
    let chaos = RunConfig {
        resilience: ResilienceConfig::chaos(),
        telemetry: false,
    };
    for &seed in CHAOS_BATTERY {
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed).with_chaos();
        let last = kill_at_every_boundary(descriptor, &chaos)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for case in &last.cases {
            assert!(
                case.quality.quorum_trials > 0,
                "seed {seed}: {}",
                case.to_line()
            );
        }
    }
}

/// A checkpoint that disagrees with the code replaying it must fail
/// loudly as drift, not quietly produce different tables. Fake the
/// drift by doctoring a recorded case counter and re-signing the line.
#[test]
fn drifted_checkpoints_are_rejected_on_resume() {
    let descriptor = CampaignDescriptor::new(CampaignKind::Generated, 0);
    let (_, checkpoints) = run_uninterrupted(&descriptor).expect("uninterrupted run");
    let with_case = checkpoints
        .iter()
        .rev()
        .find(|c| c.contains("case:0"))
        .expect("some checkpoint records a completed case");
    let mut ckpt = CampaignCheckpoint::parse_line(with_case).expect("valid checkpoint");
    ckpt.cases[0].submitted_blocked += 1;
    match resume_orchestrated(&ckpt.to_line(), GeneratedDriver::new) {
        Err(ResumeError::Drift(_)) => {}
        other => panic!("doctored checkpoint resumed as {:?}", other.err()),
    }
}
