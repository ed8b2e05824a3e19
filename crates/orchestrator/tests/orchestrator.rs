//! Scheduler and crash-recovery integration tests.
//!
//! The acceptance battery for the orchestrator: concurrent scheduling
//! and rate limits must never change what a campaign measures
//! (identify/confirm tables byte-identical to the linear
//! `Campaign::run`), a campaign killed at *every* checkpoint boundary
//! must resume to byte-identical tables, and a wedged vantage must
//! quarantine without stalling the campaigns scheduled around it.

use std::cell::RefCell;
use std::rc::Rc;

use filterwatch_core::campaign::{Campaign, CampaignReport};
use filterwatch_orchestrator::{
    resume_orchestrated, run_orchestrated, CampaignCheckpoint, CampaignDescriptor, CampaignKind,
    CampaignStatus, CaseCkpt, CrashPlan, Orchestrator, Outcome, PaperDriver, ResumeError,
    StageDriver, StageState, StallPlan, StallingDriver, StepOutcome,
};
use filterwatch_telemetry::wire::Wire;
use filterwatch_trace::{render_profile, ProvenanceIndex, StepKind};

/// The workspace's default world seed.
const SEED: u64 = 5;

fn demo_descriptor(seed: u64) -> CampaignDescriptor {
    CampaignDescriptor::new(CampaignKind::Demo, seed)
}

fn run_paper_campaign(
    descriptor: CampaignDescriptor,
) -> Result<(CampaignReport, Vec<String>), String> {
    let (driver, checkpoints) = run_orchestrated(PaperDriver::new(descriptor)?)?;
    Ok((driver.into_report(), checkpoints))
}

fn resume_paper_campaign(line: &str) -> Result<CampaignReport, ResumeError> {
    resume_orchestrated(line, PaperDriver::new).map(PaperDriver::into_report)
}

fn sequential_tables(seed: u64) -> (String, String) {
    let report = Campaign::demo(seed).run();
    (report.identify_table(), report.confirm_table())
}

#[test]
fn concurrent_campaigns_match_sequential_runs() {
    let seeds = [5u64, 6, 7];
    let drivers: Vec<PaperDriver> = seeds
        .iter()
        .map(|&s| PaperDriver::new(demo_descriptor(s)).expect("demo driver"))
        .collect();
    let mut orch = Orchestrator::new(drivers);
    assert_eq!(orch.run(), Outcome::Complete);
    for (i, (driver, status)) in orch.into_drivers().into_iter().enumerate() {
        assert_eq!(status, CampaignStatus::Done, "campaign {i}");
        let report = driver.into_report();
        let (identify, confirm) = sequential_tables(seeds[i]);
        assert_eq!(report.identify_table(), identify, "seed {}", seeds[i]);
        assert_eq!(report.confirm_table(), confirm, "seed {}", seeds[i]);
    }
}

#[test]
fn rate_limits_defer_work_without_changing_tables() {
    // Demo campaigns at different seeds share their case-study ISPs,
    // so a per-vantage limit of one forces real deferrals.
    let seeds = [5u64, 6];
    let drivers: Vec<PaperDriver> = seeds
        .iter()
        .map(|&s| PaperDriver::new(demo_descriptor(s)).expect("demo driver"))
        .collect();
    let mut orch = Orchestrator::new(drivers).with_rate_limit(1);
    assert_eq!(orch.run(), Outcome::Complete);
    for (i, (driver, status)) in orch.into_drivers().into_iter().enumerate() {
        assert_eq!(status, CampaignStatus::Done, "campaign {i}");
        let report = driver.into_report();
        let (identify, confirm) = sequential_tables(seeds[i]);
        assert_eq!(report.identify_table(), identify, "seed {}", seeds[i]);
        assert_eq!(report.confirm_table(), confirm, "seed {}", seeds[i]);
    }
}

#[test]
fn wedged_campaign_quarantines_without_stalling_others() {
    let wedged = StallingDriver::new(
        PaperDriver::new(demo_descriptor(5)).expect("demo driver"),
        StallPlan::forever(StageState::Submit { case: 0 }),
    );
    let healthy = StallingDriver::new(
        PaperDriver::new(demo_descriptor(6)).expect("demo driver"),
        StallPlan::at_stage(StageState::Done, 0),
    );
    let mut orch = Orchestrator::with_stages(vec![
        (wedged, StageState::Identify),
        (healthy, StageState::Identify),
    ]);
    assert_eq!(orch.run(), Outcome::Complete);

    let statuses = orch.statuses();
    assert_eq!(
        statuses[0],
        CampaignStatus::Quarantined {
            stage: "submit:0".to_string()
        }
    );
    assert_eq!(statuses[1], CampaignStatus::Done);

    // The quarantined campaign's last checkpoint is the boundary it
    // wedged at — still resumable, e.g. from a healthier vantage.
    let last = orch
        .checkpoints(0)
        .last()
        .expect("quarantined campaign has checkpoints")
        .clone();
    let parsed = CampaignCheckpoint::parse_line(&last).expect("valid checkpoint");
    assert_eq!(parsed.stage, StageState::Submit { case: 0 });

    // The healthy campaign's tables are untouched by its neighbour.
    let (_, healthy_status) = orch.into_drivers().pop().expect("two campaigns");
    assert_eq!(healthy_status, CampaignStatus::Done);
    let rerun = resume_paper_campaign(&last).expect("resume quarantined campaign");
    let (identify, confirm) = sequential_tables(5);
    assert_eq!(rerun.identify_table(), identify);
    assert_eq!(rerun.confirm_table(), confirm);
}

/// A [`StageDriver`] wrapper that appends its campaign id to a shared
/// log each time the scheduler fires its wait deadline.
struct WakeLog<D> {
    inner: D,
    id: usize,
    wakes: Rc<RefCell<Vec<usize>>>,
}

impl<D: StageDriver> StageDriver for WakeLog<D> {
    fn descriptor(&self) -> &CampaignDescriptor {
        self.inner.descriptor()
    }

    fn case_count(&self) -> usize {
        self.inner.case_count()
    }

    fn completed_cases(&self) -> usize {
        self.inner.completed_cases()
    }

    fn now_secs(&self) -> u64 {
        self.inner.now_secs()
    }

    fn execute(&mut self, stage: &StageState) -> StepOutcome {
        self.inner.execute(stage)
    }

    fn wait_deadline_secs(&mut self, case: usize) -> u64 {
        self.inner.wait_deadline_secs(case)
    }

    fn advance_to_secs(&mut self, deadline_secs: u64) {
        self.inner.advance_to_secs(deadline_secs)
    }

    fn case_checkpoint(&self, case: usize) -> CaseCkpt {
        self.inner.case_checkpoint(case)
    }

    fn stage_vantage(&self, stage: &StageState) -> Option<String> {
        self.inner.stage_vantage(stage)
    }

    fn on_timer_fire(&mut self, case: usize, deadline_secs: u64) {
        self.wakes.borrow_mut().push(self.id);
        self.inner.on_timer_fire(case, deadline_secs)
    }
}

/// Campaigns parked on one deadline wake in the order they parked, not
/// in id order. Campaign 0 stalls one poll at its first submission, so
/// campaign 1, at the same seed, parks on the same deadline first.
#[test]
fn same_deadline_wakes_in_park_order() {
    let wakes = Rc::new(RefCell::new(Vec::new()));
    let campaign = |id: usize, stalls: u64| WakeLog {
        inner: StallingDriver::new(
            PaperDriver::new(demo_descriptor(SEED)).expect("demo driver"),
            StallPlan::at_stage(StageState::Submit { case: 0 }, stalls),
        ),
        id,
        wakes: Rc::clone(&wakes),
    };
    let mut orch = Orchestrator::new(vec![campaign(0, 1), campaign(1, 0)]);
    assert_eq!(orch.run(), Outcome::Complete);
    assert_eq!(
        orch.statuses(),
        vec![CampaignStatus::Done, CampaignStatus::Done]
    );

    // A stall moves no clock, so both campaigns wrote the same
    // checkpoints: they parked case 0 on one deadline.
    assert_eq!(orch.checkpoints(0), orch.checkpoints(1));

    // One wake per case per campaign; case 0's wakes in park order.
    let wakes = wakes.borrow();
    assert_eq!(wakes.len(), 8, "{wakes:?}");
    assert_eq!(wakes[..2], [1, 0], "{wakes:?}");
}

#[test]
fn crash_at_every_checkpoint_resumes_byte_identical() {
    let descriptor = demo_descriptor(SEED);
    let (reference, checkpoints) =
        run_paper_campaign(descriptor.clone()).expect("uninterrupted run");
    let ref_identify = reference.identify_table();
    let ref_confirm = reference.confirm_table();

    // The orchestrated run itself must match the linear driver.
    let (identify, confirm) = sequential_tables(SEED);
    assert_eq!(ref_identify, identify);
    assert_eq!(ref_confirm, confirm);

    // A demo campaign (4 cases) visits 19 boundaries: the initial
    // Identify checkpoint, four per case, Characterize and Done.
    assert_eq!(checkpoints.len(), 19);
    assert!(checkpoints[0].contains("stage:identify"));
    assert!(checkpoints.iter().any(|c| c.contains("stage:wait:")));
    assert!(checkpoints
        .last()
        .expect("non-empty")
        .contains("stage:done"));

    for step in 0..checkpoints.len() as u64 {
        let driver = PaperDriver::new(descriptor.clone()).expect("demo driver");
        let mut orch = Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(step));
        assert_eq!(
            orch.run(),
            Outcome::Crashed {
                at_checkpoint: step
            }
        );
        let last = orch
            .checkpoints(0)
            .last()
            .expect("crashed campaign wrote checkpoints");
        assert_eq!(last, &checkpoints[step as usize]);
        let resumed = resume_paper_campaign(last)
            .unwrap_or_else(|e| panic!("resume after crash at step {step}: {e}"));
        assert_eq!(
            resumed.identify_table(),
            ref_identify,
            "identify table diverged resuming from step {step}"
        );
        assert_eq!(
            resumed.confirm_table(),
            ref_confirm,
            "confirm table diverged resuming from step {step}"
        );
    }
}

#[test]
fn tampered_checkpoint_never_resumes() {
    let (_, checkpoints) = run_paper_campaign(demo_descriptor(SEED)).expect("uninterrupted run");
    let line = &checkpoints[3];
    let tampered = line.replace("clock:", "clock:9");
    assert!(resume_paper_campaign(&tampered).is_err());
}

/// A checkpoint line truncated anywhere, or with any one bit flipped,
/// fails to resume with a parse error that names the `digest` field.
#[test]
fn damaged_checkpoints_fail_on_the_digest_field() {
    let (_, checkpoints) = run_paper_campaign(demo_descriptor(SEED)).expect("uninterrupted run");
    let line = checkpoints
        .iter()
        .max_by_key(|l| l.len())
        .expect("the run wrote checkpoints");
    let mut damaged: Vec<String> = (0..line.len()).map(|end| line[..end].to_string()).collect();
    for pos in 0..line.len() {
        let mut bytes = line.clone().into_bytes();
        bytes[pos] ^= 1;
        damaged.push(String::from_utf8(bytes).expect("ASCII stays UTF-8"));
    }
    for bad in &damaged {
        match resume_paper_campaign(bad) {
            Err(ResumeError::Parse(e)) => assert_eq!(e.field, "digest", "{bad:?}: {e}"),
            other => panic!("{bad:?} resumed as {:?}", other.err()),
        }
    }
}

#[test]
fn resumed_campaign_traces_scheduler_ancestry() {
    let descriptor = demo_descriptor(SEED).with_trace();
    // Crash right after the first Wait checkpoint (boundary index 3:
    // identify, baseline:0, submit:0, wait:0).
    let driver = PaperDriver::new(descriptor.clone()).expect("demo driver");
    let mut orch = Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(3));
    assert_eq!(orch.run(), Outcome::Crashed { at_checkpoint: 3 });
    let last = orch
        .checkpoints(0)
        .last()
        .expect("crashed campaign wrote checkpoints")
        .clone();
    assert!(last.contains("stage:wait:0:"));

    let resumed = resume_paper_campaign(&last).expect("resume traced campaign");

    // The trace carries the scheduler's causal steps...
    let has = |kind: StepKind| resumed.trace.iter().any(|e| e.step == kind);
    assert!(has(StepKind::Resume), "trace lacks a resume span");
    assert!(has(StepKind::Checkpoint), "trace lacks checkpoint points");
    assert!(has(StepKind::SchedTimer), "trace lacks timer-fire points");

    // ...the profile rolls them up...
    let profile = render_profile(&resumed.trace);
    assert!(profile.contains("resume"), "profile: {profile}");
    assert!(profile.contains("sched-timer"), "profile: {profile}");
    assert!(profile.contains("checkpoint"), "profile: {profile}");

    // ...and `explain` shows the restore in some verdict's ancestry:
    // the resume span stays open under the case scope, so post-restore
    // retests nest beneath it.
    let index = ProvenanceIndex::build(&resumed.trace);
    let explained = index
        .urls()
        .iter()
        .filter_map(|url| index.explain(url))
        .any(|text| text.contains("resume"));
    assert!(explained, "no explain artifact shows the resume ancestry");

    // Telemetry mirrors the same story: wait spans and scheduler events.
    assert!(resumed
        .telemetry
        .spans
        .iter()
        .any(|s| s.stage == "sched.wait" && s.closed));
    assert!(resumed
        .telemetry
        .events
        .iter()
        .any(|e| e.kind == "sched.resume"));
    assert!(resumed
        .telemetry
        .events
        .iter()
        .any(|e| e.kind == "sched.checkpoint"));

    // And the tables still match the untraced, uninterrupted run.
    let (identify, confirm) = sequential_tables(SEED);
    assert_eq!(resumed.identify_table(), identify);
    assert_eq!(resumed.confirm_table(), confirm);
}
