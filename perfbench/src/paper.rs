//! The `paper` workload: the paper's own campaign, checkpointed.
//!
//! Each campaign is `Campaign::standard` on a fresh paper world (all
//! ten Table 3 case studies, then Table 4 characterization of the
//! confirmed ISPs), driven by the crash-safe `Orchestrator` through
//! `PaperDriver`. Its verdict output (identify and confirm tables) must
//! match an untimed linear `Campaign::standard(seed).run()`.

use std::time::Instant;

use filterwatch_core::campaign::{Campaign, CampaignReport};
use filterwatch_orchestrator::{
    CampaignDescriptor, CampaignKind, CampaignStatus, CaseCkpt, Orchestrator, Outcome, PaperDriver,
    StageDriver, StageState, StepOutcome,
};

use crate::layers::{record_report_counts, span, StageClock, WorldSize};
use crate::{probe, world_seeds, Bench, Sample, Sizes};

/// The identify and confirm tables: what the campaign is checked on.
pub fn verdict_output(report: &CampaignReport) -> String {
    format!("{}\n{}", report.identify_table(), report.confirm_table())
}

/// The `paper` workload's inputs and reference outputs.
pub struct PaperBench {
    seeds: Vec<u64>,
    references: Vec<String>,
    sizes: Vec<WorldSize>,
}

impl PaperBench {
    /// Derive the world seeds and compute each one's reference output
    /// with the linear, unorchestrated campaign.
    pub fn new(seed: u64, sizes: &Sizes) -> PaperBench {
        let seeds = world_seeds(seed, sizes.world_seeds);
        let references = seeds
            .iter()
            .map(|&s| verdict_output(&Campaign::standard(s).run()))
            .collect();
        let sizes = seeds
            .iter()
            .map(|&s| WorldSize::of_paper_world(Campaign::standard(s).options))
            .collect();
        PaperBench {
            seeds,
            references,
            sizes,
        }
    }
}

impl Bench for PaperBench {
    fn campaign(&mut self, world: usize, traced: bool) -> Sample {
        let slot = world % self.seeds.len();
        let descriptor = CampaignDescriptor::new(CampaignKind::Standard, self.seeds[slot]);

        let probe_s = probe::time();
        let t0 = Instant::now();
        let driver = PaperDriver::new(descriptor).expect("standard descriptors always build");
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (report, orchestrated, checkpoints, mut clock) = if traced {
            let telemetry = driver.run().telemetry().clone();
            let timed = TimedDriver {
                inner: driver,
                clock: StageClock::new(telemetry),
                execute_s: 0.0,
            };
            let t_run = Instant::now();
            let (timed, ok, checkpoints) = orchestrate(timed);
            let run_s = t_run.elapsed().as_secs_f64();
            let TimedDriver {
                inner,
                mut clock,
                execute_s,
            } = timed;
            clock.tally.add("orchestrator.self_s", run_s - execute_s);
            let report = clock.span("core.finish_s", || inner.into_report());
            (report, ok, checkpoints, Some(clock))
        } else {
            let (driver, ok, checkpoints) = orchestrate(driver);
            (driver.into_report(), ok, checkpoints, None)
        };
        let output = span(&mut clock, "core.finish_s", || verdict_output(&report));
        let campaign_s = t1.elapsed().as_secs_f64();

        let layers = clock.map(|clock| {
            let mut tally = clock.tally;
            record_report_counts(&mut tally, &report);
            self.sizes[slot].record(&mut tally);
            tally.add("world.build_s", setup_s);
            tally.add("orchestrator.checkpoints", checkpoints.len() as f64);
            let bytes: usize = checkpoints.iter().map(String::len).sum();
            tally.add("orchestrator.checkpoint_bytes", bytes as f64);
            tally
        });
        Sample {
            probe_s,
            setup_s,
            campaign_s,
            verdicts: report.quality.verdicts,
            inconclusive: report.quality.inconclusive,
            ok: orchestrated && output == self.references[slot],
            layers,
        }
    }

    fn reference_outputs(&self) -> Vec<&str> {
        self.references.iter().map(String::as_str).collect()
    }
}

/// Run one campaign to completion under the orchestrator. Returns the
/// driver, whether it finished cleanly, and its checkpoint lines.
fn orchestrate<D: StageDriver>(driver: D) -> (D, bool, Vec<String>) {
    let mut orch = Orchestrator::new(vec![driver]);
    let outcome = orch.run();
    let checkpoints = orch.checkpoints(0).to_vec();
    let (driver, status) = orch
        .into_drivers()
        .pop()
        .expect("one campaign was scheduled");
    let ok = outcome == Outcome::Complete && status == CampaignStatus::Done;
    (driver, ok, checkpoints)
}

/// The traced run's `StageDriver` wrapper: times `PaperDriver::execute`
/// per stage. Everything else `Orchestrator::run` does (transitions,
/// timer wheel, checkpoint lines, the driver's hooks) is the
/// orchestrator's self time.
struct TimedDriver {
    inner: PaperDriver,
    clock: StageClock,
    /// Wall time spent in `execute`, including the clock's reads.
    execute_s: f64,
}

impl StageDriver for TimedDriver {
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
        let layer = match stage {
            StageState::Identify => "core.identify_s",
            StageState::Baseline { .. } => "core.baseline_s",
            StageState::Submit { .. } => "core.submit_s",
            StageState::Retest { .. } => "core.retest_s",
            StageState::Characterize => "core.characterize_s",
            StageState::Wait { .. } | StageState::Done => "orchestrator.self_s",
        };
        let t = Instant::now();
        let inner = &mut self.inner;
        let out = self.clock.span(layer, || inner.execute(stage));
        self.execute_s += t.elapsed().as_secs_f64();
        out
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

    fn on_checkpoint(&mut self, stage: &StageState) {
        self.inner.on_checkpoint(stage)
    }

    fn on_resume(&mut self, stage: &StageState) {
        self.inner.on_resume(stage)
    }

    fn on_timer_fire(&mut self, case: usize, deadline_secs: u64) {
        self.inner.on_timer_fire(case, deadline_secs)
    }
}
