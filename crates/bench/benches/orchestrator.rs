//! The orchestrator's scheduling overhead and checkpoint wire costs.
//!
//! The crash-recovery guarantee is only free if the machinery behind
//! it is: these rungs compare N demo campaigns run back-to-back
//! through the plain linear loop against the same N run concurrently
//! under the checkpointing scheduler (deadline queue, watchdog polling,
//! a checkpoint line per stage transition), and price the checkpoint
//! round-trip and a full kill-and-resume on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use filterwatch_core::campaign::Campaign;
use filterwatch_core::DEFAULT_SEED;
use filterwatch_orchestrator::{
    resume_orchestrated, CampaignCheckpoint, CampaignDescriptor, CampaignKind, CrashPlan,
    Orchestrator, Outcome, PaperDriver,
};
use filterwatch_telemetry::wire::Wire;

const CAMPAIGNS: u64 = 4;

fn demo_drivers() -> Vec<PaperDriver> {
    (0..CAMPAIGNS)
        .map(|i| {
            PaperDriver::new(CampaignDescriptor::new(
                CampaignKind::Demo,
                DEFAULT_SEED + i,
            ))
            .expect("demo driver")
        })
        .collect()
}

fn bench_orchestrator(c: &mut Criterion) {
    c.bench_function("orchestrator/sequential-4-demo-campaigns", |b| {
        b.iter(|| {
            for i in 0..CAMPAIGNS {
                black_box(Campaign::demo(DEFAULT_SEED + i).run());
            }
        })
    });

    c.bench_function("orchestrator/concurrent-4-demo-campaigns", |b| {
        b.iter(|| {
            let mut orch = Orchestrator::new(demo_drivers());
            assert_eq!(orch.run(), Outcome::Complete);
            black_box(orch.into_drivers())
        })
    });

    c.bench_function("orchestrator/checkpoint-roundtrip", |b| {
        // Price one wire round-trip of a mid-campaign checkpoint (the
        // per-transition cost every stage boundary pays).
        let descriptor = CampaignDescriptor::new(CampaignKind::Demo, DEFAULT_SEED);
        let driver = PaperDriver::new(descriptor).expect("demo driver");
        let mut orch = Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(7));
        let Outcome::Crashed { .. } = orch.run() else {
            panic!("crash plan missed");
        };
        let line = orch.checkpoints(0).last().expect("checkpoint").clone();
        b.iter(|| {
            let ckpt = CampaignCheckpoint::parse_line(black_box(&line)).expect("parse");
            black_box(ckpt.to_line())
        })
    });

    c.bench_function("orchestrator/kill-and-resume-demo", |b| {
        // Full recovery path: crash a demo campaign at the second
        // case's Wait boundary, then replay-and-finish from the line.
        let descriptor = CampaignDescriptor::new(CampaignKind::Demo, DEFAULT_SEED);
        let driver = PaperDriver::new(descriptor).expect("demo driver");
        let mut orch = Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(7));
        let Outcome::Crashed { .. } = orch.run() else {
            panic!("crash plan missed");
        };
        let line = orch.checkpoints(0).last().expect("checkpoint").clone();
        b.iter(|| {
            black_box(
                resume_orchestrated(black_box(&line), PaperDriver::new)
                    .expect("resume")
                    .into_report(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8));
    targets = bench_orchestrator
}
criterion_main!(benches);
