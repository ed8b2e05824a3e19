//! Golden-snapshot checks.
//!
//! The checked-in goldens pin today's behaviour byte-for-byte: the
//! generated-campaign renderings for two pinned scenario seeds, and the
//! paper world's demo-campaign tables at the documented default seed.
//! After an intentional behaviour change, regenerate with
//! `FILTERWATCH_UPDATE_GOLDENS=1 cargo test -p filterwatch-testkit --test goldens`
//! and commit the diff.

use filterwatch_core::campaign::Campaign;
use filterwatch_core::DEFAULT_SEED;
use filterwatch_testkit::{check_golden, plan_for_seed, run_campaign};

#[test]
fn generated_scenario_goldens() {
    for seed in [1u64, 6] {
        let report = run_campaign(&plan_for_seed(seed));
        check_golden(&format!("scenario-seed-{seed}"), &report.stable_text())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn paper_demo_campaign_tables_golden() {
    let report = Campaign::demo(DEFAULT_SEED).run();
    let rendering = format!(
        "# demo campaign (seed {DEFAULT_SEED})\n\n## identify\n{}\n## confirm\n{}",
        report.identify_table(),
        report.confirm_table()
    );
    check_golden("campaign-demo-tables", &rendering).unwrap_or_else(|e| panic!("{e}"));
}

/// Pin the paper's full campaign at the default seed: the markdown
/// report (Tables 3 and 4, measurement quality, stable telemetry), the
/// telemetry event log and the counter/gauge CSV (every `scan.*`,
/// `middlebox.verdict` and fetch counter).
#[test]
fn standard_campaign_golden() {
    use filterwatch_telemetry::render;

    let report = Campaign::standard(DEFAULT_SEED).run();
    let rendering = format!(
        "# standard campaign (seed {DEFAULT_SEED})\n\n## report\n{}\n## events\n{}\n## metrics\n{}",
        report.to_markdown(),
        render::events_log(&report.telemetry),
        render::metrics_csv(&report.telemetry)
    );
    check_golden("campaign-standard", &rendering).unwrap_or_else(|e| panic!("{e}"));
}

/// Pin the `explain` surface: provenance summary, the tree profile,
/// and the full causal chain for a deterministic subset of tested URLs
/// (first, middle, last — covering different verdicts without pinning
/// thousands of lines).
#[test]
fn demo_campaign_explain_golden() {
    use filterwatch_trace::{render_profile, ProvenanceIndex, TraceMode};

    let report = Campaign::demo(DEFAULT_SEED)
        .with_trace(TraceMode::Full)
        .run();
    let index = ProvenanceIndex::build(&report.trace);
    let urls = index.urls();
    assert!(urls.len() >= 3, "demo campaign tested {} urls", urls.len());
    let picks = [urls[0], urls[urls.len() / 2], urls[urls.len() - 1]];

    let mut rendering = format!("# demo campaign explain (seed {DEFAULT_SEED})\n\n## summary\n");
    rendering.push_str(&index.render_summary());
    rendering.push_str("\n## profile\n");
    rendering.push_str(&render_profile(&report.trace));
    for url in picks {
        rendering.push_str("\n## ");
        rendering.push_str(url);
        rendering.push('\n');
        rendering.push_str(
            &index
                .explain(url)
                .unwrap_or_else(|| panic!("explain({url}) empty")),
        );
    }
    check_golden("campaign-demo-explain", &rendering).unwrap_or_else(|e| panic!("{e}"));
}

/// Pin the resumed demo campaign: crash the orchestrated run right
/// after a mid-campaign Wait checkpoint, resume from the checkpoint
/// line, and snapshot the tables plus the boundary resumed from. The
/// tables must also match the uninterrupted `campaign-demo-tables`
/// golden — resuming is invisible in every rendered artifact.
#[test]
fn resumed_demo_campaign_golden() {
    use filterwatch_orchestrator::{
        resume_paper_campaign, CampaignCheckpoint, CampaignDescriptor, CampaignKind, CrashPlan,
        Orchestrator, Outcome, PaperDriver,
    };

    let descriptor = CampaignDescriptor::new(CampaignKind::Demo, DEFAULT_SEED);
    // Boundary index 7: identify, then case 0's four checkpoints, then
    // baseline:1, submit:1 — i.e. the second case's Wait boundary.
    let step = 7;
    let driver = PaperDriver::new(descriptor).expect("demo driver");
    let mut orch = Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(step));
    assert_eq!(
        orch.run(),
        Outcome::Crashed {
            at_checkpoint: step
        }
    );
    let line = orch
        .checkpoints(0)
        .last()
        .expect("crashed campaign wrote checkpoints")
        .clone();
    let stage = CampaignCheckpoint::parse_line(&line)
        .expect("own checkpoint parses")
        .stage;
    let report = resume_paper_campaign(&line).expect("resume demo campaign");

    let rendering = format!(
        "# demo campaign resumed (seed {DEFAULT_SEED})\nresumed from: {} \
         (checkpoint {step})\n\n## identify\n{}\n## confirm\n{}",
        stage.to_line(),
        report.identify_table(),
        report.confirm_table()
    );
    check_golden("campaign-demo-resumed", &rendering).unwrap_or_else(|e| panic!("{e}"));

    // Cross-check against the uninterrupted run's tables.
    let uninterrupted = Campaign::demo(DEFAULT_SEED).run();
    assert_eq!(report.identify_table(), uninterrupted.identify_table());
    assert_eq!(report.confirm_table(), uninterrupted.confirm_table());
}
