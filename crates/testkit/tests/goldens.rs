//! Golden-snapshot checks.
//!
//! The checked-in goldens pin today's behaviour byte-for-byte: the
//! generated-campaign renderings for two pinned scenario seeds, and the
//! paper world's demo-campaign tables at the documented default seed.
//! After an intentional behaviour change, regenerate with
//! `FILTERWATCH_UPDATE_GOLDENS=1 cargo test -p filterwatch-testkit --test goldens`
//! and commit the diff.

// Test helpers outside `#[test]` fail the test by panicking.
#![allow(clippy::panic)]

use filterwatch_core::campaign::Campaign;
use filterwatch_core::DEFAULT_SEED;
use filterwatch_telemetry::wire::Wire;
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

/// Every URL's explanation, in index order, as one text.
fn explain_all(index: &filterwatch_trace::ProvenanceIndex) -> String {
    index
        .urls()
        .into_iter()
        .map(|url| {
            index
                .explain(url)
                .unwrap_or_else(|| panic!("explain({url}) empty"))
        })
        .collect()
}

/// Pin the `explain` surface: provenance summary, the tree profile,
/// the full causal chain for a deterministic subset of tested URLs
/// (first, middle, last — covering different verdicts), and by digest
/// every URL's explanation for the clean demo campaign and for the
/// chaos demo (20% field faults under `ResilienceConfig::chaos()`),
/// whose chains add trial, retry, quorum and path-fault nodes.
#[test]
fn demo_campaign_explain_golden() {
    use filterwatch_measure::ResilienceConfig;
    use filterwatch_netsim::FaultProfile;
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
    pin_log(&mut rendering, "every explain (demo)", &explain_all(&index));

    let chaos = Campaign::demo(DEFAULT_SEED)
        .with_field_faults(FaultProfile::chaotic(0.2).expect("valid rate"))
        .with_resilience(ResilienceConfig::chaos())
        .with_trace(TraceMode::Full)
        .run();
    pin_log(
        &mut rendering,
        "every explain (chaos demo, 20% faults)",
        &explain_all(&ProvenanceIndex::build(&chaos.trace)),
    );
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
        resume_orchestrated, CampaignCheckpoint, CampaignDescriptor, CampaignKind, CrashPlan,
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
    let report = resume_orchestrated(&line, PaperDriver::new)
        .expect("resume demo campaign")
        .into_report();

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

/// FNV-1a 64-bit over a whole log, so long logs are pinned by digest.
fn fnv1a64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append one pinned log: its line count, the FNV-1a digest of the
/// whole text, and its first and last 20 lines (every line when it has
/// at most 40).
fn pin_log(out: &mut String, name: &str, text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    out.push_str(&format!(
        "\n## {name}\nlines: {}\nfnv1a: {:016x}\n",
        lines.len(),
        fnv1a64(text)
    ));
    let (head, tail) = if lines.len() <= 40 {
        (&lines[..], &lines[lines.len()..])
    } else {
        (&lines[..20], &lines[lines.len() - 20..])
    };
    for line in head {
        out.push_str(line);
        out.push('\n');
    }
    if !tail.is_empty() {
        out.push_str("...\n");
    }
    for line in tail {
        out.push_str(line);
        out.push('\n');
    }
}

/// Append one surface's line count and FNV-1a digest as a single line.
fn pin_digest(out: &mut String, name: &str, text: &str) {
    out.push_str(&format!(
        "{name}: lines {} fnv1a {:016x}\n",
        text.lines().count(),
        fnv1a64(text)
    ));
}

/// Pin what every fetch leaves behind, by digest: for plan seeds 0–9,
/// the generated campaign's report, its flow log and its rendered trace
/// forest; and the full-trace demo campaign's markdown report and trace
/// forest. Every observable effect of the fetch path lands in one of
/// these, so a change to how a fetch runs that moves any byte of them
/// shows up here.
#[test]
fn fetch_surfaces_golden() {
    use filterwatch_testkit::{run_campaign_forensic, RunConfig};
    use filterwatch_trace::{build_forest, render_forest, TraceMode};

    let mut out = String::from("# fetch surfaces\n");
    for seed in 0u64..10 {
        let plan = plan_for_seed(seed);
        let run = run_campaign_forensic(&plan, &RunConfig::for_plan(&plan));
        let flows: String = run.flow_lines.iter().map(|l| format!("{l}\n")).collect();
        out.push_str(&format!("\n## plan seed {seed}\n"));
        pin_digest(&mut out, "report", &run.report.stable_text());
        pin_digest(&mut out, "flow log", &flows);
        pin_digest(&mut out, "trace forest", &run.trace_forest);
    }
    let demo = Campaign::demo(0).with_trace(TraceMode::Full).run();
    out.push_str("\n## demo campaign (seed 0, full trace)\n");
    pin_digest(&mut out, "report", &demo.to_markdown());
    pin_digest(
        &mut out,
        "trace forest",
        &render_forest(&build_forest(&demo.trace)),
    );
    check_golden("fetch-surfaces", &out).unwrap_or_else(|e| panic!("{e}"));
}

/// Pin the scan index through a re-crawl delta: for the paper world at
/// seeds 5 and 23, the lines `tables index` prints after the scan, after
/// a `synth_churn` delta of 1% appeared and 1% retired endpoints (with
/// its `DeltaStats`) and after compaction, plus the digest of the
/// post-delta dump, which lists the live records in arena order.
#[test]
fn index_delta_golden() {
    use filterwatch_scanner::{synth_churn, ScanEngine, ScanIndex};

    fn readout(out: &mut String, index: &ScanIndex) {
        out.push_str(&format!(
            "records: {} live / {} arena; epoch: {}; tombstones: {}\n\
             interner: {} label(s); posting lists: {} byte(s)\n",
            index.len(),
            index.records().len(),
            index.epoch(),
            index.tombstones(),
            index.interner().len(),
            index.posting_bytes(),
        ));
    }

    let mut out = String::from("# index delta\n");
    for seed in [5u64, 23] {
        let world = filterwatch_core::World::paper(seed);
        let mut index = ScanEngine::new().scan(&world.net);
        out.push_str(&format!("\n## seed {seed}\npaper-world scan index:\n"));
        readout(&mut out, &index);

        let base = index.records().to_vec();
        let churn = base.len().div_ceil(100);
        let (adds, retirements) = synth_churn(&base, churn, churn, seed);
        let stats = index.apply_delta(adds, &retirements);
        out.push_str(&format!(
            "\nafter a {churn}+{churn} churn delta (epoch {}, {} added, {} retired):\n",
            stats.epoch, stats.added, stats.retired
        ));
        readout(&mut out, &index);
        let dump = index.to_dump();

        let freed = index.compact();
        out.push_str(&format!(
            "\nafter compaction ({freed} slot(s) reclaimed):\n"
        ));
        readout(&mut out, &index);
        pin_digest(&mut out, "post-delta dump", &dump);
    }
    check_golden("index-delta", &out).unwrap_or_else(|e| panic!("{e}"));
}

/// Pin every wire format the workspace writes: checkpoint, trace,
/// telemetry event, flow-log, scan dump, interner and
/// measurement-quality lines from real runs, plus one
/// hand-built value of every token enum variant (clean runs never emit
/// `outage:`, `truncated`, `breaker-skip:` or `dnsfail:injected`).
#[test]
fn wire_formats_golden() {
    use filterwatch_measure::{ResilienceConfig, VerdictLabel};
    use filterwatch_netsim::{FaultProfile, FlowDisposition};
    use filterwatch_orchestrator::{
        run_orchestrated, CampaignDescriptor, CampaignKind, PaperDriver, StageState,
    };
    use filterwatch_scanner::ScanEngine;
    use filterwatch_testkit::{run_campaign_forensic, RunConfig};
    use filterwatch_trace::{StepKind, TraceMode};

    let mut out = format!("# wire formats (seed {DEFAULT_SEED})\n");

    let demo = PaperDriver::new(CampaignDescriptor::new(CampaignKind::Demo, DEFAULT_SEED))
        .expect("demo driver");
    let (_, checkpoints) = run_orchestrated(demo).expect("orchestrated demo campaign");
    pin_log(
        &mut out,
        "checkpoints (demo)",
        &(checkpoints.join("\n") + "\n"),
    );

    let traced = Campaign::demo(DEFAULT_SEED)
        .with_trace(TraceMode::Full)
        .run();
    pin_log(
        &mut out,
        "trace log (demo, full)",
        &filterwatch_trace::to_log(&traced.trace),
    );
    pin_log(
        &mut out,
        "telemetry event dump (demo, full trace)",
        &filterwatch_telemetry::event::to_dump(&traced.telemetry.events),
    );

    // The generated campaign for plan seed 1.
    let plan = plan_for_seed(1);
    let run = run_campaign_forensic(&plan, &RunConfig::for_plan(&plan));
    let flows: String = run.flow_lines.iter().map(|l| format!("{l}\n")).collect();
    pin_log(&mut out, "flow log (plan seed 1)", &flows);

    let world = filterwatch_core::World::paper(DEFAULT_SEED);
    let index = ScanEngine::new().scan(&world.net);
    pin_log(&mut out, "scan dump (paper world)", &index.to_dump());
    pin_log(
        &mut out,
        "interner (paper world)",
        &(index.interner().to_line() + "\n"),
    );

    let chaos = Campaign::demo(DEFAULT_SEED)
        .with_resilience(ResilienceConfig::chaos())
        .with_field_faults(FaultProfile::chaotic(0.2).expect("valid rate"))
        .run();
    pin_log(
        &mut out,
        "measurement quality (chaos demo, 20% faults)",
        &(chaos.quality.to_line() + "\n"),
    );

    let dispositions = [
        FlowDisposition::Origin(200),
        FlowDisposition::Intercepted {
            middlebox: "smartfilter@etisalat".into(),
            status: 403,
        },
        FlowDisposition::DroppedBy("netsweeper".into()),
        FlowDisposition::ResetBy("bluecoat".into()),
        FlowDisposition::PathFault("timeout"),
        FlowDisposition::PathFault("reset"),
        FlowDisposition::DnsFailure,
        FlowDisposition::InjectedDnsFailure,
        FlowDisposition::ConnectFailed,
        FlowDisposition::Outage {
            resumes_at_secs: 172_861,
        },
        FlowDisposition::Truncated,
        FlowDisposition::BreakerSkip("field@yemennet".into()),
    ];
    let tokens: String = dispositions.iter().map(|d| d.to_token() + "\n").collect();
    pin_log(&mut out, "flow dispositions", &tokens);
    let stages = [
        StageState::Identify,
        StageState::Baseline { case: 0 },
        StageState::Submit { case: 1 },
        StageState::Wait {
            case: 2,
            deadline_secs: 3_456_000,
        },
        StageState::Retest { case: 3 },
        StageState::Characterize,
        StageState::Done,
    ];
    let tokens: String = stages.iter().map(|s| s.to_line() + "\n").collect();
    pin_log(&mut out, "stage states", &tokens);
    let lines = |tokens: Vec<&str>| -> String { tokens.iter().map(|t| format!("{t}\n")).collect() };
    let steps = lines(StepKind::ALL.iter().map(StepKind::to_token).collect());
    pin_log(&mut out, "step kinds", &steps);
    let kinds = lines(
        CampaignKind::ALL
            .iter()
            .map(CampaignKind::to_token)
            .collect(),
    );
    pin_log(&mut out, "campaign kinds", &kinds);
    let labels = lines(
        VerdictLabel::ALL
            .iter()
            .map(VerdictLabel::to_token)
            .collect(),
    );
    pin_log(&mut out, "verdict labels", &labels);

    check_golden("wire-formats", &out).unwrap_or_else(|e| panic!("{e}"));
}
