//! Regenerate every table and figure of the paper from the simulation.
//!
//! ```text
//! cargo run -p filterwatch-bench --bin tables -- all
//! cargo run -p filterwatch-bench --bin tables -- table3
//! cargo run -p filterwatch-bench --bin tables -- figure1 --seed 42
//! ```
//!
//! Artifacts: `table1` `table2` `figure1` `table3` `table4` `table5`
//! `denypagetests` `challenge1` `challenge2` `ablation` `websense2009`
//! `telemetry` `index` `report` `all`, plus the provenance queries
//! `explain [<url>]` (full causal chain behind every verdict of the
//! demo campaign, or one URL's) and `trace-profile` (span-tree rollup
//! with self/total virtual time), plus the orchestration surfaces
//! `orchestrate` (two demo campaigns run concurrently under the
//! checkpointing scheduler, with their checkpoint logs and the
//! scheduler's telemetry spans) and `resume <ckpt>` (restore a
//! campaign from a checkpoint line or a file of them and rerun it to
//! completion).

use filterwatch_core::ablate::{
    acceptance_sweep, geo_error_sweep, license_sweep, render_acceptance, render_geo_error,
    render_license, render_visibility, visibility_sweep,
};
use filterwatch_core::characterize::{render_table4, run_table4};
use filterwatch_core::confirm::{render_table3, run_table3};
use filterwatch_core::evade::{render_table5, run_table5};
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::legacy::vendor_withdrawal;
use filterwatch_core::probes::{category_probe, inconsistency_probe, run_denypagetests};
use filterwatch_core::report::TextTable;
use filterwatch_core::{World, DEFAULT_SEED};
use filterwatch_products::ProductKind;
use filterwatch_scanner::keywords::KEYWORD_TABLE;
use filterwatch_telemetry::wire::Wire;
use filterwatch_urllists::Category;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut seed = DEFAULT_SEED;
    let mut wall = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--wall" => wall = true,
            name if !name.starts_with('-') => positional.push(name.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let artifact = positional
        .first()
        .cloned()
        .unwrap_or_else(|| String::from("all"));
    // `explain <url>` takes the target URL as a second positional arg;
    // `resume <ckpt>` takes a checkpoint line or file path.
    let target = positional.get(1).cloned();
    if positional.len() > 2 || (target.is_some() && artifact != "explain" && artifact != "resume") {
        usage("only `explain` and `resume` take a second positional argument");
    }

    let all = artifact == "all";
    let mut ran = false;
    macro_rules! artifact {
        ($name:literal, $f:expr) => {
            if all || artifact == $name {
                ran = true;
                println!("==================================================================");
                println!("== {} (seed {seed})", $name);
                println!("==================================================================");
                $f;
                println!();
            }
        };
    }

    artifact!("table1", table1());
    artifact!("table2", table2());
    artifact!("figure1", figure1(seed));
    artifact!("table3", table3(seed));
    artifact!("table4", table4(seed));
    artifact!("table5", table5(seed));
    artifact!("denypagetests", denypagetests(seed));
    artifact!("challenge1", challenge1(seed));
    artifact!("challenge2", challenge2(seed));
    artifact!("ablation", ablation(seed));
    artifact!("websense2009", websense2009(seed));
    artifact!("telemetry", telemetry(seed, wall));
    artifact!("index", index_artifact(seed));
    if artifact == "report" {
        ran = true;
        report(seed);
    }
    if artifact == "explain" {
        ran = true;
        explain(seed, target.as_deref());
    }
    if artifact == "trace-profile" {
        ran = true;
        trace_profile(seed);
    }
    if artifact == "orchestrate" {
        ran = true;
        orchestrate(seed);
    }
    if artifact == "resume" {
        ran = true;
        resume(target.as_deref().unwrap_or_else(|| {
            usage("resume needs a checkpoint line or a file of checkpoint lines")
        }));
    }

    if !ran {
        usage(&format!("unknown artifact {artifact:?}"));
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: tables [table1|table2|figure1|table3|table4|table5|denypagetests|challenge1|challenge2|ablation|websense2009|telemetry|index|report|explain [<url>]|trace-profile|orchestrate|resume <ckpt>|all] [--seed N] [--wall]"
    );
    std::process::exit(2);
}

/// Table 1: summary of products considered.
fn table1() {
    let mut t = TextTable::new([
        "Company",
        "Headquarters",
        "Product description",
        "Previously observed",
    ]);
    for product in ProductKind::ALL {
        let info = product.info();
        t.row([
            info.company.to_string(),
            info.headquarters.to_string(),
            info.description.to_string(),
            info.previously_observed.join(", "),
        ]);
    }
    print!("{}", t.render());
}

/// Table 2: identification methodology (keywords + validation signatures).
fn table2() {
    let sig = |p: ProductKind| -> &'static str {
        match p {
            ProductKind::BlueCoat => {
                "Built-in detection or Location header contains hostname www.cfauth.com"
            }
            ProductKind::SmartFilter => {
                "Via-Proxy header or HTML title contains \"McAfee Web Gateway\""
            }
            ProductKind::Netsweeper => "Built-in detection (WebAdmin banner/title)",
            ProductKind::Websense => {
                "Location header redirects to a host on port 15871 with parameter ws-session"
            }
        }
    };
    let mut t = TextTable::new(["Product", "Shodan keywords", "WhatWeb signature"]);
    for product in ProductKind::ALL {
        let kws = KEYWORD_TABLE
            .iter()
            .find(|k| k.product == product.slug())
            .map(|k| {
                k.keywords
                    .iter()
                    .map(|w| format!("{w:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        t.row([product.name().to_string(), kws, sig(product).to_string()]);
    }
    print!("{}", t.render());
}

/// Figure 1: locations of URL filter installations.
fn figure1(seed: u64) {
    let world = World::paper(seed);
    let report = IdentifyPipeline::new().run(&world.net);
    println!(
        "scan index: {} records; keyword candidates per product: {:?}\n",
        report.index_records, report.candidates
    );
    print!("{}", report.render_figure1());
    println!();
    let mut t = TextTable::new(["Product", "IP", "Country", "ASN", "AS name", "Keywords"]);
    for inst in &report.installations {
        t.row([
            inst.product.name().to_string(),
            inst.ip.to_string(),
            inst.country.clone(),
            inst.asn.map(|a| format!("AS{a}")).unwrap_or_default(),
            inst.as_name.clone(),
            inst.keywords.join(", "),
        ]);
    }
    print!("{}", t.render());
}

/// Table 3: confirmation case studies.
fn table3(seed: u64) {
    let mut world = World::paper(seed);
    let results = run_table3(&mut world);
    print!("{}", render_table3(&results));
    println!();
    println!("details:");
    for r in &results {
        println!(
            "  {:55} accessible-before={:?} accepted={} submitted-blocked={} holdout-blocked={} attributed={:?}",
            r.spec.label,
            r.accessible_before,
            r.submissions_accepted,
            r.submitted_blocked,
            r.holdout_blocked,
            r.attributed_products,
        );
    }
}

/// Table 4: blocked-content themes in confirmed networks.
fn table4(seed: u64) {
    let world = World::paper(seed);
    let rows = run_table4(&world, 2);
    print!("{}", render_table4(&rows));
    println!();
    for (product, ch) in &rows {
        println!(
            "  {product} @ {} (AS {}): {} of {} URLs blocked; attributed: {:?}",
            ch.country, ch.asn, ch.urls_blocked, ch.urls_tested, ch.attributed_products
        );
    }
}

/// Table 5: methods, limitations, evasion tactics.
fn table5(seed: u64) {
    let scenarios = run_table5(seed);
    print!("{}", render_table5(&scenarios));
}

/// §4.4: the Netsweeper category test site.
fn denypagetests(seed: u64) {
    let world = World::paper(seed);
    for isp in ["yemennet", "ooredoo", "du"] {
        let result = run_denypagetests(&world, isp, 4);
        println!("{isp}: {} of 66 categories blocked:", result.blocked.len());
        for (catno, name) in &result.blocked {
            println!("  catno {catno:>2}  {name}");
        }
        println!();
    }
}

/// §4.3 Challenge 1: category availability probing.
fn challenge1(seed: u64) {
    let world = World::paper(seed);
    let cats = [Category::AnonymizersProxies, Category::Pornography];
    let mut t = TextTable::new(["ISP", "Vendor category", "Representative URL", "Blocked?"]);
    for isp in ["bayanat", "nournet", "etisalat"] {
        for row in category_probe(&world, isp, ProductKind::SmartFilter, &cats) {
            t.row([
                isp.to_string(),
                row.vendor_category,
                row.url,
                if row.blocked {
                    "yes".into()
                } else {
                    "no".to_string()
                },
            ]);
        }
    }
    print!("{}", t.render());
    println!();
    println!("(Challenge 1: Saudi deployments leave the proxy category open, so pornography");
    println!("is the usable probe category there — unlike Etisalat, where both block.)");
}

/// §4.4 Challenge 2: inconsistent blocking in YemenNet.
fn challenge2(seed: u64) {
    let world = World::paper(seed);
    let report = inconsistency_probe(&world, "yemennet", 12);
    println!(
        "yemennet: {} URLs x {} runs; per-run blocked counts: {:?}",
        report.urls.len(),
        report.matrix.len(),
        report.per_run_blocked()
    );
    println!(
        "inconsistent URLs (blocked in some runs, open in others): {}",
        report.inconsistent_urls()
    );
    let stable = inconsistency_probe(&world, "etisalat", 12);
    println!(
        "etisalat (control): per-run blocked counts: {:?}; inconsistent: {}",
        stable.per_run_blocked(),
        stable.inconsistent_urls()
    );
}

/// Ablation sweeps (§6 limitations, quantified).
fn ablation(seed: u64) {
    println!("console visibility vs identification recall (confirmation as control):");
    print!(
        "{}",
        render_visibility(&visibility_sweep(seed, &[0.0, 0.25, 0.5, 0.75, 1.0]))
    );
    println!();
    println!("vendor acceptance rate vs confirmation yield (Netsweeper/Ooredoo):");
    print!(
        "{}",
        render_acceptance(&acceptance_sweep(seed, &[0.0, 0.25, 0.5, 0.75, 0.92, 1.0]))
    );
    println!();
    println!("license sizing vs filtering bypass (peak demand 16):");
    print!(
        "{}",
        render_license(&license_sweep(seed, 16, &[0, 4, 8, 12, 13, 16], 5_000))
    );
    println!();
    println!("geolocation-database error vs country attribution (census workflow):");
    print!(
        "{}",
        render_geo_error(&geo_error_sweep(seed, &[0.0, 0.1, 0.25, 0.5, 1.0]))
    );
}

/// §2.2: the Websense/Yemen 2009 vendor withdrawal, replayed.
fn websense2009(seed: u64) {
    let r = vendor_withdrawal(seed);
    println!("vendor froze updates at day {}", r.frozen_at_day);
    println!(
        "site categorized before the freeze: {}",
        if r.old_entry_blocks {
            "still blocked (snapshot persists)"
        } else {
            "NOT blocked"
        }
    );
    println!(
        "site categorized after the freeze:  {}",
        if r.new_entry_blocks {
            "blocked"
        } else {
            "not blocked (updates never arrive)"
        }
    );
    println!(
        "scan-diff after the operator decommissioned the gateway: {} endpoint(s) disappeared",
        r.endpoints_disappeared
    );
}

/// Telemetry readout of the standard campaign: per-stage span timings,
/// counters (per-vendor middlebox verdicts among them), the
/// fetch-latency histogram, and the auditable event log. By default the
/// output is byte-stable across runs (wall-clock readings excluded);
/// `--wall` switches to the full report including wall timings.
fn telemetry(seed: u64, wall: bool) {
    use filterwatch_telemetry::render;
    let report = filterwatch_core::Campaign::standard(seed).run();
    let snap = &report.telemetry;
    if wall {
        print!("{}", render::text_report(snap));
    } else {
        print!("{}", render::stable_text_report(snap));
    }
    println!();
    println!("event log:");
    print!("{}", render::events_log(snap));
    println!();
    println!("csv exports:");
    println!("--- spans.csv ---");
    if wall {
        print!("{}", render::spans_csv(snap));
    } else {
        print!("{}", render::stable_spans_csv(snap));
    }
    println!("--- metrics.csv ---");
    print!("{}", render::metrics_csv(snap));
}

/// `index`: internals of the scan index built from the paper world —
/// live/arena record counts, epoch, tombstones, interner and
/// posting-list footprint, and the same readout again after a synthetic
/// 1% churn delta and after compaction, showing the epoch bumps,
/// tombstones, and what compaction reclaims. Byte-stable for a fixed
/// seed.
fn index_artifact(seed: u64) {
    use filterwatch_scanner::{synth_churn, ScanEngine};

    let world = World::paper(seed);
    let mut index = ScanEngine::new().scan(&world.net);
    let readout = |index: &filterwatch_scanner::ScanIndex| {
        println!(
            "records: {} live / {} arena; epoch: {}; tombstones: {}",
            index.len(),
            index.records().len(),
            index.epoch(),
            index.tombstones(),
        );
        println!(
            "interner: {} label(s); posting lists: {} byte(s)",
            index.interner().len(),
            index.posting_bytes(),
        );
    };
    println!("paper-world scan index:");
    readout(&index);

    let base = index.records().to_vec();
    let churn = base.len().div_ceil(100);
    let (adds, retirements) = synth_churn(&base, churn, churn, seed);
    let stats = index.apply_delta(adds, &retirements);
    println!();
    println!(
        "after a {churn}+{churn} churn delta (epoch {}, {} added, {} retired):",
        stats.epoch, stats.added, stats.retired
    );
    readout(&index);

    let freed = index.compact();
    println!();
    println!("after compaction ({freed} slot(s) reclaimed):");
    readout(&index);
}

/// The full campaign as one markdown report (`report` artifact).
fn report(seed: u64) {
    let report = filterwatch_core::Campaign::standard(seed).run();
    print!("{}", report.to_markdown());
}

/// `explain [<url>]`: render the complete causal chain behind every
/// verdict of the traced demo campaign — DNS, middlebox hops, fetch
/// attempts (retries and breaker skips included), fingerprint matches
/// and the quorum decision — or just one URL's when a target is given.
fn explain(seed: u64, target: Option<&str>) {
    let report = filterwatch_core::Campaign::demo(seed)
        .with_trace(filterwatch_trace::TraceMode::Full)
        .run();
    let index = filterwatch_trace::ProvenanceIndex::build(&report.trace);
    println!("== explain (seed {seed}, demo campaign) ==");
    println!();
    print!("{}", index.render_summary());
    match target {
        Some(url) => match index.explain(url) {
            Some(text) => {
                println!();
                print!("{text}");
            }
            None => {
                eprintln!("error: no url-test recorded for {url:?}");
                std::process::exit(1);
            }
        },
        None => {
            for url in index.urls() {
                println!();
                if let Some(text) = index.explain(url) {
                    print!("{text}");
                }
            }
        }
    }
}

/// `orchestrate`: run two demo campaigns (seeds N and N+1) concurrently
/// under the checkpointing scheduler and print, per campaign, the
/// identify/confirm tables, the checkpoint log (each line is a valid
/// `resume` input), and the stable telemetry report — whose `sched` /
/// `sched.wait` spans show the scheduler parking each campaign on its
/// deadline queue through the vendor review window.
fn orchestrate(seed: u64) {
    use filterwatch_orchestrator::{
        CampaignDescriptor, CampaignKind, CampaignStatus, Orchestrator, Outcome, PaperDriver,
    };
    use filterwatch_telemetry::render;

    let seeds = [seed, seed.wrapping_add(1)];
    let drivers: Vec<PaperDriver> = seeds
        .iter()
        .map(|&s| {
            PaperDriver::new(CampaignDescriptor::new(CampaignKind::Demo, s)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    let mut orch = Orchestrator::new(drivers);
    match orch.run() {
        Outcome::Complete => {}
        Outcome::Crashed { at_checkpoint } => {
            eprintln!("error: unexpected crash at checkpoint {at_checkpoint}");
            std::process::exit(1);
        }
    }
    println!(
        "== orchestrate ({} demo campaigns, seeds {seeds:?}) ==",
        seeds.len()
    );
    let logs: Vec<Vec<String>> = (0..seeds.len())
        .map(|id| orch.checkpoints(id).to_vec())
        .collect();
    for (id, (driver, status)) in orch.into_drivers().into_iter().enumerate() {
        if status != CampaignStatus::Done {
            eprintln!("error: campaign {id} finished as {status:?}");
            std::process::exit(1);
        }
        let report = driver.into_report();
        println!();
        println!("### campaign {id} (demo, seed {})", seeds[id]);
        println!();
        println!("#### identify");
        print!("{}", report.identify_table());
        println!("#### confirm");
        print!("{}", report.confirm_table());
        println!("#### checkpoint log ({} boundaries)", logs[id].len());
        for line in &logs[id] {
            println!("{line}");
        }
        println!("#### telemetry");
        print!("{}", render::stable_text_report(&report.telemetry));
    }
}

/// `resume <ckpt>`: restore a paper campaign from a checkpoint — the
/// argument is either a file of checkpoint lines (the last non-empty
/// line is used, matching a crashed run's log tail) or one literal
/// checkpoint line — replay it to the recorded boundary, run the rest,
/// and print the identify/confirm tables. They are byte-identical to
/// the uninterrupted run's.
fn resume(arg: &str) {
    use filterwatch_orchestrator::{
        resume_orchestrated, CampaignCheckpoint, CampaignKind, PaperDriver,
    };

    let line = match std::fs::read_to_string(arg) {
        Ok(contents) => match contents.lines().rev().find(|l| !l.trim().is_empty()) {
            Some(last) => last.to_string(),
            None => {
                eprintln!("error: checkpoint file {arg:?} is empty");
                std::process::exit(1);
            }
        },
        Err(_) => arg.to_string(),
    };
    let ckpt = CampaignCheckpoint::parse_line(&line).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if ckpt.descriptor.kind == CampaignKind::Generated {
        eprintln!(
            "error: generated campaigns resume via filterwatch-testkit's \
             GeneratedDriver (the world generator lives there)"
        );
        std::process::exit(1);
    }
    println!("== resume ==");
    println!("campaign: {}", ckpt.descriptor.to_line());
    println!("stage:    {}", ckpt.stage.to_line());
    println!(
        "clock:    {}s ({} completed case(s) recorded)",
        ckpt.clock_secs,
        ckpt.cases.len()
    );
    let report = resume_orchestrated(&line, PaperDriver::new)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
        .into_report();
    println!();
    println!("## identify");
    print!("{}", report.identify_table());
    println!("## confirm");
    print!("{}", report.confirm_table());
}

/// `trace-profile`: aggregate span-tree rollup of the traced demo
/// campaign — per step-path call counts plus total and self virtual
/// time.
fn trace_profile(seed: u64) {
    let report = filterwatch_core::Campaign::demo(seed)
        .with_trace(filterwatch_trace::TraceMode::Full)
        .run();
    println!("== trace-profile (seed {seed}, demo campaign) ==");
    println!();
    print!("{}", filterwatch_trace::render_profile(&report.trace));
}
