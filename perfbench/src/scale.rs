//! The `scale` workload: a crawler-scale identify stage on a generated
//! 10⁵-host world, then the rest of the campaign.
//!
//! Each campaign takes `plan_for_seed`, strips faults and flapping, and
//! sets `host_scale` (10⁵ live hosts over ~3,100 ASes, ~8×10⁵ scanned
//! addresses) and `corpus_scale` (a 10⁵-record synthetic banner corpus).
//! Identify is the benchmark's own composition of public calls:
//! `ScanEngine::scan`, `ScanIndex::apply_delta` with the corpus, then
//! `IdentifyPipeline::run_on_index`, which sweeps the index with
//! `ScanIndex::search_products` and validates the candidates. The
//! testkit stage functions run the rest. The verdict output
//! (`GeneratedReport::comparable_text`) must match the same plan with
//! both scales at 0: a scaled world is a strict superset.

use std::time::Instant;

use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_netsim::Internet;
use filterwatch_scanner::keywords::KEYWORD_TABLE;
use filterwatch_scanner::{ScanEngine, ScanIndex, ScanRecord};
use filterwatch_telemetry::TelemetryHandle;
use filterwatch_testkit::runner::{
    baseline_stage, retest_stage, submit_stage, sweep_stage, GeneratedReport, RunConfig, WAIT_DAYS,
};
use filterwatch_testkit::{
    build_world, plan_for_seed, run_campaign_with, synth_corpus, FaultPlan, GeneratedWorld,
    ScenarioPlan,
};

use crate::layers::{record_snapshot_counts, span, StageClock, WorldSize};
use crate::{probe, Bench, Sample, Sizes};

/// The scale plan for a world seed: faults and flapping stripped, both
/// scale knobs set.
pub fn scale_plan(seed: u64, host_scale: usize, corpus_scale: usize) -> ScenarioPlan {
    let mut plan = plan_for_seed(seed);
    plan.fault = FaultPlan::Clean;
    for d in &mut plan.deployments {
        d.flapping = None;
    }
    plan.host_scale = host_scale;
    plan.corpus_scale = corpus_scale;
    plan
}

/// The verdict output of the same plan on the unscaled world.
fn reference_output(plan: &ScenarioPlan) -> String {
    let base = scale_plan(plan.seed, 0, 0);
    run_campaign_with(&base, &RunConfig::for_plan(&base)).comparable_text()
}

/// The `scale` workload: world `i` is the plan for world seed
/// `seed + i`.
pub struct ScaleBench {
    seed: u64,
    host_scale: usize,
    corpus_scale: usize,
    first_reference: String,
}

impl ScaleBench {
    /// Prepare the workload (the first campaign's reference output is
    /// computed up front for the default-seed digest).
    pub fn new(seed: u64, sizes: &Sizes) -> ScaleBench {
        let first_reference =
            reference_output(&scale_plan(seed, sizes.host_scale, sizes.corpus_scale));
        ScaleBench {
            seed,
            host_scale: sizes.host_scale,
            corpus_scale: sizes.corpus_scale,
            first_reference,
        }
    }
}

/// What one scale campaign produced.
struct Produced {
    output: String,
    verdicts: u64,
    inconclusive: u64,
}

impl Bench for ScaleBench {
    fn campaign(&mut self, world: usize, traced: bool) -> Sample {
        let plan = scale_plan(
            self.seed.wrapping_add(world as u64),
            self.host_scale,
            self.corpus_scale,
        );

        let probe_s = probe::time();
        let t0 = Instant::now();
        let mut gw = build_world(&plan);
        let corpus = synth_corpus(&plan);
        let setup_s = t0.elapsed().as_secs_f64();

        // The traced run turns the world's telemetry on, so the netsim
        // and classifier histograms and the scan counters are recorded.
        let mut clock = traced.then(|| {
            gw.net.set_telemetry(TelemetryHandle::enabled());
            StageClock::new(gw.net.telemetry().clone())
        });
        let t1 = Instant::now();
        let produced = drive(&mut gw, corpus, &mut clock);
        let campaign_s = t1.elapsed().as_secs_f64();

        let layers = clock.map(|clock| {
            let mut tally = clock.tally;
            record_snapshot_counts(&mut tally, &gw.net.telemetry().snapshot());
            WorldSize::of(&gw.net).record(&mut tally);
            tally.add("world.build_s", setup_s);
            tally.add("measure.verdicts", produced.verdicts as f64);
            let submissions: usize = gw.plan.deployments.iter().map(|d| d.n_submit).sum();
            tally.add("products.submissions", submissions as f64);
            tally
        });
        let reference = if world == 0 {
            self.first_reference.clone()
        } else {
            reference_output(&plan)
        };
        Sample {
            probe_s,
            setup_s,
            campaign_s,
            verdicts: produced.verdicts,
            inconclusive: produced.inconclusive,
            ok: produced.output == reference,
            layers,
        }
    }

    fn reference_outputs(&self) -> Vec<&str> {
        vec![&self.first_reference]
    }
}

/// Run the campaign. When tracing, each public call is a span charged
/// to its layer, and the identify counts are recorded.
fn drive(
    gw: &mut GeneratedWorld,
    corpus: Vec<ScanRecord>,
    clock: &mut Option<StageClock>,
) -> Produced {
    let config = RunConfig::for_plan(&gw.plan);
    let mut index = span(clock, "scanner.scan_s", || ScanEngine::new().scan(&gw.net));
    span(clock, "scanner.ingest_s", || index.apply_delta(corpus, &[]));
    let identification = span(clock, "fingerprint.validate_s", || {
        IdentifyPipeline::new().run_on_index(&gw.net, &index)
    });
    let (cache_hits, cache_misses) = index.sweep_cache_stats();
    let index_records = index.len();
    if let Some(clock) = clock {
        split_sweep(clock, &gw.net, &mut index);
    }
    // Identify is done with the index; freeing it is scanner work.
    span(clock, "scanner.scan_s", move || drop(index));
    let identify_table = span(clock, "core.identify_s", || {
        identification.render_installations()
    });
    let list_lines = span(clock, "core.baseline_s", || sweep_stage(gw, &config));
    let mut cases = Vec::new();
    for i in 0..gw.plan.deployments.len() {
        let mut case = span(clock, "core.baseline_s", || baseline_stage(gw, i));
        span(clock, "core.submit_s", || {
            submit_stage(gw, &mut case);
            gw.net.advance_days(WAIT_DAYS);
        });
        cases.push(span(clock, "core.retest_s", || {
            retest_stage(gw, &config, case)
        }));
    }
    let verdicts = list_lines.len() + cases.iter().map(|c| c.retest_lines.len()).sum::<usize>();
    let inconclusive = list_lines
        .iter()
        .filter(|line| line.split('\t').nth(1) == Some("inconclusive"))
        .count()
        + cases.iter().map(|c| c.retest_inconclusive).sum::<usize>();
    let output = span(clock, "core.finish_s", || {
        GeneratedReport {
            plan: gw.plan.clone(),
            // `comparable_text` leaves the topology digest out.
            topology_digest: 0,
            identify_table,
            list_lines,
            cases,
        }
        .comparable_text()
    });

    if let Some(clock) = clock {
        let tally = &mut clock.tally;
        tally.add("scanner.index_records", index_records as f64);
        tally.add("scanner.sweep_cache_hits", cache_hits as f64);
        tally.add("scanner.sweep_cache_misses", cache_misses as f64);
        let candidates: usize = identification.candidates.values().sum();
        tally.add("fingerprint.candidates", candidates as f64);
        tally.add(
            "fingerprint.installations",
            identification.installations.len() as f64,
        );
    }
    Produced {
        output,
        verdicts: verdicts as u64,
        inconclusive: inconclusive as u64,
    }
}

/// Split the keyword sweep out of `run_on_index`'s span.
///
/// The sweep runs inside `run_on_index`, which records no time of its
/// own. So once identify is done, the traced run replays it: an empty
/// delta drops the index's compiled plan, and the replay sweeps the same
/// live records with a plan-cache miss, as the program's sweep did. The
/// replay's time is charged to `scanner.sweep_s` and taken out of
/// `fingerprint.validate_s`; the delta and the replay themselves count
/// as tracing cost.
fn split_sweep(clock: &mut StageClock, net: &Internet, index: &mut ScanIndex) {
    let t0 = Instant::now();
    index.apply_delta(Vec::new(), &[]);
    let t1 = Instant::now();
    let cctlds = net
        .registry()
        .countries()
        .map(|c| (c.code.as_str(), c.cctld.as_str()));
    drop(index.search_products(KEYWORD_TABLE, cctlds));
    let sweep_s = t1.elapsed().as_secs_f64();
    let tally = &mut clock.tally;
    tally.add("traced.self_s", t0.elapsed().as_secs_f64());
    tally.add("fingerprint.validate_s", -sweep_s);
    tally.add("scanner.sweep_s", sweep_s);
}
