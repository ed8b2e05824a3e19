//! The `chaos-explain` workload: a faulted, resilient, fully traced demo
//! campaign, then `explain` for every URL it tested.
//!
//! Each campaign is `Campaign::demo` with `FaultProfile::chaotic(0.2)`
//! on the field ISPs, `ResilienceConfig::chaos()` (3-trial quorum,
//! retries, circuit breakers) and `TraceMode::Full`, driven through the
//! `CampaignRun` stage methods. It then builds a `ProvenanceIndex` over
//! the trace and renders the explanation of every URL — the
//! `tables -- explain` surface. Its identify and confirm tables must
//! match the clean demo run at the same seed.

use std::time::Instant;

use filterwatch_core::campaign::{Campaign, CampaignReport, CampaignRun};
use filterwatch_measure::ResilienceConfig;
use filterwatch_netsim::FaultProfile;
use filterwatch_trace::{ProvenanceIndex, TraceMode};

use crate::layers::{record_report_counts, span, LayerTally, StageClock, WorldSize};
use crate::paper::verdict_output;
use crate::{probe, world_seeds, Bench, Sample, Sizes};

/// Fault rate injected on every field ISP.
pub const FAULT_RATE: f64 = 0.2;

/// The chaos campaign at `seed`.
pub fn chaos_campaign(seed: u64) -> Campaign {
    Campaign::demo(seed)
        .with_field_faults(FaultProfile::chaotic(FAULT_RATE).expect("0.2 is a valid fault rate"))
        .with_resilience(ResilienceConfig::chaos())
        .with_trace(TraceMode::Full)
}

/// The `chaos-explain` workload's inputs and reference outputs.
pub struct ChaosBench {
    seeds: Vec<u64>,
    references: Vec<String>,
    sizes: Vec<WorldSize>,
}

impl ChaosBench {
    /// Derive the world seeds and compute each one's reference output
    /// with the clean demo campaign.
    pub fn new(seed: u64, sizes: &Sizes) -> ChaosBench {
        let seeds = world_seeds(seed, sizes.world_seeds);
        let references = seeds
            .iter()
            .map(|&s| verdict_output(&Campaign::demo(s).run()))
            .collect();
        let sizes = seeds
            .iter()
            .map(|&s| WorldSize::of_paper_world(Campaign::demo(s).options))
            .collect();
        ChaosBench {
            seeds,
            references,
            sizes,
        }
    }
}

/// What one chaos campaign produced.
struct Produced {
    report: CampaignReport,
    output: String,
    urls: usize,
    explained: usize,
    explain_bytes: usize,
}

impl Bench for ChaosBench {
    fn campaign(&mut self, world: usize, traced: bool) -> Sample {
        let slot = world % self.seeds.len();
        let campaign = chaos_campaign(self.seeds[slot]);

        let probe_s = probe::time();
        let t0 = Instant::now();
        let run = CampaignRun::begin(campaign);
        let setup_s = t0.elapsed().as_secs_f64();

        let mut clock = traced.then(|| StageClock::new(run.telemetry().clone()));
        let t1 = Instant::now();
        let produced = drive(run, &mut clock);
        let campaign_s = t1.elapsed().as_secs_f64();

        let layers = clock.map(|clock| {
            let mut tally: LayerTally = clock.tally;
            record_report_counts(&mut tally, &produced.report);
            self.sizes[slot].record(&mut tally);
            tally.add("world.build_s", setup_s);
            tally.add("trace.explain_bytes", produced.explain_bytes as f64);
            tally
        });
        let q = produced.report.quality;
        Sample {
            probe_s,
            setup_s,
            campaign_s,
            verdicts: q.verdicts,
            inconclusive: q.inconclusive,
            ok: produced.output == self.references[slot]
                && produced.urls > 0
                && produced.explained == produced.urls,
            layers,
        }
    }

    fn reference_outputs(&self) -> Vec<&str> {
        self.references.iter().map(String::as_str).collect()
    }
}

/// Drive the stage methods, then explain every URL. When tracing, each
/// call is a span charged to its layer.
fn drive(mut run: CampaignRun, clock: &mut Option<StageClock>) -> Produced {
    span(clock, "core.identify_s", || run.identify());
    for case in 0..run.case_count() {
        span(clock, "core.baseline_s", || run.baseline(case));
        span(clock, "core.submit_s", || {
            run.submit();
            let deadline = run.announce_wait();
            run.advance_to(deadline);
        });
        span(clock, "core.retest_s", || run.retest());
    }
    span(clock, "core.characterize_s", || {
        run.characterize_confirmed()
    });
    let (report, output) = span(clock, "core.finish_s", || {
        let report = run.finish();
        let output = verdict_output(&report);
        (report, output)
    });
    let index = span(clock, "trace.index_s", || {
        ProvenanceIndex::build(&report.trace)
    });
    // The index moves into the span, so tearing it down is charged to
    // the trace layer too.
    let (urls, explained, explain_bytes) = span(clock, "trace.explain_s", move || {
        let urls = index.urls();
        let texts: Vec<String> = urls.iter().filter_map(|url| index.explain(url)).collect();
        (urls.len(), texts.len(), texts.iter().map(String::len).sum())
    });
    Produced {
        report,
        output,
        urls,
        explained,
        explain_bytes,
    }
}
