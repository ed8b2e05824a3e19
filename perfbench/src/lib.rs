//! Whole-campaign benchmark for filterwatch.
//!
//! One command runs a named workload at a given seed for a given number
//! of seconds and prints every metric with its unit. The load is a
//! closed loop with one client: campaigns run one at a time, each on a
//! fresh world, because a researcher's next stage waits on the last
//! stage's verdicts. Every campaign's verdict output is checked against
//! a second route the repository promises will agree; at the default
//! seed the reference outputs are also checked against digests recorded
//! when the benchmark was added.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A
//! traced run (`--trace 1`) runs each world untraced and then traced;
//! the traced campaigns record a span around every public call the
//! benchmark makes and report the per-layer metrics. See `README.md` beside this
//! crate for the workloads and the layer map.

mod chaos;
mod layers;
mod meta;
pub mod metrics;
mod paper;
pub mod probe;
mod scale;
pub mod stats;

use std::time::Instant;

pub use crate::layers::LayerTally;
use crate::metrics::{json_string, Metric};

/// The default benchmark seed. World seed 5 is the one that reproduces
/// the paper's tables exactly.
pub const DEFAULT_SEED: u64 = 5;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's standard campaign under the checkpointing orchestrator.
    Paper,
    /// A 10⁵-host generated world with a 10⁵-record banner corpus.
    Scale,
    /// A faulted, resilient, fully traced demo campaign plus `explain`.
    ChaosExplain,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Scale, Workload::ChaosExplain];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Scale => "scale",
            Workload::ChaosExplain => "chaos-explain",
        }
    }

    /// Invert [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input sizes a benchmark run uses.
    pub fn default_sizes(self) -> Sizes {
        match self {
            Workload::Paper | Workload::ChaosExplain => Sizes {
                world_seeds: 8,
                host_scale: 0,
                corpus_scale: 0,
            },
            Workload::Scale => Sizes {
                world_seeds: 1,
                host_scale: 100_000,
                corpus_scale: 100_000,
            },
        }
    }

    /// Digest ([`stats::digest`]) of the reference verdict outputs at
    /// [`DEFAULT_SEED`] and default sizes, as recorded when the
    /// benchmark was added.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::Paper => 0x76e7_1af7_bbe3_9cfc,
            Workload::Scale => 0x172f_aa88_b997_4db0,
            Workload::ChaosExplain => 0xfdc6_1961_456c_d3f0,
        }
    }
}

/// The inputs of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Distinct world seeds the paper-world campaigns cycle through.
    pub world_seeds: usize,
    /// Extra live hosts in each scale world.
    pub host_scale: usize,
    /// Synthetic banner records added to each scale index.
    pub corpus_scale: usize,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Seconds to keep starting campaigns for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

impl Options {
    /// A run of `workload` at its default sizes.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            sizes: workload.default_sizes(),
        }
    }
}

/// One campaign's measurements.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Wall seconds of the machine-speed probe timed just before set-up.
    pub probe_s: f64,
    /// Wall seconds to build the campaign's world.
    pub setup_s: f64,
    /// Wall seconds from the end of set-up to the verdict output.
    pub campaign_s: f64,
    /// URL verdicts rendered.
    pub verdicts: u64,
    /// Of which `Inconclusive`.
    pub inconclusive: u64,
    /// Whether the verdict output passed its check.
    pub ok: bool,
    /// Per-layer values, for traced campaigns.
    pub layers: Option<LayerTally>,
}

impl Sample {
    /// Reference seconds per wall second of this campaign
    /// ([`probe::REFERENCE_S`] ÷ the probe's time).
    pub fn reference_factor(&self) -> f64 {
        stats::ratio(probe::REFERENCE_S, self.probe_s)
    }
}

/// A workload's campaigns.
pub trait Bench {
    /// Run one campaign on a fresh build of world number `world` and
    /// check its verdict output; `traced` records per-layer spans.
    fn campaign(&mut self, world: usize, traced: bool) -> Sample;

    /// The reference verdict outputs computed up front (what the
    /// default-seed digest covers).
    fn reference_outputs(&self) -> Vec<&str>;
}

/// `n` world seeds derived from the benchmark seed.
pub fn world_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n.max(1) as u64).map(|j| seed.wrapping_add(j)).collect()
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// What was run.
    pub options: Options,
    /// One sample per campaign, in run order.
    pub samples: Vec<Sample>,
    /// Wall seconds of the campaign loop.
    pub measured_s: f64,
    /// Digest of the reference verdict outputs.
    pub reference_digest: u64,
    /// The default-seed digest check (`None` at other seeds or sizes).
    pub digest_ok: Option<bool>,
    /// Peak resident memory of the process.
    pub peak_rss_mib: f64,
}

/// Run a workload: prepare references, then start campaigns until
/// `seconds` have passed (at least one). The traced run runs every world
/// twice, untraced and then traced, so that both sets of campaigns cover
/// the same worlds.
pub fn run(options: Options) -> RunResult {
    let mut bench: Box<dyn Bench> = match options.workload {
        Workload::Paper => Box::new(paper::PaperBench::new(options.seed, &options.sizes)),
        Workload::Scale => Box::new(scale::ScaleBench::new(options.seed, &options.sizes)),
        Workload::ChaosExplain => Box::new(chaos::ChaosBench::new(options.seed, &options.sizes)),
    };
    let reference_digest = stats::digest(bench.reference_outputs());
    let default_inputs =
        options.seed == DEFAULT_SEED && options.sizes == options.workload.default_sizes();
    let digest_ok = default_inputs.then(|| reference_digest == options.workload.recorded_digest());

    let runs_per_world = if options.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty()
        || samples.len() % runs_per_world != 0
        || start.elapsed().as_secs_f64() < options.seconds
    {
        let n = samples.len();
        samples.push(bench.campaign(n / runs_per_world, n % runs_per_world == 1));
    }
    let measured_s = start.elapsed().as_secs_f64();

    RunResult {
        options,
        samples,
        measured_s,
        reference_digest,
        digest_ok,
        peak_rss_mib: meta::peak_rss_mib(),
    }
}

impl RunResult {
    /// Campaigns whose verdict output failed its check.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Every campaign passed its check, and so did the default-seed
    /// digest where it applies.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.digest_ok != Some(false)
    }

    /// The metrics the result line carries: end-to-end when untraced,
    /// per-layer when traced.
    pub fn metrics(&self) -> Vec<Metric> {
        if self.options.trace {
            metrics::per_layer(&self.samples)
        } else {
            metrics::end_to_end(&self.samples, self.peak_rss_mib)
        }
    }

    /// The last line of the output.
    pub fn result_line(&self) -> String {
        metrics::result_line(
            self.correct(),
            self.samples.len(),
            self.failed(),
            &self.metrics(),
        )
    }

    /// Run metadata as one JSON object: commit, build profile, core
    /// count, compiler, workload, seed and sizes.
    pub fn meta_json(&self) -> String {
        let o = &self.options;
        let digest_check = match self.digest_ok {
            Some(true) => "pass",
            Some(false) => "fail",
            None => "not applicable",
        };
        format!(
            "{{\"commit\": {}, \"profile\": {}, \"available_parallelism\": {}, \"rustc\": {}, \
             \"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
             \"sizes\": {{\"world_seeds\": {}, \"host_scale\": {}, \"corpus_scale\": {}}}, \
             \"campaigns\": {}, \"measured_s\": {}, \"reference_digest\": {}, \"digest_check\": {}}}",
            json_string(&meta::git_commit(std::path::Path::new("."))),
            json_string(meta::PROFILE),
            meta::available_parallelism(),
            json_string(meta::RUSTC),
            json_string(o.workload.name()),
            o.seed,
            o.trace,
            metrics::json_number(o.seconds),
            o.sizes.world_seeds,
            o.sizes.host_scale,
            o.sizes.corpus_scale,
            self.samples.len(),
            metrics::json_number(self.measured_s),
            json_string(&format!("{:016x}", self.reference_digest)),
            json_string(digest_check),
        )
    }

    /// The human-readable readout printed before the result line: a
    /// header, the metadata, and one line per metric with its unit.
    pub fn readout(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "perfbench {}: seed {}, {} s budget, trace {} -> {} campaigns in {:.2} s, {} failed\n",
            o.workload.name(),
            o.seed,
            o.seconds,
            if o.trace { "on" } else { "off" },
            self.samples.len(),
            self.measured_s,
            self.failed(),
        );
        out.push_str(&format!("meta {}\n", self.meta_json()));
        let mut rows = self.metrics();
        if !o.trace {
            rows.extend(metrics::readout_extras(&self.samples));
        }
        for m in rows {
            let value = if m.value.is_finite() {
                format!("{:.6}", m.value)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  {:<30} {:>16} {:<6} {}\n",
                m.name, value, m.unit, m.note
            ));
        }
        out
    }
}
