//! Rule families and the cross-file analysis context.
//!
//! | rule              | family | severity | what it catches                                   |
//! |-------------------|--------|----------|---------------------------------------------------|
//! | `d1-wall-clock`   | D1     | error    | `Instant::now` / `SystemTime` outside the allow-listed `--wall` telemetry path |
//! | `d1-unseeded-rng` | D1     | error    | entropy-seeded RNG construction                   |
//! | `d1-env-read`     | D1     | error    | `std::env::var` of unregistered variables         |
//! | `d1-thread-spawn` | D1     | error    | spawned threads without an ordered-merge marker   |
//! | `d2-map-order`    | D2     | warning  | `HashMap`/`HashSet` iteration reaching render/report paths unsorted |
//! | `p1-panic`        | P1     | warning/info | `unwrap`/`panic!` (warning), `expect` (info) in library code |
//! | `h1-hot-alloc`    | H1     | warning  | allocation inside loops of functions reachable from registered hot entry points |
//! | `t1-sim-time`     | T1     | error    | backwards `SimTime` arithmetic outside the kernel; wall-clock durations feeding the virtual queue |
//! | `c1-spawn-merge`  | C1     | error    | spawn sites with no call-graph path to a sanctioned ordered-merge helper |

pub mod c1;
pub mod d1;
pub mod d2;
pub mod h1;
pub mod p1;
pub mod t1;

use crate::callgraph::CallGraph;
use crate::diag::{sort_diagnostics, Diagnostic};
use crate::lex::TokKind;
use crate::model::FileModel;
use crate::summary::{bits, Summaries};
use std::collections::BTreeMap;

/// Analyzer configuration. [`Config::workspace_default`] carries the
/// registries for this workspace (allow-listed env vars, hot entry
/// points, sanctioned merge helpers and sim-time sanctioned paths).
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Environment variables the workspace may read (all are
    /// test-harness toggles that never influence rendered artifacts).
    pub env_allowlist: Vec<String>,
    /// (impl type or ""/`*`, fn) hot entry points: everything reachable
    /// from these is on the per-probe / per-event fast path, and H1
    /// polices its loops.
    pub hot_entries: Vec<(String, String)>,
    /// (impl type or ""/`*`, fn) boundaries hotness does not cross —
    /// telemetry emission, trace recording, other gated slow paths.
    pub cold_boundaries: Vec<(String, String)>,
    /// Identifiers that gate cold blocks (`if recording() { … }`): H1
    /// skips allocations inside blocks guarded by these.
    pub cold_gate_idents: Vec<String>,
    /// (impl type or ""/`*`, fn) sanctioned deterministic ordered-merge
    /// helpers C1 requires spawn results to funnel through.
    pub merge_helpers: Vec<(String, String)>,
    /// Path suffixes where `SimTime` arithmetic may legitimately move
    /// in both directions (the kernel owns the clock).
    pub sim_time_sanctioned: Vec<String>,
}

impl Config {
    /// The registries for the filterwatch workspace.
    pub fn workspace_default() -> Config {
        Config {
            env_allowlist: [
                "FILTERWATCH_SEEDS",
                "FILTERWATCH_UPDATE_GOLDENS",
                "FILTERWATCH_BENCH_SMOKE",
                "FILTERWATCH_BENCH_OUT",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            // The per-event / per-probe fast paths ROADMAP item 5
            // polices: the event kernel drain loop, batch fetch, the
            // sweep scan loop, fingerprint matching, and URL testing.
            hot_entries: [
                ("Internet", "run_to_quiescence"),
                ("Internet", "fetch_batch"),
                ("Kernel", "run_to_quiescence"),
                ("ScanIndex", "search_products_with_threads"),
                ("ScanIndex", "sweep"),
                ("FingerprintEngine", "identify_all"),
                ("MeasurementClient", "test_list"),
            ]
            .into_iter()
            .map(|(t, f)| (t.to_string(), f.to_string()))
            .collect(),
            // Hotness stops at telemetry/trace emission: those paths
            // are sampled or disabled in production runs.
            cold_boundaries: [
                ("TelemetryHub", "*"),
                ("TelemetryHandle", "*"),
                ("TraceHandle", "*"),
                ("Tracer", "*"),
            ]
            .into_iter()
            .map(|(t, f)| (t.to_string(), f.to_string()))
            .collect(),
            cold_gate_idents: [
                "recording",
                "is_enabled",
                "enabled",
                "event_log_enabled",
                "cfg",
                "debug_assertions",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            merge_helpers: [("", "ordered_flatten"), ("", "ordered_merge_by_key")]
                .into_iter()
                .map(|(t, f)| (t.to_string(), f.to_string()))
                .collect(),
            sim_time_sanctioned: ["crates/netsim/src/time.rs", "crates/netsim/src/kernel.rs"]
                .into_iter()
                .map(String::from)
                .collect(),
        }
    }
}

/// Cross-file indexes shared by the interprocedural rules: the
/// resolved call graph, per-function effect summaries at fixpoint, and
/// the token-level side tables the older rules still use.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Resolved cross-crate call graph.
    pub graph: CallGraph,
    /// Per-function summaries ([`crate::summary::bits`]) at fixpoint.
    pub summaries: Summaries,
    /// Names bound to `HashMap`/`HashSet` anywhere (struct fields,
    /// params, locals) — the receivers D2 watches.
    pub hash_names: std::collections::BTreeSet<String>,
}

/// Does this function name render human/machine-readable output?
pub fn is_sink_name(name: &str) -> bool {
    name == "fmt"
        || name.starts_with("render")
        || name.starts_with("report")
        || name.starts_with("write_")
        || name.starts_with("stable_")
        || name.contains("to_line")
        || name.contains("to_token")
        || name.contains("to_text")
        || name.contains("to_csv")
        || name.ends_with("_report")
        || name.ends_with("_csv")
}

impl Workspace {
    /// Build the cross-file indexes over the whole scan set: token
    /// side-tables, then the resolved call graph, then summaries
    /// propagated to fixpoint.
    pub fn build(models: &[FileModel], cfg: &Config) -> Workspace {
        let mut ws = Workspace::default();
        for m in models {
            // `name : HashMap<` / `name : HashSet<` — struct fields,
            // fn params and annotated locals all look alike at token
            // level; one global name set is deliberately conservative.
            for w in m.toks.windows(3) {
                if w[0].kind == TokKind::Ident
                    && w[1].is_punct(':')
                    && (w[2].is_ident("HashMap") || w[2].is_ident("HashSet"))
                {
                    ws.hash_names.insert(w[0].text.clone());
                }
            }
        }
        ws.graph = CallGraph::build(models);
        ws.summaries = Summaries::build(models, &ws.graph, cfg);
        ws
    }

    /// Does the transitive summary of `(model, fn)` carry `bit`?
    fn summary_has(&self, model: usize, fn_idx: usize, bit: u32) -> bool {
        self.graph
            .node_of(model, fn_idx)
            .is_some_and(|id| self.summaries.has(id, bit))
    }

    /// Is the function render-reaching — a sink by name, or called
    /// (transitively) by one through a resolved call-graph path?
    pub fn render_reaching(&self, model: usize, fn_idx: usize) -> bool {
        self.summary_has(model, fn_idx, bits::RENDER_REACHING)
    }

    /// Is the function reachable from a registered hot entry point?
    pub fn hot(&self, model: usize, fn_idx: usize) -> bool {
        self.summary_has(model, fn_idx, bits::HOT)
    }

    /// Does the function's forward call closure hit a sanctioned
    /// ordered-merge helper?
    pub fn reaches_merge(&self, model: usize, fn_idx: usize) -> bool {
        self.summary_has(model, fn_idx, bits::REACHES_MERGE)
    }
}

/// Run every rule over the scan set, apply suppressions, and return
/// canonically-ordered diagnostics.
pub fn run_all(models: &[FileModel], cfg: &Config) -> Vec<Diagnostic> {
    let ws = Workspace::build(models, cfg);
    let mut out = Vec::new();
    for m in models {
        d1::check(m, cfg, &mut out);
        p1::check(m, &mut out);
        t1::check(m, cfg, &mut out);
    }
    d2::check(models, &ws, &mut out);
    h1::check(models, &ws, cfg, &mut out);
    c1::check(models, &ws, &mut out);

    // Central suppression pass: a `// filterwatch-lint: allow(rule)`
    // on the finding's line (or the line above) or an `allow-file`
    // discharges it, whichever rule produced it.
    let by_path: BTreeMap<&str, &FileModel> = models.iter().map(|m| (m.path.as_str(), m)).collect();
    out.retain(|d| {
        by_path
            .get(d.file.as_str())
            .map(|m| !m.suppressed(d.rule, d.line))
            .unwrap_or(true)
    });
    sort_diagnostics(&mut out);
    out
}
