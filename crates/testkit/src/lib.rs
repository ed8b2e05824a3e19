//! # filterwatch-testkit
//!
//! A deterministic simulation test harness for the whole measurement
//! pipeline. Where the crate-level unit tests pin the *paper world*
//! (one hand-built scenario at pinned seeds), the testkit generates
//! *arbitrary-but-valid* worlds from a seed and checks properties that
//! must hold on every one of them:
//!
//! - [`plan`] / [`strategies`] — declarative, shrinkable scenario plans
//!   and the proptest strategies that generate them (`plan_for_seed` is
//!   the deterministic seed → plan map everything shares);
//! - [`corpus`] — Shodan-scale synthetic banner corpora minted from a
//!   plan's `corpus_scale` knob over the shared country pool;
//! - [`worldgen`] — turning a plan into a live simulated Internet:
//!   random AS topologies across a fixed country pool, per-vendor
//!   product deployments with visible or hidden consoles, flapping
//!   middleboxes, pre-categorized URL lists, fault profiles; a
//!   [`GeneratedWorld`] is a `filterwatch_core::CampaignWorld`, minting
//!   its sites and placing its consoles with the paper world's code;
//! - [`runner`] — the paper's identify → submit-and-retest loop on a
//!   generated world, rendered as stable, byte-comparable text; each
//!   case study runs through `filterwatch_core::confirm`, the same
//!   implementation of §4.2 the paper world runs;
//! - [`orchestrate`] — the same loop as a crash-safe resumable state
//!   machine under the `filterwatch-orchestrator` scheduler: the
//!   crash-recovery battery's [`GeneratedDriver`];
//! - [`invariants`] — the metamorphic suite (permutation invariance,
//!   bystander indifference, fault degradation, holdout integrity);
//! - [`golden`] — checked-in snapshots with
//!   `FILTERWATCH_UPDATE_GOLDENS=1` regeneration;
//! - [`differential`] — the multi-seed differential runner with greedy
//!   failure minimization;
//! - [`wire`] — the one round-trip and totality harness every wire
//!   format is checked with.
//!
//! Everything is a pure function of the seed: two runs of any testkit
//! entry point at the same seed produce byte-identical output.

pub mod corpus;
pub mod differential;
pub mod golden;
pub mod invariants;
pub mod orchestrate;
pub mod plan;
pub mod runner;
pub mod strategies;
pub mod wire;
pub mod worldgen;

pub use corpus::synth_corpus;
pub use differential::{minimize, parse_seeds, run_seed, seeds_from_env, Divergence};
pub use golden::{check_golden, golden_path, update_mode, UPDATE_ENV};
pub use invariants::{check_plan, check_seed, Violation};
pub use orchestrate::GeneratedDriver;
pub use plan::{DeploymentPlan, FaultPlan, ScenarioPlan};
pub use runner::{
    run_campaign, run_campaign_forensic, run_campaign_with, CampaignForensics, CaseOutcome,
    GeneratedReport, RunConfig,
};
pub use strategies::{plan_for_seed, plan_strategy};
pub use worldgen::{build_world, GeneratedWorld};
