//! Longitudinal scanning and flow auditing: re-scan the world over time,
//! diff the snapshots, and audit an experiment from the flow log.
//!
//! ```text
//! cargo run -p filterwatch-suite --example longitudinal_scan
//! ```
//!
//! Demonstrates the repeatability the paper argues for (§1: "repeatable
//! methodologies that produce high confidence results"): snapshots
//! serialize to a dump format, diffs show vendor withdrawals, and every
//! fetch an experiment made is reconstructible from the flow log.

use filterwatch_core::confirm::{run_case_study, table3_specs};
use filterwatch_core::legacy::vendor_withdrawal;
use filterwatch_core::{World, DEFAULT_SEED};
use filterwatch_netsim::FlowDisposition;
use filterwatch_scanner::{diff, ScanEngine, ScanIndex};
use filterwatch_telemetry::wire::Wire;

fn main() {
    let mut world = World::paper(DEFAULT_SEED);

    // --- Snapshot, serialize, restore, diff. ---
    println!("--- Scan snapshots are archivable and diffable ---");
    let engine = ScanEngine::new();
    let t0 = engine.scan(&world.net);
    let dump = t0.to_dump();
    println!(
        "snapshot at day {}: {} records, {} bytes serialized",
        world.net.now().days(),
        t0.len(),
        dump.len()
    );
    let restored = ScanIndex::from_dump(&dump).expect("dump round-trips");
    assert_eq!(restored.records(), t0.records());
    println!("dump round-trip: identical");

    // Nothing changed yet: the diff is empty.
    let t1 = engine.scan(&world.net);
    let d = diff(&t0, &t1);
    println!(
        "immediate re-scan: {} appeared, {} disappeared, {} changed",
        d.appeared.len(),
        d.disappeared.len(),
        d.changed.len()
    );

    // --- Audit a confirmation experiment from the flow log. ---
    println!("\n--- The flow log records every fetch an experiment makes ---");
    world.net.set_flow_log(true);
    let spec = table3_specs()[3].clone(); // SmartFilter / Bayanat Al-Oula
    let result = run_case_study(&mut world, &spec);
    let log = world.net.flow_log();
    let intercepted = log
        .iter()
        .filter(|r| r.disposition.was_intercepted())
        .count();
    let origin = log
        .iter()
        .filter(|r| matches!(r.disposition, FlowDisposition::Origin(_)))
        .count();
    println!(
        "case study {:?}: {} flows logged ({} answered by the origin, {} intercepted by a filter)",
        result.spec.label,
        log.len(),
        origin,
        intercepted
    );
    for rec in log
        .iter()
        .filter(|r| r.disposition.was_intercepted())
        .take(3)
    {
        println!("  e.g. {}", rec.to_line());
    }
    world.net.set_flow_log(false);

    // --- The §2.2 vendor-withdrawal story as a longitudinal diff. ---
    println!("\n--- Websense/Yemen 2009, replayed ---");
    let report = vendor_withdrawal(DEFAULT_SEED);
    println!(
        "updates frozen at day {}; pre-freeze entry blocks: {}; post-freeze entry blocks: {}",
        report.frozen_at_day, report.old_entry_blocks, report.new_entry_blocks
    );
    println!(
        "after decommissioning, the scan diff lost {} endpoint(s) — the longitudinal signal",
        report.endpoints_disappeared
    );
}
