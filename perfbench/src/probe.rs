//! The machine-speed probe, and the reference seconds times are
//! reported in.
//!
//! On a VM that shares its cores, neighbours slow down everything that
//! allocates, sorts or walks memory by up to 1.7×, in bursts of a few
//! seconds, while a loop of dependent multiplies keeps its speed. A
//! campaign slows by the same factor as this probe's kernel. So each
//! campaign first times the probe, and its wall times are scaled by
//! [`REFERENCE_S`] ÷ the probe's time. A change to the program moves the
//! scaled time as it moves wall time; a change in the machine's speed
//! moves the probe too, and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the probe kernel builds, sorts and indexes.
const KEYS: u64 = 50_000;

/// The probe's time that defines wall seconds as reference seconds:
/// what the kernel takes on a 2-vCPU Intel Xeon KVM guest with its cores
/// to itself. A campaign that ran while the probe took twice this long
/// counts half its wall time.
pub const REFERENCE_S: f64 = 2.3e-3;

/// Time one run of the probe kernel: build 50,000 scattered keys, sort
/// them, then index every fourth under a decimal label. The kernel is
/// the benchmark's own code and calls nothing of the program's.
pub fn time() -> f64 {
    let start = Instant::now();
    let mut keys: Vec<u64> = (0..black_box(KEYS))
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    keys.sort_unstable();
    let mut index = BTreeMap::new();
    for (i, &key) in keys.iter().enumerate().step_by(4) {
        index.insert(key >> 7, i.to_string());
    }
    black_box(index);
    start.elapsed().as_secs_f64()
}
