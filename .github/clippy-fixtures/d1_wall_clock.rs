//! Known-bad fixture for the wall-clock rule: `Instant::now` and
//! `SystemTime::now` in library code. Expected: two
//! `clippy::disallowed_methods` errors.

pub fn elapsed_nanos() -> u128 {
    let started = std::time::Instant::now();
    started.elapsed().as_nanos()
}

pub fn stamp_secs() -> u64 {
    let now = std::time::SystemTime::now();
    seconds_since_epoch(now)
}

fn seconds_since_epoch(at: std::time::SystemTime) -> u64 {
    at.duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |elapsed| elapsed.as_secs())
}
