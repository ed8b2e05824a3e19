//! Host crate for the workspace's root `tests/` and `examples/`.
//!
//! Cargo attaches test and example targets only to a package, and a
//! package needs a library or binary target. The integration suites
//! under `tests/` (end to end, identification, confirmation,
//! characterization, evasion, properties, telemetry, resilience, the
//! seed matrix, report stability and trace) and the narrated examples
//! under `examples/` exercise several crates at once, so they live in
//! this package, declared by path in its `Cargo.toml`. The library
//! itself is empty.
