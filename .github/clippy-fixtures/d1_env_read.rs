//! Known-bad fixture for the environment rule: every `std::env` read
//! `clippy.toml` names. Expected: four `clippy::disallowed_methods`
//! errors.

pub fn verbose() -> bool {
    std::env::var("FILTERWATCH_VERBOSE").is_ok()
}

pub fn quiet() -> bool {
    std::env::var_os("FILTERWATCH_QUIET").is_some()
}

pub fn configured() -> usize {
    std::env::vars().count() + std::env::vars_os().count()
}
