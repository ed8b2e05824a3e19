//! Golden-snapshot framework.
//!
//! A golden is a checked-in stable rendering (campaign report, table,
//! generated-world summary) that pins today's behaviour byte-for-byte.
//! [`check_golden`] compares a rendering against its file under this
//! crate's `goldens/` directory; set `FILTERWATCH_UPDATE_GOLDENS=1` to
//! regenerate after an intentional behaviour change, then review the
//! diff like any other code change.

use std::fs;
use std::path::PathBuf;

/// Environment variable that switches comparison to regeneration.
pub const UPDATE_ENV: &str = "FILTERWATCH_UPDATE_GOLDENS";

/// Whether this process is in regeneration mode.
// The switch chooses whether a test writes goldens; no output depends on it.
#[allow(clippy::disallowed_methods)]
pub fn update_mode() -> bool {
    std::env::var(UPDATE_ENV).map(|v| v == "1").unwrap_or(false)
}

/// Path of a named golden file.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{name}.golden"))
}

/// Compare `actual` against the checked-in golden `name`, or rewrite it
/// in update mode. Errors carry the first differing line and the
/// regeneration instructions.
pub fn check_golden(name: &str, actual: &str) -> Result<(), String> {
    let path = golden_path(name);
    if update_mode() {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        fs::write(&path, actual).map_err(|e| format!("write {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing golden {name:?} ({}): {e}\nrun with {UPDATE_ENV}=1 to create it",
            path.display()
        )
    })?;
    if expected == actual {
        return Ok(());
    }
    Err(format!(
        "golden {name:?} drifted ({}):\n{}\nif the change is intentional, regenerate with \
         {UPDATE_ENV}=1 and commit the diff",
        path.display(),
        crate::invariants::first_diff(&expected, actual)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_land_in_the_crate_goldens_dir() {
        let p = golden_path("demo");
        assert!(p.ends_with("goldens/demo.golden"));
        assert!(p.starts_with(env!("CARGO_MANIFEST_DIR")));
    }

    #[test]
    fn missing_golden_mentions_the_update_env() {
        // Not in update mode in CI/test runs.
        if update_mode() {
            return;
        }
        let err = check_golden("definitely-not-checked-in", "x").unwrap_err();
        assert!(err.contains(UPDATE_ENV), "{err}");
    }
}
