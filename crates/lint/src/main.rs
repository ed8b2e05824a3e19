//! The `filterwatch-lint` binary.
//!
//! ```text
//! filterwatch-lint [--root PATH] [--format text|json|sarif] [--baseline PATH]
//!                  [--no-baseline] [--write-baseline] [--migrate-baseline]
//!                  [--include-shims] [--all]
//! ```
//!
//! Exit codes: `0` — no unbaselined findings; `1` — baseline drift
//! (new findings or stale entries); `2` — usage or I/O error.

use filterwatch_lint::{
    baseline::Baseline,
    collect_workspace_files,
    diag::{render_json, render_sarif},
    find_workspace_root, lint_files, Config, DEFAULT_BASELINE_PATH,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    format: Format,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: bool,
    migrate_baseline: bool,
    include_shims: bool,
    show_all: bool,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "\
filterwatch-lint — determinism static analysis

USAGE: filterwatch-lint [OPTIONS]

OPTIONS:
  --root PATH        workspace root (default: nearest [workspace] Cargo.toml)
  --format FMT       text (default), json, or sarif (SARIF 2.1.0)
  --baseline PATH    baseline file (default: crates/lint/baseline.tsv)
  --no-baseline      report raw findings; skip baseline gating
  --write-baseline   accept all current findings into the baseline file
  --migrate-baseline one-shot v1 -> v2 fingerprint migration of the baseline file
  --include-shims    also scan the vendored shims/ crates
  --all              text mode: print baselined findings too
  --help             this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Text,
        baseline: None,
        no_baseline: false,
        write_baseline: false,
        migrate_baseline: false,
        include_shims: false,
        show_all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?)),
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!("--format must be text|json|sarif, got {other:?}"))
                    }
                }
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?))
            }
            "--no-baseline" => args.no_baseline = true,
            "--write-baseline" => args.write_baseline = true,
            "--migrate-baseline" => args.migrate_baseline = true,
            "--include-shims" => args.include_shims = true,
            "--all" => args.show_all = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory; pass --root")?
        }
    };
    let cfg = Config::workspace_default();
    let files = collect_workspace_files(&root, args.include_shims)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;
    // Self-run timing for the CI log: wall time never reaches any
    // rendered artifact, stderr only.
    // filterwatch-lint: allow(d1-wall-clock): analyzer self-timing for the CI log
    let started = std::time::Instant::now();
    let diags = lint_files(&files, &cfg);
    eprintln!(
        "filterwatch-lint: analyzed {} files in {} ms",
        files.len(),
        started.elapsed().as_millis()
    );

    let baseline_path = args
        .baseline
        .unwrap_or_else(|| root.join(DEFAULT_BASELINE_PATH));

    if args.migrate_baseline {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
        let old = Baseline::parse(&text)?;
        let (migrated, dropped) = old.migrate(&diags);
        std::fs::write(&baseline_path, migrated.render())
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        eprintln!(
            "migrated {} -> {} accepted finding classes in {}",
            old.len(),
            migrated.len(),
            baseline_path.display()
        );
        for fp in &dropped {
            eprintln!("  pruned stale legacy entry: {}", fp.replace('\t', "  "));
        }
        return Ok(ExitCode::SUCCESS);
    }

    if args.write_baseline {
        let b = Baseline::from_diagnostics(&diags);
        std::fs::write(&baseline_path, b.render())
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        eprintln!(
            "wrote {} accepted finding classes ({} findings) to {}",
            b.len(),
            diags.len(),
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let (baseline, drift) = if args.no_baseline {
        (Baseline::default(), None)
    } else {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
        let b = Baseline::parse(&text)?;
        let drift = b.drift(&diags);
        (b, Some(drift))
    };

    match args.format {
        Format::Json => print!("{}", render_json(&diags, drift.as_ref())),
        Format::Sarif => print!("{}", render_sarif(&diags)),
        Format::Text => {
            let drifting: std::collections::BTreeSet<&str> = drift
                .as_ref()
                .map(|d| d.new.iter().map(|(fp, _)| fp.as_str()).collect())
                .unwrap_or_default();
            for d in &diags {
                let is_new = args.no_baseline || drifting.contains(d.fingerprint().as_str());
                if args.show_all || is_new {
                    let tag = if is_new && !args.no_baseline {
                        "NEW "
                    } else {
                        ""
                    };
                    println!("{tag}{}", d.render_text());
                }
            }
            let (e, w, i) = diags
                .iter()
                .fold((0, 0, 0), |(e, w, i), d| match d.severity {
                    filterwatch_lint::Severity::Error => (e + 1, w, i),
                    filterwatch_lint::Severity::Warning => (e, w + 1, i),
                    filterwatch_lint::Severity::Info => (e, w, i + 1),
                });
            println!(
                "{} findings ({e} errors, {w} warnings, {i} info) across {} files",
                diags.len(),
                files.len()
            );
            if let Some(drift) = &drift {
                println!(
                    "baseline: {} accepted classes; drift: {} new, {} stale",
                    baseline.len(),
                    drift.new.len(),
                    drift.stale.len()
                );
                for (fp, n) in &drift.new {
                    println!("  NEW   x{n}  {}", fp.replace('\t', "  "));
                }
                for (fp, n) in &drift.stale {
                    println!(
                        "  STALE x{n}  {} (remove from baseline)",
                        fp.replace('\t', "  ")
                    );
                }
            }
        }
    }

    let failed = drift.as_ref().is_some_and(|d| !d.is_empty());
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("filterwatch-lint: {e}");
            ExitCode::from(2)
        }
    }
}
