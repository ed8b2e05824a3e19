//! T1 — virtual-time hygiene.
//!
//! The discrete-event kernel owns the virtual clock; everything else
//! may only move it forward through the sanctioned APIs. Two kinds:
//!
//! - `backwards-arith`: a statement that builds or adjusts a `SimTime`
//!   with a `-` outside the sanctioned kernel paths
//!   ([`crate::rules::Config::sim_time_sanctioned`]). `SimTime`
//!   deliberately has no `Sub` impl; this catches the workarounds
//!   (`SimTime::from_secs(now.secs() - slack)`) that can underflow or
//!   schedule into the past.
//! - `wall-feeds-queue`: a statement where a wall-clock reading
//!   (`elapsed`/`Instant`/`SystemTime`) feeds a scheduling call
//!   (`schedule*`, `advance_*`, `plus_*`, `park_until`). Wall time in
//!   the event queue breaks replayability everywhere, including the
//!   kernel itself, so this kind has no sanctioned path.

use crate::diag::{Diagnostic, Severity};
use crate::lex::TokKind;
use crate::model::FileModel;
use crate::rules::Config;

/// Scheduling-family identifiers that feed the virtual queue.
const QUEUE_FEEDERS: &[&str] = &[
    "schedule",
    "schedule_at",
    "schedule_in",
    "advance_secs",
    "advance_to",
    "plus_secs",
    "plus_days",
    "park_until",
];

/// Wall-clock reading identifiers.
const WALL_IDENTS: &[&str] = &["elapsed", "Instant", "SystemTime"];

pub fn check(m: &FileModel, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let sanctioned = cfg.sim_time_sanctioned.iter().any(|p| m.path.ends_with(p));
    for f in &m.fns {
        if m.in_test(f.line) {
            continue;
        }
        let hi = f.body_end.min(m.toks.len());
        // Statement-ish spans: split the body on `;` and `{`/`}` so a
        // `-` in one statement never pairs with a `SimTime` in another.
        let mut start = f.body_start;
        for i in f.body_start..=hi.min(m.toks.len().saturating_sub(1)) {
            let t = &m.toks[i];
            let boundary = i == hi || t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
            if !boundary {
                continue;
            }
            let stmt = &m.toks[start..i];
            start = i + 1;
            if stmt.is_empty() {
                continue;
            }
            let has = |name: &str| stmt.iter().any(|t| t.is_ident(name));

            if !sanctioned && has("SimTime") {
                // A bare `-` that is not the `->` arrow.
                let minus = stmt
                    .windows(2)
                    .any(|w| w[0].is_punct('-') && !w[1].is_punct('>'))
                    || stmt.last().is_some_and(|t| t.is_punct('-'));
                if minus {
                    out.push(Diagnostic {
                        rule: "t1-sim-time",
                        severity: Severity::Error,
                        file: m.path.clone(),
                        line: stmt[0].line,
                        function: Some(f.qualified()),
                        kind: "backwards-arith".into(),
                        message: format!(
                            "`SimTime` arithmetic with `-` in `{}` outside the kernel's \
                             sanctioned paths; virtual time must only move forward — use \
                             abs_diff/plus_* or move the logic into netsim::kernel",
                            f.qualified()
                        ),
                    });
                }
            }

            let feeder = stmt
                .iter()
                .any(|t| t.kind == TokKind::Ident && QUEUE_FEEDERS.contains(&t.text.as_str()));
            let wall = stmt
                .iter()
                .any(|t| t.kind == TokKind::Ident && WALL_IDENTS.contains(&t.text.as_str()));
            if feeder && wall {
                out.push(Diagnostic {
                    rule: "t1-sim-time",
                    severity: Severity::Error,
                    file: m.path.clone(),
                    line: stmt[0].line,
                    function: Some(f.qualified()),
                    kind: "wall-feeds-queue".into(),
                    message: format!(
                        "wall-clock reading feeds a virtual-queue scheduling call in `{}`; \
                         durations entering the event queue must derive from SimTime, never \
                         from Instant/SystemTime/elapsed",
                        f.qualified()
                    ),
                });
            }
        }
    }
}
