//! Checkpoint wire format.
//!
//! Every stage transition writes one tab-separated line: a version
//! token, the campaign descriptor, the stage cursor to resume at, the
//! virtual clock, one field per completed case study, and a trailing
//! FNV-1a digest so a truncated or hand-edited line is rejected at
//! parse time. Restores are replay-based — the world is a pure
//! function of the descriptor, so re-executing the stages before the
//! cursor reproduces the exact world state — which makes the completed
//! case fields *cross-checks*: if a replayed case disagrees with what
//! the checkpoint recorded, the code (or the checkpoint) drifted, and
//! resume fails loudly instead of silently producing different tables.

use filterwatch_core::confirm::CaseStudyResult;
use filterwatch_measure::MeasurementQuality;
use filterwatch_telemetry::wire::{
    decode_list, encode_list, field, keyed, optional, split, Wire, WireError, ABSENT,
};

use crate::stage::{CampaignDescriptor, StageState};

/// Version token leading every checkpoint line.
const VERSION: &str = "ckpt:v1";

/// FNV-1a 64-bit, the workspace's standard small digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The durable summary of one completed case study: every counter the
/// confirm table renders from, plus the measurement-quality line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseCkpt {
    /// Case-study index (spec order).
    pub index: usize,
    /// Sites accessible before submission (`None` when pre-verification
    /// was skipped).
    pub accessible_before: Option<usize>,
    /// Submissions the vendor channel accepted.
    pub submissions_accepted: usize,
    /// Submitted sites found blocked at retest.
    pub submitted_blocked: usize,
    /// Held-out sites found blocked at retest.
    pub holdout_blocked: usize,
    /// Retest verdicts the machinery declined to render.
    pub retest_inconclusive: usize,
    /// The §4.2 confirmation verdict.
    pub confirmed: bool,
    /// Block-page product attributions (deduplicated, in first-seen
    /// order).
    pub attributed: Vec<String>,
    /// The case client's measurement-quality counters.
    pub quality: MeasurementQuality,
}

impl CaseCkpt {
    /// Capture a completed [`CaseStudyResult`].
    pub fn from_result(index: usize, result: &CaseStudyResult) -> CaseCkpt {
        CaseCkpt {
            index,
            accessible_before: result.accessible_before,
            submissions_accepted: result.submissions_accepted,
            submitted_blocked: result.submitted_blocked,
            holdout_blocked: result.holdout_blocked,
            retest_inconclusive: result.retest_inconclusive,
            confirmed: result.confirmed,
            attributed: result.attributed_products.clone(),
            quality: result.quality,
        }
    }
}

/// One checkpoint field: space-separated `key:value` sub-fields, `attr:`
/// a list field (`-` when empty), and the quality line trailing after
/// `q:`.
impl Wire for CaseCkpt {
    fn to_line(&self) -> String {
        format!(
            "case:{} acc:{} ok:{} blk:{} hold:{} inc:{} conf:{} attr:{} q:{}",
            self.index,
            self.accessible_before
                .map_or_else(|| ABSENT.to_string(), |n| n.to_string()),
            self.submissions_accepted,
            self.submitted_blocked,
            self.holdout_blocked,
            self.retest_inconclusive,
            if self.confirmed { "yes" } else { "no" },
            if self.attributed.is_empty() {
                ABSENT.to_string()
            } else {
                encode_list(&self.attributed)
            },
            self.quality.to_line(),
        )
    }

    fn parse_line(line: &str) -> Result<CaseCkpt, WireError> {
        let (head, quality) = line
            .split_once(" q:")
            .ok_or_else(|| WireError::new("q", "missing quality line"))?;
        let [index, acc, ok, blk, hold, inc, conf, attr] = split(head, ' ')?;
        let count = |key, text| field(key, keyed(key, ':', text)?);
        Ok(CaseCkpt {
            index: count("case", index)?,
            accessible_before: optional(keyed("acc", ':', acc)?, |n| field("acc", n))?,
            submissions_accepted: count("ok", ok)?,
            submitted_blocked: count("blk", blk)?,
            holdout_blocked: count("hold", hold)?,
            retest_inconclusive: count("inc", inc)?,
            confirmed: match keyed("conf", ':', conf)? {
                "yes" => true,
                "no" => false,
                other => return Err(WireError::new("conf", format!("{other:?} is not yes/no"))),
            },
            attributed: match keyed("attr", ':', attr)? {
                ABSENT => Vec::new(),
                list => decode_list("attr", list)?,
            },
            quality: MeasurementQuality::parse_line(quality)?,
        })
    }
}

/// One campaign checkpoint: everything needed to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Which campaign to rebuild (the world is a pure function of it).
    pub descriptor: CampaignDescriptor,
    /// The stage to resume at (everything before it is replayed).
    pub stage: StageState,
    /// The campaign's virtual clock at this boundary, in seconds —
    /// cross-checked against the replayed clock on resume.
    pub clock_secs: u64,
    /// Completed case studies, in spec order — cross-checked against
    /// the replayed results on resume.
    pub cases: Vec<CaseCkpt>,
}

/// One tab-separated line ending in a self-integrity digest.
impl Wire for CampaignCheckpoint {
    fn to_line(&self) -> String {
        let mut line = format!(
            "{VERSION}\tcampaign:{}\tstage:{}\tclock:{}",
            self.descriptor.to_line(),
            self.stage.to_line(),
            self.clock_secs
        );
        for case in &self.cases {
            line.push('\t');
            line.push_str(&case.to_line());
        }
        let digest = fnv1a64(line.as_bytes());
        line.push_str(&format!("\tdigest:{digest:016x}"));
        line
    }

    /// Checks the digest before anything else, so a truncated or
    /// corrupted line fails on the `digest` field.
    fn parse_line(line: &str) -> Result<CampaignCheckpoint, WireError> {
        let (body, digest) = line
            .rsplit_once('\t')
            .ok_or_else(|| WireError::new("digest", "line has no fields"))?;
        let hex = keyed("digest", ':', digest)?;
        let got = format!("{:016x}", fnv1a64(body.as_bytes()));
        if hex != got {
            return Err(WireError::new(
                "digest",
                format!("mismatch: line says {hex:?}, content hashes to {got}"),
            ));
        }
        let mut fields = body.split('\t');
        let mut next = || fields.next().unwrap_or_default();
        let version = next();
        if version != VERSION {
            return Err(WireError::new(
                "version",
                format!("unsupported checkpoint version {version:?}"),
            ));
        }
        let descriptor = CampaignDescriptor::parse_line(keyed("campaign", ':', next())?)?;
        let stage = StageState::parse_line(keyed("stage", ':', next())?)?;
        let clock_secs = field("clock", keyed("clock", ':', next())?)?;
        let cases = fields
            .map(CaseCkpt::parse_line)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some((i, case)) = cases.iter().enumerate().find(|(i, c)| c.index != *i) {
            return Err(WireError::new(
                "case",
                format!("out of order: position {i} holds case {}", case.index),
            ));
        }
        Ok(CampaignCheckpoint {
            descriptor,
            stage,
            clock_secs,
            cases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::CampaignKind;

    fn sample_case(index: usize) -> CaseCkpt {
        CaseCkpt {
            index,
            accessible_before: if index % 2 == 0 { Some(10) } else { None },
            submissions_accepted: 5,
            submitted_blocked: 5,
            holdout_blocked: 0,
            retest_inconclusive: 1,
            confirmed: true,
            attributed: vec!["smartfilter".to_string(), "netsweeper".to_string()],
            quality: MeasurementQuality {
                fetch_attempts: 40,
                retries: 3,
                breaker_trips: 1,
                breaker_skips: 2,
                quorum_trials: 30,
                inconclusive: 1,
                verdicts: 20,
            },
        }
    }

    #[test]
    fn case_fields_round_trip() {
        for index in 0..4 {
            let case = sample_case(index);
            assert_eq!(CaseCkpt::parse_line(&case.to_line()), Ok(case));
        }
        let empty_attr = CaseCkpt {
            attributed: Vec::new(),
            ..sample_case(0)
        };
        assert_eq!(CaseCkpt::parse_line(&empty_attr.to_line()), Ok(empty_attr));
        assert!(CaseCkpt::parse_line("").is_err());
        assert!(CaseCkpt::parse_line("case:0 acc:-").is_err());
    }

    #[test]
    fn checkpoint_lines_round_trip() {
        let ckpt = CampaignCheckpoint {
            descriptor: CampaignDescriptor::new(CampaignKind::Demo, 5).with_trace(),
            stage: StageState::Wait {
                case: 2,
                deadline_secs: 4_060_800,
            },
            clock_secs: 3_715_200,
            cases: vec![sample_case(0), sample_case(1)],
        };
        let line = ckpt.to_line();
        assert_eq!(CampaignCheckpoint::parse_line(&line), Ok(ckpt));
    }

    #[test]
    fn tampered_lines_are_rejected() {
        let ckpt = CampaignCheckpoint {
            descriptor: CampaignDescriptor::new(CampaignKind::Standard, 5),
            stage: StageState::Identify,
            clock_secs: 0,
            cases: Vec::new(),
        };
        let line = ckpt.to_line();
        let tampered = line.replace("clock:0", "clock:1");
        let err = CampaignCheckpoint::parse_line(&tampered).unwrap_err();
        assert_eq!(err.field, "digest");
        assert!(err.reason.contains("mismatch"), "{err}");
        assert!(CampaignCheckpoint::parse_line("").is_err());
        assert!(CampaignCheckpoint::parse_line("ckpt:v1").is_err());
        // Truncation drops the digest field.
        let (body, _) = line.rsplit_once('\t').expect("has digest");
        assert!(CampaignCheckpoint::parse_line(body).is_err());
    }

    #[test]
    fn out_of_order_cases_are_rejected() {
        let good = CampaignCheckpoint {
            descriptor: CampaignDescriptor::new(CampaignKind::Demo, 1),
            stage: StageState::Characterize,
            clock_secs: 100,
            cases: vec![sample_case(1)],
        };
        let err = CampaignCheckpoint::parse_line(&good.to_line()).unwrap_err();
        assert_eq!(err.field, "case");
        assert!(err.reason.contains("out of order"), "{err}");
    }
}
