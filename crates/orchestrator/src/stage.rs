//! Typed campaign stages and the campaign descriptor.
//!
//! A campaign's position in the methodology is an explicit value: one
//! of the [`StageState`] variants, with the case-study cursor and any
//! pending wait deadline inside it. The orchestrator only ever holds a
//! campaign *between* stages, so a [`StageState`] plus the campaign's
//! [`CampaignDescriptor`] (which world to rebuild) is exactly what a
//! checkpoint needs to carry. Both implement the shared
//! [`Wire`] line codec.

use filterwatch_telemetry::wire::{field, Wire, WireError};

/// Which campaign a descriptor rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// The paper's full campaign: ten Table 3 case studies.
    Standard,
    /// The reduced four-case demo campaign.
    Demo,
    /// A testkit generated-world campaign (the factory that owns the
    /// seed decides the topology).
    Generated,
}

filterwatch_telemetry::wire_enum! {
    CampaignKind: "campaign" {
        Standard => "standard",
        Demo => "demo",
        Generated => "generated",
    }
}

/// Everything needed to rebuild a campaign's world from scratch: the
/// campaign kind, its seed, and the chaos/trace toggles. Since worlds
/// are pure functions of the seed, this is the whole identity of a
/// campaign — a checkpoint carries a descriptor instead of any world
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDescriptor {
    /// Which campaign to rebuild.
    pub kind: CampaignKind,
    /// World seed.
    pub seed: u64,
    /// Arm measurement clients with the chaos resilience config.
    pub chaos: bool,
    /// Record a full causal trace.
    pub trace: bool,
}

impl CampaignDescriptor {
    /// A clean descriptor for the given kind and seed.
    pub fn new(kind: CampaignKind, seed: u64) -> CampaignDescriptor {
        CampaignDescriptor {
            kind,
            seed,
            chaos: false,
            trace: false,
        }
    }

    /// Builder-style: arm the chaos resilience config.
    pub fn with_chaos(mut self) -> CampaignDescriptor {
        self.chaos = true;
        self
    }

    /// Builder-style: record a full causal trace.
    pub fn with_trace(mut self) -> CampaignDescriptor {
        self.trace = true;
        self
    }
}

/// `kind:seed` plus optional `:chaos` and `:trace` flags.
impl Wire for CampaignDescriptor {
    fn to_line(&self) -> String {
        let mut line = format!("{}:{}", self.kind.to_token(), self.seed);
        if self.chaos {
            line.push_str(":chaos");
        }
        if self.trace {
            line.push_str(":trace");
        }
        line
    }

    fn parse_line(line: &str) -> Result<CampaignDescriptor, WireError> {
        let mut parts = line.split(':');
        let kind = CampaignKind::parse_token(parts.next().unwrap_or_default())?;
        let seed = field("seed", parts.next().unwrap_or_default())?;
        let mut descriptor = CampaignDescriptor::new(kind, seed);
        for flag in parts {
            match flag {
                "chaos" => descriptor.chaos = true,
                "trace" => descriptor.trace = true,
                other => {
                    return Err(WireError::new(
                        "campaign",
                        format!("unknown flag {other:?}"),
                    ))
                }
            }
        }
        Ok(descriptor)
    }
}

/// Where a campaign stands in the methodology. The per-case stages
/// carry the case-study cursor; `Wait` additionally carries the
/// absolute virtual-clock deadline the scheduler fires it at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageState {
    /// Stage 1: identify installations across the simulated Internet.
    Identify,
    /// Stage 2a: open case scopes, create controlled sites, pre-verify.
    Baseline {
        /// Case-study index (spec order).
        case: usize,
    },
    /// Stage 2b: submit the chosen subset to the vendor channel.
    Submit {
        /// Case-study index (spec order).
        case: usize,
    },
    /// Stage 2c: parked until the vendor review period elapses.
    Wait {
        /// Case-study index (spec order).
        case: usize,
        /// Absolute virtual-clock deadline in seconds.
        deadline_secs: u64,
    },
    /// Stage 2d: retest every site and render the case verdict.
    Retest {
        /// Case-study index (spec order).
        case: usize,
    },
    /// Stage 3: characterize every ISP where some product confirmed.
    Characterize,
    /// Nothing left to execute.
    Done,
}

/// The head token of a [`StageState`] line, one per variant.
/// [`StageState::head`] maps onto it and `parse_line` matches on it
/// exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageHead {
    /// [`StageState::Identify`]
    Identify,
    /// [`StageState::Baseline`]
    Baseline,
    /// [`StageState::Submit`]
    Submit,
    /// [`StageState::Wait`]
    Wait,
    /// [`StageState::Retest`]
    Retest,
    /// [`StageState::Characterize`]
    Characterize,
    /// [`StageState::Done`]
    Done,
}

filterwatch_telemetry::wire_enum! {
    StageHead: "stage" {
        Identify => "identify",
        Baseline => "baseline",
        Submit => "submit",
        Wait => "wait",
        Retest => "retest",
        Characterize => "characterize",
        Done => "done",
    }
}

/// The stage's head token, then the case cursor for per-case stages
/// and the deadline for `Wait`, colon-separated.
impl Wire for StageState {
    fn to_line(&self) -> String {
        let head = self.head().to_token();
        match self {
            StageState::Identify | StageState::Characterize | StageState::Done => head.to_string(),
            StageState::Baseline { case }
            | StageState::Submit { case }
            | StageState::Retest { case } => format!("{head}:{case}"),
            StageState::Wait {
                case,
                deadline_secs,
            } => format!("{head}:{case}:{deadline_secs}"),
        }
    }

    fn parse_line(line: &str) -> Result<StageState, WireError> {
        let mut parts = line.split(':');
        let head = StageHead::parse_token(parts.next().unwrap_or_default())?;
        let mut next = || parts.next().unwrap_or_default();
        let stage = match head {
            StageHead::Identify => StageState::Identify,
            StageHead::Baseline => StageState::Baseline {
                case: field("case", next())?,
            },
            StageHead::Submit => StageState::Submit {
                case: field("case", next())?,
            },
            StageHead::Wait => StageState::Wait {
                case: field("case", next())?,
                deadline_secs: field("deadline", next())?,
            },
            StageHead::Retest => StageState::Retest {
                case: field("case", next())?,
            },
            StageHead::Characterize => StageState::Characterize,
            StageHead::Done => StageState::Done,
        };
        if parts.next().is_some() {
            return Err(WireError::new(
                "stage",
                format!("trailing fields in {line:?}"),
            ));
        }
        Ok(stage)
    }
}

impl StageState {
    /// This stage's head token.
    pub fn head(&self) -> StageHead {
        match self {
            StageState::Identify => StageHead::Identify,
            StageState::Baseline { .. } => StageHead::Baseline,
            StageState::Submit { .. } => StageHead::Submit,
            StageState::Wait { .. } => StageHead::Wait,
            StageState::Retest { .. } => StageHead::Retest,
            StageState::Characterize => StageHead::Characterize,
            StageState::Done => StageHead::Done,
        }
    }

    /// The case-study cursor, for the per-case stages.
    pub fn case(&self) -> Option<usize> {
        match self {
            StageState::Baseline { case }
            | StageState::Submit { case }
            | StageState::Wait { case, .. }
            | StageState::Retest { case } => Some(*case),
            _ => None,
        }
    }

    /// The boundary after this one in a campaign with `cases` case
    /// studies: the one stage order the scheduler drives and replay
    /// retraces. A `Wait` comes back with a zero deadline, which the
    /// scheduler fills in when it announces the wait.
    pub(crate) fn successor(&self, cases: usize) -> StageState {
        let case_or_characterize = |case: usize| {
            if case < cases {
                StageState::Baseline { case }
            } else {
                StageState::Characterize
            }
        };
        match *self {
            StageState::Identify => case_or_characterize(0),
            StageState::Baseline { case } => StageState::Submit { case },
            StageState::Submit { case } => StageState::Wait {
                case,
                deadline_secs: 0,
            },
            StageState::Wait { case, .. } => StageState::Retest { case },
            StageState::Retest { case } => case_or_characterize(case + 1),
            StageState::Characterize | StageState::Done => StageState::Done,
        }
    }

    /// Whether two stages are the same boundary, ignoring the `Wait`
    /// deadline payload (which replay recomputes and cross-checks).
    pub fn same_boundary(&self, other: &StageState) -> bool {
        match (self, other) {
            (StageState::Wait { case: a, .. }, StageState::Wait { case: b, .. }) => a == b,
            _ => self == other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_lines_round_trip() {
        let stages = [
            StageState::Identify,
            StageState::Baseline { case: 0 },
            StageState::Submit { case: 3 },
            StageState::Wait {
                case: 2,
                deadline_secs: 3_456_000,
            },
            StageState::Retest { case: 9 },
            StageState::Characterize,
            StageState::Done,
        ];
        for stage in &stages {
            assert_eq!(StageState::parse_line(&stage.to_line()), Ok(stage.clone()));
        }
        assert!(StageState::parse_line("").is_err());
        assert!(StageState::parse_line("baseline").is_err());
        assert!(StageState::parse_line("wait:1").is_err());
        assert!(StageState::parse_line("identify:0").is_err());
        assert!(StageState::parse_line("quarantine:1").is_err());
    }

    #[test]
    fn descriptor_lines_round_trip() {
        let descriptors = [
            CampaignDescriptor::new(CampaignKind::Standard, 5),
            CampaignDescriptor::new(CampaignKind::Demo, 19).with_trace(),
            CampaignDescriptor::new(CampaignKind::Generated, 7).with_chaos(),
            CampaignDescriptor::new(CampaignKind::Demo, u64::MAX)
                .with_chaos()
                .with_trace(),
        ];
        for d in &descriptors {
            assert_eq!(CampaignDescriptor::parse_line(&d.to_line()), Ok(d.clone()));
        }
        assert!(CampaignDescriptor::parse_line("demo").is_err());
        assert!(CampaignDescriptor::parse_line("demo:x").is_err());
        assert!(CampaignDescriptor::parse_line("demo:5:loud").is_err());
        assert!(CampaignDescriptor::parse_line("paper:5").is_err());
    }

    #[test]
    fn same_boundary_ignores_wait_deadline() {
        let a = StageState::Wait {
            case: 1,
            deadline_secs: 100,
        };
        let b = StageState::Wait {
            case: 1,
            deadline_secs: 999,
        };
        assert!(a.same_boundary(&b));
        assert!(!a.same_boundary(&StageState::Wait {
            case: 2,
            deadline_secs: 100
        }));
        assert!(!a.same_boundary(&StageState::Retest { case: 1 }));
    }
}
