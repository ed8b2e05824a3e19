//! Virtual time.
//!
//! The confirmation methodology is clocked in *days*: submit sites, wait
//! 3–5 days for vendor review, retest. The simulation keeps a virtual
//! clock in seconds (day 0 = experiment epoch) that the world advances
//! explicitly — nothing ever reads wall-clock time, which is what makes
//! runs reproducible.

/// A point in virtual time, stored as whole seconds since the simulation
/// epoch (day 0, 00:00).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// Seconds per virtual day.
pub const SECS_PER_DAY: u64 = 86_400;

impl SimTime {
    /// The epoch (day 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A time from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// A time from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * SECS_PER_DAY)
    }

    /// Seconds since the epoch.
    pub const fn secs(&self) -> u64 {
        self.0
    }

    /// Whole days since the epoch (floor).
    pub const fn days(&self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// This time advanced by `secs` seconds.
    pub const fn plus_secs(&self, secs: u64) -> SimTime {
        SimTime(self.0 + secs)
    }

    /// This time advanced by `days` days.
    pub const fn plus_days(&self, days: u64) -> SimTime {
        SimTime(self.0 + days * SECS_PER_DAY)
    }

    /// Absolute difference in seconds.
    pub const fn abs_diff(&self, other: SimTime) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        filterwatch_telemetry::write_vtime(f, self.0)
    }
}

impl std::str::FromStr for SimTime {
    type Err = String;

    /// Parse the `Display` form, `day D hh:mm:ss`.
    fn from_str(s: &str) -> Result<Self, String> {
        let rest = s
            .strip_prefix("day ")
            .ok_or_else(|| format!("SimTime must start with 'day ': {s:?}"))?;
        let (day, clock) = rest
            .split_once(' ')
            .ok_or_else(|| format!("missing clock part in {s:?}"))?;
        let day: u64 = day.parse().map_err(|e| format!("bad day in {s:?}: {e}"))?;
        let mut parts = clock.split(':');
        let mut next = |what: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or_else(|| format!("missing {what} in {s:?}"))?
                .parse()
                .map_err(|e| format!("bad {what} in {s:?}: {e}"))
        };
        let (h, m, sec) = (next("hours")?, next("minutes")?, next("seconds")?);
        if parts.next().is_some() {
            return Err(format!("trailing clock fields in {s:?}"));
        }
        if h >= 24 || m >= 60 || sec >= 60 {
            return Err(format!("clock fields out of range in {s:?}"));
        }
        day.checked_mul(SECS_PER_DAY)
            .and_then(|secs| secs.checked_add(h * 3600 + m * 60 + sec))
            .map(SimTime)
            .ok_or_else(|| format!("day out of range in {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_days(3).plus_secs(3661);
        assert_eq!(t.days(), 3);
        assert_eq!(t.secs(), 3 * SECS_PER_DAY + 3661);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_days(2) < SimTime::from_days(3));
        assert!(SimTime::ZERO <= SimTime::from_secs(0));
    }

    #[test]
    fn display_format() {
        assert_eq!(
            SimTime::from_days(2).plus_secs(3723).to_string(),
            "day 2 01:02:03"
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for t in [
            SimTime::ZERO,
            SimTime::from_days(2).plus_secs(3723),
            SimTime::from_secs(86_399),
        ] {
            let parsed: SimTime = t.to_string().parse().unwrap();
            assert_eq!(parsed, t);
        }
        assert!("2 01:02:03".parse::<SimTime>().is_err());
        assert!("day x 01:02:03".parse::<SimTime>().is_err());
        assert!("day 1 25:00:00".parse::<SimTime>().is_err());
        assert!("day 1 01:02".parse::<SimTime>().is_err());
        assert!("day 1 01:02:03:04".parse::<SimTime>().is_err());
        // Out of range, not an overflow panic.
        assert!("day 999999999999999999 00:00:00"
            .parse::<SimTime>()
            .is_err());
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(25);
        assert_eq!(a.abs_diff(b), 15);
        assert_eq!(b.abs_diff(a), 15);
    }
}
