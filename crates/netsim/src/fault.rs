//! Per-network fault injection.
//!
//! Real measurement campaigns fight flaky paths: timeouts, resets,
//! variable latency. §4.4 of the paper hinges on exactly this — Yemeni
//! filtering went "offline" intermittently, forcing repeated runs. Each
//! simulated network carries a [`FaultProfile`]; every fetch samples it
//! from the world's seeded RNG, so flakiness is reproducible.
//!
//! The v2 profile models the full fault taxonomy campaigns see in the
//! wild:
//!
//! * **probabilistic transport faults** — packet drop ([`Fault::Timeout`]),
//!   TCP reset ([`Fault::Reset`]), resolver failure ([`Fault::DnsFailure`])
//!   and truncated transfers ([`Fault::Truncated`]), each with its own
//!   probability;
//! * **latency jitter** — a per-flow latency sample around the base path
//!   latency, which retry engines use to advance the virtual clock;
//! * **deterministic outage windows** — the path is down for `[from,
//!   until)` on the virtual clock, reproducing §4.4's "the filtering
//!   ... went offline for stretches". Outages are pure functions of the
//!   clock, not the RNG, so they strike identically across runs.
//!
//! Probabilities are validated at construction ([`FaultProfile::try_new`])
//! so a malformed profile fails fast instead of panicking mid-campaign.

use rand::Rng;

use crate::time::SimTime;

/// A transport-level failure injected into a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The request (or its response) was silently dropped.
    Timeout,
    /// The connection was reset mid-flight.
    Reset,
    /// The resolver failed transiently (SERVFAIL), despite the name
    /// being registered.
    DnsFailure,
    /// The response was cut off mid-transfer; the partial body is
    /// unusable.
    Truncated,
    /// The path is inside a deterministic outage window; the flow times
    /// out. Carries the window's end so clients know when to retry.
    Outage {
        /// Virtual time at which the outage window closes.
        resumes_at: SimTime,
    },
}

/// A deterministic outage: the path is down for `[from, until)` on the
/// virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First second of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive).
    pub until: SimTime,
}

impl OutageWindow {
    /// A window covering `[from, until)`.
    ///
    /// # Errors
    /// When the window is empty or inverted.
    pub fn try_new(from: SimTime, until: SimTime) -> Result<Self, FaultProfileError> {
        if from >= until {
            return Err(FaultProfileError::EmptyOutage { from, until });
        }
        Ok(OutageWindow { from, until })
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    /// Window length in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.until.secs() - self.from.secs()
    }
}

/// Why a [`FaultProfile`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultProfileError {
    /// A probability field was outside `[0, 1]` (or not finite).
    BadProbability {
        /// Which field was rejected.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An outage window was empty or inverted.
    EmptyOutage {
        /// Claimed start.
        from: SimTime,
        /// Claimed end.
        until: SimTime,
    },
}

impl std::fmt::Display for FaultProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultProfileError::BadProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            FaultProfileError::EmptyOutage { from, until } => {
                write!(f, "outage window [{from}, {until}) is empty")
            }
        }
    }
}

impl std::error::Error for FaultProfileError {}

/// Probabilistic fault model for a network's access path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability a flow times out.
    pub drop_prob: f64,
    /// Probability a flow is reset (sampled after drop).
    pub reset_prob: f64,
    /// Probability resolution fails transiently (sampled before drop;
    /// DNS happens first on a real path).
    pub dns_fail_prob: f64,
    /// Probability the response is truncated mid-transfer (sampled after
    /// reset).
    pub truncate_prob: f64,
    /// Base path latency in milliseconds. Fetches do not advance the
    /// virtual clock themselves; retry engines read the sampled latency
    /// to advance it per attempt.
    pub base_latency_ms: u32,
    /// Maximum additional latency jitter in milliseconds (uniform in
    /// `0..=jitter_ms`, drawn per flow when non-zero).
    pub jitter_ms: u32,
    /// Deterministic outage windows on the virtual clock, checked before
    /// any probabilistic draw.
    pub outages: Vec<OutageWindow>,
}

fn check_prob(field: &'static str, value: f64) -> Result<(), FaultProfileError> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(FaultProfileError::BadProbability { field, value });
    }
    Ok(())
}

impl FaultProfile {
    /// A perfectly clean path.
    pub const fn clean() -> Self {
        FaultProfile {
            drop_prob: 0.0,
            reset_prob: 0.0,
            dns_fail_prob: 0.0,
            truncate_prob: 0.0,
            base_latency_ms: 20,
            jitter_ms: 0,
            outages: Vec::new(),
        }
    }

    /// A validated profile. Every probability must lie in `[0, 1]`; this
    /// is the constructor release campaigns should use, so malformed
    /// configuration surfaces as an error instead of a mid-run panic.
    pub fn try_new(
        drop_prob: f64,
        reset_prob: f64,
        dns_fail_prob: f64,
        truncate_prob: f64,
    ) -> Result<Self, FaultProfileError> {
        check_prob("drop_prob", drop_prob)?;
        check_prob("reset_prob", reset_prob)?;
        check_prob("dns_fail_prob", dns_fail_prob)?;
        check_prob("truncate_prob", truncate_prob)?;
        Ok(FaultProfile {
            drop_prob,
            reset_prob,
            dns_fail_prob,
            truncate_prob,
            ..FaultProfile::clean()
        })
    }

    /// Validate every probability field of an already-built profile
    /// (useful after struct-literal construction).
    pub fn validate(&self) -> Result<(), FaultProfileError> {
        check_prob("drop_prob", self.drop_prob)?;
        check_prob("reset_prob", self.reset_prob)?;
        check_prob("dns_fail_prob", self.dns_fail_prob)?;
        check_prob("truncate_prob", self.truncate_prob)?;
        for w in &self.outages {
            OutageWindow::try_new(w.from, w.until)?;
        }
        Ok(())
    }

    /// A lossy path with the given drop probability.
    ///
    /// # Panics
    /// When `drop_prob` is outside `[0, 1]` — use [`FaultProfile::try_new`]
    /// when the rate comes from configuration.
    // Documented panic; `try_new` is the fallible form for configured rates.
    #[allow(clippy::expect_used)]
    pub fn lossy(drop_prob: f64) -> Self {
        FaultProfile::try_new(drop_prob, 0.0, 0.0, 0.0).expect("invalid drop probability")
    }

    /// A mixed chaos profile for resilience campaigns: `rate` is the
    /// total transient-fault probability, split 40/20/20/20 across
    /// drops, resets, DNS failures and truncation, with latency jitter.
    ///
    /// # Errors
    /// When `rate` is outside `[0, 1]`.
    pub fn chaotic(rate: f64) -> Result<Self, FaultProfileError> {
        check_prob("rate", rate)?;
        Ok(
            FaultProfile::try_new(rate * 0.4, rate * 0.2, rate * 0.2, rate * 0.2)?
                .with_latency(20, 80),
        )
    }

    /// Builder-style: set the transient DNS failure probability
    /// (validated).
    pub fn try_with_dns_failures(mut self, dns_fail_prob: f64) -> Result<Self, FaultProfileError> {
        check_prob("dns_fail_prob", dns_fail_prob)?;
        self.dns_fail_prob = dns_fail_prob;
        Ok(self)
    }

    /// Builder-style: set the truncation probability (validated).
    pub fn try_with_truncation(mut self, truncate_prob: f64) -> Result<Self, FaultProfileError> {
        check_prob("truncate_prob", truncate_prob)?;
        self.truncate_prob = truncate_prob;
        Ok(self)
    }

    /// Builder-style: set base latency and jitter.
    pub fn with_latency(mut self, base_ms: u32, jitter_ms: u32) -> Self {
        self.base_latency_ms = base_ms;
        self.jitter_ms = jitter_ms;
        self
    }

    /// Builder-style: add a deterministic outage window `[from, until)`.
    ///
    /// # Errors
    /// When the window is empty or inverted.
    pub fn try_with_outage(
        mut self,
        from: SimTime,
        until: SimTime,
    ) -> Result<Self, FaultProfileError> {
        self.outages.push(OutageWindow::try_new(from, until)?);
        Ok(self)
    }

    /// The outage window covering `now`, if any.
    pub fn outage_at(&self, now: SimTime) -> Option<&OutageWindow> {
        self.outages.iter().find(|w| w.contains(now))
    }

    /// Whether this profile can never inject a fault.
    pub fn is_clean(&self) -> bool {
        self.drop_prob == 0.0
            && self.reset_prob == 0.0
            && self.dns_fail_prob == 0.0
            && self.truncate_prob == 0.0
            && self.outages.is_empty()
    }

    /// Sample the profile once at virtual time `now`: does this flow
    /// fail, and how?
    ///
    /// Deterministic outage windows are checked first and consume no RNG
    /// draws; probability fields draw only when non-zero, so enabling a
    /// new fault class never perturbs the stream of a profile that does
    /// not use it.
    pub fn sample_at<R: Rng>(&self, now: SimTime, rng: &mut R) -> Option<Fault> {
        if let Some(window) = self.outage_at(now) {
            return Some(Fault::Outage {
                resumes_at: window.until,
            });
        }
        if self.dns_fail_prob > 0.0 && rng.gen_bool(self.dns_fail_prob) {
            return Some(Fault::DnsFailure);
        }
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
            return Some(Fault::Timeout);
        }
        if self.reset_prob > 0.0 && rng.gen_bool(self.reset_prob) {
            return Some(Fault::Reset);
        }
        if self.truncate_prob > 0.0 && rng.gen_bool(self.truncate_prob) {
            return Some(Fault::Truncated);
        }
        None
    }

    /// Sample the profile at the epoch (compatibility shim for callers
    /// without a clock; outage windows starting at time zero still fire).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Fault> {
        self.sample_at(SimTime::ZERO, rng)
    }

    /// Sample this flow's one-way path latency in milliseconds: the base
    /// latency plus uniform jitter. Draws from the RNG only when jitter
    /// is configured.
    pub fn sample_latency_ms<R: Rng>(&self, rng: &mut R) -> u32 {
        if self.jitter_ms == 0 {
            self.base_latency_ms
        } else {
            self.base_latency_ms + rng.gen_range(0..=self.jitter_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn clean_profile_never_fails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = FaultProfile::clean();
        for _ in 0..1000 {
            assert_eq!(p.sample(&mut rng), None);
        }
        assert!(p.is_clean());
    }

    #[test]
    fn always_drop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = FaultProfile::lossy(1.0);
        assert_eq!(p.sample(&mut rng), Some(Fault::Timeout));
    }

    #[test]
    fn reset_only_profile() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = FaultProfile {
            drop_prob: 0.0,
            reset_prob: 1.0,
            base_latency_ms: 10,
            ..FaultProfile::clean()
        };
        assert_eq!(p.sample(&mut rng), Some(Fault::Reset));
    }

    #[test]
    fn dns_and_truncate_faults_fire() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let dns = FaultProfile::clean().try_with_dns_failures(1.0).unwrap();
        assert_eq!(dns.sample(&mut rng), Some(Fault::DnsFailure));
        let trunc = FaultProfile::clean().try_with_truncation(1.0).unwrap();
        assert_eq!(trunc.sample(&mut rng), Some(Fault::Truncated));
    }

    #[test]
    fn lossy_rate_is_roughly_respected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let p = FaultProfile::lossy(0.3);
        let fails = (0..10_000).filter(|_| p.sample(&mut rng).is_some()).count();
        assert!((2_500..3_500).contains(&fails), "observed {fails}");
    }

    #[test]
    #[should_panic]
    fn lossy_rejects_out_of_range() {
        let _ = FaultProfile::lossy(1.5);
    }

    #[test]
    fn try_new_validates_every_probability() {
        assert!(FaultProfile::try_new(0.1, 0.2, 0.3, 0.4).is_ok());
        for (i, bad) in [
            FaultProfile::try_new(1.5, 0.0, 0.0, 0.0),
            FaultProfile::try_new(0.0, -0.1, 0.0, 0.0),
            FaultProfile::try_new(0.0, 0.0, f64::NAN, 0.0),
            FaultProfile::try_new(0.0, 0.0, 0.0, 2.0),
        ]
        .into_iter()
        .enumerate()
        {
            let err = bad.expect_err(&format!("case {i} should fail"));
            assert!(
                matches!(err, FaultProfileError::BadProbability { .. }),
                "{err}"
            );
        }
        // reset_prob is now validated exactly like drop_prob.
        let err = FaultProfile::try_new(0.0, 7.0, 0.0, 0.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "reset_prob must be a probability in [0, 1], got 7"
        );
    }

    #[test]
    fn validate_checks_struct_literals() {
        let mut p = FaultProfile::clean();
        assert!(p.validate().is_ok());
        p.reset_prob = 3.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn outage_windows_are_deterministic_and_rng_free() {
        let p = FaultProfile::clean()
            .try_with_outage(SimTime::from_secs(100), SimTime::from_secs(200))
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(p.sample_at(SimTime::from_secs(99), &mut rng), None);
        assert_eq!(
            p.sample_at(SimTime::from_secs(100), &mut rng),
            Some(Fault::Outage {
                resumes_at: SimTime::from_secs(200)
            })
        );
        assert_eq!(
            p.sample_at(SimTime::from_secs(199), &mut rng),
            Some(Fault::Outage {
                resumes_at: SimTime::from_secs(200)
            })
        );
        assert_eq!(p.sample_at(SimTime::from_secs(200), &mut rng), None);
        // No RNG draws happened during outage checks: a fresh generator
        // observes the identical stream afterwards.
        let mut fresh = rand::rngs::StdRng::seed_from_u64(1);
        use rand::Rng as _;
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn outage_rejects_empty_window() {
        let err = OutageWindow::try_new(SimTime::from_secs(5), SimTime::from_secs(5)).unwrap_err();
        assert!(matches!(err, FaultProfileError::EmptyOutage { .. }));
        assert!(FaultProfile::clean()
            .try_with_outage(SimTime::from_secs(9), SimTime::from_secs(3))
            .is_err());
    }

    #[test]
    fn latency_jitter_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let flat = FaultProfile::clean();
        assert_eq!(flat.sample_latency_ms(&mut rng), 20);
        let jittery = FaultProfile::clean().with_latency(50, 30);
        for _ in 0..200 {
            let l = jittery.sample_latency_ms(&mut rng);
            assert!((50..=80).contains(&l), "{l}");
        }
    }
}
