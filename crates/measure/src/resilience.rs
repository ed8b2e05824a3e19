//! Retry, circuit-breaking and quorum policies for flaky paths.
//!
//! §4.4 of the paper is blunt about measurement reality: Yemen's
//! Netsweeper deployment filtered intermittently, and single-shot fetches
//! through it would have mislabeled blocked URLs as reachable. This
//! module gives the measurement client three layers of defence:
//!
//! * [`RetryPolicy`] — bounded re-fetching with exponential backoff and
//!   *deterministic* jitter (a pure hash of seed, vantage, URL and
//!   attempt number, so chaos campaigns replay byte-identically). Each
//!   backoff advances the simulation's virtual clock, which is exactly
//!   what lets retries ride out deterministic outage windows.
//! * [`CircuitBreaker`] — a per-vantage closed/open/half-open state
//!   machine on the virtual clock. A vantage whose fetches keep failing
//!   end-to-end stops consuming budget; skipped fetches surface as
//!   `Inconclusive` verdicts and `breaker-skip` flow-log records instead
//!   of false "reachable" results.
//! * [`QuorumPolicy`] — each URL verdict becomes N independent trials
//!   with a quorum rule; disagreement yields `Inconclusive` rather than
//!   silently trusting one noisy sample.
//!
//! All three default to **off** ([`ResilienceConfig::default`] is a
//! passthrough), so existing pinned-seed experiments are untouched;
//! chaos campaigns opt in via [`ResilienceConfig::chaos`].

use std::sync::atomic::{AtomicU64, Ordering};

use filterwatch_netsim::rng::mix;
use filterwatch_netsim::{FetchOutcome, SimTime};
use filterwatch_telemetry::wire::{field, keyed, split, Wire, WireError};
use parking_lot::Mutex;

/// Whether a failed fetch is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient transport faults: a later attempt may succeed.
    Retryable,
    /// Structural failures (nothing listens there): retrying is wasted
    /// budget.
    Fatal,
}

/// Bounded retries with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per fetch, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff_secs * 2^(n-1)`, capped.
    pub base_backoff_secs: u64,
    /// Upper bound on a single backoff (before jitter).
    pub backoff_cap_secs: u64,
    /// Jitter as a fraction of the backoff (`0.0` = none); the jitter
    /// sample is a pure function of `(seed, label, attempt)`.
    pub jitter_frac: f64,
    /// Optional global cap on retries across a client's lifetime (a
    /// retry *budget*); `None` = unlimited.
    pub budget: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::single()
    }
}

impl RetryPolicy {
    /// No retries: one attempt, no clock movement.
    pub fn single() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_secs: 0,
            backoff_cap_secs: 0,
            jitter_frac: 0.0,
            budget: None,
        }
    }

    /// The standard chaos-campaign policy: up to 6 attempts, 2 s base
    /// backoff doubling to a 60 s cap, half-backoff jitter. Cumulative
    /// worst-case wait (~60 s+) comfortably outlasts the short outage
    /// windows chaos profiles inject.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_secs: 2,
            backoff_cap_secs: 60,
            jitter_frac: 0.5,
            budget: None,
        }
    }

    /// Classify a fetch outcome for retry purposes. Timeouts, resets,
    /// truncations and DNS failures are transient; `ConnectFailed`
    /// means no service listens at the destination, which retrying
    /// cannot fix, and a response is no failure to retry.
    pub fn classify(outcome: &FetchOutcome) -> FaultClass {
        match outcome {
            FetchOutcome::Timeout
            | FetchOutcome::Reset
            | FetchOutcome::Truncated
            | FetchOutcome::DnsFailure => FaultClass::Retryable,
            FetchOutcome::ConnectFailed | FetchOutcome::Ok(_) => FaultClass::Fatal,
        }
    }

    /// The wait before retry number `attempt` (1-based: the wait after
    /// the first failed attempt is `attempt = 1`). Deterministic: the
    /// jitter is a hash of `(seed, label, attempt)`, not an RNG draw.
    pub fn backoff_secs(&self, attempt: u32, seed: u64, label: &str) -> u64 {
        let doublings = attempt.saturating_sub(1).min(32);
        let exp = self
            .base_backoff_secs
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_cap_secs);
        if self.jitter_frac <= 0.0 || exp == 0 {
            return exp;
        }
        let h = mix(seed, &format!("retry/{label}/{attempt}"));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        exp + (exp as f64 * self.jitter_frac * unit).round() as u64
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive end-to-end fetch failures (after retries) that trip
    /// the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open (virtual seconds) before allowing
    /// a half-open trial fetch.
    pub cooldown_secs: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_secs: 300,
        }
    }
}

/// Observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: fetches flow normally.
    Closed,
    /// Tripped: fetches are skipped until the cooldown passes.
    Open,
    /// Cooldown elapsed: exactly one trial fetch probes the path.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
}

/// A per-vantage circuit breaker on the virtual clock.
///
/// Closed → (threshold consecutive failures) → Open → (cooldown) →
/// HalfOpen → success closes it / failure re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_until: SimTime::ZERO,
            }),
            trips: AtomicU64::new(0),
        }
    }

    /// Whether a fetch may proceed at virtual time `now`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits the caller as the trial fetch.
    pub fn allows(&self, now: SimTime) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open if now >= inner.open_until => {
                inner.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Record an end-to-end fetch success.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
    }

    /// Record an end-to-end fetch failure (after retries were exhausted)
    /// at virtual time `now`.
    pub fn record_failure(&self, now: SimTime) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::HalfOpen => self.trip(&mut inner, now),
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    self.trip(&mut inner, now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&self, inner: &mut BreakerInner, now: SimTime) {
        inner.state = BreakerState::Open;
        inner.open_until = now.plus_secs(self.config.cooldown_secs);
        inner.consecutive_failures = 0;
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Current state (without side effects).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// Quorum rule for repeated URL trials. Built only through `Default`,
/// [`majority`](Self::majority) and [`try_new`](Self::try_new), so it
/// always runs at least one trial and its quorum is satisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    trials: u32,
    quorum: u32,
}

impl Default for QuorumPolicy {
    fn default() -> Self {
        QuorumPolicy {
            trials: 1,
            quorum: 1,
        }
    }
}

impl QuorumPolicy {
    /// A simple-majority rule over `trials` trials.
    pub fn majority(trials: u32) -> Self {
        QuorumPolicy {
            trials: trials.max(1),
            quorum: trials.max(1) / 2 + 1,
        }
    }

    /// A validated policy: at least one trial, and the quorum must be
    /// satisfiable.
    pub fn try_new(trials: u32, quorum: u32) -> Result<Self, String> {
        if trials == 0 {
            return Err("trials must be at least 1".into());
        }
        if quorum == 0 || quorum > trials {
            return Err(format!(
                "quorum {quorum} unsatisfiable with {trials} trials"
            ));
        }
        Ok(QuorumPolicy { trials, quorum })
    }

    /// Independent field/lab trials per URL (at least 1).
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// Minimum trials that must agree for a verdict; fewer yields
    /// `Inconclusive`.
    pub fn quorum(&self) -> u32 {
        self.quorum
    }
}

/// The complete resilience configuration for a measurement client.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Per-fetch retry policy.
    pub retry: RetryPolicy,
    /// Per-vantage circuit breaker (none = never skip).
    pub breaker: Option<BreakerConfig>,
    /// Per-URL quorum rule.
    pub quorum: QuorumPolicy,
}

impl ResilienceConfig {
    /// The standard chaos-campaign configuration: retries with backoff,
    /// a default breaker, and 3-trial majority quorum.
    pub fn chaos() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::standard(),
            breaker: Some(BreakerConfig::default()),
            quorum: QuorumPolicy::majority(3),
        }
    }

    /// Whether this configuration changes nothing relative to a plain
    /// single-shot client (the default).
    pub fn is_passthrough(&self) -> bool {
        self.retry.max_attempts <= 1 && self.breaker.is_none() && self.quorum.trials() <= 1
    }
}

/// Aggregate measurement-quality counters for one client.
///
/// These feed campaign reports' "measurement quality" section: the noise
/// a chaos run absorbed is visible here, and *only* here — verdict
/// tables stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasurementQuality {
    /// Individual fetch attempts issued (including retries).
    pub fetch_attempts: u64,
    /// Attempts that were retries of a failed fetch.
    pub retries: u64,
    /// Fetches skipped because a breaker was open.
    pub breaker_skips: u64,
    /// Times any breaker tripped open.
    pub breaker_trips: u64,
    /// Quorum trials run.
    pub quorum_trials: u64,
    /// URL verdicts that came back `Inconclusive`.
    pub inconclusive: u64,
    /// URL verdicts rendered in total.
    pub verdicts: u64,
}

impl MeasurementQuality {
    /// Merge another quality snapshot into this one.
    pub fn absorb(&mut self, other: &MeasurementQuality) {
        self.fetch_attempts += other.fetch_attempts;
        self.retries += other.retries;
        self.breaker_skips += other.breaker_skips;
        self.breaker_trips += other.breaker_trips;
        self.quorum_trials += other.quorum_trials;
        self.inconclusive += other.inconclusive;
        self.verdicts += other.verdicts;
    }

    /// Fraction of verdicts that were inconclusive (0 when none were
    /// rendered).
    pub fn inconclusive_rate(&self) -> f64 {
        if self.verdicts == 0 {
            0.0
        } else {
            self.inconclusive as f64 / self.verdicts as f64
        }
    }
}

/// One line for logs, reports and checkpoints. The trailing percentage
/// is derived from the counters, so parsing validates its shape but
/// recomputes rather than trusts it — campaign checkpoints embed these
/// lines and must parse back to the exact counters.
impl Wire for MeasurementQuality {
    fn to_line(&self) -> String {
        format!(
            "attempts={} retries={} breaker_trips={} breaker_skips={} quorum_trials={} inconclusive={}/{} ({:.1}%)",
            self.fetch_attempts,
            self.retries,
            self.breaker_trips,
            self.breaker_skips,
            self.quorum_trials,
            self.inconclusive,
            self.verdicts,
            self.inconclusive_rate() * 100.0,
        )
    }

    fn parse_line(line: &str) -> Result<MeasurementQuality, WireError> {
        let [attempts, retries, trips, skips, trials, inconclusive, rate] = split(line, ' ')?;
        let count = |key, text| field(key, keyed(key, '=', text)?);
        let (inconclusive, verdicts) = keyed("inconclusive", '=', inconclusive)?
            .split_once('/')
            .ok_or_else(|| WireError::new("inconclusive", "expected <n>/<total>"))?;
        if !(rate.starts_with('(') && rate.ends_with("%)")) {
            return Err(WireError::new("rate", format!("{rate:?} is not (<pct>%)")));
        }
        Ok(MeasurementQuality {
            fetch_attempts: count("attempts", attempts)?,
            retries: count("retries", retries)?,
            breaker_trips: count("breaker_trips", trips)?,
            breaker_skips: count("breaker_skips", skips)?,
            quorum_trials: count("quorum_trials", trials)?,
            inconclusive: field("inconclusive", inconclusive)?,
            verdicts: field("inconclusive", verdicts)?,
        })
    }
}

/// Interior-mutable quality counters (the client updates them through
/// `&self`).
#[derive(Debug, Default)]
pub(crate) struct QualityCounters {
    pub(crate) fetch_attempts: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) breaker_skips: AtomicU64,
    pub(crate) quorum_trials: AtomicU64,
    pub(crate) inconclusive: AtomicU64,
    pub(crate) verdicts: AtomicU64,
}

impl QualityCounters {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot, folding in breaker trip counts.
    pub(crate) fn snapshot(&self, breaker_trips: u64) -> MeasurementQuality {
        MeasurementQuality {
            fetch_attempts: self.fetch_attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            breaker_trips,
            quorum_trials: self.quorum_trials.load(Ordering::Relaxed),
            inconclusive: self.inconclusive.load(Ordering::Relaxed),
            verdicts: self.verdicts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        use filterwatch_http::Response;
        let cases = [
            (FetchOutcome::Timeout, FaultClass::Retryable),
            (FetchOutcome::Reset, FaultClass::Retryable),
            (FetchOutcome::Truncated, FaultClass::Retryable),
            (FetchOutcome::DnsFailure, FaultClass::Retryable),
            (FetchOutcome::ConnectFailed, FaultClass::Fatal),
            (FetchOutcome::Ok(Response::not_found()), FaultClass::Fatal),
        ];
        for (outcome, class) in cases {
            assert_eq!(RetryPolicy::classify(&outcome), class, "{outcome}");
        }
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff_secs: 2,
            backoff_cap_secs: 16,
            jitter_frac: 0.0,
            budget: None,
        };
        assert_eq!(p.backoff_secs(1, 5, "x"), 2);
        assert_eq!(p.backoff_secs(2, 5, "x"), 4);
        assert_eq!(p.backoff_secs(3, 5, "x"), 8);
        assert_eq!(p.backoff_secs(4, 5, "x"), 16);
        assert_eq!(p.backoff_secs(5, 5, "x"), 16, "capped");

        let jittery = RetryPolicy {
            jitter_frac: 0.5,
            ..p.clone()
        };
        let a = jittery.backoff_secs(2, 5, "vantage/url");
        let b = jittery.backoff_secs(2, 5, "vantage/url");
        assert_eq!(a, b, "jitter is a pure function");
        assert!((4..=6).contains(&a), "{a}");
        // Different labels / attempts spread.
        let c = jittery.backoff_secs(2, 5, "other/url");
        let d = jittery.backoff_secs(3, 5, "vantage/url");
        assert!((4..=6).contains(&c));
        assert!((8..=12).contains(&d));
    }

    #[test]
    fn single_policy_is_inert() {
        let p = RetryPolicy::single();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_secs(1, 0, "x"), 0);
        assert!(ResilienceConfig::default().is_passthrough());
        assert!(!ResilienceConfig::chaos().is_passthrough());
    }

    #[test]
    fn breaker_state_machine() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_secs: 100,
        });
        let t0 = SimTime::ZERO;
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(t0));
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.allows(SimTime::from_secs(99)));
        // Cooldown elapsed → half-open trial allowed.
        assert!(b.allows(SimTime::from_secs(100)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Trial fails → re-open immediately.
        b.record_failure(SimTime::from_secs(100));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert!(!b.allows(SimTime::from_secs(150)));
        // Second trial succeeds → closed, failure count reset.
        assert!(b.allows(SimTime::from_secs(200)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(SimTime::from_secs(201));
        assert_eq!(b.state(), BreakerState::Closed, "count was reset");
    }

    #[test]
    fn quorum_policies_validate() {
        let three = QuorumPolicy::majority(3);
        assert_eq!((three.trials(), three.quorum()), (3, 2));
        assert_eq!(QuorumPolicy::majority(1), QuorumPolicy::default());
        assert_eq!(QuorumPolicy::majority(0), QuorumPolicy::default());
        assert_eq!(QuorumPolicy::try_new(3, 2), Ok(three));
        assert!(QuorumPolicy::try_new(0, 1).is_err());
        assert!(QuorumPolicy::try_new(3, 4).is_err());
        assert!(QuorumPolicy::try_new(3, 0).is_err());
    }

    #[test]
    fn quality_absorb_and_rate() {
        let mut a = MeasurementQuality {
            fetch_attempts: 10,
            retries: 2,
            inconclusive: 1,
            verdicts: 4,
            ..MeasurementQuality::default()
        };
        let b = MeasurementQuality {
            fetch_attempts: 5,
            verdicts: 4,
            ..MeasurementQuality::default()
        };
        a.absorb(&b);
        assert_eq!(a.fetch_attempts, 15);
        assert_eq!(a.verdicts, 8);
        assert!((a.inconclusive_rate() - 0.125).abs() < 1e-9);
        assert!(a.to_line().contains("retries=2"));
        assert_eq!(MeasurementQuality::default().inconclusive_rate(), 0.0);
    }

    #[test]
    fn quality_line_round_trips() {
        let q = MeasurementQuality {
            fetch_attempts: 15,
            retries: 2,
            breaker_trips: 1,
            breaker_skips: 3,
            quorum_trials: 9,
            inconclusive: 1,
            verdicts: 8,
        };
        assert_eq!(MeasurementQuality::parse_line(&q.to_line()), Ok(q));
        let zero = MeasurementQuality::default();
        assert_eq!(MeasurementQuality::parse_line(&zero.to_line()), Ok(zero));

        assert!(MeasurementQuality::parse_line("").is_err());
        assert!(MeasurementQuality::parse_line("attempts=1").is_err());
        assert!(MeasurementQuality::parse_line(
            "attempts=x retries=0 breaker_trips=0 breaker_skips=0 quorum_trials=0 inconclusive=0/0 (0.0%)"
        )
        .is_err());
        assert!(MeasurementQuality::parse_line(
            "attempts=1 retries=0 breaker_trips=0 breaker_skips=0 quorum_trials=0 inconclusive=00 (0.0%)"
        )
        .is_err());
        assert!(MeasurementQuality::parse_line(
            "attempts=1 retries=0 breaker_trips=0 breaker_skips=0 quorum_trials=0 inconclusive=0/0 (0.0"
        )
        .is_err());
    }
}
