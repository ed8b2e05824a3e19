//! Property-based tests for the measurement-client building blocks.

use filterwatch_measure::blockpage::BlockPageLibrary;
use filterwatch_measure::body_similarity;
use proptest::prelude::*;

proptest! {
    /// Similarity is symmetric, bounded, and 1 on identical inputs.
    #[test]
    fn similarity_axioms(a in "\\PC{0,120}", b in "\\PC{0,120}") {
        let sab = body_similarity(&a, &b);
        let sba = body_similarity(&b, &a);
        prop_assert!((sab - sba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&sab));
        prop_assert_eq!(body_similarity(&a, &a), 1.0);
    }

    /// Whitespace-only perturbations never change similarity.
    #[test]
    fn similarity_ignores_whitespace(words in proptest::collection::vec("[a-z]{1,8}", 1..20)) {
        let single = words.join(" ");
        let padded = words.join("  \n\t ");
        prop_assert_eq!(body_similarity(&single, &padded), 1.0);
    }

    /// Backoff is a pure function of (seed, label, attempt) and stays in
    /// `[exp, exp * (1 + jitter_frac)]` where `exp` is the capped
    /// exponential wait.
    #[test]
    fn backoff_bounds(attempt in 1u32..12, seed in any::<u64>(), frac in 0.0f64..1.0) {
        use filterwatch_measure::RetryPolicy;
        let p = RetryPolicy {
            max_attempts: 12,
            base_backoff_secs: 2,
            backoff_cap_secs: 64,
            jitter_frac: frac,
            budget: None,
        };
        let w = p.backoff_secs(attempt, seed, "vantage/http://u.example/");
        prop_assert_eq!(w, p.backoff_secs(attempt, seed, "vantage/http://u.example/"));
        let exp = 2u64.saturating_mul(1 << u64::from(attempt - 1)).min(64);
        prop_assert!(w >= exp, "{w} < {exp}");
        let ceiling = exp + (exp as f64 * frac).ceil() as u64;
        prop_assert!(w <= ceiling, "{w} > {ceiling}");
    }

    /// The breaker opens after exactly `threshold` consecutive failures
    /// and any success resets the count.
    #[test]
    fn breaker_threshold_exact(threshold in 1u32..8, pre in 0u32..8) {
        use filterwatch_measure::{BreakerConfig, BreakerState, CircuitBreaker};
        use filterwatch_netsim::SimTime;
        let b = CircuitBreaker::new(BreakerConfig { failure_threshold: threshold, cooldown_secs: 10 });
        // `pre` failures short of the threshold, then a success: still closed.
        for _ in 0..pre.min(threshold - 1) {
            b.record_failure(SimTime::ZERO);
        }
        b.record_success();
        prop_assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..threshold {
            prop_assert_eq!(b.state(), BreakerState::Closed, "open after {} of {}", i, threshold);
            b.record_failure(SimTime::ZERO);
        }
        prop_assert_eq!(b.state(), BreakerState::Open);
        prop_assert_eq!(b.trips(), 1);
    }

    /// The block-page library never classifies arbitrary text that lacks
    /// both vendor markers and denial wording... and never panics.
    #[test]
    fn blockpage_classifier_total(text in "[a-z0-9 .:/<>-]{0,200}") {
        let lib = BlockPageLibrary::standard();
        let _ = lib.classify(&text);
        // Clean marker-free text definitely does not classify.
        let clean = text
            .replace("cfru", "")
            .replace("cfauth", "")
            .replace("webadmin", "")
            .replace("netsweeper", "")
            .replace("websense", "")
            .replace("15871", "")
            .replace("blocked", "")
            .replace("denied", "")
            .replace("mcafee", "")
            .replace("via-proxy", "")
            .replace("blue coat", "")
            .replace("access restricted by network policy", "");
        prop_assert!(lib.classify(&clean).is_none(), "{clean:?}");
    }
}
