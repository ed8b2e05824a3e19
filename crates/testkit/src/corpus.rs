//! Shodan-scale synthetic scan corpora for generated worlds.
//!
//! [`ScenarioPlan::corpus_scale`] asks for a banner corpus of a given
//! size (10⁴/10⁵/10⁶ are the intended rungs) riding along with the
//! simulated world. The corpus is minted by the scanner crate's
//! deterministic synthesizer, but drawn over the testkit's own
//! [`COUNTRY_POOL`] so keyword × ccTLD query scopes line up with the
//! countries the generated world registers — including the multi-label
//! ccTLDs (`com.tr`, `co.uk`) that exercise the index's dot-suffix
//! posting lists.
//!
//! Everything here is a pure function of the plan: same seed and
//! `corpus_scale`, byte-identical records.

use filterwatch_scanner::{synth_records_with, ScanRecord};

use crate::plan::{ScenarioPlan, COUNTRY_POOL};

/// Base ip for plan corpora, disjoint from the scanner's own default
/// (0x0a…) and churn (0x0b…) ranges so mixed fixtures never collide.
const CORPUS_IP_BASE: u32 = 0x0c00_0000;

/// Mint the plan's synthetic banner corpus: `corpus_scale` records,
/// deterministic in `plan.seed`, countries drawn from [`COUNTRY_POOL`].
/// A zero scale yields the empty corpus.
pub fn synth_corpus(plan: &ScenarioPlan) -> Vec<ScanRecord> {
    let countries: Vec<(&str, &str)> = COUNTRY_POOL
        .iter()
        .map(|&(cc, _, cctld)| (cc, cctld))
        .collect();
    synth_records_with(plan.corpus_scale, plan.seed, CORPUS_IP_BASE, &countries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::plan_for_seed;

    fn scaled(seed: u64, scale: usize) -> ScenarioPlan {
        let mut plan = plan_for_seed(seed);
        plan.corpus_scale = scale;
        plan.validate().unwrap();
        plan
    }

    #[test]
    fn zero_scale_is_empty() {
        assert!(synth_corpus(&plan_for_seed(3)).is_empty());
    }

    #[test]
    fn corpus_is_deterministic_in_the_plan() {
        let a = synth_corpus(&scaled(11, 500));
        let b = synth_corpus(&scaled(11, 500));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn different_seeds_yield_different_corpora() {
        assert_ne!(synth_corpus(&scaled(1, 200)), synth_corpus(&scaled(2, 200)));
    }

    #[test]
    fn countries_come_from_the_testkit_pool() {
        let corpus = synth_corpus(&scaled(5, 400));
        let pool: std::collections::BTreeSet<&str> =
            COUNTRY_POOL.iter().map(|&(cc, _, _)| cc).collect();
        let mut multi_label = false;
        for r in &corpus {
            let cc = r.country().expect("synth records carry a country");
            assert!(pool.contains(cc), "{cc} not in COUNTRY_POOL");
            multi_label |= r
                .hostnames()
                .any(|h| h.ends_with(".com.tr") || h.ends_with(".co.uk"));
        }
        assert!(multi_label, "no multi-label ccTLD hostname in 400 records");
    }
}
