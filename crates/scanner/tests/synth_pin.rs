//! Pins the synthetic banner corpus.
//!
//! `synth_records` and `synth_churn` mint the records that the
//! Shodan-scale benches, perfbench's `scale` workload and testkit's
//! plan corpora all index, and no golden covers them. This test pins
//! the dump of an index built over `synth_records(2_000, 5)`, and of
//! the same index after a `synth_churn` delta, by length and FNV-1a
//! digest. A change to the record layout or the synthesizer that mints
//! different records, or draws the seed's stream in another order,
//! fails here.

use filterwatch_scanner::{synth_churn, synth_records, ScanIndex};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(length, FNV-1a digest)` of a dump.
fn digest(dump: &str) -> (usize, u64) {
    (dump.len(), fnv1a(dump.as_bytes()))
}

#[test]
fn synthetic_corpus_and_churn_dumps_are_pinned() {
    let base = synth_records(2_000, 5);
    let mut index = ScanIndex::build(base.clone());
    assert_eq!(digest(&index.to_dump()), (550_007, 0xee43_dac6_592e_0f50));

    let (adds, retirements) = synth_churn(&base, 40, 40, 9);
    index.apply_delta(adds, &retirements);
    assert_eq!(digest(&index.to_dump()), (549_631, 0x0c6a_92d8_aaa9_734e));
}
