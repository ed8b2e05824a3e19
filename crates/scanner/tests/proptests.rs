//! Property-based tests for the scan index and snapshot diffs. The
//! dump format is checked by the shared wire harness in
//! `filterwatch-testkit`.

use filterwatch_netsim::{IpAddr, SimTime};
use filterwatch_scanner::{diff, keywords, merge, ScanIndex, ScanRecord, ShardConfig};
use proptest::prelude::*;

/// The `(ip, port, path)` key a re-crawl delta retires by.
fn endpoint_key(r: &ScanRecord) -> (IpAddr, u16, String) {
    (r.ip, r.port, r.path.clone())
}

/// Reference semantics of `apply_delta` on a plain record list:
/// retirements drop every record at the key; each add supersedes any
/// record at its own key and appends.
fn model_apply(
    mut records: Vec<ScanRecord>,
    adds: &[ScanRecord],
    retires: &[(IpAddr, u16, String)],
) -> Vec<ScanRecord> {
    for key in retires {
        records.retain(|r| endpoint_key(r) != *key);
    }
    for add in adds {
        let key = endpoint_key(add);
        records.retain(|r| endpoint_key(r) != key);
        records.push(add.clone());
    }
    records
}

/// The searchable text a record's corpus entry holds, formatted and
/// ASCII-lowercased here as the reference.
fn reference_text(r: &ScanRecord) -> String {
    format!(
        "{} {}{} {} {} {}",
        r.ip,
        r.port,
        r.path,
        r.hostnames.join(" "),
        r.banner,
        r.body_snippet
    )
    .to_ascii_lowercase()
}

/// Records whose endpoints collide: half the addresses come from a
/// four-address pool, and ports and paths favour 80/8080 and
/// `/`/`/webadmin/`, so lists hold re-crawls of one endpoint and
/// `ip:port` pairs serving several paths. Hostnames mix case.
fn any_record() -> impl Strategy<Value = ScanRecord> {
    (
        prop_oneof![(0u32..4).prop_map(|i| 0x0500_0001 + i), any::<u32>()],
        prop_oneof![Just(80u16), Just(8080u16), 1u16..=65535],
        prop_oneof![
            Just("/".to_string()),
            Just("/webadmin/".to_string()),
            "(/[a-z0-9]{0,6}){0,3}",
        ],
        "[ -~]{0,60}",
        "\\PC{0,60}",
        proptest::collection::vec("[a-zA-Z]{1,8}\\.[a-zA-Z]{2,3}", 0..3),
        proptest::option::of("[A-Z]{2}"),
        proptest::option::of(1u32..100_000),
        0u64..1_000_000,
    )
        .prop_map(
            |(ip, port, path, banner, body, hostnames, country, asn, at)| ScanRecord {
                ip: filterwatch_netsim::IpAddr(ip),
                port,
                path: if path.is_empty() { "/".into() } else { path },
                banner,
                body_snippet: body,
                hostnames,
                country,
                asn,
                captured_at: SimTime::from_secs(at),
            },
        )
}

proptest! {
    /// Self-diff is always empty; diff against empty lists everything.
    #[test]
    fn diff_identities(records in proptest::collection::vec(any_record(), 0..15)) {
        let index = ScanIndex::build(records.clone());
        prop_assert!(diff(&index, &index).is_empty());
        let empty = ScanIndex::build(Vec::new());
        let d = diff(&empty, &index);
        let distinct: std::collections::BTreeSet<(u32, u16, String)> = records
            .iter()
            .map(|r| (r.ip.value(), r.port, r.path.clone()))
            .collect();
        prop_assert_eq!(d.appeared.len(), distinct.len());
        prop_assert!(d.disappeared.is_empty());
        let d2 = diff(&index, &empty);
        prop_assert_eq!(d2.disappeared.len(), distinct.len());
    }

    /// Keyword search results are always a subset of the records and
    /// every hit's cached corpus text really contains the keyword; each
    /// corpus text is the record's lowercased searchable text.
    #[test]
    fn search_soundness(records in proptest::collection::vec(any_record(), 0..15), kw in "[a-z]{2,6}") {
        let index = ScanIndex::build(records);
        for (i, record) in index.records().iter().enumerate() {
            prop_assert_eq!(index.corpus_of(i), reference_text(record));
        }
        prop_assert_eq!(index.search(&kw).len(), index.search_ids(&kw).len());
        for id in index.search_ids(&kw) {
            prop_assert!(index.corpus_of(id).contains(&kw));
        }
    }

    /// Stats totals agree with the record list.
    #[test]
    fn stats_consistency(records in proptest::collection::vec(any_record(), 0..15)) {
        let index = ScanIndex::build(records.clone());
        let stats = index.stats();
        prop_assert_eq!(stats.records, records.len());
        let by_country_total: usize = stats.by_country.values().sum();
        let with_country = records.iter().filter(|r| r.country.is_some()).count();
        prop_assert_eq!(by_country_total, with_country);
        prop_assert!(stats.addresses <= stats.records.max(1));
    }

    /// The posting-list country search equals the brute-force
    /// predicate from the seed implementation, record for record.
    #[test]
    fn country_search_equals_bruteforce(
        records in proptest::collection::vec(any_record(), 0..25),
        kw in "[a-z]{1,4}",
        cc in "[A-Z]{2}",
        tld in "[a-z]{2,3}",
    ) {
        let index = ScanIndex::build(records);
        let fast: Vec<&ScanRecord> = index.search_in_country(&kw, &cc, &tld);
        let suffix = format!(".{}", tld);
        let brute: Vec<&ScanRecord> = index
            .records()
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                index.corpus_of(*i).contains(&kw)
                    && (r.country.as_deref() == Some(cc.as_str())
                        || r.hostnames.iter().any(|h| h.to_ascii_lowercase().ends_with(&suffix)))
            })
            .map(|(_, r)| r)
            .collect();
        prop_assert_eq!(fast, brute);
    }

    /// Parallel batched search equals the serial sweep, record for
    /// record, for any worker count.
    #[test]
    fn parallel_search_equals_serial(
        records in proptest::collection::vec(any_record(), 0..40),
        threads in 2usize..6,
    ) {
        let index = ScanIndex::build(records);
        let pairs: Vec<(&str, &str)> = vec![("QA", "qa"), ("SY", "sy"), ("US", "us"), ("AA", "aa")];
        let serial =
            index.search_products_with_threads(keywords::KEYWORD_TABLE, pairs.iter().copied(), 1);
        let parallel = index.search_products_with_threads(
            keywords::KEYWORD_TABLE,
            pairs.iter().copied(),
            threads,
        );
        prop_assert_eq!(serial, parallel);
    }

    /// Incremental ingest is equivalent to rebuilding from scratch:
    /// the same live snapshot, statistics, and batched query results —
    /// before *and* after compaction.
    #[test]
    fn delta_equals_scratch(
        base in proptest::collection::vec(any_record(), 0..25),
        adds in proptest::collection::vec(any_record(), 0..10),
        retire_sel in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let retires: Vec<(IpAddr, u16, String)> = if base.is_empty() {
            Vec::new()
        } else {
            retire_sel
                .iter()
                .map(|ix| endpoint_key(&base[ix % base.len()]))
                .collect()
        };
        let mut delta = ScanIndex::build(base.clone());
        let stats = delta.apply_delta(adds.clone(), &retires);
        prop_assert_eq!(stats.epoch, 1);
        prop_assert_eq!(stats.added, adds.len());

        let scratch = ScanIndex::build(model_apply(base, &adds, &retires));
        prop_assert_eq!(delta.to_dump(), scratch.to_dump());
        prop_assert_eq!(delta.stats(), scratch.stats());
        prop_assert_eq!(delta.len(), scratch.len());
        let pairs: Vec<(&str, &str)> = vec![("QA", "qa"), ("SY", "sy"), ("US", "us"), ("AA", "aa")];
        prop_assert_eq!(
            delta.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied()),
            scratch.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied())
        );

        delta.compact();
        prop_assert_eq!(delta.records(), scratch.records());
        prop_assert_eq!(delta.tombstones(), 0);
        prop_assert_eq!(
            delta.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied()),
            scratch.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied())
        );
    }

    /// Shard count never changes what queries return — only where the
    /// postings live.
    #[test]
    fn shard_count_invariance(
        records in proptest::collection::vec(any_record(), 0..30),
        shards in 1usize..12,
        kw in "[a-z]{1,4}",
    ) {
        let sharded = ScanIndex::build_with(records.clone(), ShardConfig { shards });
        let flat = ScanIndex::build_with(records, ShardConfig { shards: 1 });
        prop_assert_eq!(sharded.to_dump(), flat.to_dump());
        prop_assert_eq!(sharded.stats(), flat.stats());
        prop_assert_eq!(sharded.search_ids(&kw), flat.search_ids(&kw));
        prop_assert_eq!(
            sharded.search_in_country(&kw, "QA", "qa"),
            flat.search_in_country(&kw, "QA", "qa")
        );
        let pairs: Vec<(&str, &str)> = vec![("QA", "qa"), ("SY", "sy"), ("US", "us")];
        prop_assert_eq!(
            sharded.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied()),
            flat.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied())
        );
    }

    /// The spawn helper is ordered by construction: for a per-item
    /// function, every worker count returns what one call over the
    /// whole slice returns, items in input order.
    #[test]
    fn ordered_parallel_equals_whole_slice(
        items in proptest::collection::vec(any::<u32>(), 0..=300),
        workers in 1usize..=8,
        modulus in 1u32..5,
    ) {
        // A per-item filter and map: the output lists items in input
        // order, so a chunk joined out of place changes it.
        let keep_and_tag = |chunk: &[u32]| -> Vec<(u32, u32)> {
            chunk
                .iter()
                .filter(|&&x| x % modulus != 0)
                .map(|&x| (x, x.wrapping_mul(31)))
                .collect()
        };
        prop_assert_eq!(
            merge::ordered_parallel(&items, workers, keep_and_tag),
            keep_and_tag(&items)
        );
    }
}

/// A worker's panic reaches the caller with its own payload, whether
/// the chunk ran inline or on a thread.
#[test]
fn ordered_parallel_propagates_worker_panics() {
    let items: Vec<u32> = (0..100).collect();
    for workers in 1..=8 {
        let caught = std::panic::catch_unwind(|| {
            merge::ordered_parallel(&items, workers, |chunk: &[u32]| {
                if chunk.contains(&60) {
                    panic!("bad item 60");
                }
                chunk.to_vec()
            })
        });
        let payload = caught.expect_err("the worker holding item 60 panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"bad item 60"));
    }
}
