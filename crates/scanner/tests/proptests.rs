//! Property-based tests for the scan record layout, the scan index and
//! snapshot diffs. The dump format is checked by the shared wire
//! harness in `filterwatch-testkit`.

use filterwatch_netsim::{IpAddr, SimTime};
use filterwatch_scanner::keywords::{self, ProductKeywords};
use filterwatch_scanner::{diff, merge, RecordParts, ScanIndex, ScanRecord};
use proptest::prelude::*;

/// The `(ip, port, path)` key a re-crawl delta retires by.
fn endpoint_key(r: &ScanRecord) -> (IpAddr, u16, String) {
    (r.ip(), r.port(), r.path().to_string())
}

/// Reference semantics of `apply_delta` on a plain record list:
/// retirements drop every record at the key; each add supersedes any
/// record at its own key and appends. Returns the new list and how
/// many records were dropped.
fn model_apply(
    mut records: Vec<ScanRecord>,
    adds: &[ScanRecord],
    retires: &[(IpAddr, u16, String)],
) -> (Vec<ScanRecord>, usize) {
    let mut dropped = 0;
    let mut drop_key = |records: &mut Vec<ScanRecord>, key: &(IpAddr, u16, String)| {
        let before = records.len();
        records.retain(|r| endpoint_key(r) != *key);
        dropped += before - records.len();
    };
    for key in retires {
        drop_key(&mut records, key);
    }
    for add in adds {
        drop_key(&mut records, &endpoint_key(add));
        records.push(add.clone());
    }
    (records, dropped)
}

/// A record's searchable text, formatted here from its fields in raw
/// case as the reference its buffer must hold.
fn reference_text(r: &ScanRecord) -> String {
    format!(
        "{} {}{} {} {} {}",
        r.ip(),
        r.port(),
        r.path(),
        r.hostnames().collect::<Vec<_>>().join(" "),
        r.banner(),
        r.body_snippet()
    )
}

/// Banners holding a Table 2 keyword, in mixed case.
const KEYWORD_BANNERS: [&str; 3] = [
    "Server: ProxySG",
    "Location: http://gw:8080/WebAdmin/deny",
    "NetSweeper/5.1 cfru=x",
];

/// Near-miss banners holding no Table 2 keyword.
const PLAIN_BANNERS: [&str; 3] = ["Server: Apache", "Server: web-admin", "proxy sg/5.1"];

/// Whether a record's searchable text holds some Table 2 keyword.
fn has_keyword(r: &ScanRecord) -> bool {
    let text = reference_text(r).to_ascii_lowercase();
    keywords::KEYWORD_TABLE
        .iter()
        .flat_map(|p| p.keywords)
        .any(|kw| text.contains(&kw.to_ascii_lowercase()))
}

/// The candidate addresses of a sweep for `keyword` alone over
/// `pairs`, ascending. The one-product table is leaked because
/// [`ProductKeywords`] holds `'static` slices.
fn sweep_one(index: &ScanIndex, keyword: &str, pairs: &[(&str, &str)]) -> Vec<IpAddr> {
    let keyword: &'static str = Box::leak(keyword.into());
    let table = [ProductKeywords {
        product: "probe",
        keywords: Box::leak(Box::new([keyword])),
    }];
    let hits = index.search_products(&table, pairs.iter().copied());
    hits["probe"].keys().copied().collect()
}

/// Half the draws of `pick` name one of `index`'s records and the
/// other half none, so a property sees scopes and keywords taken from
/// the records as well as ones drawn on their own.
fn picked(index: &ScanIndex, pick: usize) -> Option<&ScanRecord> {
    index
        .records()
        .get(pick % (2 * index.records().len()).max(1))
}

/// The distinct addresses of `records`, ascending.
fn addresses<'r>(records: impl Iterator<Item = &'r ScanRecord>) -> Vec<IpAddr> {
    let set: std::collections::BTreeSet<IpAddr> = records.map(ScanRecord::ip).collect();
    set.into_iter().collect()
}

/// A re-crawl of `old`'s endpoint that flips whether the record holds
/// a keyword: a keyword banner replaces a banner with none, a plain
/// banner replaces one with a keyword.
fn recrawl(old: &ScanRecord, pick: usize) -> ScanRecord {
    let banners = if has_keyword(old) {
        PLAIN_BANNERS
    } else {
        KEYWORD_BANNERS
    };
    let hostnames: Vec<&str> = old.hostnames().collect();
    ScanRecord::new(RecordParts {
        ip: old.ip(),
        port: old.port(),
        path: old.path(),
        hostnames: &hostnames,
        banner: banners[pick % banners.len()],
        body_snippet: old.body_snippet(),
        country: old.country(),
        asn: old.asn(),
        captured_at: old.captured_at(),
    })
}

/// Records whose endpoints collide: half the addresses come from a
/// four-address pool, and ports and paths favour 80/8080 and
/// `/`/`/webadmin/`, so lists hold re-crawls of one endpoint and
/// `ip:port` pairs serving several paths. Hostnames mix case. Half the
/// banners hold a Table 2 keyword, and countries favour two of the
/// swept scopes, so batched sweeps find matches in and out of scope.
fn any_record() -> impl Strategy<Value = ScanRecord> {
    (
        prop_oneof![(0u32..4).prop_map(|i| 0x0500_0001 + i), any::<u32>()],
        prop_oneof![Just(80u16), Just(8080u16), 1u16..=65535],
        prop_oneof![
            Just("/".to_string()),
            Just("/webadmin/".to_string()),
            "(/[a-z0-9]{0,6}){0,3}",
        ],
        prop_oneof![
            "[ -~]{0,60}",
            (0..KEYWORD_BANNERS.len()).prop_map(|i| KEYWORD_BANNERS[i].to_string()),
        ],
        "\\PC{0,60}",
        proptest::collection::vec("[a-zA-Z]{1,8}\\.[a-zA-Z]{2,3}", 0..3),
        proptest::option::of(prop_oneof![
            Just("QA".to_string()),
            Just("SY".to_string()),
            "[A-Z]{2}",
        ]),
        proptest::option::of(1u32..100_000),
        0u64..1_000_000,
    )
        .prop_map(
            |(ip, port, path, banner, body, hostnames, country, asn, at)| {
                ScanRecord::new(RecordParts {
                    ip: IpAddr(ip),
                    port,
                    path: if path.is_empty() { "/" } else { &path },
                    hostnames: &hostnames,
                    banner: &banner,
                    body_snippet: &body,
                    country: country.as_deref(),
                    asn,
                    captured_at: SimTime::from_secs(at),
                })
            },
        )
}

/// Every field of a record, owned, so a test can compare fields.
#[derive(Debug, Clone, PartialEq)]
struct Fields {
    ip: u32,
    port: u16,
    path: String,
    hostnames: Vec<String>,
    banner: String,
    body: String,
    country: Option<String>,
    asn: Option<u32>,
    at: u64,
}

impl Fields {
    fn build(&self) -> ScanRecord {
        ScanRecord::new(RecordParts {
            ip: IpAddr(self.ip),
            port: self.port,
            path: &self.path,
            hostnames: &self.hostnames,
            banner: &self.banner,
            body_snippet: &self.body,
            country: self.country.as_deref(),
            asn: self.asn,
            captured_at: SimTime::from_secs(self.at),
        })
    }

    /// `self` with field `which` (0–8) taken from `other`.
    fn with_field_of(&self, other: &Fields, which: usize) -> Fields {
        let mut out = self.clone();
        match which {
            0 => out.ip = other.ip,
            1 => out.port = other.port,
            2 => out.path = other.path.clone(),
            3 => out.hostnames = other.hostnames.clone(),
            4 => out.banner = other.banner.clone(),
            5 => out.body = other.body.clone(),
            6 => out.country = other.country.clone(),
            7 => out.asn = other.asn,
            _ => out.at = other.at,
        }
        out
    }
}

/// Text that stresses the layout: the separator (space), commas,
/// uppercase, multi-byte characters, and empty strings.
fn layout_text() -> impl Strategy<Value = String> {
    prop_oneof![Just(String::new()), "[ ,a-zA-Z.é]{0,8}", "\\PC{0,8}",]
}

/// Zero to several hostnames, including lists whose joined text
/// collides: `["a b"]` and `["a", "b"]`, `[]` and `[""]`.
fn layout_hostnames() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        Just(vec!["a b".to_string()]),
        Just(vec!["a".to_string(), "b".to_string()]),
        Just(Vec::new()),
        Just(vec![String::new()]),
        proptest::collection::vec(layout_text(), 0..5),
    ]
}

fn any_fields() -> impl Strategy<Value = Fields> {
    (
        any::<u32>(),
        any::<u16>(),
        layout_text(),
        layout_hostnames(),
        layout_text(),
        layout_text(),
        proptest::option::of(layout_text()),
        proptest::option::of(any::<u32>()),
        any::<u64>(),
    )
        .prop_map(
            |(ip, port, path, hostnames, banner, body, country, asn, at)| Fields {
                ip,
                port,
                path,
                hostnames,
                banner,
                body,
                country,
                asn,
                at,
            },
        )
}

/// One re-crawl delta as choices resolved against the model list:
/// endpoints to re-crawl (with a banner pick), fresh records, endpoints
/// to retire, and whether to sweep right after it. Re-crawls pick from
/// the first three model records, so one delta often re-crawls an
/// endpoint twice and the last add must win.
type DeltaChoice = (Vec<(usize, usize)>, Vec<ScanRecord>, Vec<usize>, bool);

fn any_delta() -> impl Strategy<Value = DeltaChoice> {
    (
        proptest::collection::vec((0..3usize, any::<usize>()), 0..5),
        proptest::collection::vec(any_record(), 0..6),
        proptest::collection::vec(any::<usize>(), 0..4),
        any::<bool>(),
    )
}

proptest! {
    /// Each accessor returns exactly the part the record was built from,
    /// the buffer is the searchable text followed by the country, and
    /// equality and `Clone` are field equality: two records built from
    /// field lists that differ in one field are equal exactly when the
    /// fields are.
    #[test]
    fn accessors_return_the_parts_built_from(
        a in any_fields(),
        b in any_fields(),
        which in 0usize..9,
    ) {
        let r = a.build();
        prop_assert_eq!(r.ip(), IpAddr(a.ip));
        prop_assert_eq!(r.port(), a.port);
        prop_assert_eq!(r.path(), a.path.as_str());
        let hosts: Vec<&str> = a.hostnames.iter().map(String::as_str).collect();
        prop_assert_eq!(r.hostnames().collect::<Vec<_>>(), hosts.clone());
        prop_assert_eq!(r.hostnames().len(), hosts.len());
        prop_assert_eq!(r.banner(), a.banner.as_str());
        prop_assert_eq!(r.body_snippet(), a.body.as_str());
        prop_assert_eq!(r.country(), a.country.as_deref());
        prop_assert_eq!(r.asn(), a.asn);
        prop_assert_eq!(r.captured_at(), SimTime::from_secs(a.at));
        let text = format!(
            "{} {}{} {} {} {}",
            IpAddr(a.ip),
            a.port,
            a.path,
            hosts.join(" "),
            a.banner,
            a.body
        );
        prop_assert_eq!(r.searchable_text(), text.as_str());

        let copy = r.clone();
        prop_assert_eq!(&copy, &r);
        prop_assert_eq!(format!("{copy:?}"), format!("{r:?}"));
        let mixed = a.with_field_of(&b, which);
        prop_assert_eq!(mixed.build() == r, mixed == a, "field {}", which);
    }

    /// Self-diff is always empty; diff against empty lists everything.
    #[test]
    fn diff_identities(records in proptest::collection::vec(any_record(), 0..15)) {
        let index = ScanIndex::build(records.clone());
        prop_assert!(diff(&index, &index).is_empty());
        let empty = ScanIndex::build(Vec::new());
        let d = diff(&empty, &index);
        let distinct: std::collections::BTreeSet<(u32, u16, String)> = records
            .iter()
            .map(|r| (r.ip().value(), r.port(), r.path().to_string()))
            .collect();
        prop_assert_eq!(d.appeared.len(), distinct.len());
        prop_assert!(d.disappeared.is_empty());
        let d2 = diff(&index, &empty);
        prop_assert_eq!(d2.disappeared.len(), distinct.len());
    }

    /// A sweep for one keyword returns exactly the addresses of the
    /// records whose lowercased searchable text contains the keyword,
    /// with a scope that holds every record that has a country or a
    /// hostname; each record's searchable text is the raw-case reference
    /// formatted from its fields. A picked record lends its first
    /// hostname label as the keyword, so the sweep has a hit to find.
    #[test]
    fn search_soundness(
        records in proptest::collection::vec(any_record(), 0..15),
        kw in "[a-zA-Z]{2,6}",
        pick in any::<usize>(),
    ) {
        let index = ScanIndex::build(records);
        for record in index.records() {
            prop_assert_eq!(record.searchable_text(), reference_text(record));
        }
        let label = picked(&index, pick)
            .and_then(|r| r.hostnames().next())
            .and_then(|h| h.split('.').next())
            .filter(|l| !l.is_empty());
        let kw = label.unwrap_or(&kw);
        // Each record's country and its first hostname's last label.
        let pairs: Vec<(&str, &str)> = index
            .records()
            .iter()
            .map(|r| {
                let tld = r.hostnames().next().and_then(|h| h.rsplit('.').next());
                (r.country().unwrap_or(""), tld.unwrap_or(""))
            })
            .collect();
        let lower = kw.to_ascii_lowercase();
        let brute = addresses(index.records().iter().filter(|r| {
            (r.country().is_some() || r.hostnames().next().is_some())
                && r.searchable_text().to_ascii_lowercase().contains(&lower)
        }));
        prop_assert_eq!(sweep_one(&index, kw, &pairs), brute);
    }

    /// Stats totals agree with the record list.
    #[test]
    fn stats_consistency(records in proptest::collection::vec(any_record(), 0..15)) {
        let index = ScanIndex::build(records.clone());
        let stats = index.stats();
        prop_assert_eq!(stats.records, records.len());
        let by_country_total: usize = stats.by_country.values().sum();
        let with_country = records.iter().filter(|r| r.country().is_some()).count();
        prop_assert_eq!(by_country_total, with_country);
        prop_assert!(stats.addresses <= stats.records.max(1));
    }

    /// A sweep for one keyword in one `(country, ccTLD)` scope equals
    /// the brute-force predicate from the seed implementation, address
    /// for address. A picked record lends its country and its first
    /// hostname's last label to the scope, so both arms of the scope
    /// hold records.
    #[test]
    fn country_search_equals_bruteforce(
        records in proptest::collection::vec(any_record(), 0..25),
        kw in "[a-z]{1,4}",
        cc in "[A-Z]{2}",
        tld in "[a-z]{2,3}",
        pick in any::<usize>(),
    ) {
        let index = ScanIndex::build(records);
        let picked = picked(&index, pick);
        let cc = picked.and_then(ScanRecord::country).unwrap_or(&cc);
        let tld = picked
            .and_then(|r| r.hostnames().next())
            .and_then(|h| h.rsplit('.').next())
            .map_or(tld.clone(), str::to_ascii_lowercase);
        let fast = sweep_one(&index, &kw, &[(cc, &tld)]);
        let suffix = format!(".{}", tld);
        let brute = addresses(index.records().iter().filter(|r| {
            r.searchable_text().to_ascii_lowercase().contains(&kw)
                && (r.country() == Some(cc)
                    || r.hostnames().any(|h| h.to_ascii_lowercase().ends_with(&suffix)))
        }));
        prop_assert_eq!(fast, brute);
    }

    /// Parallel batched search equals the serial sweep, record for
    /// record, for any worker count. Each sweep runs on an index of its
    /// own, so both compile a plan and scan every record.
    #[test]
    fn parallel_search_equals_serial(
        records in proptest::collection::vec(any_record(), 0..40),
        threads in 2usize..6,
    ) {
        let serial_index = ScanIndex::build(records.clone());
        let parallel_index = ScanIndex::build(records);
        let pairs: Vec<(&str, &str)> = vec![("QA", "qa"), ("SY", "sy"), ("US", "us"), ("AA", "aa")];
        let serial = serial_index.search_products_with_threads(
            keywords::KEYWORD_TABLE,
            pairs.iter().copied(),
            1,
        );
        let parallel = parallel_index.search_products_with_threads(
            keywords::KEYWORD_TABLE,
            pairs.iter().copied(),
            threads,
        );
        prop_assert_eq!(serial_index.sweep_cache_stats(), (0, 1));
        prop_assert_eq!(parallel_index.sweep_cache_stats(), (0, 1));
        prop_assert_eq!(serial, parallel);
    }

    /// Incremental ingest is equivalent to rebuilding from scratch:
    /// the same live snapshot, statistics and batched query results
    /// after a chain of deltas with a compaction in the middle. The
    /// first sweep runs before any delta, so a sweep after a delta that
    /// read a stale plan would show; re-crawls flip records into and
    /// out of the match set. Every sweep equals the sweep of a scratch
    /// build. Each delta retires as many records as the model drops,
    /// and the tombstones add up until compaction frees them.
    #[test]
    fn delta_equals_scratch(
        base in proptest::collection::vec(any_record(), 0..25),
        deltas in proptest::collection::vec(any_delta(), 2..4),
        compact_pick in any::<usize>(),
    ) {
        let pairs: Vec<(&str, &str)> = vec![("QA", "qa"), ("SY", "sy"), ("US", "us"), ("AA", "aa")];
        let sweep = |index: &ScanIndex| {
            index.search_products(keywords::KEYWORD_TABLE, pairs.iter().copied())
        };
        let mut delta = ScanIndex::build(base.clone());
        prop_assert_eq!(sweep(&delta), sweep(&ScanIndex::build(base.clone())));
        let mut model = base;
        let mut tombstones = 0;
        let last = deltas.len() - 1;
        let compact_at = compact_pick % last;
        for (step, (recrawls, fresh, retire_sel, sweep_now)) in deltas.into_iter().enumerate() {
            let (mut adds, retires): (Vec<ScanRecord>, Vec<(IpAddr, u16, String)>) =
                if model.is_empty() {
                    (Vec::new(), Vec::new())
                } else {
                    (
                        recrawls
                            .iter()
                            .map(|&(ix, pick)| recrawl(&model[ix % model.len()], pick))
                            .collect(),
                        retire_sel
                            .iter()
                            .map(|ix| endpoint_key(&model[ix % model.len()]))
                            .collect(),
                    )
                };
            adds.extend(fresh);
            let before = delta.epoch();
            let stats = delta.apply_delta(adds.clone(), &retires);
            prop_assert_eq!(stats.epoch, before + 1);
            prop_assert_eq!(stats.added, adds.len());
            let dropped;
            (model, dropped) = model_apply(model, &adds, &retires);
            prop_assert_eq!(stats.retired, dropped);
            tombstones += dropped;
            prop_assert_eq!(delta.tombstones(), tombstones);

            let scratch = ScanIndex::build(model.clone());
            prop_assert_eq!(delta.to_dump(), scratch.to_dump());
            prop_assert_eq!(delta.stats(), scratch.stats());
            prop_assert_eq!(delta.len(), scratch.len());
            if sweep_now || step == last {
                prop_assert_eq!(sweep(&delta), sweep(&scratch), "after delta {}", step);
            }
            if step == compact_at {
                prop_assert_eq!(delta.compact(), tombstones);
                tombstones = 0;
                prop_assert_eq!(delta.records(), scratch.records());
                prop_assert_eq!(delta.tombstones(), 0);
                if sweep_now {
                    prop_assert_eq!(sweep(&delta), sweep(&scratch), "after compaction");
                }
            }
        }
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
