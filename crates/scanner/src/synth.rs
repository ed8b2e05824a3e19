//! Deterministic synthetic banner corpus for scale testing.
//!
//! The paper-world corpus tops out around 260 records — fine for the
//! pinned-seed tables, useless for exercising the postings or for
//! benchmarking the sweep at Shodan-like sizes. This generator produces
//! 10⁴/10⁵/10⁶-record corpora that are:
//!
//! * **deterministic by seed** — a SplitMix64 stream keyed only by the
//!   caller's seed, no process entropy;
//! * **adversarial for substring search** — banners are dense in
//!   near-miss tokens (`proxyserver`, `netgear`, `webadmission`,
//!   `mcafee-agent`, …) that share prefixes with Table-2 keywords, so a
//!   per-keyword `contains` scan pays for restarts that the fused
//!   automaton does not;
//! * **scope-shaped** — countries cycle through a pool that includes
//!   multi-label ccTLDs (`com.tr`, `co.uk`, …) with a bounded ISP label
//!   set, so suffix postings stay compact while covering every suffix
//!   level.
//!
//! Roughly one record in 97 gets a real Table-2 keyword planted, so
//! identify-style sweeps over a synthetic corpus return non-trivial,
//! seed-stable hit sets.

use crate::record::{push_decimal, RecordParts, ScanRecord};
use filterwatch_netsim::{IpAddr, SimTime};

/// Country pool used by [`synth_records`]: `(country code, ccTLD)`,
/// including multi-label suffixes.
pub const SYNTH_COUNTRIES: &[(&str, &str)] = &[
    ("QA", "qa"),
    ("YE", "ye"),
    ("SA", "sa"),
    ("AE", "ae"),
    ("BH", "bh"),
    ("KW", "kw"),
    ("TR", "com.tr"),
    ("UK", "co.uk"),
    ("LB", "com.lb"),
    ("PK", "net.pk"),
];

/// Banner vocabulary: near-misses for the Table-2 keyword set. None of
/// these contain an actual keyword, but most share a prefix or first
/// byte with one, which keeps naive per-keyword scans honest.
const WORDS: &[&str] = &[
    "internet",
    "network-appliance",
    "web-cache",
    "proxyserver",
    "proxy-arp",
    "url-rewriter",
    "urlencoded",
    "netgear",
    "netflow",
    "net-snmp",
    "websocket",
    "webmail",
    "webadmission",
    "webmaster",
    "mcafee-agent",
    "gatekeeper",
    "gateway-link",
    "blockchain",
    "blocklistd",
    "pagecache",
    "cachemgr",
    "content-meter",
    "categorizer",
    "cfparse",
    "squid-cache",
    "nginx",
    "deny-log",
    "smartcard",
];

/// Table-2 keywords planted (sparsely) so sweeps return hits. Kept in
/// sync with [`crate::keywords::KEYWORD_TABLE`] by a test below.
const PLANTS: &[&str] = &[
    "proxysg",
    "cfru=",
    "mcafee web gateway",
    "url blocked",
    "netsweeper",
    "webadmin",
    "webadmin/deny",
    "blockpage.cgi",
    "gateway websense",
];

/// One record in `PLANT_EVERY` carries a planted keyword.
const PLANT_EVERY: usize = 97;

/// The decimal digits, for the single-digit numbers in hostnames and
/// banners.
const DIGITS: [&str; 10] = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9"];

/// SplitMix64: tiny, seedable, platform-stable. Good enough for corpus
/// shaping; never used where statistical quality matters.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn word(&mut self) -> &'static str {
        WORDS[self.below(WORDS.len())]
    }
}

/// Generate `count` deterministic synthetic records for `seed`, using
/// the default [`SYNTH_COUNTRIES`] pool. Records are emitted in
/// ascending `(ip, port, path)` order (ips are unique and increasing),
/// matching the sort contract of crawler output.
pub fn synth_records(count: usize, seed: u64) -> Vec<ScanRecord> {
    synth_records_with(count, seed, 0x0a00_0000, SYNTH_COUNTRIES)
}

/// Generate `count` records starting at ip `ip_base`, drawing countries
/// from `countries`.
pub fn synth_records_with(
    count: usize,
    seed: u64,
    ip_base: u32,
    countries: &[(&str, &str)],
) -> Vec<ScanRecord> {
    let mut rng = SplitMix64(seed ^ 0x5371_7468_2d63_6f72); // corpus stream
    let mut scratch = Scratch::default();
    (0..count)
        .map(|i| synth_record(i, ip_base, countries, &mut rng, &mut scratch))
        .collect()
}

/// Text buffers reused across records: each field is written once
/// into its buffer, and [`ScanRecord::new`] copies them into the
/// record's own.
#[derive(Default)]
struct Scratch {
    host: String,
    banner: String,
    body: String,
}

fn synth_record(
    i: usize,
    ip_base: u32,
    countries: &[(&str, &str)],
    rng: &mut SplitMix64,
    scratch: &mut Scratch,
) -> ScanRecord {
    let Scratch { host, banner, body } = scratch;
    let (cc, cctld) = countries[i % countries.len().max(1)];
    let planted = i % PLANT_EVERY == 0;
    let (port, path) = if planted && i % (2 * PLANT_EVERY) == 0 {
        // Half the plants take the port/path form `8080/webadmin/` that
        // the Netsweeper keywords key on.
        (8080, "/webadmin/")
    } else {
        ([80u16, 8080, 443, 3128][rng.below(4)], "/")
    };
    let isp = DIGITS[rng.below(8)];
    host.clear();
    host.push('h');
    push_decimal(host, i as u64);
    host.extend([".isp", isp, ".", cctld]);
    let server = rng.word();
    let via = rng.word();
    // The draws keep this order, status through the last word:
    // `tests/synth_pin.rs` pins the corpus the stream makes.
    let status = ["200", "302", "401", "403"][rng.below(4)];
    let reason = ["OK", "Found", "Unauthorized", "Forbidden"][rng.below(4)];
    let major = DIGITS[1 + rng.below(9)];
    let minor = DIGITS[rng.below(10)];
    let cache = ["HIT", "MISS"][rng.below(2)];
    let from = rng.word();
    banner.clear();
    banner.extend(["HTTP/1.1 ", status, " ", reason, "\r\n"]);
    banner.extend(["Server: ", server, "/", major, ".", minor, "\r\n"]);
    banner.extend(["Via: 1.1 ", via, "\r\n"]);
    banner.extend(["X-Cache: ", cache, " from ", from, "\r\n"]);
    if planted {
        banner.push_str("X-Notice: ");
        banner.push_str(PLANTS[(i / PLANT_EVERY) % PLANTS.len()]);
        banner.push_str("\r\n");
    }
    let words = 8 + rng.below(8);
    body.clear();
    for w in 0..words {
        if w > 0 {
            body.push(' ');
        }
        body.push_str(rng.word());
    }
    ScanRecord::new(RecordParts {
        ip: IpAddr(ip_base.wrapping_add(i as u32)),
        port,
        path,
        hostnames: &[host.as_str()],
        banner,
        body_snippet: body,
        country: Some(cc),
        asn: Some(64_496 + (i as u32 % 32)),
        captured_at: SimTime::from_secs(i as u64 * 37),
    })
}

/// A deterministic re-crawl delta against `base`: `appear` brand-new
/// endpoints (ips disjoint from [`synth_records`]' range) plus
/// `disappear` retirements of existing endpoints, both keyed by `seed`.
/// Returns `(adds, retirements)` in `apply_delta` argument order.
pub fn synth_churn(
    base: &[ScanRecord],
    appear: usize,
    disappear: usize,
    seed: u64,
) -> (Vec<ScanRecord>, Vec<(IpAddr, u16, String)>) {
    let adds = synth_records_with(
        appear,
        seed ^ 0x0063_6875_726e,
        0x0b00_0000,
        SYNTH_COUNTRIES,
    );
    let mut rng = SplitMix64(seed ^ 0x7265_7469_7265);
    let mut retirements = Vec::with_capacity(disappear.min(base.len()));
    let mut taken = crate::bitset::DenseBitSet::with_bits(base.len());
    while retirements.len() < disappear.min(base.len()) {
        let i = rng.below(base.len());
        if taken.insert(i) {
            let r = &base[i];
            retirements.push((r.ip(), r.port(), r.path().to_string()));
        }
    }
    (adds, retirements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::KEYWORD_TABLE;

    #[test]
    fn deterministic_by_seed() {
        let a = synth_records(500, 7);
        let b = synth_records(500, 7);
        let c = synth_records(500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn ips_unique_and_sorted() {
        let records = synth_records(1000, 3);
        for w in records.windows(2) {
            assert!(w[0].ip() < w[1].ip());
        }
    }

    #[test]
    fn plants_cover_keyword_table() {
        // Every planted token must be a real Table-2 keyword, so the
        // synthetic corpus produces legitimate product hits.
        let known: Vec<&str> = KEYWORD_TABLE
            .iter()
            .flat_map(|p| p.keywords.iter().copied())
            .collect();
        for p in PLANTS {
            assert!(known.contains(p), "{p} is not a Table-2 keyword");
        }
    }

    #[test]
    fn near_misses_contain_no_keywords() {
        let known: Vec<&str> = KEYWORD_TABLE
            .iter()
            .flat_map(|p| p.keywords.iter().copied())
            .collect();
        for w in WORDS {
            for k in &known {
                assert!(!w.contains(k), "near-miss {w} contains keyword {k}");
            }
        }
    }

    #[test]
    fn unplanted_records_do_not_match() {
        let records = synth_records(2000, 11);
        let known: Vec<&str> = KEYWORD_TABLE
            .iter()
            .flat_map(|p| p.keywords.iter().copied())
            .collect();
        for (i, r) in records.iter().enumerate() {
            if i % PLANT_EVERY != 0 {
                let text = format!(
                    "{} {}{} {} {}",
                    r.ip(),
                    r.port(),
                    r.path(),
                    r.banner(),
                    r.body_snippet()
                )
                .to_ascii_lowercase();
                for k in &known {
                    assert!(!text.contains(k), "record {i} accidentally matches {k}");
                }
            }
        }
    }

    #[test]
    fn churn_is_disjoint_and_deterministic() {
        let base = synth_records(1000, 5);
        let (adds, retires) = synth_churn(&base, 50, 50, 9);
        let (adds2, retires2) = synth_churn(&base, 50, 50, 9);
        assert_eq!(adds, adds2);
        assert_eq!(retires, retires2);
        assert_eq!(adds.len(), 50);
        assert_eq!(retires.len(), 50);
        // New endpoints never collide with the base ip range.
        for a in &adds {
            assert!(base.iter().all(|b| b.ip() != a.ip()));
        }
        // Retirements are distinct endpoints drawn from the base.
        let mut seen = retires.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), retires.len());
    }

    #[test]
    fn multi_label_cctlds_present() {
        let records = synth_records(40, 1);
        assert!(records
            .iter()
            .any(|r| r.hostnames().any(|h| h.ends_with(".com.tr"))));
        assert!(records
            .iter()
            .any(|r| r.hostnames().any(|h| h.ends_with(".co.uk"))));
    }
}
