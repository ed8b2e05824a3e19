//! The keyword-searchable scan index — sharded and incrementally
//! ingestable.
//!
//! The index is *query-compiled*: [`ScanIndex::build`] lowercases each
//! record's searchable text exactly once into a cached corpus and posts
//! it into per-shard country / ccTLD-suffix posting bitsets, so the
//! paper's keyword + ccTLD query form touches only in-scope records and
//! never rebuilds a record's text. On top of that, three things make it
//! hold up at Shodan scale:
//!
//! * **Sharding** — records are partitioned by a stable hash of their
//!   country (hostname fallback) into [`IndexShard`]s. The record arena
//!   and corpus stay global (arena ids are global), so cross-shard
//!   query merges are plain ascending bitset iteration; what a shard
//!   localizes is *mutation*: a re-crawl delta touches only the shards
//!   its records hash into.
//! * **Incremental ingest** — [`ScanIndex::apply_delta`] applies
//!   crawler deltas (new endpoints, retired endpoints, re-crawled
//!   banners) by tombstoning dead arena slots and appending new ones,
//!   bumping the index epoch, instead of rebuilding from scratch.
//!   [`ScanIndex::compact`] reclaims tombstoned slots when churn
//!   accumulates.
//! * **Per-epoch query plans** — the batched
//!   [`ScanIndex::search_products`] fuses every Table 2 keyword into
//!   one Aho-Corasick automaton and resolves the ccTLD scope masks into
//!   per-shard id lists *once per (epoch, table, scope) triple*,
//!   caching the plan on the index. Repeated identify sweeps pay zero
//!   compilation; a delta invalidates the plan via the epoch key.
//!
//! Determinism: shard assignment is FNV-1a (platform-stable), interner
//! ids are insertion-ordered, all postings iterate in ascending arena
//! order, and the parallel sweep merges per-shard results in shard
//! order — so serial and parallel sweeps, and any shard count, produce
//! byte-identical query results.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use filterwatch_netsim::IpAddr;
use filterwatch_pattern::Automaton;
use parking_lot::Mutex;

use crate::bitset::DenseBitSet;
use crate::intern::{fnv1a, Interner, Sym};
use crate::keywords::ProductKeywords;
use crate::record::ScanRecord;
use crate::shard::{IndexShard, ShardConfig, ShardEpoch};

/// Words in the per-record trigram bloom (4096 bits). At typical
/// banner sizes (~300 bytes, so ≲300 distinct trigrams and two bits
/// each) the fill rate stays under ~15%.
const BLOOM_WORDS: usize = 64;

/// A 4096-bit bloom over a text's (lowercased) byte trigrams, two
/// independent bits per trigram. Records and needles hash the same
/// way, so a needle occurring in a text implies
/// `text_bloom ⊇ needle_bloom` — the contrapositive lets the sweep
/// skip records without reading their corpus. The parameters are tuned
/// for near-miss-dense corpora (`webadmission`, `proxyserver`): a
/// near-miss genuinely shares all but one or two of a keyword's
/// trigrams, so the reject hinges on the missing trigram's bits alone
/// — two bits put that false-positive rate at fill² (a couple percent)
/// where one bit would leave it at the fill rate itself. Hashed by
/// multiplication (top 12 bits, two odd constants); collisions only
/// cost false positives, never misses.
fn trigram_bloom(text: &str) -> [u64; BLOOM_WORDS] {
    let mut bloom = [0u64; BLOOM_WORDS];
    for w in text.as_bytes().windows(3) {
        let tri = (w[0] as u32) << 16 | (w[1] as u32) << 8 | w[2] as u32;
        let h1 = tri.wrapping_mul(0x9E37_79B1) >> 20;
        let h2 = tri.wrapping_mul(0x85EB_CA77) >> 20;
        bloom[(h1 >> 6) as usize] |= 1u64 << (h1 & 63);
        bloom[(h2 >> 6) as usize] |= 1u64 << (h2 & 63);
    }
    bloom
}

/// A needle's requirement set in sparse form: the nonzero words of its
/// [`trigram_bloom`]. Needles set ~2 bits per trigram in a 64-word
/// bloom, so the dense array is almost all zeros — and all-zero words
/// can never reject, so the superset test only visits these.
fn sparse_bloom(needle: &str) -> Vec<(u32, u64)> {
    trigram_bloom(needle)
        .iter()
        .enumerate()
        .filter(|(_, &w)| w != 0)
        .map(|(i, &w)| (i as u32, w))
        .collect()
}

/// `rec ⊇ need`: every required trigram bit is present.
#[inline]
fn bloom_superset(rec: &[u64; BLOOM_WORDS], need: &[(u32, u64)]) -> bool {
    need.iter().all(|&(i, n)| rec[i as usize] & n == n)
}

/// A built scan index (the Shodan analog).
#[derive(Debug)]
pub struct ScanIndex {
    /// Record arena, append-only between compactions. Holds retired
    /// (tombstoned) entries until [`compact`](Self::compact) runs.
    records: Vec<ScanRecord>,
    /// Lowercased searchable text per arena slot — the cached corpus
    /// every query matches against.
    corpus: Vec<String>,
    /// Trigram bloom per arena slot (over the corpus text). The
    /// batched sweep rejects records that cannot contain any keyword
    /// without touching their corpus bytes.
    blooms: Vec<[u64; BLOOM_WORDS]>,
    /// Live arena ids (tombstoned slots are absent).
    live: DenseBitSet,
    /// The posting shards; `shard_of[id]` names each record's shard.
    shards: Vec<IndexShard>,
    shard_of: Vec<u16>,
    /// Dense ids for hostnames, country codes and suffix labels.
    labels: Interner,
    /// Each record's posting keys (country + suffix syms), memoized at
    /// ingest so retirement clears postings without re-deriving them
    /// from hostname strings.
    post_keys: Vec<(Option<Sym>, Box<[Sym]>)>,
    /// Live arena ids per `(ip, port, path)` endpoint — the key
    /// re-crawl deltas retire by.
    by_endpoint: BTreeMap<(IpAddr, u16, String), Vec<u32>>,
    /// Bumped once per delta/compaction; keys the cached sweep plan.
    epoch: u64,
    /// Tombstoned arena slots not yet compacted.
    retired: usize,
    /// The per-epoch compiled query plan (automaton + scope masks).
    plan: Mutex<Option<Arc<SweepPlan>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// Per-product hits of a batched keyword sweep: candidate address →
/// the keywords (in keyword-table order) that surfaced it.
pub type ProductHits = BTreeMap<IpAddr, Vec<String>>;

/// Aggregate statistics about an index (live records only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of records (responsive `ip:port/path` endpoints).
    pub records: usize,
    /// Number of distinct addresses.
    pub addresses: usize,
    /// Records per country code.
    pub by_country: BTreeMap<String, usize>,
}

/// What one [`ScanIndex::apply_delta`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// The index epoch after the delta.
    pub epoch: u64,
    /// Records appended to the arena.
    pub added: usize,
    /// Live records tombstoned (explicit retirements plus re-crawled
    /// endpoints whose previous banners were superseded).
    pub retired: usize,
    /// Shards whose postings changed.
    pub shards_touched: usize,
}

/// A compiled batched query, cached per `(epoch, table, scope)`.
#[derive(Debug)]
struct SweepPlan {
    epoch: u64,
    table_fp: u64,
    scope_fp: u64,
    /// Every keyword of every product fused into one automaton;
    /// needle id = position in the flattened (product, keyword) list.
    automaton: Automaton,
    id_to_entry: Vec<(usize, usize)>,
    /// In-scope live arena ids that pass the per-needle trigram-bloom
    /// prefilter, ascending within each shard. Records outside this
    /// candidate set provably cannot match any needle.
    shard_scopes: Vec<Vec<u32>>,
}

impl Default for ScanIndex {
    fn default() -> Self {
        ScanIndex::build(Vec::new())
    }
}

impl Clone for ScanIndex {
    fn clone(&self) -> Self {
        ScanIndex {
            records: self.records.clone(),
            corpus: self.corpus.clone(),
            blooms: self.blooms.clone(),
            live: self.live.clone(),
            shards: self.shards.clone(),
            shard_of: self.shard_of.clone(),
            labels: self.labels.clone(),
            post_keys: self.post_keys.clone(),
            by_endpoint: self.by_endpoint.clone(),
            epoch: self.epoch,
            retired: self.retired,
            plan: Mutex::new(self.plan.lock().clone()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }
}

impl ScanIndex {
    /// Build a sharded index from crawler records with the default
    /// shard count, caching each record's lowercased searchable text
    /// and the per-shard posting bitsets.
    pub fn build(records: Vec<ScanRecord>) -> Self {
        Self::build_with(records, ShardConfig::default())
    }

    /// As [`build`](Self::build) with an explicit shard count. Query
    /// results are shard-count-invariant; the count only changes
    /// mutation locality and parallel sweep chunking.
    pub fn build_with(records: Vec<ScanRecord>, config: ShardConfig) -> Self {
        let shards = config.shards.max(1);
        let mut index = ScanIndex {
            records: Vec::with_capacity(records.len()),
            corpus: Vec::with_capacity(records.len()),
            blooms: Vec::with_capacity(records.len()),
            live: DenseBitSet::with_bits(records.len()),
            shards: vec![IndexShard::default(); shards],
            shard_of: Vec::with_capacity(records.len()),
            labels: Interner::new(),
            post_keys: Vec::with_capacity(records.len()),
            by_endpoint: BTreeMap::new(),
            epoch: 0,
            retired: 0,
            plan: Mutex::new(None),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        };
        for record in records {
            index.ingest(record);
        }
        index
    }

    /// Build an index from crawler records.
    #[deprecated(
        since = "0.2.0",
        note = "one-shot flat constructor; use `ScanIndex::build` / \
                `ScanIndex::build_with` (sharded, delta-ingestable)"
    )]
    pub fn from_records(records: Vec<ScanRecord>) -> Self {
        Self::build(records)
    }

    /// Append one record: cache its corpus text, post it into its
    /// shard, index its endpoint. Returns the arena id.
    fn ingest(&mut self, record: ScanRecord) -> usize {
        let id = self.records.len();
        let corpus = record.searchable_text().to_ascii_lowercase();
        let shard = self.shard_slot(&record);
        let country = match record.country.as_deref() {
            Some(c) => Some(self.labels.intern(c)),
            None => None,
        };
        let mut suffixes = Vec::new();
        for hostname in &record.hostnames {
            let lower = hostname.to_ascii_lowercase();
            // Hostnames get dense ids too (debug/stats surface); the
            // postings key on every dot-suffix, so a record with
            // hostname `gw.isp.qa` posts under `isp.qa` and `qa`.
            self.labels.intern(&lower);
            for (pos, _) in lower.match_indices('.') {
                suffixes.push(self.labels.intern(&lower[pos + 1..]));
            }
        }
        suffixes.sort_unstable();
        suffixes.dedup();
        self.by_endpoint
            .entry((record.ip, record.port, record.path.clone()))
            .or_default()
            .push(id as u32);
        self.records.push(record);
        self.blooms.push(trigram_bloom(&corpus));
        self.corpus.push(corpus);
        self.shard_of.push(shard);
        self.live.insert(id);
        self.shards[shard as usize].insert(id, country, &suffixes);
        self.post_keys.push((country, suffixes.into_boxed_slice()));
        id
    }

    /// The shard a record hashes into: FNV-1a of its country code,
    /// falling back to the first (lowercased) hostname — so a country's
    /// re-crawl delta lands in one shard.
    fn shard_slot(&self, record: &ScanRecord) -> u16 {
        let n = self.shards.len().max(1) as u64;
        let h = match record.country.as_deref() {
            Some(c) => fnv1a(c.as_bytes()),
            None => match record.hostnames.first() {
                Some(host) => fnv1a(host.to_ascii_lowercase().as_bytes()),
                None => fnv1a(b""),
            },
        };
        (h % n) as u16
    }

    /// How many records pass the sweep's bloom prefilter for `table`
    /// (diagnostics only).
    #[doc(hidden)]
    pub fn bloom_candidates(&self, table: &[ProductKeywords]) -> usize {
        let mut needle_blooms = Vec::new();
        for product in table {
            for kw in product.keywords {
                needle_blooms.push(sparse_bloom(&kw.to_ascii_lowercase()));
            }
        }
        self.blooms
            .iter()
            .filter(|rec| needle_blooms.iter().any(|need| bloom_superset(rec, need)))
            .count()
    }

    /// Pre-size the append-only arenas for `additional` expected
    /// records. Purely an amortization hint for a steady delta stream
    /// (a freshly built index already carries growth slack; a cloned
    /// one is trimmed to exact capacity and would otherwise pay one
    /// full-arena copy on its first append). Never changes results.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
        self.corpus.reserve(additional);
        self.blooms.reserve(additional);
        self.shard_of.reserve(additional);
        self.post_keys.reserve(additional);
    }

    /// Apply a re-crawl delta: tombstone `retirements` (and any live
    /// records at an added record's endpoint — a re-crawl supersedes
    /// the previous capture), append `adds`, bump the epoch, and mark
    /// the touched shards. Cost is proportional to the delta, not the
    /// index; the cached sweep plan is invalidated.
    pub fn apply_delta(
        &mut self,
        adds: Vec<ScanRecord>,
        retirements: &[(IpAddr, u16, String)],
    ) -> DeltaStats {
        self.epoch += 1;
        *self.plan.lock() = None;
        let mut touched: BTreeSet<u16> = BTreeSet::new();
        let mut retired = 0;
        for key in retirements {
            retired += self.retire_endpoint(key, &mut touched);
        }
        let added = adds.len();
        // Grow the parallel arenas once for the whole delta rather than
        // by repeated doubling.
        self.reserve(added);
        for record in adds {
            let key = (record.ip, record.port, record.path.clone());
            retired += self.retire_endpoint(&key, &mut touched);
            let id = self.ingest(record);
            touched.insert(self.shard_of[id]);
        }
        for &s in &touched {
            self.shards[s as usize].touch(self.epoch);
        }
        DeltaStats {
            epoch: self.epoch,
            added,
            retired,
            shards_touched: touched.len(),
        }
    }

    /// Tombstone every live record at `key`: clear its postings and
    /// drop it from the live set. The arena slot stays until
    /// [`compact`](Self::compact).
    fn retire_endpoint(
        &mut self,
        key: &(IpAddr, u16, String),
        touched: &mut BTreeSet<u16>,
    ) -> usize {
        let Some(ids) = self.by_endpoint.remove(key) else {
            return 0;
        };
        let mut n = 0;
        for id in ids {
            let id = id as usize;
            if !self.live.remove(id) {
                continue;
            }
            let (country, suffixes) = &self.post_keys[id];
            let shard = self.shard_of[id];
            self.shards[shard as usize].retire(id, *country, suffixes);
            touched.insert(shard);
            self.retired += 1;
            n += 1;
        }
        n
    }

    /// Reclaim tombstoned arena slots by rebuilding over the live
    /// records (arena order preserved, ids renumbered densely). Bumps
    /// the epoch; returns the number of slots freed. A no-op (and no
    /// epoch bump) when nothing is tombstoned.
    pub fn compact(&mut self) -> usize {
        if self.retired == 0 {
            return 0;
        }
        let shards = self.shards.len().max(1);
        let live: Vec<ScanRecord> = self
            .live
            .iter()
            .map(|id| self.records[id].clone())
            .collect();
        let freed = self.records.len() - live.len();
        let epoch = self.epoch + 1;
        let mut rebuilt = ScanIndex::build_with(live, ShardConfig { shards });
        rebuilt.epoch = epoch;
        for s in &mut rebuilt.shards {
            s.touch(epoch);
        }
        *self = rebuilt;
        freed
    }

    /// All arena records in ingest order. Until a delta retires
    /// something this is exactly the live record set (crawler builds
    /// sort by `(ip, port, path)` first); after deltas it also holds
    /// tombstoned entries — use [`live_records`](Self::live_records)
    /// for the live view.
    pub fn records(&self) -> &[ScanRecord] {
        &self.records
    }

    /// Live records in arena (ingest) order.
    pub fn live_records(&self) -> impl Iterator<Item = &ScanRecord> {
        self.live.iter().map(|id| &self.records[id])
    }

    /// A new index over the same live records in a deterministically
    /// shuffled order (seeded Fisher–Yates), postings and corpus
    /// rebuilt to match. Identification is defined to be
    /// record-order-invariant; metamorphic tests permute an index with
    /// this and byte-compare the resulting reports.
    pub fn shuffled(&self, seed: u64) -> ScanIndex {
        use rand::Rng as _;
        use rand::SeedableRng as _;
        let mut records: Vec<ScanRecord> = self.live_records().cloned().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for i in (1..records.len()).rev() {
            let j = rng.gen_range(0..=i);
            records.swap(i, j);
        }
        ScanIndex::build_with(
            records,
            ShardConfig {
                shards: self.shards.len().max(1),
            },
        )
    }

    /// The cached corpus: one lowercased searchable text per arena
    /// slot, parallel to [`records`](Self::records).
    pub fn corpus(&self) -> &[String] {
        &self.corpus
    }

    /// The cached searchable text of one record.
    pub fn corpus_of(&self, index: usize) -> &str {
        &self.corpus[index]
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the index holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Current index epoch (0 = freshly built; each delta/compaction
    /// bumps it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Tombstoned arena slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.retired
    }

    /// Per-shard epoch/occupancy summaries, in shard order.
    pub fn shard_epochs(&self) -> Vec<ShardEpoch> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.epoch_of(i as u16))
            .collect()
    }

    /// The label interner (hostnames, country codes, suffixes).
    pub fn interner(&self) -> &Interner {
        &self.labels
    }

    /// Approximate heap bytes held by posting bitsets across shards.
    pub fn posting_bytes(&self) -> usize {
        self.shards.iter().map(IndexShard::posting_bytes).sum()
    }

    /// `(hits, misses)` of the cached sweep-plan lookup since this
    /// index value was created (counters are not cloned).
    pub fn sweep_cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Keyword search: case-insensitive substring match over each live
    /// record's cached searchable text (banner, body snippet,
    /// hostnames, `port/path`).
    pub fn search(&self, keyword: &str) -> Vec<&ScanRecord> {
        self.search_ids(keyword)
            .into_iter()
            .map(|i| &self.records[i])
            .collect()
    }

    /// Arena ids of the live records matching `keyword`, ascending.
    /// Pair with [`corpus_of`](Self::corpus_of) /
    /// [`records`](Self::records).
    pub fn search_ids(&self, keyword: &str) -> Vec<usize> {
        let needle = keyword.to_ascii_lowercase();
        self.live
            .iter()
            .filter(|&i| self.corpus[i].contains(&needle))
            .collect()
    }

    /// Union the `(country_code, cctld)` scope postings into `scope`
    /// across every shard (word-wise bitset OR).
    fn scope_union_into(&self, country_code: &str, cctld: &str, scope: &mut DenseBitSet) {
        let cc = country_code.to_ascii_uppercase();
        let tld = cctld.trim_start_matches('.').to_ascii_lowercase();
        if let Some(sym) = self.labels.get(&cc) {
            for shard in &self.shards {
                if let Some(p) = shard.country_posting(sym) {
                    scope.union_with(p);
                }
            }
        }
        if let Some(sym) = self.labels.get(&tld) {
            for shard in &self.shards {
                if let Some(p) = shard.suffix_posting(sym) {
                    scope.union_with(p);
                }
            }
        }
    }

    /// Arena ids in scope for one `(country_code, cctld)` pair:
    /// the cross-shard union of the country and ccTLD postings,
    /// ascending (bitset iteration *is* the sorted merge).
    fn scope_ids(&self, country_code: &str, cctld: &str) -> Vec<u32> {
        let mut scope = DenseBitSet::with_bits(self.records.len());
        self.scope_union_into(country_code, cctld, &mut scope);
        scope.to_vec()
    }

    /// Keyword search restricted to one country's footprint — the
    /// paper's "keyword + ccTLD" query form. A record qualifies when the
    /// keyword matches *and* either a hostname carries the ccTLD or the
    /// crawler's country metadata matches `country_code`. Served from
    /// the posting bitsets: only in-scope records are scanned.
    pub fn search_in_country(
        &self,
        keyword: &str,
        country_code: &str,
        cctld: &str,
    ) -> Vec<&ScanRecord> {
        let needle = keyword.to_ascii_lowercase();
        self.scope_ids(country_code, cctld)
            .into_iter()
            .filter(|&i| self.corpus[i as usize].contains(&needle))
            .map(|i| &self.records[i as usize])
            .collect()
    }

    /// Union of `search_in_country` over a whole ccTLD table, as the
    /// paper runs each keyword against every country code. Returns
    /// distinct endpoints in first-seen order, deduplicated by record
    /// index (records are unique per `(ip, port, path)`).
    pub fn search_all_countries<'a, I>(&self, keyword: &str, cctlds: I) -> Vec<&ScanRecord>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let needle = keyword.to_ascii_lowercase();
        let mut seen = vec![false; self.records.len()];
        let mut out = Vec::new();
        for (cc, tld) in cctlds {
            for i in self.scope_ids(cc, tld) {
                let i = i as usize;
                if !seen[i] && self.corpus[i].contains(&needle) {
                    seen[i] = true;
                    out.push(&self.records[i]);
                }
            }
        }
        out
    }

    /// The batched query the identify stage runs: every product's
    /// keyword list crossed with every `(country_code, cctld)` pair, in
    /// one automaton sweep over the in-scope corpus, parallelized over
    /// shards. Returns, per product slug, the candidate addresses and
    /// the keywords (keyword-table order) that hit them. The compiled
    /// automaton and scope masks are cached on the index per epoch, so
    /// repeated sweeps pay no compilation.
    pub fn search_products<'a, I>(
        &self,
        table: &[ProductKeywords],
        cctlds: I,
    ) -> BTreeMap<String, ProductHits>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4);
        self.search_products_with_threads(table, cctlds, threads)
    }

    /// As [`search_products`](Self::search_products) with an explicit
    /// worker count (1 = serial). Parallel and serial sweeps return
    /// identical results: workers cover disjoint shard groups and the
    /// merge concatenates per-shard hits in shard order; the fold into
    /// per-product maps is order-insensitive.
    pub fn search_products_with_threads<'a, I>(
        &self,
        table: &[ProductKeywords],
        cctlds: I,
        threads: usize,
    ) -> BTreeMap<String, ProductHits>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let pairs: Vec<(&str, &str)> = cctlds.into_iter().collect();
        let plan = self.sweep_plan(table, &pairs);
        let per_record = self.sweep(&plan, threads.max(1));

        // Fold per-record hits into per-product candidate maps. Keyword
        // lists are emitted in keyword-table order regardless of which
        // record matched first, so the fold order cannot matter.
        let mut matched: BTreeMap<(usize, IpAddr), Vec<bool>> = BTreeMap::new();
        for (record_index, ids) in per_record {
            let ip = self.records[record_index as usize].ip;
            for id in ids {
                let (pi, ki) = plan.id_to_entry[id];
                matched
                    .entry((pi, ip))
                    .or_insert_with(|| vec![false; table[pi].keywords.len()])[ki] = true;
            }
        }
        let mut out: BTreeMap<String, ProductHits> = table
            .iter()
            .map(|p| (p.product.to_string(), ProductHits::new()))
            .collect();
        for ((pi, ip), kws) in matched {
            let product = &table[pi];
            let hit_kws: Vec<String> = product
                .keywords
                .iter()
                .zip(&kws)
                .filter(|(_, &hit)| hit)
                .map(|(kw, _)| kw.to_string())
                .collect();
            if let Some(hits) = out.get_mut(product.product) {
                hits.insert(ip, hit_kws);
            }
        }
        out
    }

    /// The cached sweep plan for `(epoch, table, scope)`, compiling one
    /// on miss. Fingerprints are FNV-1a over the flattened table and
    /// pair lists.
    fn sweep_plan(&self, table: &[ProductKeywords], pairs: &[(&str, &str)]) -> Arc<SweepPlan> {
        let mut fp_buf = Vec::new();
        for p in table {
            fp_buf.extend_from_slice(p.product.as_bytes());
            fp_buf.push(0);
            for kw in p.keywords {
                fp_buf.extend_from_slice(kw.as_bytes());
                fp_buf.push(1);
            }
        }
        let table_fp = fnv1a(&fp_buf);
        fp_buf.clear();
        for (cc, tld) in pairs {
            fp_buf.extend_from_slice(cc.as_bytes());
            fp_buf.push(0);
            fp_buf.extend_from_slice(tld.as_bytes());
            fp_buf.push(1);
        }
        let scope_fp = fnv1a(&fp_buf);

        if let Some(plan) = self.plan.lock().as_ref() {
            if plan.epoch == self.epoch && plan.table_fp == table_fp && plan.scope_fp == scope_fp {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(plan);
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(self.compile_plan(table, pairs, table_fp, scope_fp));
        *self.plan.lock() = Some(Arc::clone(&plan));
        plan
    }

    /// Compile the fused automaton and resolve the scope masks into
    /// per-shard ascending id lists — the work hoisted out of the
    /// query hot path.
    fn compile_plan(
        &self,
        table: &[ProductKeywords],
        pairs: &[(&str, &str)],
        table_fp: u64,
        scope_fp: u64,
    ) -> SweepPlan {
        let mut needles: Vec<(usize, String)> = Vec::new();
        let mut needle_blooms: Vec<Vec<(u32, u64)>> = Vec::new();
        let mut id_to_entry: Vec<(usize, usize)> = Vec::new();
        for (pi, product) in table.iter().enumerate() {
            for (ki, kw) in product.keywords.iter().enumerate() {
                // filterwatch-lint: allow(h1-hot-alloc): plan compilation is amortized by the epoch cache, not per-probe
                let folded = kw.to_ascii_lowercase();
                needle_blooms.push(sparse_bloom(&folded));
                needles.push((id_to_entry.len(), folded));
                id_to_entry.push((pi, ki));
            }
        }
        let automaton = Automaton::new(needles, false); // corpus is pre-folded

        let mut scope = DenseBitSet::with_bits(self.records.len());
        for (cc, tld) in pairs {
            self.scope_union_into(cc, tld, &mut scope);
        }
        // Bloom prefilter, hoisted: candidacy is a pure function of
        // (epoch, table, scope) — exactly the plan cache key — so the
        // per-record superset tests run once per plan, not per sweep.
        // A record whose trigram set covers no needle's trigram set
        // cannot match; everything that survives still goes through
        // the automaton, which remains the decider.
        let mut shard_scopes: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for id in scope.iter() {
            let rec = &self.blooms[id];
            if needle_blooms.iter().any(|need| bloom_superset(rec, need)) {
                shard_scopes[self.shard_of[id] as usize].push(id as u32);
            }
        }
        SweepPlan {
            epoch: self.epoch,
            table_fp,
            scope_fp,
            automaton,
            id_to_entry,
            shard_scopes,
        }
    }

    /// Run the plan's automaton over the in-scope corpus, chunked by
    /// shard. Returns `(arena id, matched needle ids)` for every record
    /// with at least one hit, grouped by shard in shard order —
    /// identical for serial and parallel runs.
    fn sweep(&self, plan: &SweepPlan, threads: usize) -> Vec<(u32, Vec<usize>)> {
        let scan_shards = |shards: &[Vec<u32>]| -> Vec<(u32, Vec<usize>)> {
            let mut hit = Vec::new();
            let mut found = Vec::new();
            let mut out = Vec::new();
            for ids in shards {
                for &i in ids {
                    plan.automaton
                        .matched_ids_into(&self.corpus[i as usize], &mut hit, &mut found);
                    if !found.is_empty() {
                        out.push((i, std::mem::take(&mut found)));
                    }
                }
            }
            out
        };
        let scoped: usize = plan.shard_scopes.iter().map(Vec::len).sum();
        if threads <= 1 || scoped < 2 || plan.shard_scopes.len() < 2 {
            return scan_shards(&plan.shard_scopes);
        }
        let per_group = plan.shard_scopes.len().div_ceil(threads).max(1);
        let groups: Vec<&[Vec<u32>]> = plan.shard_scopes.chunks(per_group).collect();
        let joined = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .map(|group| scope.spawn(move |_| scan_shards(group)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Result<Vec<_>, _>>()
        });
        match joined {
            // Ordered merge: group order is shard order, so the
            // parallel concatenation equals the serial scan.
            Ok(Ok(results)) => crate::merge::ordered_flatten(results),
            // A worker died; fall back to the deterministic serial scan
            // rather than surface a partial sweep.
            _ => scan_shards(&plan.shard_scopes),
        }
    }

    /// Distinct addresses matching `keyword`, ascending.
    pub fn matching_ips(&self, keyword: &str) -> Vec<IpAddr> {
        let mut out: Vec<IpAddr> = self.search(keyword).into_iter().map(|r| r.ip).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Aggregate statistics over the live records.
    pub fn stats(&self) -> IndexStats {
        let mut by_country: BTreeMap<String, usize> = BTreeMap::new();
        let mut addresses = BTreeSet::new();
        for r in self.live_records() {
            addresses.insert(r.ip);
            if let Some(c) = &r.country {
                *by_country.entry(c.clone()).or_default() += 1;
            }
        }
        IndexStats {
            records: self.live.len(),
            addresses: addresses.len(),
            by_country,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::KEYWORD_TABLE;
    use filterwatch_netsim::SimTime;

    fn rec(ip: &str, port: u16, banner: &str, host: &str, country: &str) -> ScanRecord {
        ScanRecord {
            ip: ip.parse().unwrap(),
            port,
            path: "/".into(),
            banner: banner.into(),
            body_snippet: String::new(),
            hostnames: vec![host.into()],
            country: Some(country.into()),
            asn: Some(1),
            captured_at: SimTime::ZERO,
        }
    }

    fn index() -> ScanIndex {
        ScanIndex::build(vec![
            rec("5.0.0.1", 80, "Server: ProxySG", "gw.example.sy", "SY"),
            rec("5.0.1.1", 8080, "Server: netsweeper/5.1", "gw.isp.qa", "QA"),
            rec("5.0.2.1", 80, "Server: Apache", "www.plain.se", "SE"),
            rec("5.0.3.1", 80, "Server: ProxySG", "proxy.corp.us", "US"),
        ])
    }

    #[test]
    fn keyword_search_is_case_insensitive() {
        let idx = index();
        assert_eq!(idx.search("proxysg").len(), 2);
        assert_eq!(idx.search("NETSWEEPER").len(), 1);
        assert_eq!(idx.search("nothing").len(), 0);
    }

    #[test]
    fn corpus_is_cached_and_lowercased() {
        let idx = index();
        assert_eq!(idx.corpus().len(), idx.len());
        assert!(idx.corpus_of(0).contains("server: proxysg"));
        assert!(idx.corpus_of(1).contains("gw.isp.qa"));
        for (i, text) in idx.corpus().iter().enumerate() {
            assert_eq!(text, &idx.corpus_of(i).to_string());
            assert_eq!(text.to_ascii_lowercase(), *text);
        }
    }

    #[test]
    fn country_scoped_search() {
        let idx = index();
        let sy = idx.search_in_country("proxysg", "SY", "sy");
        assert_eq!(sy.len(), 1);
        assert_eq!(sy[0].ip.to_string(), "5.0.0.1");
        // ccTLD match works even if metadata were missing: the .qa
        // hostname qualifies the record for QA.
        let qa = idx.search_in_country("netsweeper", "QA", "qa");
        assert_eq!(qa.len(), 1);
        assert!(idx.search_in_country("proxysg", "QA", "qa").is_empty());
    }

    #[test]
    fn cctld_postings_cover_multi_label_suffixes() {
        let idx = ScanIndex::build(vec![rec(
            "5.0.0.1",
            80,
            "Server: ProxySG",
            "gw.example.co.uk",
            "GB",
        )]);
        assert_eq!(idx.search_in_country("proxysg", "ZZ", "co.uk").len(), 1);
        assert_eq!(idx.search_in_country("proxysg", "ZZ", "uk").len(), 1);
        assert!(idx.search_in_country("proxysg", "ZZ", "o.uk").is_empty());
    }

    #[test]
    fn union_over_cctlds_deduplicates() {
        let idx = index();
        let hits = idx.search_all_countries("proxysg", [("SY", "sy"), ("US", "us"), ("SY", "sy")]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn batched_sweep_matches_per_keyword_queries() {
        let idx = index();
        let pairs = [("SY", "sy"), ("QA", "qa"), ("SE", "se"), ("US", "us")];
        let hits = idx.search_products(KEYWORD_TABLE, pairs);
        let bluecoat = &hits["bluecoat"];
        assert_eq!(bluecoat.len(), 2);
        assert_eq!(
            bluecoat[&"5.0.0.1".parse().unwrap()],
            vec!["proxysg".to_string()]
        );
        let netsweeper = &hits["netsweeper"];
        assert_eq!(netsweeper.len(), 1);
        assert_eq!(
            netsweeper[&"5.0.1.1".parse().unwrap()],
            vec!["netsweeper".to_string()]
        );
        assert!(hits["websense"].is_empty());
        assert!(hits["smartfilter"].is_empty());
    }

    #[test]
    fn batched_sweep_scope_excludes_unlisted_countries() {
        let idx = index();
        // Only Syria in scope: the US ProxySG must not surface.
        let hits = idx.search_products(KEYWORD_TABLE, [("SY", "sy")]);
        assert_eq!(hits["bluecoat"].len(), 1);
        assert!(hits["bluecoat"].contains_key(&"5.0.0.1".parse().unwrap()));
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let idx = index();
        let pairs = [("SY", "sy"), ("QA", "qa"), ("SE", "se"), ("US", "us")];
        let serial = idx.search_products_with_threads(KEYWORD_TABLE, pairs, 1);
        let parallel = idx.search_products_with_threads(KEYWORD_TABLE, pairs, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats() {
        let s = index().stats();
        assert_eq!(s.records, 4);
        assert_eq!(s.addresses, 4);
        assert_eq!(s.by_country["SY"], 1);
        assert_eq!(s.by_country.len(), 4);
    }

    #[test]
    fn shuffled_preserves_records_and_search_results() {
        let idx = index();
        let shuffled = idx.shuffled(42);
        // Same record multiset (here: same sorted (ip, port) keys).
        let mut orig: Vec<_> = idx.records().iter().map(|r| (r.ip, r.port)).collect();
        let mut perm: Vec<_> = shuffled.records().iter().map(|r| (r.ip, r.port)).collect();
        orig.sort_unstable();
        perm.sort_unstable();
        assert_eq!(orig, perm);
        // Determinism: the same seed yields the same permutation.
        let again: Vec<_> = idx
            .shuffled(42)
            .records()
            .iter()
            .map(|r| (r.ip, r.port))
            .collect();
        let first: Vec<_> = shuffled.records().iter().map(|r| (r.ip, r.port)).collect();
        assert_eq!(first, again);
        // Query results are order-insensitive: the batched sweep over the
        // shuffled index equals the sweep over the original.
        let pairs = [("SY", "sy"), ("QA", "qa"), ("SE", "se"), ("US", "us")];
        assert_eq!(
            idx.search_products(KEYWORD_TABLE, pairs),
            shuffled.search_products(KEYWORD_TABLE, pairs)
        );
    }

    #[test]
    fn matching_ips_deduplicates_ports() {
        let mut records = vec![
            rec("5.0.0.1", 80, "x proxysg", "a.example.sy", "SY"),
            rec("5.0.0.1", 8080, "y proxysg", "a.example.sy", "SY"),
        ];
        records.sort_by_key(|a| (a.ip, a.port));
        let idx = ScanIndex::build(records);
        assert_eq!(idx.matching_ips("proxysg").len(), 1);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_constructor_matches_build() {
        let records = vec![rec("5.0.0.1", 80, "Server: ProxySG", "gw.example.sy", "SY")];
        let old = ScanIndex::from_records(records.clone());
        let new = ScanIndex::build(records);
        assert_eq!(old.records(), new.records());
        assert_eq!(old.corpus(), new.corpus());
        assert_eq!(old.stats(), new.stats());
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let records = crate::synth::synth_records(200, 13);
        let pairs: Vec<(&str, &str)> = crate::synth::SYNTH_COUNTRIES.to_vec();
        let one = ScanIndex::build_with(records.clone(), ShardConfig { shards: 1 });
        let many = ScanIndex::build_with(records, ShardConfig { shards: 13 });
        assert_eq!(
            one.search_products(KEYWORD_TABLE, pairs.iter().copied()),
            many.search_products(KEYWORD_TABLE, pairs.iter().copied())
        );
        assert_eq!(one.search_ids("netsweeper"), many.search_ids("netsweeper"));
        assert_eq!(one.stats(), many.stats());
        assert_eq!(many.shard_count(), 13);
    }

    #[test]
    fn apply_delta_recrawl_supersedes_and_retires() {
        let mut idx = index();
        assert_eq!(idx.epoch(), 0);
        // Re-crawl 5.0.2.1 with a ProxySG banner; retire 5.0.3.1.
        let recrawl = rec("5.0.2.1", 80, "Server: ProxySG", "www.plain.se", "SE");
        let gone = ("5.0.3.1".parse().unwrap(), 80, "/".to_string());
        let stats = idx.apply_delta(vec![recrawl], &[gone]);
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.added, 1);
        assert_eq!(stats.retired, 2);
        assert!(stats.shards_touched >= 1 && stats.shards_touched <= idx.shard_count());
        assert_eq!(idx.epoch(), 1);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.tombstones(), 2);
        // The US ProxySG is gone; the re-crawled SE endpoint now hits.
        assert_eq!(idx.search("proxysg").len(), 2);
        assert_eq!(idx.search_in_country("proxysg", "SE", "se").len(), 1);
        assert!(idx.search_in_country("proxysg", "US", "us").is_empty());
        assert!(idx.search("apache").is_empty());
        // Only the touched shards carry the new epoch.
        let touched = idx.shard_epochs().iter().filter(|e| e.epoch == 1).count();
        assert_eq!(touched, stats.shards_touched);
    }

    #[test]
    fn delta_then_compact_matches_scratch_build() {
        let mut idx = index();
        let recrawl = rec("5.0.2.1", 80, "Server: ProxySG", "www.plain.se", "SE");
        let gone = ("5.0.3.1".parse().unwrap(), 80, "/".to_string());
        idx.apply_delta(vec![recrawl.clone()], &[gone]);
        let freed = idx.compact();
        assert_eq!(freed, 2);
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.records().len(), idx.len());

        let scratch = ScanIndex::build(vec![
            rec("5.0.0.1", 80, "Server: ProxySG", "gw.example.sy", "SY"),
            rec("5.0.1.1", 8080, "Server: netsweeper/5.1", "gw.isp.qa", "QA"),
            recrawl,
        ]);
        assert_eq!(idx.records(), scratch.records());
        assert_eq!(idx.corpus(), scratch.corpus());
        assert_eq!(idx.stats(), scratch.stats());
        // Compacting an already-clean index is a free no-op.
        let epoch = idx.epoch();
        assert_eq!(idx.compact(), 0);
        assert_eq!(idx.epoch(), epoch);
    }

    #[test]
    fn sweep_plan_is_cached_until_epoch_bump() {
        let idx = index();
        let pairs = [("SY", "sy"), ("QA", "qa")];
        assert_eq!(idx.sweep_cache_stats(), (0, 0));
        let first = idx.search_products(KEYWORD_TABLE, pairs);
        assert_eq!(idx.sweep_cache_stats(), (0, 1));
        let second = idx.search_products(KEYWORD_TABLE, pairs);
        assert_eq!(idx.sweep_cache_stats(), (1, 1));
        assert_eq!(first, second);
        // A different scope compiles a fresh plan.
        idx.search_products(KEYWORD_TABLE, [("SY", "sy")]);
        assert_eq!(idx.sweep_cache_stats(), (1, 2));

        let mut idx = idx;
        idx.apply_delta(
            vec![rec("5.0.9.1", 80, "Server: ProxySG", "gw.other.sy", "SY")],
            &[],
        );
        let after = idx.search_products(KEYWORD_TABLE, [("SY", "sy")]);
        assert_eq!(idx.sweep_cache_stats(), (1, 3));
        assert_eq!(after["bluecoat"].len(), 2);
    }

    #[test]
    fn bloom_prefilter_is_selective_and_never_drops_matches() {
        // The synthetic corpus is near-miss-dense by design; the
        // trigram prefilter must still discard the overwhelming
        // majority of records while keeping every genuine match.
        let records = crate::synth_records(4_000, 7);
        let planted: Vec<_> = records
            .iter()
            .filter(|r| {
                let text = r.searchable_text().to_ascii_lowercase();
                KEYWORD_TABLE
                    .iter()
                    .flat_map(|p| p.keywords)
                    .any(|kw| text.contains(&kw.to_ascii_lowercase()))
            })
            .map(|r| r.ip)
            .collect();
        let idx = ScanIndex::build(records);
        let candidates = idx.bloom_candidates(KEYWORD_TABLE);
        assert!(!planted.is_empty());
        assert!(candidates >= planted.len(), "prefilter dropped a match");
        assert!(
            candidates <= idx.len() / 10,
            "prefilter passed {candidates} of {} records",
            idx.len()
        );
        // And the swept result agrees with a per-record scratch scan.
        let pairs: Vec<(&str, &str)> = crate::SYNTH_COUNTRIES.to_vec();
        let hits = idx.search_products(KEYWORD_TABLE, pairs.iter().copied());
        let mut swept: Vec<_> = hits.values().flat_map(|m| m.keys().copied()).collect();
        swept.sort_unstable();
        swept.dedup();
        let mut expected = planted;
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(swept, expected);
    }

    #[test]
    fn interner_and_shard_surfaces_are_consistent() {
        let idx = index();
        let labels = idx.interner();
        assert!(labels.get("QA").is_some());
        assert!(labels.get("isp.qa").is_some());
        assert!(labels.get("gw.isp.qa").is_some());
        let epochs = idx.shard_epochs();
        assert_eq!(epochs.len(), idx.shard_count());
        assert_eq!(epochs.iter().map(|e| e.live).sum::<usize>(), idx.len());
        assert!(idx.posting_bytes() > 0);
        for e in &epochs {
            let line = e.to_line();
            assert_eq!(crate::shard::ShardEpoch::parse_line(&line), Some(*e));
        }
    }
}
