//! The keyword-searchable scan index — sharded and incrementally
//! ingestable.
//!
//! The index is *query-compiled*: [`ScanIndex::build`] keeps each
//! record as it arrives, one buffer that already holds its searchable
//! text in raw case, and posts it into per-shard country /
//! ccTLD-suffix posting bitsets, so the paper's keyword + ccTLD query
//! form touches only in-scope records and never copies a record's
//! text. Every query folds ASCII case as it matches (the sweep's
//! automaton in its byte-class map, single-keyword queries through one
//! folding substring test), so no lowercased copy of the corpus exists.
//! On top of that, three things make it hold up at Shodan scale:
//!
//! * **Sharding** — records are partitioned by a stable hash of their
//!   country (hostname fallback) into [`IndexShard`]s. The record arena
//!   stays global (arena ids are global), so cross-shard query merges
//!   are plain ascending bitset iteration; what a shard
//!   localizes is *mutation*: a re-crawl delta touches only the shards
//!   its records hash into.
//! * **Incremental ingest** — [`ScanIndex::apply_delta`] applies
//!   crawler deltas (new endpoints, retired endpoints, re-crawled
//!   banners) by tombstoning dead arena slots and appending new ones,
//!   bumping the index epoch, instead of rebuilding from scratch.
//!   [`ScanIndex::compact`] reclaims tombstoned slots when churn
//!   accumulates.
//! * **A cached sweep plan** — the batched
//!   [`ScanIndex::search_products`] fuses every Table 2 keyword into
//!   one Aho-Corasick automaton, runs it over every live record once,
//!   and caches the matched keywords per keyword table. The ccTLD scope
//!   is applied at query time from the posting bitsets, so one plan
//!   serves every scope and a repeat sweep scans nothing. A delta or a
//!   compaction drops the plan.
//!
//! Determinism: shard assignment is FNV-1a (platform-stable), interner
//! ids are insertion-ordered, all postings iterate in ascending arena
//! order, and the parallel sweep merges contiguous runs of arena ids in
//! id order — so serial and parallel sweeps, and any shard count,
//! produce byte-identical query results.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use filterwatch_netsim::IpAddr;
use filterwatch_pattern::Automaton;
use parking_lot::Mutex;

use crate::bitset::DenseBitSet;
use crate::intern::{fnv1a, Interner, Sym};
use crate::keywords::ProductKeywords;
use crate::record::ScanRecord;
use crate::shard::{IndexShard, ShardConfig, ShardEpoch};

/// Slot `id`'s span in a flat arena whose slots end at `ends[id]`, each
/// starting where the previous one ends.
fn span(ends: &[usize], id: usize) -> Range<usize> {
    id.checked_sub(1).map_or(0, |prev| ends[prev])..ends[id]
}

/// A hostname in ASCII lowercase, copied only when it has an uppercase
/// byte.
fn ascii_lowercase(host: &str) -> Cow<'_, str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    }
}

/// Whether `text` holds `keyword` with ASCII case folded on both
/// sides: what `text.to_ascii_lowercase().contains(&keyword.to_ascii_lowercase())`
/// answers, without either copy. Every single-keyword query matches
/// through here, and the sweep's folding automaton agrees with it.
///
/// A candidate start is one whose byte matches the keyword's first
/// byte and whose byte `len - 1` further on matches its last. Starts are
/// tested 32 at a time in a loop the compiler vectorizes (the last
/// block overlaps the one before it), and only candidates are compared
/// in full.
fn contains_folded(text: &str, keyword: &str) -> bool {
    /// Starts tested per block.
    const BLOCK: usize = 32;
    let (text, keyword) = (text.as_bytes(), keyword.as_bytes());
    let (Some(&first), Some(&last)) = (keyword.first(), keyword.last()) else {
        return true;
    };
    let Some(last_start) = text.len().checked_sub(keyword.len()) else {
        return false;
    };
    // `b | case == want` holds for both cases of an ASCII letter and
    // only for the byte itself otherwise.
    let probe = |k: u8| {
        let case = if k.is_ascii_alphabetic() { 0x20 } else { 0 };
        (case, k | case)
    };
    let ((case0, want0), (case1, want1)) = (probe(first), probe(last));
    let tail = keyword.len() - 1;
    let starts = last_start + 1;
    let candidate = |head: u8, end: u8| ((head | case0) == want0) & ((end | case1) == want1);
    let matches_at = |i: usize| text[i..i + keyword.len()].eq_ignore_ascii_case(keyword);
    if starts < BLOCK {
        return (0..starts).any(|i| candidate(text[i], text[i + tail]) && matches_at(i));
    }
    let block = |at: usize| {
        let heads = &text[at..at + BLOCK];
        let ends = &text[at + tail..at + tail + BLOCK];
        let mut hits = [false; BLOCK];
        for j in 0..BLOCK {
            hits[j] = candidate(heads[j], ends[j]);
        }
        hits.contains(&true) && (0..BLOCK).any(|j| hits[j] && matches_at(at + j))
    };
    (0..starts / BLOCK).any(|n| block(n * BLOCK)) || (starts % BLOCK != 0 && block(starts - BLOCK))
}

/// A built scan index (the Shodan analog).
#[derive(Debug)]
pub struct ScanIndex {
    /// Record arena, append-only between compactions. Holds retired
    /// (tombstoned) entries until [`compact`](Self::compact) runs. Each
    /// record's own buffer is the text every query matches against.
    records: Vec<ScanRecord>,
    /// Live arena ids (tombstoned slots are absent).
    live: DenseBitSet,
    /// The posting shards; `shard_of[id]` names each record's shard.
    shards: Vec<IndexShard>,
    shard_of: Vec<u16>,
    /// Dense ids for hostnames, country codes and suffix labels.
    labels: Interner,
    /// Each record's posting keys, memoized at ingest so retirement
    /// clears postings without re-deriving them from hostname strings:
    /// its country sym, and its sorted distinct suffix syms back to back
    /// in one flat arena ending at `suffix_ends[id]`.
    countries: Vec<Option<Sym>>,
    suffixes: Vec<Sym>,
    suffix_ends: Vec<usize>,
    /// `(ip, port, arena id)` of every live record. Re-crawl deltas
    /// retire by `(ip, port, path)`: walk the `(ip, port)` range and
    /// keep the ids whose record has that path.
    by_endpoint: BTreeSet<(IpAddr, u16, usize)>,
    /// Bumped once per delta/compaction.
    epoch: u64,
    /// Tombstoned arena slots not yet compacted.
    retired: usize,
    /// The sweep plan of the last keyword table searched.
    plan: Mutex<Option<SweepPlan>>,
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

/// What a batched query over one keyword table found, cached until the
/// index next changes. The match set covers every live record in any
/// scope; a sweep keeps the ones in its scope.
#[derive(Debug, Clone)]
struct SweepPlan {
    table_fp: u64,
    /// Needle id → (product, keyword) position in the table.
    id_to_entry: Vec<(usize, usize)>,
    /// `(arena id, matched needle ids)` of every live record with at
    /// least one match, ascending by id.
    matches: Vec<(u32, Vec<usize>)>,
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
            live: self.live.clone(),
            shards: self.shards.clone(),
            shard_of: self.shard_of.clone(),
            labels: self.labels.clone(),
            countries: self.countries.clone(),
            suffixes: self.suffixes.clone(),
            suffix_ends: self.suffix_ends.clone(),
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
    /// shard count, posting each record into the per-shard bitsets.
    pub fn build(records: Vec<ScanRecord>) -> Self {
        Self::build_with(records, ShardConfig::default())
    }

    /// As [`build`](Self::build) with an explicit shard count. Query
    /// results are shard-count-invariant; the count only changes
    /// mutation locality and parallel sweep chunking.
    pub fn build_with(records: Vec<ScanRecord>, config: ShardConfig) -> Self {
        let shards = config.shards.max(1);
        let mut index = ScanIndex {
            records: Vec::new(),
            live: DenseBitSet::with_bits(records.len()),
            shards: vec![IndexShard::default(); shards],
            shard_of: Vec::new(),
            labels: Interner::new(),
            countries: Vec::new(),
            suffixes: Vec::new(),
            suffix_ends: Vec::new(),
            by_endpoint: BTreeSet::new(),
            epoch: 0,
            retired: 0,
            plan: Mutex::new(None),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        };
        index.reserve(records.len());
        for record in records {
            index.ingest(record);
        }
        index
    }

    /// Append one record: keep it in the arena, post it into its
    /// shard, index its endpoint. Returns the arena id. A record adds no
    /// heap object of its own: its interned labels go into the
    /// interner's arena (a hostname with uppercase bytes is lowercased
    /// into a temporary copy first).
    fn ingest(&mut self, record: ScanRecord) -> usize {
        let id = self.records.len();
        let country = record.country().map(|c| self.labels.intern(c));
        // The shard hashes the country code, falling back to the first
        // lowercased hostname, so a country's re-crawl delta lands in
        // one shard.
        let mut shard_key = record.country().map(|c| fnv1a(c.as_bytes()));
        let first_suffix = self.suffixes.len();
        for hostname in record.hostnames() {
            let lower = ascii_lowercase(hostname);
            shard_key.get_or_insert_with(|| fnv1a(lower.as_bytes()));
            // Hostnames get dense ids too (debug/stats surface); the
            // postings key on every dot-suffix, so a record with
            // hostname `gw.isp.qa` posts under `isp.qa` and `qa`.
            self.labels.intern(&lower);
            for (pos, _) in lower.match_indices('.') {
                let sym = self.labels.intern(&lower[pos + 1..]);
                if !self.suffixes[first_suffix..].contains(&sym) {
                    self.suffixes.push(sym);
                }
            }
        }
        let suffixes = &mut self.suffixes[first_suffix..];
        suffixes.sort_unstable();
        let shard_count = self.shards.len().max(1) as u64;
        let shard = (shard_key.unwrap_or_else(|| fnv1a(b"")) % shard_count) as u16;
        self.shards[shard as usize].insert(id, country, suffixes);
        self.suffix_ends.push(self.suffixes.len());
        self.countries.push(country);
        self.shard_of.push(shard);
        self.live.insert(id);
        self.by_endpoint.insert((record.ip(), record.port(), id));
        self.records.push(record);
        id
    }

    /// Pre-size every per-record arena for `additional` expected
    /// records. Purely an amortization hint for a steady delta stream
    /// (a freshly built index already carries growth slack; a cloned one
    /// is trimmed to exact capacity and would otherwise pay one
    /// full-arena copy on its first append). Never changes results.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
        self.shard_of.reserve(additional);
        self.countries.reserve(additional);
        self.suffix_ends.reserve(additional);
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
        for (ip, port, path) in retirements {
            retired += self.retire_endpoint(*ip, *port, path, &mut touched);
        }
        let added = adds.len();
        // Grow the arenas once for the whole delta rather than by
        // repeated doubling.
        self.reserve(adds.len());
        for record in adds {
            retired +=
                self.retire_endpoint(record.ip(), record.port(), record.path(), &mut touched);
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

    /// The first live record at `(ip, port, path)` with arena id
    /// `from` or above.
    fn endpoint_id(&self, ip: IpAddr, port: u16, path: &str, from: usize) -> Option<usize> {
        self.by_endpoint
            .range((ip, port, from)..=(ip, port, usize::MAX))
            .map(|&(_, _, id)| id)
            .find(|&id| self.records[id].path() == path)
    }

    /// Tombstone every live record at `(ip, port, path)`: clear its
    /// postings and drop it from the live set. The arena slot stays
    /// until [`compact`](Self::compact).
    fn retire_endpoint(
        &mut self,
        ip: IpAddr,
        port: u16,
        path: &str,
        touched: &mut BTreeSet<u16>,
    ) -> usize {
        let mut n = 0;
        let mut from = 0;
        while let Some(id) = self.endpoint_id(ip, port, path, from) {
            from = id + 1;
            self.by_endpoint.remove(&(ip, port, id));
            if !self.live.remove(id) {
                continue;
            }
            let shard = self.shard_of[id];
            let suffixes = &self.suffixes[span(&self.suffix_ends, id)];
            self.shards[shard as usize].retire(id, self.countries[id], suffixes);
            touched.insert(shard);
            self.retired += 1;
            n += 1;
        }
        n
    }

    /// Reclaim tombstoned arena slots by rebuilding over the live
    /// records (arena order preserved, ids renumbered densely). Bumps
    /// the epoch and, since ids moved, drops the sweep plan; returns the
    /// number of slots freed. A no-op (and no epoch bump) when nothing
    /// is tombstoned.
    pub fn compact(&mut self) -> usize {
        if self.retired == 0 {
            return 0;
        }
        let shards = self.shards.len().max(1);
        let freed = self.records.len() - self.live.len();
        let live: Vec<ScanRecord> = std::mem::take(&mut self.records)
            .into_iter()
            .enumerate()
            .filter(|(id, _)| self.live.contains(*id))
            .map(|(_, record)| record)
            .collect();
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
    /// shuffled order (seeded Fisher–Yates), postings rebuilt to match.
    /// Identification is defined to be record-order-invariant;
    /// metamorphic tests permute an index with this and byte-compare the
    /// resulting reports.
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

    /// Keyword search: ASCII-case-insensitive substring match over each
    /// live record's searchable text (banner, body snippet, hostnames,
    /// `port/path`).
    pub fn search(&self, keyword: &str) -> Vec<&ScanRecord> {
        self.search_ids(keyword)
            .into_iter()
            .map(|i| &self.records[i])
            .collect()
    }

    /// Arena ids of the live records matching `keyword`, ascending.
    /// Pair with [`records`](Self::records).
    pub fn search_ids(&self, keyword: &str) -> Vec<usize> {
        self.live
            .iter()
            .filter(|&i| self.matches(i, keyword))
            .collect()
    }

    /// Whether the record at arena id `id` matches `keyword`.
    fn matches(&self, id: usize, keyword: &str) -> bool {
        contains_folded(self.records[id].searchable_text(), keyword)
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
        self.scope_ids(country_code, cctld)
            .into_iter()
            .filter(|&i| self.matches(i as usize, keyword))
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
        let mut seen = vec![false; self.records.len()];
        let mut out = Vec::new();
        for (cc, tld) in cctlds {
            for i in self.scope_ids(cc, tld) {
                let i = i as usize;
                if !seen[i] && self.matches(i, keyword) {
                    seen[i] = true;
                    out.push(&self.records[i]);
                }
            }
        }
        out
    }

    /// The batched query the identify stage runs: every product's
    /// keyword list crossed with every `(country_code, cctld)` pair, in
    /// one automaton pass over each record. Returns, per product slug,
    /// the candidate addresses and the keywords (keyword-table order)
    /// that hit them. Each live record's matches are cached on the index
    /// per keyword table until the next delta, so a repeat sweep scans
    /// nothing.
    pub fn search_products<'a, I>(
        &self,
        table: &[ProductKeywords],
        cctlds: I,
    ) -> BTreeMap<String, ProductHits>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        self.search_products_with_threads(table, cctlds, crate::merge::default_workers())
    }

    /// As [`search_products`](Self::search_products) with an explicit
    /// worker count (1 = serial). Parallel and serial sweeps return
    /// identical results: workers scan contiguous runs of arena ids and
    /// the merge concatenates their matches in id order; the fold into
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
        let mut scope = DenseBitSet::with_bits(self.records.len());
        for (cc, tld) in cctlds {
            self.scope_union_into(cc, tld, &mut scope);
        }
        let mut slot = self.plan.lock();
        let plan = self.sweep_plan(&mut slot, table, threads.max(1));

        // Fold the in-scope matches into per-product candidate maps.
        // Keyword lists are emitted in keyword-table order regardless of
        // which record matched first, so the fold order cannot matter.
        let mut matched: BTreeMap<(usize, IpAddr), Vec<bool>> = BTreeMap::new();
        for (record_index, ids) in &plan.matches {
            let record_index = *record_index as usize;
            if !scope.contains(record_index) {
                continue;
            }
            let ip = self.records[record_index].ip();
            for &id in ids {
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

    /// The cached sweep plan for `table` in `slot`, compiling a fresh
    /// one (a cache miss) when the slot holds another table's plan or
    /// none. The fingerprint is FNV-1a over the flattened table.
    fn sweep_plan<'p>(
        &self,
        slot: &'p mut Option<SweepPlan>,
        table: &[ProductKeywords],
        threads: usize,
    ) -> &'p SweepPlan {
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
        if slot.as_ref().is_some_and(|plan| plan.table_fp == table_fp) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            *slot = None;
        }
        slot.get_or_insert_with(|| self.compile_plan(table, table_fp, threads))
    }

    /// Fuse every keyword of `table` into one automaton and run it over
    /// every live record, chunked by record across `threads` workers.
    /// The merge keeps the matches in arena order, identical for serial
    /// and parallel runs.
    fn compile_plan(&self, table: &[ProductKeywords], table_fp: u64, threads: usize) -> SweepPlan {
        let mut needles: Vec<(usize, &str)> = Vec::new();
        let mut id_to_entry: Vec<(usize, usize)> = Vec::new();
        for (pi, product) in table.iter().enumerate() {
            for (ki, kw) in product.keywords.iter().enumerate() {
                needles.push((id_to_entry.len(), *kw));
                id_to_entry.push((pi, ki));
            }
        }
        // The automaton folds ASCII case in its class map, so it matches
        // each record's raw text as `contains_folded` does.
        let automaton = Automaton::new(needles, true);
        let scan = |ids: &[u32]| -> Vec<(u32, Vec<usize>)> {
            let mut hit = Vec::new();
            let mut found = Vec::new();
            let mut out = Vec::new();
            for &i in ids {
                let text = self.records[i as usize].searchable_text();
                automaton.matched_ids_into(text, &mut hit, &mut found);
                if !found.is_empty() {
                    out.push((i, std::mem::take(&mut found)));
                }
            }
            out
        };
        SweepPlan {
            table_fp,
            id_to_entry,
            matches: crate::merge::ordered_parallel(&self.live.to_vec(), threads, scan),
        }
    }

    /// Distinct addresses matching `keyword`, ascending.
    pub fn matching_ips(&self, keyword: &str) -> Vec<IpAddr> {
        let mut out: Vec<IpAddr> = self
            .search(keyword)
            .into_iter()
            .map(ScanRecord::ip)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Aggregate statistics over the live records.
    pub fn stats(&self) -> IndexStats {
        let mut by_country: BTreeMap<&str, usize> = BTreeMap::new();
        let mut addresses = BTreeSet::new();
        for r in self.live_records() {
            addresses.insert(r.ip());
            if let Some(c) = r.country() {
                *by_country.entry(c).or_default() += 1;
            }
        }
        IndexStats {
            records: self.live.len(),
            addresses: addresses.len(),
            by_country: by_country
                .into_iter()
                .map(|(c, n)| (c.to_string(), n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::{ProductKeywords, KEYWORD_TABLE};
    use crate::record::RecordParts;
    use filterwatch_netsim::SimTime;
    use filterwatch_telemetry::wire::Wire;

    fn rec(ip: &str, port: u16, banner: &str, host: &str, country: &str) -> ScanRecord {
        ScanRecord::new(RecordParts {
            ip: ip.parse().unwrap(),
            port,
            path: "/",
            hostnames: &[host],
            banner,
            body_snippet: "",
            country: Some(country),
            asn: Some(1),
            captured_at: SimTime::ZERO,
        })
    }

    /// A record's searchable text, formatted here from its fields as the
    /// reference its buffer must reproduce.
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

    /// Every arena slot's searchable text, in arena order.
    fn texts(idx: &ScanIndex) -> Vec<&str> {
        idx.records()
            .iter()
            .map(ScanRecord::searchable_text)
            .collect()
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
    fn records_hold_their_searchable_text_in_raw_case() {
        let idx = index();
        assert_eq!(texts(&idx).len(), idx.len());
        assert!(texts(&idx)[0].contains("Server: ProxySG"));
        assert!(texts(&idx)[1].contains("gw.isp.qa"));
        assert_eq!(texts(&idx)[2], "5.0.2.1 80/ www.plain.se Server: Apache ");
        for (text, record) in texts(&idx).into_iter().zip(idx.records()) {
            assert_eq!(text, reference_text(record));
        }
    }

    #[test]
    fn folding_substring_test_equals_lowercased_contains() {
        // Texts longer than one block, with matches straddling a block
        // edge and at the very end.
        let long = format!("{}ProxySG{}@[`{{", "x".repeat(29), "y".repeat(40));
        let texts = [
            "",
            "a",
            "ProxySG",
            "xPROXYsgx",
            "Ünïcode PROXY",
            "proxys",
            &long,
        ];
        let keywords = [
            "", "proxysg", "PROXYSG", "sgx", "ünï", "Ü", "y", "proxysgg", "@[`{", "`{", "@{", "x",
            "yy@[",
        ];
        for text in texts {
            for keyword in keywords {
                assert_eq!(
                    contains_folded(text, keyword),
                    text.to_ascii_lowercase()
                        .contains(&keyword.to_ascii_lowercase()),
                    "{text:?} / {keyword:?}"
                );
            }
        }
    }

    #[test]
    fn country_never_completes_a_keyword() {
        // The country is stored right after the body, outside the
        // searchable span: `proxys` + `G` must not read as `proxysg`.
        let idx = ScanIndex::build(vec![ScanRecord::new(RecordParts {
            ip: "5.0.0.1".parse().unwrap(),
            port: 80,
            path: "/",
            hostnames: &["gw.example.sy"],
            banner: "Server: x",
            body_snippet: "<p>proxys",
            country: Some("G"),
            asn: None,
            captured_at: SimTime::ZERO,
        })]);
        assert!(idx.records()[0].searchable_text().ends_with("proxys"));
        assert!(idx.search("proxysg").is_empty());
        assert!(idx.search_ids("PROXYSG").is_empty());
        assert!(idx.search_in_country("proxysg", "G", "sy").is_empty());
        assert!(idx
            .search_all_countries("proxysg", [("G", "sy")])
            .is_empty());
        assert!(idx.matching_ips("proxysg").is_empty());
        let hits = idx.search_products(KEYWORD_TABLE, [("G", "sy")]);
        assert!(hits.values().all(BTreeMap::is_empty));
        // The body's own text still matches, in the record's scope.
        assert_eq!(idx.search_in_country("proxys", "G", "zz").len(), 1);
    }

    #[test]
    fn country_scoped_search() {
        let idx = index();
        let sy = idx.search_in_country("proxysg", "SY", "sy");
        assert_eq!(sy.len(), 1);
        assert_eq!(sy[0].ip().to_string(), "5.0.0.1");
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
        // One index each, so that both sweeps compile a plan and scan
        // every record rather than the second reading the first's plan.
        let (serial_idx, parallel_idx) = (index(), index());
        let pairs = [("SY", "sy"), ("QA", "qa"), ("SE", "se"), ("US", "us")];
        let serial = serial_idx.search_products_with_threads(KEYWORD_TABLE, pairs, 1);
        let parallel = parallel_idx.search_products_with_threads(KEYWORD_TABLE, pairs, 4);
        assert_eq!(serial_idx.sweep_cache_stats(), (0, 1));
        assert_eq!(parallel_idx.sweep_cache_stats(), (0, 1));
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
        let key = |r: &ScanRecord| (r.ip(), r.port());
        let mut orig: Vec<_> = idx.records().iter().map(key).collect();
        let mut perm: Vec<_> = shuffled.records().iter().map(key).collect();
        orig.sort_unstable();
        perm.sort_unstable();
        assert_eq!(orig, perm);
        // Determinism: the same seed yields the same permutation.
        let again: Vec<_> = idx.shuffled(42).records().iter().map(key).collect();
        let first: Vec<_> = shuffled.records().iter().map(key).collect();
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
        records.sort_by_key(|a| (a.ip(), a.port()));
        let idx = ScanIndex::build(records);
        assert_eq!(idx.matching_ips("proxysg").len(), 1);
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
        assert_eq!(texts(&idx), texts(&scratch));
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
        // The plan is keyed by the keyword table alone: another scope
        // reuses it, another table compiles a fresh one.
        let sy = idx.search_products(KEYWORD_TABLE, [("SY", "sy")]);
        assert_eq!(idx.sweep_cache_stats(), (2, 1));
        assert_eq!(sy["bluecoat"].len(), 1);
        let bluecoat_only = [ProductKeywords {
            product: "bluecoat",
            keywords: &["proxysg"],
        }];
        idx.search_products(&bluecoat_only, pairs);
        assert_eq!(idx.sweep_cache_stats(), (2, 2));
        assert_eq!(idx.search_products(KEYWORD_TABLE, pairs), first);
        assert_eq!(idx.sweep_cache_stats(), (2, 3));

        // A delta drops the plan: the next sweep is a miss that scans
        // the appended record and no longer sees the retired one.
        let mut idx = idx;
        let gone = ("5.0.0.1".parse().unwrap(), 80, "/".to_string());
        idx.apply_delta(
            vec![rec("5.0.9.1", 80, "Server: ProxySG", "gw.other.sy", "SY")],
            &[gone],
        );
        let after = idx.search_products(KEYWORD_TABLE, [("SY", "sy")]);
        assert_eq!(idx.sweep_cache_stats(), (2, 4));
        let ips: Vec<String> = after["bluecoat"].keys().map(|ip| ip.to_string()).collect();
        assert_eq!(ips, ["5.0.9.1"]);

        // Compaction renumbers arena ids, so the compacted index starts
        // without a plan (and, being a new index value, fresh counters).
        idx.compact();
        assert_eq!(idx.sweep_cache_stats(), (0, 0));
        assert_eq!(idx.search_products(KEYWORD_TABLE, [("SY", "sy")]), after);
        assert_eq!(idx.sweep_cache_stats(), (0, 1));
    }

    #[test]
    fn sweep_equals_per_record_scratch_scan() {
        // Over a near-miss-dense synthetic corpus, the swept candidate
        // addresses are exactly the records whose reference text holds
        // some keyword.
        let records = crate::synth_records(4_000, 7);
        let planted: Vec<_> = records
            .iter()
            .filter(|r| {
                let text = reference_text(r).to_ascii_lowercase();
                KEYWORD_TABLE
                    .iter()
                    .flat_map(|p| p.keywords)
                    .any(|kw| text.contains(&kw.to_ascii_lowercase()))
            })
            .map(ScanRecord::ip)
            .collect();
        assert!(!planted.is_empty());
        let idx = ScanIndex::build(records);
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
            assert_eq!(crate::shard::ShardEpoch::parse_line(&line), Ok(*e));
        }
    }
}
