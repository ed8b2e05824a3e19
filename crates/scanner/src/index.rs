//! The keyword-searchable scan index, incrementally ingestable.
//!
//! The index is *query-compiled*: [`ScanIndex::build`] keeps each
//! record as it arrives, one buffer that already holds its searchable
//! text in raw case, and posts it under its country and every
//! hostname dot-suffix, so the paper's keyword + ccTLD query form keeps
//! only in-scope matches and never copies a record's text. The postings
//! are two bitset vectors indexed by the interner's [`Sym`], one for
//! country labels and one for suffixes. The one query, the batched
//! sweep, folds ASCII case in its automaton's byte-class map, so no
//! lowercased copy of the corpus exists. Two things make it hold up at
//! Shodan scale:
//!
//! * **Incremental ingest** — [`ScanIndex::apply_delta`] applies
//!   crawler deltas (new endpoints, retired endpoints, re-crawled
//!   banners) by tombstoning dead arena slots and appending new ones,
//!   bumping the index epoch, instead of rebuilding from scratch.
//!   [`ScanIndex::compact`] reclaims tombstoned slots when churn
//!   accumulates.
//! * **A cached sweep plan** — [`ScanIndex::search_products`] fuses
//!   every Table 2 keyword into one Aho-Corasick automaton, runs it over
//!   every live record once, and caches the matched keywords per keyword
//!   table. The ccTLD scope is applied at query time from the posting
//!   bitsets, so one plan serves every scope and a repeat sweep scans
//!   nothing. A delta or a compaction drops the plan.
//!
//! Determinism: interner ids are insertion-ordered, all postings
//! iterate in ascending arena order, and the parallel sweep merges
//! contiguous runs of arena ids in id order — so serial and parallel
//! sweeps produce byte-identical query results.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use filterwatch_netsim::intern::{fnv1a, Interner, Sym};
use filterwatch_netsim::IpAddr;
use filterwatch_pattern::Automaton;
use parking_lot::Mutex;

use crate::bitset::DenseBitSet;
use crate::keywords::ProductKeywords;
use crate::record::ScanRecord;

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

/// Post arena id `id` under `sym`, growing the sym-indexed `postings`
/// to reach it.
fn post(postings: &mut Vec<DenseBitSet>, sym: Sym, id: usize) {
    let slot = sym.index();
    if slot >= postings.len() {
        postings.resize_with(slot + 1, DenseBitSet::default);
    }
    postings[slot].insert(id);
}

/// Clear arena id `id` from the posting under `sym`.
fn unpost(postings: &mut [DenseBitSet], sym: Sym, id: usize) {
    if let Some(posting) = postings.get_mut(sym.index()) {
        posting.remove(id);
    }
}

/// One record's endpoint in the endpoint column: `(ip, port, arena id)`.
type Endpoint = (IpAddr, u16, u32);

/// A built scan index (the Shodan analog).
#[derive(Debug)]
pub struct ScanIndex {
    /// Record arena, append-only between compactions. Holds retired
    /// (tombstoned) entries until [`compact`](Self::compact) runs. Each
    /// record's own buffer is the text the sweep matches against.
    records: Vec<ScanRecord>,
    /// Live arena ids (tombstoned slots are absent).
    live: DenseBitSet,
    /// Dense ids for hostnames, country codes and suffix labels.
    labels: Interner,
    /// Live arena ids per country label (verbatim record value) and per
    /// lowercased hostname dot-suffix, indexed by the label's [`Sym`].
    /// Every suffix level is posted, so `gw.isp.example.com.tr` appears
    /// under `isp.example.com.tr`, `example.com.tr`, `com.tr` and `tr`
    /// and multi-label ccTLDs need no special casing at query time. A
    /// slot whose sym labels nothing of that kind is an empty set that
    /// holds no words.
    by_country: Vec<DenseBitSet>,
    by_suffix: Vec<DenseBitSet>,
    /// Each record's posting keys, memoized at ingest so retirement
    /// clears postings without re-deriving them from hostname strings:
    /// its country sym, and its sorted distinct suffix syms back to back
    /// in one flat arena ending at `suffix_ends[id]`.
    countries: Vec<Option<Sym>>,
    suffixes: Vec<Sym>,
    suffix_ends: Vec<usize>,
    /// `(ip, port, arena id)` of every live record, sorted. Re-crawl
    /// deltas retire by `(ip, port, path)`: binary-search the
    /// `(ip, port)` run and keep the ids whose record has that path.
    by_endpoint: Vec<Endpoint>,
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
            labels: self.labels.clone(),
            by_country: self.by_country.clone(),
            by_suffix: self.by_suffix.clone(),
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
    /// Build an index from crawler records, posting each record under
    /// its country and hostname suffixes.
    pub fn build(records: Vec<ScanRecord>) -> Self {
        let mut index = ScanIndex {
            records: Vec::new(),
            live: DenseBitSet::with_bits(records.len()),
            labels: Interner::new(),
            by_country: Vec::new(),
            by_suffix: Vec::new(),
            countries: Vec::new(),
            suffixes: Vec::new(),
            suffix_ends: Vec::new(),
            by_endpoint: Vec::new(),
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
        index.by_endpoint = (0..index.records.len())
            .map(|id| index.endpoint(id))
            .collect();
        index.by_endpoint.sort_unstable();
        index
    }

    /// Arena id `id`'s entry in the endpoint column.
    fn endpoint(&self, id: usize) -> Endpoint {
        let record = &self.records[id];
        (record.ip(), record.port(), id as u32)
    }

    /// Append one record: keep it in the arena and post it; the caller
    /// enters its endpoint in the column. A record adds no heap object
    /// of its own: its interned labels go into the interner's arena (a
    /// hostname with uppercase bytes is lowercased into a temporary copy
    /// first).
    fn ingest(&mut self, record: ScanRecord) {
        let id = self.records.len();
        let country = record.country().map(|c| self.labels.intern(c));
        if let Some(c) = country {
            post(&mut self.by_country, c, id);
        }
        let first_suffix = self.suffixes.len();
        for hostname in record.hostnames() {
            let lower = ascii_lowercase(hostname);
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
        for &s in suffixes.iter() {
            post(&mut self.by_suffix, s, id);
        }
        self.suffix_ends.push(self.suffixes.len());
        self.countries.push(country);
        self.live.insert(id);
        self.records.push(record);
    }

    /// Pre-size every per-record arena for `additional` expected
    /// records. Purely an amortization hint for a steady delta stream
    /// (a freshly built index already carries growth slack; a cloned one
    /// is trimmed to exact capacity and would otherwise pay one
    /// full-arena copy on its first append). Never changes results.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
        self.countries.reserve(additional);
        self.suffix_ends.reserve(additional);
    }

    /// Apply a re-crawl delta: tombstone `retirements` (and any live
    /// records at an added record's endpoint — a re-crawl supersedes
    /// the previous capture, and of several adds at one endpoint the
    /// last wins), append `adds` and bump the epoch. Each retirement is
    /// a binary search in the endpoint column; then the adds' keys are
    /// sorted and merged with the column in one pass over its 12 bytes
    /// per live record. The cached sweep plan is invalidated.
    pub fn apply_delta(
        &mut self,
        adds: Vec<ScanRecord>,
        retirements: &[(IpAddr, u16, String)],
    ) -> DeltaStats {
        self.epoch += 1;
        *self.plan.lock() = None;
        let retired_before = self.retired;
        for (ip, port, path) in retirements {
            self.retire_endpoint(*ip, *port, path);
        }
        let first = self.records.len();
        let added = adds.len();
        // Grow the arenas once for the whole delta rather than by
        // repeated doubling.
        self.reserve(adds.len());
        for record in adds {
            self.ingest(record);
        }
        if self.retired > retired_before || added > 0 {
            self.merge_endpoints(first);
        }
        DeltaStats {
            epoch: self.epoch,
            added,
            retired: self.retired - retired_before,
        }
    }

    /// Tombstone every live record at `(ip, port, path)`. Its column
    /// entry stays until the next [`merge_endpoints`](Self::merge_endpoints).
    fn retire_endpoint(&mut self, ip: IpAddr, port: u16, path: &str) {
        let mut at = self
            .by_endpoint
            .partition_point(|&(i, p, _)| (i, p) < (ip, port));
        while let Some(&(i, p, id)) = self.by_endpoint.get(at) {
            if (i, p) != (ip, port) {
                break;
            }
            if self.records[id as usize].path() == path {
                self.tombstone(id as usize);
            }
            at += 1;
        }
    }

    /// Merge the endpoints of arena ids `first..`, the records a delta
    /// just appended, into the sorted column in one pass. The pass drops
    /// tombstoned entries and tombstones every record that a later add
    /// at the same `(ip, port, path)` supersedes. The merged column is
    /// one allocation: the adds' sorted keys sit at its tail, and the
    /// merge writes from the front, never past the next unread add.
    fn merge_endpoints(&mut self, first: usize) {
        let old = std::mem::take(&mut self.by_endpoint);
        let tail = old.len();
        let mut column = vec![(IpAddr(0), 0, 0); tail + self.records.len() - first];
        for (slot, id) in column[tail..].iter_mut().zip(first..) {
            *slot = self.endpoint(id);
        }
        column[tail..].sort_unstable();
        let (mut i, mut j, mut kept) = (0, tail, 0);
        while i < tail || j < column.len() {
            // Within one `(ip, port)` run the old entries come first:
            // every add has a higher arena id.
            let entry = if j == column.len() || (i < tail && old[i] < column[j]) {
                i += 1;
                old[i - 1]
            } else {
                j += 1;
                column[j - 1]
            };
            let (ip, port, id) = entry;
            if !self.live.contains(id as usize) {
                continue;
            }
            // Paths are read only where a later add shares the
            // `(ip, port)`: reading one touches the record's buffer.
            let superseded = column[j..]
                .iter()
                .take_while(|later| (later.0, later.1) == (ip, port))
                .any(|&(_, _, later)| {
                    self.records[later as usize].path() == self.records[id as usize].path()
                });
            if superseded {
                self.tombstone(id as usize);
            } else {
                column[kept] = entry;
                kept += 1;
            }
        }
        column.truncate(kept);
        self.by_endpoint = column;
    }

    /// Tombstone arena id `id` if it is live: clear its postings and
    /// drop it from the live set. The arena slot stays until
    /// [`compact`](Self::compact).
    fn tombstone(&mut self, id: usize) {
        if !self.live.remove(id) {
            return;
        }
        if let Some(c) = self.countries[id] {
            unpost(&mut self.by_country, c, id);
        }
        for &s in &self.suffixes[span(&self.suffix_ends, id)] {
            unpost(&mut self.by_suffix, s, id);
        }
        self.retired += 1;
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
        let freed = self.records.len() - self.live.len();
        let live: Vec<ScanRecord> = std::mem::take(&mut self.records)
            .into_iter()
            .enumerate()
            .filter(|(id, _)| self.live.contains(*id))
            .map(|(_, record)| record)
            .collect();
        let epoch = self.epoch + 1;
        *self = ScanIndex::build(live);
        self.epoch = epoch;
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
        ScanIndex::build(records)
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

    /// Tombstoned arena slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.retired
    }

    /// The label interner (hostnames, country codes, suffixes).
    pub fn interner(&self) -> &Interner {
        &self.labels
    }

    /// Approximate heap bytes held by the postings: both vectors' slots
    /// and every posting bitset's words.
    pub fn posting_bytes(&self) -> usize {
        [&self.by_country, &self.by_suffix]
            .into_iter()
            .map(|postings| {
                postings.capacity() * std::mem::size_of::<DenseBitSet>()
                    + postings.iter().map(DenseBitSet::heap_bytes).sum::<usize>()
            })
            .sum()
    }

    /// `(hits, misses)` of the cached sweep-plan lookup since this
    /// index value was created (counters are not cloned).
    pub fn sweep_cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The posting for `label` in `postings`, if the label is interned
    /// and has a slot there.
    fn posting<'p>(&self, postings: &'p [DenseBitSet], label: &str) -> Option<&'p DenseBitSet> {
        self.labels
            .get(label)
            .and_then(|sym| postings.get(sym.index()))
    }

    /// The batched query the identify stage runs: every product's
    /// keyword list crossed with every `(country_code, cctld)` pair, in
    /// one automaton pass over each record. A record is in scope for a
    /// pair when its country metadata is `country_code` or one of its
    /// hostnames ends in the ccTLD. Returns, per product slug, the
    /// candidate addresses and the keywords (keyword-table order) that
    /// hit them; keywords match ASCII-case-insensitively. Each live
    /// record's matches are cached on the index per keyword table until
    /// the next delta, so a repeat sweep scans nothing.
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
        // The scope: the union of every pair's country and ccTLD
        // postings (word-wise bitset OR).
        let mut scope = DenseBitSet::with_bits(self.records.len());
        for (cc, tld) in cctlds {
            let cc = cc.to_ascii_uppercase();
            let tld = tld.trim_start_matches('.').to_ascii_lowercase();
            let postings = [
                self.posting(&self.by_country, &cc),
                self.posting(&self.by_suffix, &tld),
            ];
            for posting in postings.into_iter().flatten() {
                scope.union_with(posting);
            }
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
        // each record's raw text as a lowercased copy would match.
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

    /// Every scope of [`index`].
    const PAIRS: [(&str, &str); 4] = [("SY", "sy"), ("QA", "qa"), ("SE", "se"), ("US", "us")];

    fn index() -> ScanIndex {
        ScanIndex::build(vec![
            rec("5.0.0.1", 80, "Server: ProxySG", "gw.example.sy", "SY"),
            rec("5.0.1.1", 8080, "Server: netsweeper/5.1", "gw.isp.qa", "QA"),
            rec("5.0.2.1", 80, "Server: Apache", "www.plain.se", "SE"),
            rec("5.0.3.1", 80, "Server: ProxySG", "proxy.corp.us", "US"),
        ])
    }

    /// The candidate addresses of a sweep for `keyword` alone over
    /// `pairs`, ascending. The one-product table is leaked because
    /// [`ProductKeywords`] holds `'static` slices.
    fn sweep_one(idx: &ScanIndex, keyword: &str, pairs: &[(&str, &str)]) -> Vec<String> {
        let keyword: &'static str = Box::leak(keyword.into());
        let table = [ProductKeywords {
            product: "probe",
            keywords: Box::leak(Box::new([keyword])),
        }];
        let hits = idx.search_products(&table, pairs.iter().copied());
        hits["probe"].keys().map(IpAddr::to_string).collect()
    }

    #[test]
    fn keyword_search_is_case_insensitive() {
        let idx = index();
        assert_eq!(sweep_one(&idx, "proxysg", &PAIRS).len(), 2);
        assert_eq!(sweep_one(&idx, "NETSWEEPER", &PAIRS), ["5.0.1.1"]);
        assert!(sweep_one(&idx, "nothing", &PAIRS).is_empty());
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
        // The sweep's folding automaton against a lowercased `contains`,
        // over banners of several lengths, with matches at either end,
        // and punctuation 0x20 apart (`@` and `` ` ``, `[` and `{`) and
        // non-ASCII letters, none of which fold.
        let long = format!("{}ProxySG{}@[`{{", "x".repeat(29), "y".repeat(40));
        let banners = [
            "",
            "a",
            "ProxySG",
            "xPROXYsgx",
            "Ünïcode PROXY",
            "proxys",
            &long,
        ];
        let keywords = [
            "proxysg", "PROXYSG", "sgx", "ünï", "Ü", "y", "proxysgg", "@[`{", "`{", "@{", "x",
            "yy@[",
        ];
        let idx = ScanIndex::build(
            banners
                .iter()
                .enumerate()
                .map(|(i, banner)| rec(&format!("5.0.0.{i}"), 80, banner, "gw.isp.qa", "QA"))
                .collect(),
        );
        for keyword in keywords {
            let expected: Vec<String> = idx
                .records()
                .iter()
                .filter(|r| {
                    r.searchable_text()
                        .to_ascii_lowercase()
                        .contains(&keyword.to_ascii_lowercase())
                })
                .map(|r| r.ip().to_string())
                .collect();
            assert_eq!(
                sweep_one(&idx, keyword, &[("QA", "qa")]),
                expected,
                "{keyword:?}"
            );
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
        assert!(sweep_one(&idx, "proxysg", &[("G", "sy")]).is_empty());
        assert!(sweep_one(&idx, "PROXYSG", &[("G", "sy")]).is_empty());
        let hits = idx.search_products(KEYWORD_TABLE, [("G", "sy")]);
        assert!(hits.values().all(BTreeMap::is_empty));
        // The body's own text still matches, in the record's scope.
        assert_eq!(sweep_one(&idx, "proxys", &[("G", "zz")]), ["5.0.0.1"]);
    }

    #[test]
    fn country_scoped_search() {
        let idx = index();
        assert_eq!(sweep_one(&idx, "proxysg", &[("SY", "sy")]), ["5.0.0.1"]);
        // ccTLD match works even if metadata were missing: the .qa
        // hostname qualifies the record for QA.
        assert_eq!(sweep_one(&idx, "netsweeper", &[("ZZ", "qa")]), ["5.0.1.1"]);
        assert_eq!(sweep_one(&idx, "netsweeper", &[("QA", "zz")]), ["5.0.1.1"]);
        assert!(sweep_one(&idx, "proxysg", &[("QA", "qa")]).is_empty());
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
        assert_eq!(sweep_one(&idx, "proxysg", &[("ZZ", "co.uk")]).len(), 1);
        assert_eq!(sweep_one(&idx, "proxysg", &[("ZZ", ".UK")]).len(), 1);
        assert!(sweep_one(&idx, "proxysg", &[("ZZ", "o.uk")]).is_empty());
    }

    #[test]
    fn union_over_cctlds_deduplicates() {
        let idx = index();
        let hits = sweep_one(&idx, "proxysg", &[("SY", "sy"), ("US", "us"), ("SY", "sy")]);
        assert_eq!(hits, ["5.0.0.1", "5.0.3.1"]);
    }

    #[test]
    fn batched_sweep_matches_per_keyword_queries() {
        let idx = index();
        let hits = idx.search_products(KEYWORD_TABLE, PAIRS);
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
        let serial = serial_idx.search_products_with_threads(KEYWORD_TABLE, PAIRS, 1);
        let parallel = parallel_idx.search_products_with_threads(KEYWORD_TABLE, PAIRS, 4);
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
        assert_eq!(
            idx.search_products(KEYWORD_TABLE, PAIRS),
            shuffled.search_products(KEYWORD_TABLE, PAIRS)
        );
    }

    #[test]
    fn sweep_deduplicates_ports() {
        let mut records = vec![
            rec("5.0.0.1", 80, "x proxysg", "a.example.sy", "SY"),
            rec("5.0.0.1", 8080, "y proxysg", "a.example.sy", "SY"),
        ];
        records.sort_by_key(|a| (a.ip(), a.port()));
        let idx = ScanIndex::build(records);
        assert_eq!(sweep_one(&idx, "proxysg", &[("SY", "sy")]), ["5.0.0.1"]);
    }

    #[test]
    fn apply_delta_recrawl_supersedes_and_retires() {
        let mut idx = index();
        assert_eq!(idx.epoch(), 0);
        // Re-crawl 5.0.2.1 with a ProxySG banner; retire 5.0.3.1.
        let recrawl = rec("5.0.2.1", 80, "Server: ProxySG", "www.plain.se", "SE");
        let gone = ("5.0.3.1".parse().unwrap(), 80, "/".to_string());
        let stats = idx.apply_delta(vec![recrawl], &[gone]);
        assert_eq!(
            stats,
            DeltaStats {
                epoch: 1,
                added: 1,
                retired: 2,
            }
        );
        assert_eq!(idx.epoch(), 1);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.tombstones(), 2);
        // The US ProxySG is gone; the re-crawled SE endpoint now hits.
        assert_eq!(sweep_one(&idx, "proxysg", &PAIRS), ["5.0.0.1", "5.0.2.1"]);
        assert_eq!(sweep_one(&idx, "proxysg", &[("SE", "se")]), ["5.0.2.1"]);
        assert!(sweep_one(&idx, "proxysg", &[("US", "us")]).is_empty());
        assert!(sweep_one(&idx, "apache", &PAIRS).is_empty());
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
    fn sweep_plan_is_cached_until_the_index_changes() {
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
    fn interner_and_posting_surfaces_are_consistent() {
        // Every posting holds exactly the live records with its label:
        // after the build, after a delta that retires and re-crawls, and
        // after compaction.
        fn check(idx: &ScanIndex) {
            let labels = idx.interner();
            for (id, r) in idx.records().iter().enumerate() {
                let live = idx.live.contains(id);
                let c = labels.get(r.country().unwrap()).unwrap();
                assert_eq!(idx.by_country[c.index()].contains(id), live);
                for host in r.hostnames() {
                    assert!(labels.get(host).is_some());
                    for (pos, _) in host.match_indices('.') {
                        let s = labels.get(&host[pos + 1..]).unwrap();
                        assert_eq!(idx.by_suffix[s.index()].contains(id), live);
                    }
                }
            }
            let posted =
                |postings: &[DenseBitSet]| postings.iter().map(DenseBitSet::len).sum::<usize>();
            assert_eq!(posted(&idx.by_country), idx.len());
            assert!(posted(&idx.by_suffix) >= idx.len());
            assert!(idx.posting_bytes() > 0);
        }
        let mut idx = index();
        assert!(idx.interner().get("isp.qa").is_some());
        check(&idx);
        let recrawl = rec("5.0.2.1", 80, "Server: ProxySG", "www.plain.se", "SE");
        let gone = ("5.0.3.1".parse().unwrap(), 80, "/".to_string());
        idx.apply_delta(vec![recrawl], &[gone]);
        check(&idx);
        // A sym that labels no country (a hostname here) holds no words.
        let host = idx.interner().get("gw.isp.qa").unwrap();
        let slot = idx.by_country.get(host.index());
        assert_eq!(slot.map_or(0, DenseBitSet::heap_bytes), 0);
        idx.compact();
        check(&idx);
    }
}
