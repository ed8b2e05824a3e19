//! Index shards: the unit of locality for incremental ingest.
//!
//! The sharded index partitions records by a stable hash of their
//! country (falling back to the first hostname) so a re-crawl delta for
//! one country touches one shard's postings and bumps one shard epoch,
//! leaving every other shard bitwise identical. Shards do not
//! own record storage; the record arena stays global (arena ids are
//! global, so cross-shard merges are just bitset
//! iteration in ascending id order). What a shard owns is its *slice of
//! the posting space*: membership, per-country and per-suffix posting
//! bitsets, a tombstone count, and the epoch of the last delta that
//! touched it.

use crate::bitset::DenseBitSet;
use crate::intern::Sym;
use filterwatch_telemetry::wire::{field, split, tagged, Wire, WireError};
use std::collections::BTreeMap;

/// How to shard a [`crate::ScanIndex`](crate::ScanIndex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 8 }
    }
}

/// One shard's epoch/occupancy summary, with a one-line wire form used
/// by dumps and the `index` CLI artifact:
/// `shard-epoch: <shard> <epoch> <live> <tombstones>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEpoch {
    /// Shard id (position in the index's shard table).
    pub shard: u16,
    /// Epoch of the last delta that touched this shard (0 = untouched
    /// since the initial build).
    pub epoch: u64,
    /// Live records currently in the shard.
    pub live: usize,
    /// Arena slots retired from this shard and not yet compacted.
    pub tombstones: usize,
}

impl Wire for ShardEpoch {
    fn to_line(&self) -> String {
        format!(
            "shard-epoch: {} {} {} {}",
            self.shard, self.epoch, self.live, self.tombstones
        )
    }

    fn parse_line(line: &str) -> Result<ShardEpoch, WireError> {
        let rest = tagged("shard-epoch", "shard-epoch: ", line)?;
        let [shard, epoch, live, tombstones] = split(rest, ' ')?;
        Ok(ShardEpoch {
            shard: field("shard", shard)?,
            epoch: field("epoch", epoch)?,
            live: field("live", live)?,
            tombstones: field("tombstones", tombstones)?,
        })
    }
}

/// One shard: membership plus country/suffix posting bitsets over
/// global arena ids.
#[derive(Debug, Clone, Default)]
pub struct IndexShard {
    /// Live arena ids assigned to this shard.
    members: DenseBitSet,
    /// Country label (interned, verbatim record value) → posting.
    by_country: BTreeMap<Sym, DenseBitSet>,
    /// Lowercased hostname dot-suffix (interned) → posting. Every
    /// suffix level is posted, so `gw.isp.example.com.tr` appears under
    /// `isp.example.com.tr`, `example.com.tr`, `com.tr` and `tr` —
    /// multi-label ccTLDs need no special casing at query time.
    by_suffix: BTreeMap<Sym, DenseBitSet>,
    /// Epoch of the last delta that touched this shard.
    epoch: u64,
    /// Retired-but-uncompacted arena slots attributed to this shard.
    tombstones: usize,
}

impl IndexShard {
    /// Post a live record into the shard.
    pub(crate) fn insert(&mut self, id: usize, country: Option<Sym>, suffixes: &[Sym]) {
        self.members.insert(id);
        if let Some(c) = country {
            self.by_country.entry(c).or_default().insert(id);
        }
        for &s in suffixes {
            self.by_suffix.entry(s).or_default().insert(id);
        }
    }

    /// Retire a record: clear its postings and count a tombstone. The
    /// arena slot itself is only reclaimed by compaction.
    pub(crate) fn retire(&mut self, id: usize, country: Option<Sym>, suffixes: &[Sym]) {
        if !self.members.remove(id) {
            return;
        }
        if let Some(c) = country {
            if let Some(p) = self.by_country.get_mut(&c) {
                p.remove(id);
            }
        }
        for &s in suffixes {
            if let Some(p) = self.by_suffix.get_mut(&s) {
                p.remove(id);
            }
        }
        self.tombstones += 1;
    }

    /// Record that `epoch` touched this shard.
    pub(crate) fn touch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Live membership bitset (ascending arena-id iteration).
    pub fn members(&self) -> &DenseBitSet {
        &self.members
    }

    /// Posting for a country label, if any record in this shard has it.
    pub fn country_posting(&self, country: Sym) -> Option<&DenseBitSet> {
        self.by_country.get(&country)
    }

    /// Posting for a hostname suffix, if present in this shard.
    pub fn suffix_posting(&self, suffix: Sym) -> Option<&DenseBitSet> {
        self.by_suffix.get(&suffix)
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the shard holds no live records.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Epoch/occupancy summary for shard id `shard`.
    pub fn epoch_of(&self, shard: u16) -> ShardEpoch {
        ShardEpoch {
            shard,
            epoch: self.epoch,
            live: self.members.len(),
            tombstones: self.tombstones,
        }
    }

    /// Approximate heap bytes held by this shard's postings.
    pub fn posting_bytes(&self) -> usize {
        self.members.heap_bytes()
            + self
                .by_country
                .values()
                .chain(self.by_suffix.values())
                .map(DenseBitSet::heap_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_retire_round_trip() {
        let mut shard = IndexShard::default();
        let qa = Sym(0);
        let isp_qa = Sym(1);
        shard.insert(5, Some(qa), &[isp_qa]);
        shard.insert(9, Some(qa), &[]);
        assert_eq!(shard.len(), 2);
        assert_eq!(
            shard.country_posting(qa).map(|p| p.to_vec()),
            Some(vec![5, 9])
        );
        assert_eq!(
            shard.suffix_posting(isp_qa).map(|p| p.to_vec()),
            Some(vec![5])
        );

        shard.retire(5, Some(qa), &[isp_qa]);
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.epoch_of(3).tombstones, 1);
        assert_eq!(shard.country_posting(qa).map(|p| p.to_vec()), Some(vec![9]));
        // Retiring an id that is not a member is a no-op.
        shard.retire(5, Some(qa), &[isp_qa]);
        assert_eq!(shard.epoch_of(3).tombstones, 1);
    }

    #[test]
    fn shard_epoch_wire_round_trip() {
        let e = ShardEpoch {
            shard: 7,
            epoch: 42,
            live: 1003,
            tombstones: 12,
        };
        let line = e.to_line();
        assert_eq!(line, "shard-epoch: 7 42 1003 12");
        assert_eq!(ShardEpoch::parse_line(&line), Ok(e));
    }

    #[test]
    fn shard_epoch_parse_rejects_malformed() {
        assert!(ShardEpoch::parse_line("shard: 1 2 3 4").is_err());
        assert!(ShardEpoch::parse_line("shard-epoch: 1 2 3").is_err());
        assert!(ShardEpoch::parse_line("shard-epoch: 1 2 3 4 5").is_err());
        assert_eq!(
            ShardEpoch::parse_line("shard-epoch: a 2 3 4")
                .unwrap_err()
                .field,
            "shard"
        );
    }

    #[test]
    fn default_config_is_nonzero() {
        assert!(ShardConfig::default().shards >= 1);
    }
}
