//! Deterministic string interning.
//!
//! Two tables are built on it. The DNS zone ([`crate::dns::Dns`])
//! stores each exact hostname once and keeps its address in a column
//! indexed by the name's [`Sym`]. The scanner's scan index interns its
//! labels: hostnames, country codes and ccTLD suffixes repeat heavily
//! across a banner corpus, so it stores each distinct label once and
//! refers to it by a dense [`Sym`].
//!
//! Determinism contract: ids are assigned in insertion order
//! (first-seen wins), so two tables built from the same input stream
//! intern identically, and all rendering paths sort by string — never
//! by id or map order — before emitting.
//!
//! The table is a hand-rolled FNV-1a open-addressing map (no std
//! `HashMap`, whose iteration order is seeded per-process and would
//! trip the determinism lint if it ever leaked into a render path).
//! Labels sit back to back in one `String` with their end offsets, so
//! interning a new label allocates nothing of its own, and each slot
//! keeps the low 32 bits of its label's hash beside the id: a probe
//! compares hashes before bytes, and growing the table never hashes a
//! label again.

use filterwatch_telemetry::wire::{decode_list, encode_list, field, tagged, Wire, WireError};

/// Dense id for an interned string. Ids are assigned in insertion
/// order starting at 0 and are stable for the life of the interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The id as a usize (arena offset).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An open-addressing slot: an id (or [`EMPTY_SLOT`]) and the low 32
/// bits of its label's FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    id: u32,
    hash: u32,
}

const EMPTY_SLOT: u32 = u32::MAX;
const EMPTY: Slot = Slot {
    id: EMPTY_SLOT,
    hash: 0,
};

/// The table starts at this many slots and doubles when three quarters
/// would be full.
const MIN_SLOTS: usize = 16;

/// FNV-1a over the label bytes — stable across runs and platforms.
/// The scanner also uses it for sweep-plan fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The low 32 bits of `s`'s FNV-1a hash: what a slot keeps, and all
/// that picks a slot while the table has at most 2³² of them.
fn slot_hash(s: &str) -> u32 {
    fnv1a(s.as_bytes()) as u32
}

/// Insertion-ordered string interner with open-addressing lookup.
/// Two interners are equal when they assign the same ids to the same
/// strings; the slot table is derived from that.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Arena: every label in id (insertion) order, back to back.
    labels: String,
    /// Where label `id` ends in `labels`; it starts where label
    /// `id - 1` ends.
    ends: Vec<usize>,
    /// Open-addressing slots, a power of two of them (or none before
    /// the first insert into a `Default` interner).
    slots: Vec<Slot>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            labels: String::new(),
            ends: Vec::new(),
            slots: vec![EMPTY; MIN_SLOTS],
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Label `id`, which must be in range.
    fn label(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.labels[start..self.ends[id]]
    }

    /// The slot holding `s` (hashing to `hash`) or, when `s` is not
    /// interned, the empty slot where it would go.
    fn probe(&self, s: &str, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY_SLOT || (slot.hash == hash && self.label(slot.id as usize) == s) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Intern `s`, returning its dense id (existing id if seen before).
    pub fn intern(&mut self, s: &str) -> Sym {
        if (self.len() + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let hash = slot_hash(s);
        let i = self.probe(s, hash);
        if self.slots[i].id == EMPTY_SLOT {
            // Ids are `u32`: `intern` is never asked for 2³² labels
            // (the slot table would not fit in memory first).
            let id = self.len() as u32;
            self.labels.push_str(s);
            self.ends.push(self.labels.len());
            self.slots[i] = Slot { id, hash };
        }
        Sym(self.slots[i].id)
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.probe(s, slot_hash(s))];
        (slot.id != EMPTY_SLOT).then_some(Sym(slot.id))
    }

    /// The string for `sym`, if the id is in range.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        (sym.index() < self.len()).then(|| self.label(sym.index()))
    }

    /// All interned strings in insertion (id) order.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|id| self.label(id))
    }

    /// All interned strings sorted lexicographically — the only order
    /// render paths may use.
    pub fn sorted_strings(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.strings().collect();
        v.sort_unstable();
        v
    }

    /// Double the slot table (or create it) and re-place every slot
    /// by the hash it keeps.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        let mut slots = vec![EMPTY; new_len];
        let mask = new_len - 1;
        for &slot in self.slots.iter().filter(|slot| slot.id != EMPTY_SLOT) {
            let mut i = slot.hash as usize & mask;
            while slots[i].id != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = slot;
        }
        self.slots = slots;
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.ends == other.ends && self.labels == other.labels
    }
}

impl Eq for Interner {}

/// `interner: <count> <label,label,...>` with labels in id order
/// (insertion order) as a list field. The id-order listing *is* the id
/// assignment, so `parse_line` reconstructs identical symbols.
impl Wire for Interner {
    fn to_line(&self) -> String {
        let labels: Vec<&str> = self.strings().collect();
        format!("interner: {} {}", labels.len(), encode_list(&labels))
    }

    fn parse_line(line: &str) -> Result<Interner, WireError> {
        let rest = tagged("interner", "interner: ", line)?;
        let (count, labels) = rest.split_once(' ').unwrap_or((rest, ""));
        let count: usize = field("count", count)?;
        let mut interner = Interner::new();
        if count > 0 {
            for label in decode_list("labels", labels)? {
                interner.intern(&label);
            }
        }
        if interner.len() != count {
            return Err(WireError::new(
                "labels",
                format!("{} distinct labels, count says {count}", interner.len()),
            ));
        }
        Ok(interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insertion_order_ids() {
        let mut i = Interner::new();
        assert_eq!(i.intern("qa"), Sym(0));
        assert_eq!(i.intern("com.tr"), Sym(1));
        assert_eq!(i.intern("qa"), Sym(0));
        assert_eq!(i.resolve(Sym(1)), Some("com.tr"));
        assert_eq!(i.get("com.tr"), Some(Sym(1)));
        assert_eq!(i.get("absent"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn grows_past_slot_capacity() {
        let mut i = Interner::new();
        for n in 0..1000 {
            assert_eq!(i.intern(&format!("host-{n}.example")), Sym(n));
        }
        for n in 0..1000 {
            assert_eq!(i.get(&format!("host-{n}.example")), Some(Sym(n)));
        }
        assert_eq!(i.len(), 1000);
    }

    #[test]
    fn labels_whose_kept_hash_bits_collide_get_distinct_ids() {
        // Brute-forced: these two labels' FNV-1a hashes differ but share
        // the low 32 bits a slot keeps, so they also start probing at the
        // same slot.
        let (a, b) = ("host-1222881.example", "host-1414990.example");
        assert_eq!(slot_hash(a), slot_hash(b));
        assert_ne!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
        let mut i = Interner::new();
        assert_eq!(i.intern(a), Sym(0));
        assert_eq!(i.get(b), None);
        assert_eq!(i.intern(b), Sym(1));
        assert_eq!(i.intern(a), Sym(0));
        assert_eq!(i.get(b), Some(Sym(1)));
        // They stay apart once growth re-places the slots.
        for n in 0..100 {
            i.intern(&format!("pad-{n}"));
        }
        assert_eq!((i.get(a), i.get(b)), (Some(Sym(0)), Some(Sym(1))));
        assert_eq!((i.resolve(Sym(0)), i.resolve(Sym(1))), (Some(a), Some(b)));
    }

    #[test]
    fn matches_a_btreemap_model_across_growths() {
        // 2,000 distinct labels drawn with repeats, among them the empty
        // label and non-ASCII ones: the 16-slot table doubles 8 times.
        let mut interner = Interner::default();
        let mut model: BTreeMap<String, Sym> = BTreeMap::new();
        let mut x: u64 = 0x9e37_79b9;
        for _ in 0..6_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let label = match (x >> 33) % 2_000 {
                0 => String::new(),
                n if n % 7 == 0 => format!("é{n}.QA"),
                n => format!("h{n}.isp.qa"),
            };
            let next = Sym(model.len() as u32);
            let want = *model.entry(label.clone()).or_insert(next);
            assert_eq!(interner.intern(&label), want, "{label:?}");
        }
        assert_eq!(interner.len(), model.len());
        assert!(interner.slots.len() >= 4096);
        for (label, &sym) in &model {
            assert_eq!(interner.get(label), Some(sym));
            assert_eq!(interner.resolve(sym), Some(label.as_str()));
        }
        assert_eq!(interner.get("absent"), None);
        assert_eq!(interner.resolve(Sym(model.len() as u32)), None);
        let mut by_id: Vec<(Sym, &str)> = model.iter().map(|(l, &s)| (s, l.as_str())).collect();
        by_id.sort_unstable();
        assert!(interner.strings().eq(by_id.iter().map(|&(_, l)| l)));
        let sorted: Vec<&str> = model.keys().map(String::as_str).collect();
        assert_eq!(interner.sorted_strings(), sorted);
        let back = Interner::parse_line(&interner.to_line()).expect("parse back");
        assert_eq!(back, interner);
    }

    #[test]
    fn sorted_rendering_ignores_id_order() {
        let mut i = Interner::new();
        i.intern("zz");
        i.intern("aa");
        i.intern("mm");
        assert_eq!(i.sorted_strings(), vec!["aa", "mm", "zz"]);
        let in_order: Vec<&str> = i.strings().collect();
        assert_eq!(in_order, vec!["zz", "aa", "mm"]);
    }

    #[test]
    fn wire_round_trip_preserves_ids() {
        let mut i = Interner::new();
        i.intern("gw.isp.qa");
        i.intern("QA");
        i.intern("com,tr\\weird");
        let line = i.to_line();
        let back = Interner::parse_line(&line).expect("parse back");
        assert_eq!(back.len(), i.len());
        for (id, s) in i.strings().enumerate() {
            assert_eq!(back.resolve(Sym(id as u32)), Some(s));
        }
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn wire_round_trip_empty() {
        let i = Interner::new();
        let line = i.to_line();
        let back = Interner::parse_line(&line).expect("parse back");
        assert!(back.is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Interner::parse_line("not-a-line").is_err());
        assert_eq!(
            Interner::parse_line("interner: x a,b").unwrap_err().field,
            "count"
        );
        assert!(Interner::parse_line("interner: 3 a,b").is_err());
        assert!(Interner::parse_line("interner: 1 bad\\q").is_err());
    }
}
