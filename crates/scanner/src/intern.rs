//! Deterministic string interning for index labels.
//!
//! Hostnames, country codes and ccTLD suffixes repeat heavily across a
//! banner corpus; the sharded index stores each distinct label once and
//! refers to it by a dense [`Sym`]. Determinism contract: ids are
//! assigned in insertion order (first-seen wins), so two indexes built
//! from the same record stream intern identically, and all rendering
//! paths sort by string — never by id or map order — before emitting.
//!
//! The table is a hand-rolled FNV-1a open-addressing map (no std
//! `HashMap`, whose iteration order is seeded per-process and would
//! trip the determinism lint if it ever leaked into a render path).

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

const EMPTY_SLOT: u32 = u32::MAX;

/// FNV-1a over the label bytes — stable across runs and platforms.
/// Also used for shard assignment and sweep-plan fingerprints.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Insertion-ordered string interner with open-addressing lookup.
/// Two interners are equal when they assign the same ids to the same
/// strings; the slot table is derived from that.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Arena: id → string, in insertion order.
    arena: Vec<String>,
    /// Open-addressing slots holding arena ids (or `EMPTY_SLOT`).
    slots: Vec<u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            arena: Vec::new(),
            slots: vec![EMPTY_SLOT; 16],
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Intern `s`, returning its dense id (existing id if seen before).
    pub fn intern(&mut self, s: &str) -> Sym {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY_SLOT; 16];
        }
        if (self.arena.len() + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = fnv1a(s.as_bytes()) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                let id = self.arena.len() as u32;
                self.arena.push(s.to_string());
                self.slots[i] = id;
                return Sym(id);
            }
            if self.arena[slot as usize] == s {
                return Sym(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = fnv1a(s.as_bytes()) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            if self.arena[slot as usize] == s {
                return Some(Sym(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// The string for `sym`, if the id is in range.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.arena.get(sym.index()).map(String::as_str)
    }

    /// All interned strings in insertion (id) order.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        self.arena.iter().map(String::as_str)
    }

    /// All interned strings sorted lexicographically — the only order
    /// render paths may use.
    pub fn sorted_strings(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.strings().collect();
        v.sort_unstable();
        v
    }

    /// Double the slot table and rehash every arena entry.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        let mut slots = vec![EMPTY_SLOT; new_len];
        let mask = new_len - 1;
        for (id, s) in self.arena.iter().enumerate() {
            let mut i = fnv1a(s.as_bytes()) as usize & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32;
        }
        self.slots = slots;
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.arena == other.arena
    }
}

impl Eq for Interner {}

/// `interner: <count> <label,label,...>` with labels in id order
/// (insertion order) as a list field. The id-order listing *is* the id
/// assignment, so `parse_line` reconstructs identical symbols.
impl Wire for Interner {
    fn to_line(&self) -> String {
        format!(
            "interner: {} {}",
            self.arena.len(),
            encode_list(&self.arena)
        )
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
