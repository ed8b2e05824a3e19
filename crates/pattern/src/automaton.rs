//! Multi-literal matching: an Aho-Corasick automaton and the
//! query-compiled [`CompiledPatternSet`] built on top of it.
//!
//! The paper's hot loops all ask the same question — *which of these N
//! known signatures appear in this text?* — and answering it with N
//! independent scans is what makes Stage 1 O(keywords × countries ×
//! records). The [`Automaton`] here answers it in **one pass**: every
//! literal needle is compiled into a single goto/fail machine with case
//! folding built into its byte-class map, so matching cost is
//! O(text length), independent of how many signatures are loaded.
//!
//! Not every [`Pattern`] is a literal. Wildcards (`*`, `?`), character
//! classes and anchors need the backtracking matcher, so
//! [`CompiledPatternSet`] keeps those as a *verified fallback tier*:
//! literal branches (including each arm of a literal-only alternation)
//! go into the automaton, everything else is scanned with the ordinary
//! engine — but only on texts containing a literal that its matches
//! must contain — and the union reproduces [`PatternSet::matches`]
//! exactly, a property pinned by differential proptests.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::set::{PatternSet, SetMatch};
use crate::token::Token;
use crate::Pattern;

/// An Aho-Corasick automaton over byte strings.
///
/// Needles carry caller-assigned dense ids (indices into whatever
/// collection the caller is matching for); several needles may share an
/// id — the id matches when *any* of its needles occurs. With `fold`
/// enabled both needles and scanned text are ASCII-case-folded, giving
/// the same semantics as a case-insensitive [`Pattern`] literal.
///
/// The transition table is indexed by byte class, not by byte: every
/// byte that occurs in some needle has a class of its own, and all other
/// bytes share class 0, whose transitions all lead back to the root.
/// Folding happens in the class map (`A` and `a` share a class), so the
/// scan loop never lowercases. A step is one class-map load and one
/// table load: `next[state + class[byte]]`.
#[derive(Debug, Clone)]
pub struct Automaton {
    /// Byte → class (`0` for bytes that occur in no needle).
    classes: [u16; 256],
    /// Flattened transition table, one row of `1 << shift` entries per
    /// state. Entries hold the target state's row offset (its id times
    /// the stride), so the scan loop adds a class without multiplying.
    /// Entries whose target completes at least one needle carry
    /// [`Automaton::OUT_FLAG`] in the high bit, so the scan loop pays
    /// one table load per byte and only touches `out` on a hit.
    next: Vec<u32>,
    /// Row stride of `next`, as a power of two.
    shift: u32,
    /// Ids completed at each state (fail-closure already merged in).
    out: Vec<Vec<u32>>,
    /// ASCII-case-fold needles and text.
    fold: bool,
    /// One past the largest id inserted (sizes the per-scan hit table).
    id_space: usize,
    /// Number of distinct ids inserted (enables early exit).
    distinct_ids: usize,
    /// Bitmask of raw bytes with a root transition: while the machine
    /// sits in the root state, bytes outside this set advance the cursor
    /// without a table load.
    root_mask: [u64; 4],
}

impl Automaton {
    /// High bit of a transition entry: the target state has outputs.
    const OUT_FLAG: u32 = 1 << 31;
    /// Mask clearing [`Automaton::OUT_FLAG`] to recover the row offset.
    const STATE_MASK: u32 = Self::OUT_FLAG - 1;

    /// Compile an automaton from `(id, needle)` pairs.
    pub fn new<I, S>(needles: I, fold: bool) -> Self
    where
        I: IntoIterator<Item = (usize, S)>,
        S: AsRef<str>,
    {
        // Trie construction.
        let mut goto_: Vec<BTreeMap<u8, u32>> = vec![BTreeMap::new()];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        let mut id_space = 0usize;
        let mut seen_ids: Vec<u32> = Vec::new();
        for (id, needle) in needles {
            id_space = id_space.max(id + 1);
            let id = id as u32;
            if !seen_ids.contains(&id) {
                seen_ids.push(id);
            }
            let mut state = 0usize;
            for &raw in needle.as_ref().as_bytes() {
                let b = if fold { raw.to_ascii_lowercase() } else { raw };
                state = match goto_[state].get(&b) {
                    Some(&next) => next as usize,
                    None => {
                        goto_.push(BTreeMap::new());
                        out.push(Vec::new());
                        let next = (goto_.len() - 1) as u32;
                        goto_[state].insert(b, next);
                        next as usize
                    }
                };
            }
            if !out[state].contains(&id) {
                out[state].push(id);
            }
        }

        // Byte classes: each (folded) needle byte gets the next class in
        // byte order, and with `fold` an uppercase ASCII byte shares its
        // lowercase byte's class. `reps[c]` is class `c`'s needle byte.
        let needle_bytes: BTreeSet<u8> = goto_.iter().flat_map(BTreeMap::keys).copied().collect();
        let mut classes = [0u16; 256];
        let mut reps: Vec<u8> = vec![0];
        for b in needle_bytes {
            classes[usize::from(b)] = reps.len() as u16;
            reps.push(b);
        }
        if fold {
            for b in b'A'..=b'Z' {
                classes[usize::from(b)] = classes[usize::from(b.to_ascii_lowercase())];
            }
        }
        let shift = reps.len().next_power_of_two().trailing_zeros();

        // Breadth-first fail links, flattened into a dense table. A
        // state's missing transitions are filled from its fail state
        // (already dense by the time the state is visited), and its
        // output set absorbs the fail state's, so scanning never walks
        // fail chains. Column 0 stays all root: a byte in no needle
        // ends every partial match.
        let row = |state: usize, class: usize| (state << shift) + class;
        let mut next = vec![0u32; goto_.len() << shift];
        let mut fail = vec![0u32; goto_.len()];
        let mut queue = VecDeque::new();
        for (&b, &s) in &goto_[0] {
            next[usize::from(classes[usize::from(b)])] = s;
            queue.push_back(s as usize);
        }
        while let Some(state) = queue.pop_front() {
            let f = fail[state] as usize;
            let inherited: Vec<u32> = out[f]
                .iter()
                .copied()
                .filter(|id| !out[state].contains(id))
                .collect();
            out[state].extend(inherited);
            for (class, b) in reps.iter().enumerate().skip(1) {
                let via_fail = next[row(f, class)];
                next[row(state, class)] = match goto_[state].get(b) {
                    Some(&t) => {
                        fail[t as usize] = via_fail;
                        queue.push_back(t as usize);
                        t
                    }
                    None => via_fail,
                };
            }
        }
        for ids in &mut out {
            ids.sort_unstable();
        }

        // Premultiply every target into its row offset and flag the
        // ones that complete a needle; record which raw bytes leave the
        // root at all. These are the facts the scan loops key on.
        for entry in &mut next {
            let flag = if out[*entry as usize].is_empty() {
                0
            } else {
                Self::OUT_FLAG
            };
            *entry = (*entry << shift) | flag;
        }
        let mut root_mask = [0u64; 4];
        for b in 0..=255u8 {
            let folded = if fold { b.to_ascii_lowercase() } else { b };
            if goto_[0].contains_key(&folded) {
                root_mask[usize::from(b >> 6)] |= 1u64 << (b & 63);
            }
        }

        Automaton {
            classes,
            next,
            shift,
            out,
            fold,
            id_space,
            distinct_ids: seen_ids.len(),
            root_mask,
        }
    }

    /// Whether raw byte `b` has a root transition.
    #[inline(always)]
    fn leaves_root(&self, b: u8) -> bool {
        self.root_mask[usize::from(b >> 6)] & (1u64 << (b & 63)) != 0
    }

    /// Whether the automaton holds no needles.
    pub fn is_empty(&self) -> bool {
        self.distinct_ids == 0
    }

    /// Number of distinct needle ids compiled in.
    pub fn len(&self) -> usize {
        self.distinct_ids
    }

    /// Whether this automaton ASCII-case-folds text while scanning.
    pub fn is_case_insensitive(&self) -> bool {
        self.fold
    }

    /// Ids whose needles occur anywhere in `text`, ascending. One pass
    /// over the text; exits early once every id has matched.
    pub fn matched_ids(&self, text: &str) -> Vec<usize> {
        let mut hit = Vec::new();
        let mut found = Vec::new();
        self.matched_ids_into(text, &mut hit, &mut found);
        found
    }

    /// As [`matched_ids`](Self::matched_ids), writing into
    /// caller-provided buffers so a sweep over a large corpus performs
    /// no per-record allocation. `hit` is scratch (resized/reset here);
    /// `found` receives the ascending matched ids.
    ///
    /// This is the index sweep's loop: it reads every byte through the
    /// table with no root skip, because the sweep's banners are dense
    /// with bytes that start a needle and a per-byte branch on the state
    /// would mispredict there.
    pub fn matched_ids_into(&self, text: &str, hit: &mut Vec<bool>, found: &mut Vec<usize>) {
        found.clear();
        hit.clear();
        hit.resize(self.id_space, false);
        let mut remaining = self.distinct_ids;
        self.for_each_output::<false>(text, |ids| {
            for &id in ids {
                if !hit[id as usize] {
                    hit[id as usize] = true;
                    found.push(id as usize);
                    remaining -= 1;
                }
            }
            remaining == 0
        });
        found.sort_unstable();
    }

    /// Whether any needle occurs in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        let mut found = false;
        self.for_each_output::<true>(text, |_| {
            found = true;
            true
        });
        found
    }

    /// One pass over `text`, handing `on_hit` the ids of every output
    /// state entered, until it returns `true`. The root's outputs, the
    /// empty needles, come first: they match any text. With
    /// `SKIP_ROOT`, a byte read at the root that starts no needle skips
    /// the table load: that pays on text that is mostly such bytes
    /// (fetched pages against block-page signatures).
    #[inline(always)]
    fn for_each_output<const SKIP_ROOT: bool>(
        &self,
        text: &str,
        mut on_hit: impl FnMut(&[u32]) -> bool,
    ) {
        match self.out.first() {
            Some(root) if self.distinct_ids > 0 => {
                if !root.is_empty() && on_hit(root) {
                    return;
                }
            }
            _ => return,
        }
        let mut state = 0usize;
        for &b in text.as_bytes() {
            if SKIP_ROOT && state == 0 && !self.leaves_root(b) {
                continue;
            }
            let entry = self.next[state + usize::from(self.classes[usize::from(b)])];
            state = (entry & Self::STATE_MASK) as usize;
            if entry & Self::OUT_FLAG != 0 && on_hit(&self.out[state >> self.shift]) {
                return;
            }
        }
    }
}

/// If every branch of `pattern` is an unanchored literal, the needle
/// list (one per branch); otherwise `None` and the pattern needs the
/// backtracking engine.
fn literal_needles(pattern: &Pattern) -> Option<Vec<String>> {
    let mut needles = Vec::new();
    for branch in pattern.branches() {
        if branch.anchored_start || branch.anchored_end {
            return None;
        }
        match branch.tokens.as_slice() {
            [] => needles.push(String::new()),
            [Token::Literal(lit)] => needles.push(lit.clone()),
            _ => return None,
        }
    }
    Some(needles)
}

/// A [`PatternSet`] compiled for repeated querying.
///
/// Literal patterns (the overwhelming majority of scan keywords and
/// block-page signatures) are fused into two [`Automaton`]s — one
/// case-folding, one exact — while wildcard/class/anchored patterns
/// remain a fallback tier scanned with the backtracking engine, skipped
/// on texts that lack every branch's required literal. Those literals
/// ride the same automaton pass as gates. Match results are identical
/// to the uncompiled set's, in the same insertion order.
#[derive(Debug, Clone)]
pub struct CompiledPatternSet {
    set: PatternSet,
    folded: Automaton,
    exact: Automaton,
    fallback: Vec<Fallback>,
}

/// A pattern in the backtracking tier.
#[derive(Debug, Clone)]
struct Fallback {
    /// Index of the pattern in the set.
    index: usize,
    /// Whether a gate guards the pattern. The `k`-th fallback entry's
    /// gate is automaton id `set.len() + k`: per branch, the literal
    /// every match of that branch contains (its longest). Only the
    /// first [`GATES`] entries get one, and none where some branch has
    /// no literal, since that branch can match any text; an ungated
    /// pattern is never skipped.
    gated: bool,
}

/// Fallback entries that can carry a gate: one bit of a `u64` each.
const GATES: usize = u64::BITS as usize;

/// Per branch, the longest literal every match of the branch contains;
/// `None` when some branch has none.
fn gate_literals(pattern: &Pattern) -> Option<Vec<String>> {
    pattern
        .branches()
        .iter()
        .map(|branch| {
            branch
                .tokens
                .iter()
                .filter_map(|token| match token {
                    Token::Literal(lit) if !lit.is_empty() => Some(lit),
                    _ => None,
                })
                .max_by_key(|lit| lit.len())
                .cloned()
        })
        .collect()
}

impl CompiledPatternSet {
    /// Compile `set`. The set is consumed and kept inside (entry
    /// indices and iteration order are preserved).
    pub fn compile(set: PatternSet) -> Self {
        let mut folded_needles: Vec<(usize, String)> = Vec::new();
        let mut exact_needles: Vec<(usize, String)> = Vec::new();
        let mut fallback = Vec::new();
        for (index, (_, pattern)) in set.iter().enumerate() {
            let bucket = if pattern.is_case_insensitive() {
                &mut folded_needles
            } else {
                &mut exact_needles
            };
            match literal_needles(pattern) {
                Some(needles) => bucket.extend(needles.into_iter().map(|n| (index, n))),
                None => {
                    let gate = set.len() + fallback.len();
                    let literals = (fallback.len() < GATES)
                        .then(|| gate_literals(pattern))
                        .flatten();
                    fallback.push(Fallback {
                        index,
                        gated: literals.is_some(),
                    });
                    bucket.extend(literals.into_iter().flatten().map(|l| (gate, l)));
                }
            }
        }
        CompiledPatternSet {
            folded: Automaton::new(folded_needles, true),
            exact: Automaton::new(exact_needles, false),
            fallback,
            set,
        }
    }

    /// The underlying pattern set.
    pub fn set(&self) -> &PatternSet {
        &self.set
    }

    /// Number of patterns compiled in.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the compiled set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// How many patterns fell back to the backtracking engine.
    pub fn fallback_len(&self) -> usize {
        self.fallback.len()
    }

    /// Indices (in insertion order) of the entries matching `text`.
    /// Both automata fold case as they scan, so `text` is never copied.
    pub fn matching_indices(&self, text: &str) -> Vec<usize> {
        let mut hit = vec![false; self.set.len()];
        let gates = self.scan_literals(text, |index| hit[index] = true);
        for (k, entry) in self.fallback.iter().enumerate() {
            if self.fallback_matches(k, entry, gates, text) {
                hit[entry.index] = true;
            }
        }
        hit.iter()
            .enumerate()
            .filter_map(|(index, &h)| h.then_some(index))
            .collect()
    }

    /// The lowest index whose entry matches `text` (the first of
    /// [`matching_indices`](Self::matching_indices)), without
    /// allocating.
    pub fn first_match(&self, text: &str) -> Option<usize> {
        let mut literal: Option<usize> = None;
        let gates = self.scan_literals(text, |index| {
            literal = Some(literal.map_or(index, |best| best.min(index)));
        });
        // The fallback tier is in index order, so the first entry below
        // the literal tiers' best that matches is the answer.
        self.fallback
            .iter()
            .enumerate()
            .take_while(|(_, entry)| literal.map_or(true, |best| entry.index < best))
            .find(|&(k, entry)| self.fallback_matches(k, entry, gates, text))
            .map(|(_, entry)| entry.index)
            .or(literal)
    }

    /// One pass of each automaton over `text`: hand `on_literal` the
    /// index of every literal entry that matches, and return the mask of
    /// fallback gates whose literal occurs.
    fn scan_literals(&self, text: &str, mut on_literal: impl FnMut(usize)) -> u64 {
        let gate_base = self.set.len();
        let mut gates = 0u64;
        let mut note = |ids: &[u32]| {
            for &id in ids {
                match (id as usize).checked_sub(gate_base) {
                    None => on_literal(id as usize),
                    Some(k) => gates |= 1 << k,
                }
            }
            false
        };
        self.folded.for_each_output::<true>(text, &mut note);
        self.exact.for_each_output::<true>(text, &mut note);
        gates
    }

    /// Whether the `k`-th fallback entry matches `text`, given the gate
    /// mask of the same text.
    fn fallback_matches(&self, k: usize, entry: &Fallback, gates: u64, text: &str) -> bool {
        let open = !entry.gated || gates & (1 << k) != 0;
        open && self
            .set
            .get(entry.index)
            .is_some_and(|(_, pattern)| pattern.is_match(text))
    }

    /// All matches against `text`, in insertion order — same contract as
    /// [`PatternSet::matches`], one folding pass over the text.
    pub fn matches<'a>(&'a self, text: &str) -> Vec<SetMatch<'a>> {
        self.matching_indices(text)
            .into_iter()
            .filter_map(|index| {
                let (name, pattern) = self.set.get(index)?;
                Some(SetMatch { name, pattern })
            })
            .collect()
    }

    /// Names (deduplicated, insertion order) whose patterns match
    /// `text` — same contract as [`PatternSet::matching_names`].
    pub fn matching_names<'a>(&'a self, text: &str) -> Vec<&'a str> {
        let mut names: Vec<&str> = Vec::new();
        for m in self.matches(text) {
            if !names.contains(&m.name) {
                names.push(m.name);
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pass_matches_every_needle() {
        let a = Automaton::new([(0, "proxysg"), (1, "webadmin"), (2, "cfru=")], true);
        assert_eq!(
            a.matched_ids("GET /WebAdmin/ ProxySG cfru=x"),
            vec![0, 1, 2]
        );
        assert_eq!(a.matched_ids("nothing here"), Vec::<usize>::new());
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn overlapping_needles_all_fire() {
        // "she"/"he"/"hers" — the classic fail-link exercise.
        let a = Automaton::new([(0, "she"), (1, "he"), (2, "hers")], false);
        assert_eq!(a.matched_ids("ushers"), vec![0, 1, 2]);
        assert_eq!(a.matched_ids("he"), vec![1]);
    }

    #[test]
    fn case_folding_is_built_in() {
        let folded = Automaton::new([(0, "NetSweeper")], true);
        assert!(folded.is_match("server: NETSWEEPER/5.0"));
        assert!(folded.is_case_insensitive());
        let exact = Automaton::new([(0, "NetSweeper")], false);
        assert!(exact.is_match("NetSweeper here"));
        assert!(!exact.is_match("netsweeper here"));
    }

    #[test]
    fn shared_ids_union_their_needles() {
        let a = Automaton::new([(0, "proxysg"), (0, "cfru="), (1, "webadmin")], true);
        assert_eq!(a.matched_ids("cfru=zzz"), vec![0]);
        assert_eq!(a.matched_ids("proxysg"), vec![0]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_needle_matches_everything() {
        let a = Automaton::new([(0, ""), (1, "x")], true);
        assert_eq!(a.matched_ids(""), vec![0]);
        assert_eq!(a.matched_ids("axb"), vec![0, 1]);
        assert!(a.is_match(""));
    }

    #[test]
    fn empty_automaton_matches_nothing() {
        let a = Automaton::new(Vec::<(usize, &str)>::new(), true);
        assert!(a.is_empty());
        assert!(a.matched_ids("anything").is_empty());
        assert!(!a.is_match("anything"));
    }

    #[test]
    fn multibyte_text_is_byte_matched() {
        let a = Automaton::new([(0, "blocké")], true);
        assert!(a.is_match("page BLOCKé fin"));
        assert!(!a.is_match("page blocke fin"));
    }

    fn sample_set() -> PatternSet {
        let mut set = PatternSet::new();
        set.insert_parsed("bluecoat", "proxysg").unwrap();
        set.insert_parsed("bluecoat", "cfru=").unwrap();
        set.insert_parsed("netsweeper", "web page blocked*netsweeper")
            .unwrap();
        set.insert_parsed("websense", ":15871/*blockpage.cgi")
            .unwrap();
        set.insert_parsed("generic", "access denied|has been blocked")
            .unwrap();
        set.insert("exact", Pattern::parse_case_sensitive("ProxySG").unwrap());
        set
    }

    #[test]
    fn compiled_set_equals_uncompiled() {
        let set = sample_set();
        let compiled = CompiledPatternSet::compile(set.clone());
        let texts = [
            "Server: ProxySG",
            "server: proxysg",
            "http://x/?cfru=abc",
            "<title>Web Page Blocked</title> by netsweeper",
            "Location: http://gw:15871/cgi-bin/blockpage.cgi",
            "ACCESS DENIED",
            "the page has been blocked",
            "nothing at all",
        ];
        for text in texts {
            let naive: Vec<&str> = set.matches(text).iter().map(|m| m.name).collect();
            let fast: Vec<&str> = compiled.matches(text).iter().map(|m| m.name).collect();
            assert_eq!(naive, fast, "text={text:?}");
            assert_eq!(set.matching_names(text), compiled.matching_names(text));
        }
    }

    #[test]
    fn wildcards_take_the_fallback_tier() {
        let compiled = CompiledPatternSet::compile(sample_set());
        // Two wildcard patterns fall back; literals and the literal
        // alternation compile into the automatons.
        assert_eq!(compiled.fallback_len(), 2);
        assert_eq!(compiled.len(), 6);
        assert!(!compiled.is_empty());
    }

    #[test]
    fn anchored_literals_fall_back() {
        let mut set = PatternSet::new();
        set.insert_parsed("a", "^deny").unwrap();
        set.insert_parsed("b", "deny$").unwrap();
        let compiled = CompiledPatternSet::compile(set);
        assert_eq!(compiled.fallback_len(), 2);
        assert_eq!(compiled.matching_names("deny"), vec!["a", "b"]);
        assert!(compiled.matching_names("odenyo").is_empty());
    }

    #[test]
    fn matched_ids_into_reuses_buffers() {
        let needles = vec![
            (0usize, "proxysg".to_string()),
            (1, "netsweeper".to_string()),
            (2, "webadmin".to_string()),
        ];
        let automaton = Automaton::new(needles, true);
        let mut hit = Vec::new();
        let mut found = Vec::new();
        automaton.matched_ids_into("Server: ProxySG webadmin", &mut hit, &mut found);
        assert_eq!(found, vec![0, 2]);
        // Second call on the same buffers starts clean.
        automaton.matched_ids_into("netsweeper/5.1", &mut hit, &mut found);
        assert_eq!(found, vec![1]);
        assert_eq!(found, automaton.matched_ids("netsweeper/5.1"));
        automaton.matched_ids_into("nothing here", &mut hit, &mut found);
        assert!(found.is_empty());
    }

    #[test]
    fn first_match_is_the_lowest_matching_index() {
        let compiled = CompiledPatternSet::compile(sample_set());
        // A fallback entry below a literal hit wins, and the fallback
        // tier's literal gate folds case like its matcher does.
        let cases = [
            ("Server: ProxySG says Access Denied", Some(0)),
            ("WEB PAGE BLOCKED by NetSweeper: access denied", Some(2)),
            ("access denied at :15871/cgi-bin/BlockPage.cgi", Some(3)),
            ("the page HAS BEEN BLOCKED", Some(4)),
            ("nothing at all", None),
        ];
        for (text, first) in cases {
            assert_eq!(compiled.first_match(text), first, "text={text:?}");
            let indices = compiled.matching_indices(text);
            assert_eq!(indices.first().copied(), first, "text={text:?}");
        }
    }
}
