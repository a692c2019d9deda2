//! The two phases' term stores. An [`Interner`] builds the rule
//! vocabulary: it maps term text to dense [`Symbol`]s and grows with every
//! novel string. A [`RequestTerms`] serves requests once that vocabulary
//! is frozen: it shares the [`Interner`] read-only behind an `Arc` and
//! holds the terms of the one request it last parsed.
//!
//! An [`Interner`] keeps its strings in one arena (`bytes`, with
//! `ends[id]` closing string `id`) and finds them through an
//! open-addressing array of symbol indices (a raw-entry-style
//! hash-of-index map), not a `HashMap<Box<str>, u32>` that would duplicate
//! every key. Hashing uses FxHash (the vendored `fxhash` module) — short
//! IRIs and QName expansions dominate the key distribution and Fx beats
//! SipHash on them by a wide margin.
//!
//! The parser is generic over a [`TermSink`], and both types are one.
//! Every term site pushes the term's canonical text (QNames expanded,
//! literals canonicalised) through one call:
//!
//! * An [`Interner`] interns the text then and there, so rule loading
//!   through `parse_bgp` / `parse_query` mints symbols in parse order.
//! * A [`RequestTerms`] decides each term's identity as it is pushed. It
//!   hashes the text once and probes a per-request open-addressing index
//!   whose key sets IRIs and literals apart from variables and blank
//!   labels (so `?q` is never the entry of `<q>`). A repeated term gets
//!   its first occurrence's request-local symbol ([`Symbol::LOCAL`] set);
//!   only a new text is appended to the table, and only a new IRI or
//!   literal is queued, with its hash, for the vocabulary. Once the parse
//!   succeeds, one pass looks the queue up and the parser swaps every
//!   found term's symbol for the vocabulary's, the one the rules hold. The
//!   lookup runs in stages: load every key's home slot; then every
//!   candidate's `ends`, then its text; then compare, continuing the
//!   linear probe where the candidate was another string. The loads within
//!   a stage do not wait on each other, so their cache misses overlap;
//!   looked up one key after another, each key's three misses (slot,
//!   `ends`, text) queue behind the last key's. Variables, blank labels
//!   and the entries the vocabulary lacks keep their request-local symbol
//!   and render from the table.
//!
//! The index keeps its capacity from parse to parse. A parse empties it by
//! bumping a generation stamp that every live slot carries, so a warm
//! parse neither allocates nor clears it slot by slot.
//!
//! A [`RequestTerms`] has no way to write the vocabulary, so a serve parse
//! grows nothing shared: the table holds one request's terms, cleared by
//! the next parse. Both types read symbols back through [`SymbolText`],
//! which the renderer and the federation planner take.

use std::hash::Hasher;
use std::sync::Arc;

use crate::fxhash::FxHasher;
use crate::term::{Symbol, Term, TermKind};

/// Vacant table slot. Slots pack `(hash_tag << 32) | symbol_id`; a symbol
/// id of `u32::MAX` is unreachable (the interner asserts ids < 2^28), so
/// `u64::MAX` cannot collide with a live entry.
const EMPTY: u64 = u64::MAX;

/// A probe's candidate id when no vocabulary slot carries its key's tag;
/// never a symbol.
const ABSENT: u32 = u32::MAX;

/// Pack a table slot: the top 32 bits of the (finalized) hash as a tag, the
/// symbol id below. Probes compare the tag before touching the candidate's
/// string, so a probe chain costs one cache line per step instead of a
/// string comparison per step.
#[inline]
fn slot_entry(hash: u64, id: u32) -> u64 {
    (hash & 0xffff_ffff_0000_0000) | id as u64
}

#[inline]
fn slot_id(entry: u64) -> u32 {
    entry as u32
}

#[inline]
fn slot_tag_matches(entry: u64, hash: u64) -> bool {
    (entry ^ hash) & 0xffff_ffff_0000_0000 == 0
}

/// The hash of `s` from `seed` (the process seed outside tests; see the
/// `fxhash` module doc).
#[inline]
fn hash_str(seed: u64, s: &str) -> u64 {
    let mut h = FxHasher::with_seed(seed);
    h.write(s.as_bytes());
    // Fx's final step is a multiply, which drives its entropy into the
    // *high* bits; this table indexes with the *low* bits (`& mask`). IRI
    // sets that differ only in a short suffix (p0..pN vocabularies, exactly
    // what alignment workloads look like) then cluster into long
    // linear-probe chains. Folding the halves (`h ^ (h >> 32)`) did not stop
    // that: on 216k rule IRIs an insert landed 22.3 slots from home on
    // average. murmur3's finalizer step (shift, multiply, shift) mixes the
    // high bits into the low ones and brings that to 0.39.
    let mut h = h.finish();
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Strings back to back, with ids `0..len()`.
#[derive(Default, Debug, Clone)]
struct Arena {
    /// Every string, back to back.
    bytes: String,
    /// `ends[id]` is the byte offset in `bytes` where string `id` ends; it
    /// starts where string `id - 1` ends (or at 0).
    ends: Vec<u32>,
}

impl Arena {
    #[inline]
    fn len(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    fn text(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.bytes[start..self.ends[id] as usize]
    }

    /// Append `s` under the next id, unless the arena would pass 4 GiB.
    #[inline]
    fn push(&mut self, s: &str) -> Option<u32> {
        let end = u32::try_from(self.bytes.len() + s.len()).ok()?;
        let id = self.len() as u32;
        self.bytes.push_str(s);
        self.ends.push(end);
        Some(id)
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}

/// The build phase's string interner: an arena of strings plus the hash
/// table that finds them (see the module doc). Symbols are dense ids
/// `0..len()`, minted in first-seen order. A parse on an `Interner`
/// interns every term it reads.
///
/// Once the rules are loaded, share it read-only (`Arc<Interner>`) and
/// parse requests on a [`RequestTerms`] over it. `clone` is a deep copy.
#[derive(Debug, Clone)]
pub struct Interner {
    arena: Arena,
    /// Open-addressing table of `(hash_tag, id)` slots (`EMPTY` = vacant),
    /// sized to a power of two. A probe compares the 32-bit hash tag first
    /// and only compares the candidate's text on a tag match, so no second
    /// copy of any key is stored and false probes never touch the arena.
    table: Vec<u64>,
    /// What every hash of this interner's keys starts from: the process
    /// seed, which a [`RequestTerms`] over it hashes request text with too.
    seed: u64,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner {
            arena: Arena::default(),
            table: Vec::new(),
            seed: crate::fxhash::process_seed(),
        }
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s`, returning its symbol. O(1) amortized; copies `s` into
    /// the arena only the first time it is seen.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash_str(self.seed, s);
        if let Some(id) = self.find(s, hash) {
            return Symbol(id);
        }
        assert!(
            self.len() <= Symbol::MAX as usize,
            "interner exceeded 2^28 symbols"
        );
        if self.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let id = self.arena.push(s).expect("interner exceeded 4 GiB of text");
        let slot = self.vacant_slot(hash);
        self.table[slot] = slot_entry(hash, id);
        Symbol(id)
    }

    /// The text of `sym`. Panics if `sym` is not one of this interner's
    /// symbols; [`Interner::try_resolve`] is the checked form.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.arena.text(sym.index())
    }

    /// The text of `sym`, or `None` if this interner never minted it: a
    /// request-local symbol, or an id at or past [`Interner::len`] (minted
    /// by another interner).
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        // A request-local symbol's index has bit 28 set, so it is past
        // every id.
        (sym.index() < self.len()).then(|| self.arena.text(sym.index()))
    }

    /// Symbol for `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.find(s, hash_str(self.seed, s)).map(Symbol)
    }

    /// Number of strings interned.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Exclusive upper bound on every symbol id: symbols are dense indices
    /// `0..symbol_bound()`, which is what lets
    /// [`crate::align::AlignmentStore`] dispatch rules by direct array
    /// index.
    #[inline]
    pub fn symbol_bound(&self) -> usize {
        self.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, s: &str, hash: u64) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.find_from(s, hash, hash as usize)
    }

    /// Probe for `s` from slot `i` (taken modulo the table size) on; the
    /// table must not be empty.
    fn find_from(&self, s: &str, hash: u64, i: usize) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut i = i & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                return None;
            }
            if slot_tag_matches(slot, hash) && self.arena.text(slot_id(slot) as usize) == s {
                return Some(slot_id(slot));
            }
            i = (i + 1) & mask;
        }
    }

    fn vacant_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    fn grow(&mut self) {
        let new_cap = (self.table.len() * 2).max(16);
        self.table = vec![EMPTY; new_cap];
        for id in 0..self.len() {
            let hash = hash_str(self.seed, self.arena.text(id));
            let slot = self.vacant_slot(hash);
            self.table[slot] = slot_entry(hash, id as u32);
        }
    }

    /// Mean distance, in slots, from each entry to the slot its hash
    /// names: the extra probes an average lookup of a present key makes.
    #[cfg(test)]
    fn mean_displacement(&self) -> f64 {
        let mask = self.table.len() - 1;
        let total: usize = self
            .table
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != EMPTY)
            .map(|(i, &slot)| {
                let home =
                    hash_str(self.seed, self.arena.text(slot_id(slot) as usize)) as usize & mask;
                i.wrapping_sub(home) & mask
            })
            .sum();
        total as f64 / self.len() as f64
    }
}

/// One distinct IRI or literal entry's vocabulary lookup, queued by the
/// push with its text's hash and filled in stage by stage.
#[derive(Copy, Clone, Default, Debug)]
struct Probe {
    /// The request entry looked up.
    entry: u32,
    hash: u64,
    /// The candidate's slot, and its id ([`ABSENT`] for none).
    pos: u32,
    id: u32,
    /// The candidate's text, `bytes[start..end]` of the vocabulary's arena.
    start: u32,
    end: u32,
}

/// Flipped into a variable's or blank label's index key: the top bit, so
/// the key keeps its home slot but never equals an IRI's or literal's, and
/// `?q` is never the entry of `<q>`, whose text the vocabulary may hold.
const VAR_CLASS: u64 = 1 << 63;

/// A slot of the request index: live only while `gen` is the generation
/// of the current parse, so a parse empties the index by bumping that.
#[derive(Copy, Clone, Default, Debug)]
struct IndexSlot {
    /// The text's hash, with [`VAR_CLASS`] flipped for a variable or blank
    /// label.
    key: u64,
    entry: u32,
    /// 0 in a slot no parse has written: the current generation never is.
    gen: u32,
}

/// The serve phase's term store: a frozen vocabulary shared through an
/// `Arc`, plus the distinct terms of the request last parsed on it (see
/// the module doc).
///
/// A parse on it looks its IRIs and literals up in the vocabulary and
/// never writes it; every other term, and every term the vocabulary lacks,
/// gets a request-local symbol ([`Symbol::LOCAL`] set), which is valid
/// until the next parse and can never alias a vocabulary symbol, so no
/// rule ever matches it. Each parse empties the table first, keeping its
/// capacity, so it holds at most one request's terms, however many
/// requests it parses. `clone` shares the vocabulary and copies the table,
/// so the clone resolves every symbol the original does.
#[derive(Clone, Debug)]
pub struct RequestTerms {
    vocab: Arc<Interner>,
    /// One entry per distinct term of the last parse, in order of first
    /// occurrence.
    arena: Arena,
    /// Open-addressing index of `arena`, sized to a power of two: how a
    /// push finds an earlier occurrence of its term.
    index: Vec<IndexSlot>,
    /// The current parse's generation: never 0.
    gen: u32,
    /// `resolved[i]`: entry `i`'s symbol, once the resolve pass has run.
    resolved: Vec<u32>,
    /// The IRI and literal entries, in order: the vocabulary lookups.
    probes: Vec<Probe>,
    /// Whether a variable or blank label of the last parse is named `g…`.
    g_names: bool,
    /// The vocabulary's hash seed: each term is hashed once, for the index
    /// and the vocabulary alike.
    seed: u64,
}

impl RequestTerms {
    /// An empty request table over `vocab`.
    pub fn new(vocab: Arc<Interner>) -> RequestTerms {
        RequestTerms {
            seed: vocab.seed,
            vocab,
            arena: Arena::default(),
            index: Vec::new(),
            gen: 1,
            resolved: Vec::new(),
            probes: Vec::new(),
            g_names: false,
        }
    }

    /// The text of `sym`: a vocabulary string, or for a request-local
    /// symbol the table's entry, valid until the next parse.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        if sym.is_local() {
            self.arena.text((sym.0 & !Symbol::LOCAL) as usize)
        } else {
            self.vocab.resolve(sym)
        }
    }

    /// Number of strings in the vocabulary.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// Whether the last parse read a variable or blank label whose name
    /// starts with `g`. If not, no variable of the request is named
    /// `g{k}`, nor of any rewrite of it (a rewrite's variables are some of
    /// the request's), so the render's fresh names need no offset.
    #[inline]
    pub(crate) fn has_g_names(&self) -> bool {
        self.g_names
    }

    /// Double the index (16 slots at first) and re-seat the current
    /// parse's entries by their stored keys.
    #[cold]
    fn grow_index(&mut self) {
        let cap = (self.index.len() * 2).max(16);
        let old = std::mem::replace(&mut self.index, vec![IndexSlot::default(); cap]);
        let mask = cap - 1;
        for slot in old.into_iter().filter(|s| s.gen == self.gen) {
            let mut i = slot.key as usize & mask;
            while self.index[i].gen == self.gen {
                i = (i + 1) & mask;
            }
            self.index[i] = slot;
        }
    }

    /// Look every probe of `arena`'s entries up in `vocab`, in stages,
    /// writing each found id to `resolved`. Returns whether any was found.
    fn look_up(
        vocab: &Interner,
        arena: &Arena,
        resolved: &mut [u32],
        probes: &mut [Probe],
    ) -> bool {
        if vocab.table.is_empty() {
            return false;
        }
        let mask = vocab.table.len() - 1;
        // Home slots, skipping slots whose tag is another key's: those
        // share the home slot's cache line nearly always.
        for p in probes.iter_mut() {
            let mut pos = p.hash as usize & mask;
            let mut slot = vocab.table[pos];
            while slot != EMPTY && !slot_tag_matches(slot, p.hash) {
                pos = (pos + 1) & mask;
                slot = vocab.table[pos];
            }
            p.pos = pos as u32;
            p.id = if slot == EMPTY { ABSENT } else { slot_id(slot) };
        }
        let ends = &vocab.arena.ends;
        for p in probes.iter_mut().filter(|p| p.id != ABSENT) {
            let id = p.id as usize;
            p.start = id.checked_sub(1).map_or(0, |prev| ends[prev]);
            p.end = ends[id];
        }
        let bytes = vocab.arena.bytes.as_bytes();
        let mut found_any = false;
        for p in probes.iter().filter(|p| p.id != ABSENT) {
            let key = arena.text(p.entry as usize);
            let found = if &bytes[p.start as usize..p.end as usize] == key.as_bytes() {
                Some(p.id)
            } else {
                // A 32-bit tag collision: the key may sit further along.
                vocab.find_from(key, p.hash, p.pos as usize + 1)
            };
            if let Some(id) = found {
                resolved[p.entry as usize] = id;
                found_any = true;
            }
        }
        found_any
    }

    /// Entries in the table: one per distinct term of the last parse (a
    /// variable and a blank label with one name are one entry, an IRI with
    /// that text another).
    #[cfg(test)]
    pub(crate) fn request_len(&self) -> usize {
        self.arena.len()
    }
}

pub(crate) mod sealed {
    use crate::term::{Term, TermKind};

    /// The parser's calls on a [`super::TermSink`]: it lives in a private
    /// module, so only this crate can call or implement it. The defaults
    /// are a sink's that gives each term its final symbol as it is pushed.
    pub trait Sink {
        /// One occurrence of a `kind` term with canonical text `s`, as the
        /// parser is to hold it until [`Sink::finish`]. `None` once the
        /// request table holds 2^28 distinct entries or 4 GiB of text.
        fn push(&mut self, kind: TermKind, s: &str) -> Option<Term>;

        /// Start a parse: empty the request table, keeping its capacity.
        fn begin(&mut self) {}

        /// End a successful parse: resolve the request table, which
        /// [`Sink::settle`] then reads. Returns whether any term needs
        /// settling.
        fn finish(&mut self) -> bool {
            false
        }

        /// `t` with its symbol swapped for the one [`Sink::finish`] gave
        /// it; a term whose symbol is not request-local is returned as is.
        fn settle(&self, t: Term) -> Term {
            t
        }
    }
}

/// Where a parse puts the terms it reads: an [`Interner`] interns them, a
/// [`RequestTerms`] keeps them request-local until one resolve pass at the
/// end (see the module doc). Sealed: these two types are the only ones.
pub trait TermSink: sealed::Sink {}

/// Reads a symbol's text back: what rendering and planning need of the
/// store that minted a query's terms. Sealed like [`TermSink`]: it is
/// implemented by [`Interner`] and [`RequestTerms`] only.
pub trait SymbolText: sealed::Sink {
    /// The text of `sym`; see [`Interner::resolve`] and
    /// [`RequestTerms::resolve`].
    fn text(&self, sym: Symbol) -> &str;
}

impl sealed::Sink for Interner {
    #[inline]
    fn push(&mut self, kind: TermKind, s: &str) -> Option<Term> {
        Some(Term::new(kind, self.intern(s)))
    }
}

impl TermSink for Interner {}

impl SymbolText for Interner {
    #[inline]
    fn text(&self, sym: Symbol) -> &str {
        self.resolve(sym)
    }
}

impl sealed::Sink for RequestTerms {
    /// Empties the table and starts a new index generation; on the rare
    /// wrap to 0, every slot is vacated so no old generation comes back.
    fn begin(&mut self) {
        self.arena.clear();
        self.probes.clear();
        self.g_names = false;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.index.fill(IndexSlot::default());
            self.gen = 1;
        }
    }

    /// Returns the term with the request-local symbol of its text's first
    /// occurrence, appending the text if it is new. A new IRI or literal is
    /// queued for the resolve pass's vocabulary lookup, with its hash; a
    /// variable or blank label never touches the vocabulary.
    #[inline]
    fn push(&mut self, kind: TermKind, s: &str) -> Option<Term> {
        let hash = hash_str(self.seed, s);
        let vocab_term = matches!(kind, TermKind::Iri | TermKind::Literal);
        let key = if vocab_term { hash } else { hash ^ VAR_CLASS };
        if (self.arena.len() + 1) * 4 > self.index.len() * 3 {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut i = key as usize & mask;
        loop {
            let slot = self.index[i];
            if slot.gen != self.gen {
                break;
            }
            if slot.key == key && self.arena.text(slot.entry as usize) == s {
                return Some(Term::new(kind, Symbol(Symbol::LOCAL | slot.entry)));
            }
            i = (i + 1) & mask;
        }
        if self.arena.len() > Symbol::MAX as usize {
            return None;
        }
        let entry = self.arena.push(s)?;
        self.index[i] = IndexSlot {
            key,
            entry,
            gen: self.gen,
        };
        if vocab_term {
            self.probes.push(Probe {
                entry,
                hash,
                ..Probe::default()
            });
        } else {
            self.g_names |= s.starts_with('g');
        }
        Some(Term::new(kind, Symbol(Symbol::LOCAL | entry)))
    }

    /// Resolves the table: an entry the vocabulary holds takes its symbol,
    /// every other entry keeps its own local one.
    fn finish(&mut self) -> bool {
        let RequestTerms {
            vocab,
            arena,
            resolved,
            probes,
            ..
        } = self;
        resolved.clear();
        resolved.extend((0..arena.len() as u32).map(|entry| Symbol::LOCAL | entry));
        RequestTerms::look_up(vocab, arena, resolved, probes)
    }

    #[inline]
    fn settle(&self, t: Term) -> Term {
        let sym = t.symbol();
        if !sym.is_local() {
            return t;
        }
        let entry = (sym.0 & !Symbol::LOCAL) as usize;
        Term::new(t.kind(), Symbol(self.resolved[entry]))
    }
}

impl TermSink for RequestTerms {}

impl SymbolText for RequestTerms {
    #[inline]
    fn text(&self, sym: Symbol) -> &str {
        self.resolve(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("http://example.org/a");
        let b = i.intern("http://example.org/b");
        let a2 = i.intern("http://example.org/a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "http://example.org/a");
        assert_eq!(i.resolve(b), "http://example.org/b");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("http://example.org/b"), Some(b));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn survives_table_growth() {
        let mut it = Interner::new();
        let syms: Vec<Symbol> = (0..10_000)
            .map(|n| it.intern(&format!("http://example.org/resource/{n}")))
            .collect();
        assert_eq!(it.len(), 10_000);
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(it.resolve(*sym), format!("http://example.org/resource/{n}"));
            assert_eq!(
                it.get(&format!("http://example.org/resource/{n}")),
                Some(*sym)
            );
        }
        // Re-interning after growth still dedups.
        assert_eq!(it.intern("http://example.org/resource/123"), syms[123]);
        assert_eq!(it.len(), 10_000);
    }

    /// Alignment vocabularies are runs of IRIs that differ in a numeric
    /// suffix; they must spread over the table, not cluster into long
    /// probe chains.
    #[test]
    fn suffix_numbered_iris_do_not_cluster() {
        let mut it = Interner::new();
        for i in 0..50_000 {
            it.intern(&format!("http://src.example.org/onto/p{i}"));
            it.intern(&format!("http://src.example.org/ent/e{i}"));
        }
        assert_eq!(it.len(), 100_000);
        let mean = it.mean_displacement();
        assert!(mean < 1.0, "mean probe displacement {mean:.2} slots");
    }

    #[test]
    fn interner_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Interner>();
        assert_send_sync::<RequestTerms>();
    }

    #[test]
    fn empty_interner_get_is_none() {
        let it = Interner::new();
        assert_eq!(it.get("anything"), None);
        assert!(it.is_empty());
    }

    #[test]
    fn the_empty_string_is_a_symbol() {
        let mut it = Interner::new();
        let a = it.intern("a");
        let empty = it.intern("");
        let b = it.intern("b");
        assert_eq!(
            (it.resolve(a), it.resolve(empty), it.resolve(b)),
            ("a", "", "b")
        );
        assert_eq!(it.intern(""), empty);
    }

    #[test]
    fn try_resolve_names_only_its_own_symbols() {
        let mut it = Interner::new();
        let a = it.intern("a");
        assert_eq!(it.try_resolve(a), Some("a"));
        assert_eq!(it.try_resolve(Symbol(1)), None, "past the last id");
        assert_eq!(it.try_resolve(Symbol(Symbol::LOCAL)), None, "request-local");
    }

    #[test]
    fn interning_into_a_clone_leaves_the_original_unchanged() {
        let mut build = Interner::new();
        let a = build.intern("a");
        let mut copy = build.clone();
        let b = copy.intern("b");
        assert_eq!(copy.intern("a"), a);
        assert_eq!((copy.len(), copy.resolve(b)), (2, "b"));
        assert_eq!(build.len(), 1);
        assert_eq!((build.get("a"), build.get("b")), (Some(a), None));
        assert_eq!(build.intern("c"), b, "the original mints its own next id");
        assert_eq!((build.resolve(b), copy.resolve(b)), ("c", "b"));
    }

    /// Parse `q` into `sink` and return its triples.
    fn triples<S: TermSink>(q: &str, sink: &mut S) -> Vec<crate::TriplePattern> {
        crate::parse_query(q, sink).expect("parses").pattern.triples
    }

    /// A request table over `vocab`.
    fn serve(vocab: Interner) -> RequestTerms {
        RequestTerms::new(Arc::new(vocab))
    }

    #[test]
    fn clones_share_the_base_and_keep_request_terms_private() {
        let mut build = Interner::new();
        let rule = build.intern("http://example.org/rule");
        let mut w1 = serve(build);
        let mut w2 = w1.clone();
        assert!(Arc::ptr_eq(&w1.vocab, &w2.vocab), "clones share one base");

        let t1 = triples(
            "SELECT * WHERE { ?s <http://example.org/rule> \"only in w1\" }",
            &mut w1,
        );
        assert_eq!(
            t1[0].p.symbol(),
            rule,
            "a base string resolves to its symbol"
        );
        let novel = t1[0].o.symbol();
        assert!(novel.is_local(), "a novel string left the request table");
        assert_eq!(w1.resolve(novel), "\"only in w1\"");
        assert_eq!(w2.request_len(), 0, "a sibling sees w1's terms");
        assert_eq!(w2.vocab.get("\"only in w1\""), None);

        // The sibling mints the same symbol for its own, different string.
        let t2 = triples(
            "SELECT * WHERE { ?s <http://example.org/rule> \"only in w2\" }",
            &mut w2,
        );
        assert_eq!(t2[0].o.symbol(), novel);
        assert_eq!(w2.resolve(novel), "\"only in w2\"");
        assert_eq!(w1.resolve(novel), "\"only in w1\"");
        // A clone resolves what the original does.
        assert_eq!(w1.clone().resolve(novel), "\"only in w1\"");
    }

    #[test]
    fn a_serve_parse_never_grows_the_base() {
        let mut build = Interner::new();
        build.intern("http://example.org/rule");
        // The worker holds the one reference to the vocabulary: it still
        // must not write to it.
        let mut worker = serve(build);
        let t = triples(
            "SELECT * WHERE { ?first <http://example.org/x> \"y\" }",
            &mut worker,
        );
        assert_eq!(worker.len(), 1);
        assert!(t[0].terms().iter().all(|t| t.symbol().is_local()));
        assert_eq!(worker.resolve(t[0].p.symbol()), "http://example.org/x");
        assert_eq!(worker.vocab.get("first"), None);
    }

    #[test]
    fn each_parse_clears_the_previous_request_table() {
        let mut worker = serve(Interner::new());
        let q = |i: usize| format!("SELECT ?v{i} WHERE {{ ?v{i} ?p \"{i}\" }}");
        for i in 0..1_000 {
            let t = triples(&q(i), &mut worker);
            // ?v{i}, ?p and the literal: one entry per distinct term.
            assert_eq!(worker.request_len(), 3, "one request's terms");
            assert_eq!(worker.resolve(t[0].o.symbol()), format!("\"{i}\""));
        }
        // A failed parse also starts from an empty table.
        assert!(crate::parse_query("SELECT ?a ?b ?c WHERE {", &mut worker).is_err());
        assert_eq!(worker.request_len(), 3);
        assert!(worker.is_empty());
    }

    #[test]
    fn request_terms_resolve_like_a_base_lookup() {
        // A vocabulary big enough that its probe chains run: every IRI and
        // literal of the request must resolve to what `get` finds, every
        // other term to the first entry with its text.
        let mut build = Interner::new();
        for i in 0..20_000 {
            build.intern(&format!("http://example.org/p{i}"));
            build.intern(&format!("\"{i}\""));
        }
        let vocab = Arc::new(build);
        let mut worker = RequestTerms::new(Arc::clone(&vocab));
        let mut q = String::from("SELECT * WHERE { ");
        for i in (0..40_000).step_by(997) {
            q.push_str(&format!("?v{} <http://example.org/p{i}> \"{i}\" . ", i % 3));
        }
        q.push('}');
        let t = triples(&q, &mut worker);
        for (n, tp) in t.iter().enumerate() {
            for term in [tp.p, tp.o] {
                let text = worker.resolve(term.symbol());
                assert_eq!(
                    term.symbol().is_local(),
                    vocab.get(text).is_none(),
                    "{text}"
                );
                if let Some(sym) = vocab.get(text) {
                    assert_eq!(term.symbol(), sym);
                }
            }
            assert_eq!(tp.s, t[n % 3].s, "?v{} is one term", n % 3);
        }
        assert_ne!(t[0].s, t[1].s);
        assert_eq!(worker.len(), vocab.len());
    }

    #[test]
    fn equal_texts_share_the_first_occurrences_symbol() {
        let mut worker = serve(Interner::new());
        for n in [2, 30, 128] {
            let mut q = String::from("SELECT * WHERE { ");
            for i in 0..n {
                q.push_str(&format!("?v{i} <http://p> ?v{} . ", (i + 1) % n));
            }
            q.push('}');
            let t = triples(&q, &mut worker);
            assert_eq!(t[0].s.symbol(), Symbol(Symbol::LOCAL), "n = {n}");
            assert_eq!(t[1].p.symbol(), Symbol(Symbol::LOCAL | 1), "n = {n}");
            for i in 0..n {
                assert_eq!(t[i].o, t[(i + 1) % n].s, "n = {n}, i = {i}");
                assert_eq!(t[i].p, t[0].p, "n = {n}, i = {i}");
                assert_eq!(worker.resolve(t[i].s.symbol()), format!("v{i}"));
            }
            let distinct: std::collections::HashSet<Term> = t.iter().map(|tp| tp.s).collect();
            assert_eq!(distinct.len(), n, "n = {n}");
        }
    }

    #[test]
    fn a_short_text_is_not_a_longer_one_it_prefixes() {
        // `abcdefg` (7 bytes) and a 102-byte text that starts with it and
        // has `a` as its eighth byte: a key of the length's low byte XORed
        // into the first eight bytes is equal for both (0x61 ^ 102 == 7),
        // so only comparing whole texts tells them apart.
        let long = format!("abcdefga{}", "x".repeat(94));
        assert_eq!(long.len(), 102);
        let q =
            format!("SELECT * WHERE {{ ?{long} <{long}> ?abcdefg . ?abcdefg <abcdefg> ?{long} }}");
        let mut worker = serve(Interner::new());
        let query = crate::parse_query(&q, &mut worker).expect("parses");
        let t = &query.pattern.triples;
        assert_ne!(t[0].s, t[0].o, "?abcdefg took ?{long}'s symbol");
        assert_ne!(t[0].p, t[1].p, "<abcdefg> took <{long}>'s symbol");
        assert_eq!((t[0].s, t[0].o), (t[1].o, t[1].s));
        let texts: Vec<&str> = [t[1].s, t[1].p]
            .iter()
            .map(|x| worker.resolve(x.symbol()))
            .collect();
        assert_eq!(texts, ["abcdefg", "abcdefg"]);
        let sparql = query.to_sparql(&worker);
        assert!(sparql.contains("?abcdefg <abcdefg> ?abcdefga"), "{sparql}");
    }

    /// Parse the triples `terms` (spelled `?name`, `<iri>` or `"literal"`,
    /// three to a triple) on `worker` and check every term in parse order:
    /// an IRI or literal the vocabulary holds has the symbol
    /// [`Interner::get`] finds, and every other term is request-local, reads
    /// back its own text and has the symbol of the first occurrence of its
    /// text in its class. Distinct terms have distinct symbols.
    fn assert_resolves_as_pushed(worker: &mut RequestTerms, terms: &[String]) {
        let mut q = String::from("SELECT * WHERE { ");
        for triple in terms.chunks(3) {
            q.push_str(&format!("{} {} {} . ", triple[0], triple[1], triple[2]));
        }
        q.push('}');
        let parsed = triples(&q, worker);
        let vocab = Arc::clone(&worker.vocab);
        let mut first = std::collections::HashMap::new();
        let mut distinct = std::collections::HashSet::new();
        let read = parsed.iter().flat_map(|tp| tp.terms());
        for (spelled, term) in terms.iter().zip(read) {
            let (vocab_term, text) = match spelled.strip_prefix('?') {
                Some(name) => (false, name),
                None => (true, spelled.trim_start_matches('<').trim_end_matches('>')),
            };
            distinct.insert((vocab_term, text));
            assert_eq!(worker.resolve(term.symbol()), text, "{spelled}");
            match vocab.get(text).filter(|_| vocab_term) {
                Some(sym) => assert_eq!(term.symbol(), sym, "{spelled}"),
                None => {
                    assert!(term.symbol().is_local(), "{spelled} left the request");
                    let sym = *first.entry((vocab_term, text)).or_insert(term.symbol());
                    assert_eq!(term.symbol(), sym, "{spelled} is not its first occurrence");
                }
            }
        }
        let symbols: std::collections::HashSet<Symbol> = first.values().copied().collect();
        assert_eq!(
            symbols.len(),
            first.len(),
            "two distinct terms share a symbol"
        );
        assert_eq!(worker.request_len(), distinct.len(), "one entry per term");
    }

    /// A vocabulary of `<http://x/0..64>`, `<q>` and `"0"..."64"`.
    fn small_vocab() -> RequestTerms {
        let mut build = Interner::new();
        for i in 0..64 {
            build.intern(&format!("http://x/{i}"));
            build.intern(&format!("\"{i}\""));
        }
        build.intern("q");
        serve(build)
    }

    /// A small request: `?q` and `<q>` in both orders, repeats, and terms
    /// the vocabulary holds and lacks.
    fn small_request(i: usize) -> Vec<String> {
        [
            format!("?v{i}"),
            "<http://x/1>".to_string(),
            format!("\"{}\"", 60 + i),
            "?q".to_string(),
            "<q>".to_string(),
            format!("?v{i}"),
            "<q>".to_string(),
            format!("<http://y/{i}>"),
            "?q".to_string(),
            format!("?v{}", i + 1),
            "<http://x/1>".to_string(),
            format!("\"{}\"", 60 + i),
        ]
        .to_vec()
    }

    #[test]
    fn a_parse_that_outgrows_the_index_keeps_every_identity() {
        let mut worker = small_vocab();
        assert_resolves_as_pushed(&mut worker, &small_request(0));
        let cap = worker.index.len();
        // Three times as many distinct terms as the index has slots, then
        // every one of the first ones again, pushed before the growth.
        let mut big = Vec::new();
        for i in 0..cap {
            big.push(format!("?v{i}"));
            big.push(format!("<http://x/{}>", i % 80));
            big.push(format!("\"{}\"", i % 70 + 1000 * (i % 2)));
        }
        for i in 0..cap {
            big.push(format!("?v{}", cap - 1 - i));
            big.push(format!("<http://x/{}>", i % 80));
            big.push(format!("\"{}\"", i % 70 + 1000 * (i % 2)));
        }
        assert_resolves_as_pushed(&mut worker, &big);
        assert!(worker.index.len() > cap, "the index grew");
        let grown = worker.index.len();
        for i in 0..8 {
            assert_resolves_as_pushed(&mut worker, &small_request(i));
        }
        assert_eq!(worker.index.len(), grown, "the index keeps its capacity");
    }

    #[test]
    fn the_generation_stamp_wraps_without_reviving_old_slots() {
        let mut worker = small_vocab();
        // Parses at generations 2 to 5 leave their slots stamped; past the
        // wrap the same requests come back at the same generations.
        for i in 0..4 {
            assert_resolves_as_pushed(&mut worker, &small_request(i));
        }
        assert_eq!(worker.gen, 5);
        worker.gen = u32::MAX - 3;
        for _ in 0..3 {
            for i in 0..4 {
                assert_resolves_as_pushed(&mut worker, &small_request(i));
            }
        }
        assert_eq!(worker.gen, 9, "the stamp wrapped past 0 to 1");
    }

    /// Two strings whose slots carry the same 32-bit tag and the same home
    /// in a 16-slot table: a staged lookup of one meets the other first.
    fn tag_twins(seed: u64) -> (String, String) {
        let mut seen = std::collections::HashMap::new();
        for i in 0u64.. {
            let s = format!("\"{i}\"");
            match seen.entry(hash_str(seed, &s) & 0xffff_ffff_0000_000f) {
                std::collections::hash_map::Entry::Occupied(e) => return (e.remove(), s),
                std::collections::hash_map::Entry::Vacant(e) => e.insert(s),
            };
        }
        unreachable!()
    }

    #[test]
    fn a_tag_collision_continues_the_probe() {
        let mut build = Interner::new();
        let (a, b) = tag_twins(build.seed);
        let q = format!("SELECT * WHERE {{ ?s ?p {a} . ?s ?p {b} }}");
        let sym_a = build.intern(&a);
        assert_eq!(build.table.len(), 16);
        let t = triples(&q, &mut serve(build.clone()));
        assert_eq!(t[0].o.symbol(), sym_a);
        assert!(t[1].o.symbol().is_local(), "{b} matched {a}'s slot");
        let sym_b = build.intern(&b);
        let t = triples(&q, &mut serve(build));
        assert_eq!((t[0].o.symbol(), t[1].o.symbol()), (sym_a, sym_b));
    }

    /// `n` 24-byte literals whose unseeded hashes are all equal: each is a
    /// quote and seven letters, then the one 8-byte word that brings the
    /// Fx state to a fixed value, then seven `z`s and a quote.
    fn colliding_when_unseeded(n: usize) -> Vec<String> {
        // Fx's multiplier, and its inverse modulo 2^64 (Newton's method).
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut k_inv = K;
        for _ in 0..6 {
            k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(k_inv)));
        }
        let state = 0x1234_5678_9abc_def0u64;
        let printable = |b: &u8| (0x20..0x7f).contains(b) && *b != b'"' && *b != b'\\';
        let mut out = Vec::new();
        for i in 0u64.. {
            let mut first = [b'"'; 8];
            for (j, b) in first[1..].iter_mut().enumerate() {
                *b = b'a' + (i >> (4 * j) & 15) as u8;
            }
            let h = (u64::from_le_bytes(first)).wrapping_mul(K);
            let second = (state.wrapping_mul(k_inv) ^ h.rotate_left(5)).to_le_bytes();
            if second.iter().all(printable) {
                let mut text = first.to_vec();
                text.extend_from_slice(&second);
                text.extend_from_slice(b"zzzzzzz\"");
                out.push(String::from_utf8(text).expect("ASCII"));
                if out.len() == n {
                    return out;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn texts_crafted_to_collide_unseeded_spread_under_the_seed() {
        let texts = colliding_when_unseeded(64);
        let unseeded: std::collections::HashSet<u64> =
            texts.iter().map(|t| hash_str(0, t)).collect();
        assert_eq!(unseeded.len(), 1, "the construction collides");
        let mut worker = serve(Interner::new());
        assert_ne!(worker.seed, 0);
        let seeded: std::collections::HashSet<u64> =
            texts.iter().map(|t| hash_str(worker.seed, t)).collect();
        assert_eq!(seeded.len(), texts.len(), "a collision survived the seed");
        // They are 64 distinct request terms.
        let terms: Vec<String> = texts
            .iter()
            .flat_map(|t| ["?s".to_string(), "<http://p>".to_string(), t.clone()])
            .collect();
        assert_resolves_as_pushed(&mut worker, &terms);
    }
}
