//! String interner mapping term text to 29-bit [`Symbol`]s.
//!
//! An [`Interner`] is a shared, immutable **base** layer behind an `Arc`
//! plus a small **overlay** layer of its own. Each layer keeps its strings
//! in one arena (`bytes`, with `ends[id]` closing string `id`) and finds
//! them through an open-addressing array of symbol indices (a
//! raw-entry-style hash-of-index map), not a `HashMap<Box<str>, u32>` that
//! would duplicate every key. Hashing uses FxHash (the vendored `fxhash`
//! module) — short IRIs and QName expansions dominate the key distribution
//! and Fx beats SipHash on them by a wide margin.
//!
//! The layering follows the engine's two phases without a seal call:
//!
//! * **Build phase** — the parser and rule loaders intern into the base,
//!   which the interner owns alone, so `intern` writes to it in place.
//! * **Serve phase** — the first `clone()` shares the base. From then on
//!   every clone interns novel strings (query variables, unseen literals)
//!   into its own overlay, so cloning for a worker costs an `Arc` bump plus
//!   a copy of the overlay, and each base string is stored once per
//!   process however many workers hold it.

use std::hash::Hasher;
use std::sync::Arc;

use crate::fxhash::FxHasher;
use crate::term::Symbol;

/// Most symbols an overlay keeps across requests: past this,
/// [`Interner::trim_overlay`] empties it. Large enough that a worker's hot
/// strings (variable names, recurring literals) survive many requests
/// between resets, small enough that the overlay's table stays
/// cache-resident for the base lookups that probe it first.
pub(crate) const OVERLAY_BOUND: usize = 4096;

/// Vacant table slot. Slots pack `(hash_tag << 32) | symbol_id`; a symbol
/// id of `u32::MAX` is unreachable (the interner asserts ids ≤ 2^29), so
/// `u64::MAX` cannot collide with a live entry.
const EMPTY: u64 = u64::MAX;

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

#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
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

/// One append-only run of strings with layer-local ids `0..len()`.
#[derive(Default, Debug, Clone)]
struct Layer {
    /// Every string of the layer, back to back.
    bytes: String,
    /// `ends[id]` is the byte offset in `bytes` where string `id` ends; it
    /// starts where string `id - 1` ends (or at 0).
    ends: Vec<u32>,
    /// Open-addressing table of `(hash_tag, local_id)` slots (`EMPTY` =
    /// vacant), sized to a power of two. A probe compares the 32-bit hash
    /// tag first and only compares the candidate's text on a tag match, so
    /// no second copy of any key is stored and false probes never touch
    /// the arena.
    table: Vec<u64>,
}

impl Layer {
    #[inline]
    fn len(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    #[inline]
    fn text(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.bytes[start..self.ends[id] as usize]
    }

    fn find(&self, s: &str, hash: u64) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                return None;
            }
            if slot_tag_matches(slot, hash) && self.text(slot_id(slot) as usize) == s {
                return Some(slot_id(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// Append `s`, known to be absent, under the next local id.
    fn push(&mut self, s: &str, hash: u64) {
        if self.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let id = self.len() as u32;
        self.bytes.push_str(s);
        let end = u32::try_from(self.bytes.len()).expect("interner exceeded 4 GiB of text");
        self.ends.push(end);
        let slot = self.vacant_slot(hash);
        self.table[slot] = slot_entry(hash, id);
    }

    fn vacant_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Forget every string, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.table.fill(EMPTY);
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
                let home = hash_str(self.text(slot_id(slot) as usize)) as usize & mask;
                i.wrapping_sub(home) & mask
            })
            .sum();
        total as f64 / self.len() as f64
    }

    fn grow(&mut self) {
        let new_cap = (self.table.len() * 2).max(16);
        self.table = vec![EMPTY; new_cap];
        for id in 0..self.len() {
            let hash = hash_str(self.text(id));
            let slot = self.vacant_slot(hash);
            self.table[slot] = slot_entry(hash, id as u32);
        }
    }
}

/// Append-only string interner. Symbols are dense indices starting at 0.
///
/// Cloning is cheap and deliberate: a serve-phase worker that must parse
/// *new* query text (which can mention strings the build phase never saw)
/// clones the build-phase interner once and interns worker-locally. The
/// clone shares the base layer through an `Arc` and copies only the
/// overlay. Every pre-existing symbol keeps its id in the clone, so terms
/// stay comparable against the shared rule set, while post-clone symbols
/// (ids ≥ the clone point's [`Interner::symbol_bound`]) are private to that
/// worker and can never alias a rule symbol.
///
/// `intern` writes into the base only while this interner holds the one
/// reference to it **and** its overlay is empty; otherwise it writes into
/// the overlay. The second condition keeps every overlay id stable: the
/// base never grows under an overlay, even after the clones that shared it
/// are dropped.
///
/// Bound: an overlay grows with every novel string its owner interns,
/// until [`Interner::trim_overlay`], called between requests, empties it
/// once it holds more than 4,096 symbols. A worker serving an endless
/// stream of unique literals therefore keeps at most 4,096 overlay symbols
/// (plus one request's worth) and their text.
#[derive(Default, Debug, Clone)]
pub struct Interner {
    base: Arc<Layer>,
    own: Layer,
}

impl Interner {
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s`, returning its symbol. O(1) amortized; copies `s` into an
    /// arena only the first time it is seen.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash_str(s);
        if let Some(sym) = self.find(s, hash) {
            return sym;
        }
        let id = u32::try_from(self.symbol_bound()).expect("interner overflow");
        assert!(id <= Symbol::MAX, "interner exceeded 2^29 symbols");
        let layer = match Arc::get_mut(&mut self.base) {
            Some(base) if self.own.is_empty() => base,
            _ => &mut self.own,
        };
        layer.push(s, hash);
        Symbol(id)
    }

    /// At a request boundary, empty the overlay once it holds more than
    /// 4,096 symbols, keeping its capacity: a warm reset allocates nothing.
    /// This is what bounds a serve worker's memory under a stream of
    /// unique literals.
    ///
    /// Every symbol minted into the overlay becomes invalid (its id will
    /// be reissued for another string), so call it only where nothing
    /// minted earlier is resolved again: the serve engine (whose cache
    /// holds rendered text, never symbols) and the federated worker (whose
    /// planner and executor keep nothing past a request) call it before
    /// parsing each request. Base symbols are untouched.
    pub fn trim_overlay(&mut self) {
        if self.own.len() > OVERLAY_BOUND {
            self.own.clear();
        }
    }

    /// The overlay is small and holds the hot worker-local strings, so it
    /// is probed first.
    #[inline]
    fn find(&self, s: &str, hash: u64) -> Option<Symbol> {
        if let Some(id) = self.own.find(s, hash) {
            return Some(Symbol(self.base.len() as u32 + id));
        }
        self.base.find(s, hash).map(Symbol)
    }

    /// Look up a symbol minted by this interner (or by the interner it was
    /// cloned from, before the clone).
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        let id = sym.index();
        match id.checked_sub(self.base.len()) {
            None => self.base.text(id),
            Some(own_id) => self.own.text(own_id),
        }
    }

    /// Symbol for `s` if it has already been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.find(s, hash_str(s))
    }

    pub fn len(&self) -> usize {
        self.base.len() + self.own.len()
    }

    /// Exclusive upper bound on every symbol id minted so far: symbols are
    /// dense indices `0..symbol_bound()`, which is what lets
    /// [`crate::align::AlignmentStore`] dispatch rules by direct array index.
    #[inline]
    pub fn symbol_bound(&self) -> usize {
        self.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let mean = it.base.mean_displacement();
        assert!(mean < 1.0, "mean probe displacement {mean:.2} slots");
    }

    #[test]
    fn interner_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Interner>();
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
    fn clones_share_the_base_and_keep_overlays_private() {
        let mut build = Interner::new();
        let rule = build.intern("http://example.org/rule");
        let bound = build.symbol_bound();
        let mut w1 = build.clone();
        let mut w2 = build.clone();
        assert!(Arc::ptr_eq(&w1.base, &w2.base), "clones share one base");

        assert_eq!(w1.intern("http://example.org/rule"), rule);
        let novel = w1.intern("\"only in w1\"");
        assert!(novel.index() >= bound, "novel string landed in the base");
        assert_eq!(w1.resolve(novel), "\"only in w1\"");
        assert_eq!(w2.get("\"only in w1\""), None, "a sibling sees the overlay");
        assert_eq!(build.get("\"only in w1\""), None);

        // The sibling mints the same id for its own, different string.
        let other = w2.intern("\"only in w2\"");
        assert_eq!(other, novel);
        assert_eq!(w2.resolve(other), "\"only in w2\"");
        assert_eq!(w1.resolve(novel), "\"only in w1\"");
    }

    #[test]
    fn base_never_grows_under_an_overlay() {
        let mut build = Interner::new();
        build.intern("http://example.org/rule");
        let mut worker = build.clone();
        let first = worker.intern("first");
        // The worker now holds the one reference to the base, but its
        // overlay is not empty: the next string must not go into the base,
        // whose next id is `first`'s.
        drop(build);
        let second = worker.intern("second");
        assert_ne!(first, second);
        assert_eq!(worker.resolve(first), "first");
        assert_eq!(worker.resolve(second), "second");
        assert_eq!(worker.get("first"), Some(first));
        assert_eq!(worker.get("second"), Some(second));
    }

    #[test]
    fn trimming_empties_only_an_overlay_past_the_bound() {
        let mut build = Interner::new();
        let rule = build.intern("http://example.org/rule");
        let mut worker = build.clone();
        for i in 0..OVERLAY_BOUND {
            worker.intern(&format!("\"{i}\""));
        }
        worker.trim_overlay();
        assert_eq!(worker.own.len(), OVERLAY_BOUND, "at the bound: kept");
        worker.intern("\"last\"");
        worker.trim_overlay();
        assert!(worker.own.is_empty(), "past the bound: emptied");
        assert_eq!(worker.get("\"last\""), None);
        assert_eq!(worker.get("\"0\""), None);
        assert_eq!(worker.get("http://example.org/rule"), Some(rule));
        // The next novel string reuses the first overlay id.
        let again = worker.intern("\"again\"");
        assert_eq!(again.index(), build.symbol_bound());
        assert_eq!(worker.resolve(again), "\"again\"");
        assert_eq!(worker.intern("\"again\""), again);
    }

    #[test]
    fn a_dropped_clone_hands_the_base_back() {
        let mut build = Interner::new();
        build.intern("a");
        drop(build.clone());
        let b = build.intern("b");
        assert!(build.own.is_empty(), "unique base with an empty overlay");
        assert_eq!(build.resolve(b), "b");
        assert_eq!(build.base.len(), 2);
    }
}
