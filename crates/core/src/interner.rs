//! String interner mapping term text to 29-bit [`Symbol`]s, and its frozen,
//! shareable counterpart for the serve phase.
//!
//! The lifecycle mirrors the engine's two phases:
//!
//! * **Build phase** — an [`Interner`] is mutable and append-only: the
//!   parser and rule loaders intern each distinct string once.
//! * **Serve phase** — [`Interner::freeze`] converts it into a
//!   [`FrozenInterner`]: immutable, `Send + Sync`, `Arc`-shareable across
//!   worker threads, with a resolve path that is a plain slice index.
//!
//! Each string is owned exactly once: the lookup table is an open-addressing
//! array of symbol indices (a raw-entry-style hash-of-index map), not a
//! `HashMap<Box<str>, u32>` that would duplicate every key. Hashing uses
//! FxHash (the vendored `fxhash` module) — short IRIs and QName expansions
//! dominate the key distribution and Fx beats SipHash on them by a wide
//! margin.

use std::hash::Hasher;

use crate::fxhash::FxHasher;
use crate::term::Symbol;

/// Anything that can turn a [`Symbol`] back into its text. Implemented by
/// both interner phases so rendering code is agnostic to which one it holds.
pub trait Resolve {
    fn resolve(&self, sym: Symbol) -> &str;
}

/// Vacant table slot. Slots pack `(hash_tag << 32) | symbol_id`; a symbol
/// id of `u32::MAX` is unreachable (the interner asserts ids ≤ 2^29), so
/// `u64::MAX` cannot collide with a live entry.
const EMPTY: u64 = u64::MAX;

/// Pack a table slot: the top 32 bits of the (folded) hash as a tag, the
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
    let h = h.finish();
    // Fx's final step is a multiply, which drives its entropy into the
    // *high* bits; this table indexes with the *low* bits (`& mask`).
    // Without folding the halves together, IRI sets that differ only in a
    // short suffix (p0..pN vocabularies — exactly what alignment workloads
    // look like) cluster into long linear-probe chains and a warm intern
    // hit costs ~25 probes instead of ~1.
    h ^ (h >> 32)
}

/// Append-only string interner. Symbols are dense indices starting at 0.
///
/// `Clone` is deliberate: a serve-phase worker that must parse *new* query
/// text (which can mention strings the build phase never saw) clones the
/// build-phase interner once and interns worker-locally. Every pre-existing
/// symbol keeps its id in the clone, so terms stay comparable against the
/// shared rule set, while post-clone symbols (ids ≥ the clone point's
/// [`Interner::symbol_bound`]) are private to that worker and can never
/// alias a rule symbol.
#[derive(Default, Debug, Clone)]
pub struct Interner {
    /// The single owned copy of each interned string, indexed by symbol.
    strings: Vec<Box<str>>,
    /// Open-addressing table of `(hash_tag, symbol_id)` slots (`EMPTY` =
    /// vacant), sized to a power of two. A probe compares the 32-bit hash
    /// tag first and only rehashes the candidate's string on a tag match,
    /// so no second copy of any key is stored and false probes never touch
    /// the string heap.
    table: Vec<u64>,
}

impl Interner {
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s`, returning its symbol. O(1) amortized; allocates only the
    /// first time a string is seen — and then exactly one owned copy.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if self.strings.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let hash = hash_str(s);
        let mut i = hash as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                let id = u32::try_from(self.strings.len()).expect("interner overflow");
                assert!(id <= Symbol::MAX, "interner exceeded 2^29 symbols");
                self.strings.push(s.into());
                self.table[i] = slot_entry(hash, id);
                return Symbol(id);
            }
            if slot_tag_matches(slot, hash) && &*self.strings[slot_id(slot) as usize] == s {
                return Symbol(slot_id(slot));
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.table.len() * 2).max(16);
        let mask = new_cap - 1;
        let mut table = vec![EMPTY; new_cap];
        for (id, s) in self.strings.iter().enumerate() {
            let hash = hash_str(s);
            let mut i = hash as usize & mask;
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = slot_entry(hash, id as u32);
        }
        self.table = table;
    }

    /// Look up a symbol minted by this interner.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Symbol for `s` if it has already been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        lookup(&self.table, &self.strings, s)
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Exclusive upper bound on every symbol id minted so far: symbols are
    /// dense indices `0..symbol_bound()`, which is what lets
    /// [`crate::align::AlignmentStore`] dispatch rules by direct array index.
    #[inline]
    pub fn symbol_bound(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// End the build phase: convert into an immutable, `Send + Sync`
    /// interner that worker threads can share behind an `Arc`. Symbols
    /// minted by `self` resolve identically in the frozen form.
    pub fn freeze(self) -> FrozenInterner {
        FrozenInterner {
            strings: self.strings.into_boxed_slice(),
            table: self.table.into_boxed_slice(),
        }
    }
}

fn lookup(table: &[u64], strings: &[Box<str>], s: &str) -> Option<Symbol> {
    if table.is_empty() {
        return None;
    }
    let mask = table.len() - 1;
    let hash = hash_str(s);
    let mut i = hash as usize & mask;
    loop {
        let slot = table[i];
        if slot == EMPTY {
            return None;
        }
        if slot_tag_matches(slot, hash) && &*strings[slot_id(slot) as usize] == s {
            return Some(Symbol(slot_id(slot)));
        }
        i = (i + 1) & mask;
    }
}

/// The serve-phase interner: frozen symbol table shared read-only by every
/// worker thread. Resolution is a bounds-checked slice index; there is no
/// interior mutability, so `FrozenInterner` is `Send + Sync` by
/// construction.
#[derive(Debug)]
pub struct FrozenInterner {
    strings: Box<[Box<str>]>,
    table: Box<[u64]>,
}

impl FrozenInterner {
    /// Look up a symbol minted during the build phase.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Symbol for `s` if it was interned before the freeze.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        lookup(&self.table, &self.strings, s)
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Exclusive upper bound on every symbol id this interner can resolve;
    /// see [`Interner::symbol_bound`].
    #[inline]
    pub fn symbol_bound(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Re-enter the build phase (e.g. to load an additional rule set),
    /// preserving every existing symbol.
    pub fn thaw(self) -> Interner {
        Interner {
            strings: self.strings.into_vec(),
            table: self.table.into_vec(),
        }
    }
}

impl Resolve for Interner {
    #[inline]
    fn resolve(&self, sym: Symbol) -> &str {
        Interner::resolve(self, sym)
    }
}

impl Resolve for FrozenInterner {
    #[inline]
    fn resolve(&self, sym: Symbol) -> &str {
        FrozenInterner::resolve(self, sym)
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

    #[test]
    fn freeze_preserves_symbols_and_thaw_round_trips() {
        let mut it = Interner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        let frozen = it.freeze();
        assert_eq!(frozen.resolve(a), "alpha");
        assert_eq!(frozen.resolve(b), "beta");
        assert_eq!(frozen.get("beta"), Some(b));
        assert_eq!(frozen.get("gamma"), None);
        assert_eq!(frozen.len(), 2);

        let mut thawed = frozen.thaw();
        assert_eq!(thawed.intern("alpha"), a, "thaw must keep old symbols");
        let c = thawed.intern("gamma");
        assert_ne!(c, a);
        assert_eq!(thawed.resolve(c), "gamma");
    }

    #[test]
    fn frozen_interner_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenInterner>();
    }

    #[test]
    fn empty_interner_get_is_none() {
        let it = Interner::new();
        assert_eq!(it.get("anything"), None);
        assert!(it.freeze().is_empty());
    }
}
