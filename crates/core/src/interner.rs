//! String interner mapping term text to [`Symbol`]s, and the request term
//! table a parse writes its terms into.
//!
//! An [`Interner`] handle holds a **base** of interned strings behind an
//! `Arc`, and a request term table of its own. The base keeps its strings
//! in one arena (`bytes`, with `ends[id]` closing string `id`) and finds
//! them through an open-addressing array of symbol indices (a
//! raw-entry-style hash-of-index map), not a `HashMap<Box<str>, u32>` that
//! would duplicate every key. Hashing uses FxHash (the vendored `fxhash`
//! module) — short IRIs and QName expansions dominate the key distribution
//! and Fx beats SipHash on them by a wide margin.
//!
//! Every term site of the parser pushes the term's canonical text (QNames
//! expanded, literals canonicalised) through one call, and what happens
//! to it depends on the handle:
//!
//! * A **build** handle ([`Interner::new`]) interns the text into the base
//!   then and there, so rule loading through `parse_bgp` / `parse_query`
//!   mints base symbols in parse order and has no request term table.
//! * A **serve** handle (what [`Interner::clone`] returns) appends the text
//!   to the request term table, one entry per occurrence, and hands out a
//!   request-local symbol ([`Symbol::LOCAL`] set). Once the parse
//!   succeeds, one pass resolves the whole table and the parser swaps
//!   every term's symbol for the resolved one. The pass shares the base
//!   read-only and looks every IRI and literal entry up in it, in stages:
//!   hash every key and load its home slot; then load every candidate's
//!   `ends`, then its text; then compare, continuing the linear probe
//!   where the candidate was another string. The loads within a stage do
//!   not wait on each other, so their cache misses overlap; looked up one
//!   key after another, each key's three misses (slot, `ends`, text) queue
//!   behind the last key's. A found entry takes its base symbol, the one
//!   the rules hold. Variables and blank labels never touch the base; they
//!   and the entries the base lacks keep a request-local symbol, that of
//!   the first entry with the same text, and render from the table.
//!
//! A parse on a serve handle therefore writes no shared memory and grows
//! nothing: the base stays as the build phase left it, and the table holds
//! one request's terms, cleared by the next parse.

use std::hash::Hasher;
use std::sync::Arc;

use crate::fxhash::FxHasher;
use crate::term::{Symbol, Term, TermKind};

/// Vacant table slot. Slots pack `(hash_tag << 32) | symbol_id`; a symbol
/// id of `u32::MAX` is unreachable (the interner asserts ids < 2^28), so
/// `u64::MAX` cannot collide with a live entry.
const EMPTY: u64 = u64::MAX;

/// A request entry's resolution while the base has not (yet) been found
/// to hold its text; never a symbol.
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

/// The base: an arena plus the hash table that finds its strings.
#[derive(Default, Debug, Clone)]
struct Layer {
    arena: Arena,
    /// Open-addressing table of `(hash_tag, id)` slots (`EMPTY` = vacant),
    /// sized to a power of two. A probe compares the 32-bit hash tag first
    /// and only compares the candidate's text on a tag match, so no second
    /// copy of any key is stored and false probes never touch the arena.
    table: Vec<u64>,
}

impl Layer {
    #[inline]
    fn len(&self) -> usize {
        self.arena.len()
    }

    #[inline]
    fn text(&self, id: usize) -> &str {
        self.arena.text(id)
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
            if slot_tag_matches(slot, hash) && self.text(slot_id(slot) as usize) == s {
                return Some(slot_id(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// Append `s`, known to be absent, under the next id.
    fn push(&mut self, s: &str, hash: u64) {
        if self.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let id = self.arena.push(s).expect("interner exceeded 4 GiB of text");
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

/// Intern `s` into `base`, copying the base first if another handle
/// shares it and `s` is novel.
fn intern_into(base: &mut Arc<Layer>, s: &str) -> Symbol {
    let hash = hash_str(s);
    if let Some(id) = base.find(s, hash) {
        return Symbol(id);
    }
    let id = base.len() as u32;
    assert!(id <= Symbol::MAX, "interner exceeded 2^28 symbols");
    Arc::make_mut(base).push(s, hash);
    Symbol(id)
}

/// One IRI or literal entry's base lookup, filled in stage by stage.
#[derive(Copy, Clone, Default, Debug)]
struct Probe {
    /// The request entry looked up.
    entry: u32,
    hash: u64,
    /// The candidate's slot, and its id ([`ABSENT`] for none).
    pos: u32,
    id: u32,
    /// The candidate's text, `bytes[start..end]` of the base arena.
    start: u32,
    end: u32,
}

/// The terms of the request being parsed: one entry per term occurrence,
/// in parse order, and after the resolve pass each entry's symbol.
#[derive(Default, Debug, Clone)]
struct RequestTerms {
    arena: Arena,
    /// `resolved[i]`: entry `i`'s symbol, once the pass has run.
    resolved: Vec<u32>,
    /// The IRI and literal entries, in order: the base lookups.
    probes: Vec<Probe>,
    /// Scratch of the entries that end up request-local: `(hash of the
    /// entry's text, entry)`.
    locals: Vec<(u64, u32)>,
}

impl RequestTerms {
    fn clear(&mut self) {
        self.arena.clear();
        self.resolved.clear();
        self.probes.clear();
        self.locals.clear();
    }

    /// Look every probe up in `base`, in stages, writing each found id to
    /// `resolved`.
    fn look_up(&mut self, base: &Layer) {
        let RequestTerms {
            arena,
            resolved,
            probes,
            ..
        } = self;
        for p in probes.iter_mut() {
            p.hash = hash_str(arena.text(p.entry as usize));
        }
        if base.table.is_empty() {
            return;
        }
        let mask = base.table.len() - 1;
        // Home slots, skipping slots whose tag is another key's: those
        // share the home slot's cache line nearly always.
        for p in probes.iter_mut() {
            let mut pos = p.hash as usize & mask;
            let mut slot = base.table[pos];
            while slot != EMPTY && !slot_tag_matches(slot, p.hash) {
                pos = (pos + 1) & mask;
                slot = base.table[pos];
            }
            p.pos = pos as u32;
            p.id = if slot == EMPTY { ABSENT } else { slot_id(slot) };
        }
        let ends = &base.arena.ends;
        for p in probes.iter_mut().filter(|p| p.id != ABSENT) {
            let id = p.id as usize;
            p.start = id.checked_sub(1).map_or(0, |prev| ends[prev]);
            p.end = ends[id];
        }
        let bytes = base.arena.bytes.as_bytes();
        for p in probes.iter().filter(|p| p.id != ABSENT) {
            let key = arena.text(p.entry as usize);
            let found = if &bytes[p.start as usize..p.end as usize] == key.as_bytes() {
                Some(p.id)
            } else {
                // A 32-bit tag collision: the key may sit further along.
                base.find_from(key, p.hash, p.pos as usize + 1)
            };
            if let Some(id) = found {
                resolved[p.entry as usize] = id;
            }
        }
    }

    /// Give every entry the base lacks the local symbol of the first entry
    /// with its text, so equal texts are one term: sort those entries by
    /// `(hash, text, entry)`, which puts equal texts side by side, first
    /// occurrence first, in O(n log n) compares whatever the request's
    /// text.
    fn share_locals(&mut self) {
        let RequestTerms {
            arena,
            resolved,
            locals,
            ..
        } = self;
        locals.clear();
        locals.extend(
            (0..resolved.len() as u32)
                .filter(|&e| resolved[e as usize] == ABSENT)
                .map(|e| (hash_str(arena.text(e as usize)), e)),
        );
        let text = |e: u32| arena.text(e as usize);
        locals.sort_unstable_by(|a, b| {
            (a.0.cmp(&b.0))
                .then_with(|| text(a.1).cmp(text(b.1)))
                .then(a.1.cmp(&b.1))
        });
        let mut first = (0, ABSENT);
        for &(hash, entry) in locals.iter() {
            if first.1 == ABSENT || hash != first.0 || text(entry) != text(first.1) {
                first = (hash, entry);
            }
            resolved[entry as usize] = Symbol::LOCAL | first.1;
        }
    }
}

/// String interner handle: a shared base of interned strings plus the
/// request term table its parses write into (see the module doc).
///
/// There are two kinds of handle. [`Interner::new`] makes a **build**
/// handle, whose parses intern their terms into the base. Cloning makes a
/// **serve** handle, which shares the base through an `Arc` (no copy of
/// the vocabulary) and copies the request term table, so it resolves every
/// symbol the original does. A serve handle's parses look their IRIs and
/// literals up in the base and never write it; every other term, and
/// every term the base lacks, gets a request-local symbol
/// ([`Symbol::LOCAL`] set), which is valid until the handle's next parse
/// and can never alias a base symbol, so no rule ever matches it.
///
/// Each parse clears the table first, so a handle holds at most one
/// request's terms, however many requests it parses.
#[derive(Default, Debug)]
pub struct Interner {
    base: Arc<Layer>,
    request: RequestTerms,
    /// Whether this is a serve handle (from `clone()`).
    serve: bool,
}

impl Clone for Interner {
    /// A serve handle over the same base; see [`Interner`].
    fn clone(&self) -> Interner {
        Interner {
            base: Arc::clone(&self.base),
            request: self.request.clone(),
            serve: true,
        }
    }
}

impl Interner {
    /// An empty build handle.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s` into the base, returning its symbol. O(1) amortized;
    /// copies `s` into the arena only the first time it is seen.
    ///
    /// Build handles only: a serve handle panics in debug builds, since its
    /// first novel string would copy the whole shared vocabulary. On a
    /// build handle that has a live clone, the first novel string copies
    /// the base too, which this handle then owns alone.
    pub fn intern(&mut self, s: &str) -> Symbol {
        debug_assert!(!self.serve, "intern on a serve handle");
        intern_into(&mut self.base, s)
    }

    /// Empty the request term table, keeping its capacity. Every parse
    /// starts with it.
    pub(crate) fn clear_request(&mut self) {
        self.request.clear();
    }

    /// One occurrence of a `kind` term with canonical text `s`. A build
    /// handle interns `s` and returns the term with its base symbol. A
    /// serve handle pushes `s` onto the request term table and returns the
    /// term with its request-local symbol; the resolve pass looks IRIs and
    /// literals up in the base, while variables and blank labels never
    /// touch it. `None` once the table holds 2^28 entries or 4 GiB of
    /// text.
    #[inline]
    pub(crate) fn push(&mut self, kind: TermKind, s: &str) -> Option<Term> {
        if !self.serve {
            return Some(Term::new(kind, intern_into(&mut self.base, s)));
        }
        let req = &mut self.request;
        if req.arena.len() > Symbol::MAX as usize {
            return None;
        }
        let entry = req.arena.push(s)?;
        if matches!(kind, TermKind::Iri | TermKind::Literal) {
            req.probes.push(Probe {
                entry,
                ..Probe::default()
            });
        }
        Some(Term::new(kind, Symbol(Symbol::LOCAL | entry)))
    }

    /// The pass that ends a successful parse: resolve every entry of the
    /// request term table (see the module doc), which [`Interner::settle`]
    /// then reads. Returns whether there was anything to resolve: a build
    /// handle's table is empty, since it interned as it went.
    pub(crate) fn resolve_request(&mut self) -> bool {
        let req = &mut self.request;
        if req.arena.len() == 0 {
            return false;
        }
        req.resolved.clear();
        req.resolved.resize(req.arena.len(), ABSENT);
        req.look_up(&self.base);
        req.share_locals();
        true
    }

    /// `t` with its symbol swapped for the one the resolve pass gave it;
    /// any term whose symbol is not request-local is returned as is.
    #[inline]
    pub(crate) fn settle(&self, t: Term) -> Term {
        let sym = t.symbol();
        if !sym.is_local() {
            return t;
        }
        let entry = (sym.0 & !Symbol::LOCAL) as usize;
        Term::new(t.kind(), Symbol(self.request.resolved[entry]))
    }

    /// The text of `sym`: a base string, or for a request-local symbol the
    /// request term table's entry, valid until this handle parses again.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        if sym.is_local() {
            self.request.arena.text((sym.0 & !Symbol::LOCAL) as usize)
        } else {
            self.base.text(sym.index())
        }
    }

    /// Base symbol for `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.base.find(s, hash_str(s)).map(Symbol)
    }

    /// Number of strings in the base.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Exclusive upper bound on every base symbol id: base symbols are
    /// dense indices `0..symbol_bound()`, which is what lets
    /// [`crate::align::AlignmentStore`] dispatch rules by direct array
    /// index.
    #[inline]
    pub fn symbol_bound(&self) -> usize {
        self.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the request term table: one per term occurrence of the
    /// last parse.
    #[cfg(test)]
    pub(crate) fn request_len(&self) -> usize {
        self.request.arena.len()
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

    /// Parse `q` on `it` and return its triples.
    fn triples(q: &str, it: &mut Interner) -> Vec<crate::TriplePattern> {
        crate::parse_query(q, it).expect("parses").pattern.triples
    }

    #[test]
    fn clones_share_the_base_and_keep_request_terms_private() {
        let mut build = Interner::new();
        let rule = build.intern("http://example.org/rule");
        let mut w1 = build.clone();
        let mut w2 = build.clone();
        assert!(Arc::ptr_eq(&w1.base, &w2.base), "clones share one base");

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
        assert_eq!(w2.get("\"only in w1\""), None, "a sibling sees w1's terms");
        assert_eq!(build.get("\"only in w1\""), None);

        // The sibling mints the same symbol for its own, different string.
        let t2 = triples(
            "SELECT * WHERE { ?s <http://example.org/rule> \"only in w2\" }",
            &mut w2,
        );
        assert_eq!(t2[0].o.symbol(), novel);
        assert_eq!(w2.resolve(novel), "\"only in w2\"");
        assert_eq!(w1.resolve(novel), "\"only in w1\"");
        // A clone of a serve handle resolves what the handle does.
        assert_eq!(w1.clone().resolve(novel), "\"only in w1\"");
    }

    #[test]
    fn a_serve_parse_never_grows_the_base() {
        let mut build = Interner::new();
        build.intern("http://example.org/rule");
        let mut worker = build.clone();
        // The worker now holds the one reference to the base: it still
        // must not write to it.
        drop(build);
        let t = triples(
            "SELECT * WHERE { ?first <http://example.org/x> \"y\" }",
            &mut worker,
        );
        assert_eq!(worker.len(), 1);
        assert!(t[0].terms().iter().all(|t| t.symbol().is_local()));
        assert_eq!(worker.resolve(t[0].p.symbol()), "http://example.org/x");
        assert_eq!(worker.get("first"), None);
    }

    #[test]
    fn each_parse_clears_the_previous_request_table() {
        let mut worker = Interner::new().clone();
        let q = |i: usize| format!("SELECT ?v{i} WHERE {{ ?v{i} ?p \"{i}\" }}");
        for i in 0..1_000 {
            let t = triples(&q(i), &mut worker);
            assert_eq!(worker.request_len(), 4, "one request's terms");
            assert_eq!(worker.resolve(t[0].o.symbol()), format!("\"{i}\""));
        }
        // A failed parse also starts from an empty table.
        assert!(crate::parse_query("SELECT ?a ?b ?c WHERE {", &mut worker).is_err());
        assert_eq!(worker.request_len(), 3);
        assert!(worker.is_empty());
    }

    #[test]
    fn request_terms_resolve_like_a_base_lookup() {
        // A base big enough that its probe chains run: every IRI and
        // literal of the request must resolve to what `get` finds, every
        // other term to the first entry with its text.
        let mut build = Interner::new();
        for i in 0..20_000 {
            build.intern(&format!("http://example.org/p{i}"));
            build.intern(&format!("\"{i}\""));
        }
        let mut worker = build.clone();
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
                    build.get(text).is_none(),
                    "{text}"
                );
                if let Some(sym) = build.get(text) {
                    assert_eq!(term.symbol(), sym);
                }
            }
            assert_eq!(tp.s, t[n % 3].s, "?v{} is one term", n % 3);
        }
        assert_ne!(t[0].s, t[1].s);
        assert_eq!(worker.len(), build.len());
    }

    #[test]
    fn equal_texts_share_the_first_occurrences_symbol() {
        let mut worker = Interner::new().clone();
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
        let mut worker = Interner::new().clone();
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

    /// Two strings whose slots carry the same 32-bit tag and the same home
    /// in a 16-slot table: a staged lookup of one meets the other first.
    fn tag_twins() -> (String, String) {
        let mut seen = std::collections::HashMap::new();
        for i in 0u64.. {
            let s = format!("\"{i}\"");
            match seen.entry(hash_str(&s) & 0xffff_ffff_0000_000f) {
                std::collections::hash_map::Entry::Occupied(e) => return (e.remove(), s),
                std::collections::hash_map::Entry::Vacant(e) => e.insert(s),
            };
        }
        unreachable!()
    }

    #[test]
    fn a_tag_collision_continues_the_probe() {
        let (a, b) = tag_twins();
        let q = format!("SELECT * WHERE {{ ?s ?p {a} . ?s ?p {b} }}");
        let mut build = Interner::new();
        let sym_a = build.intern(&a);
        assert_eq!(build.base.table.len(), 16);
        let t = triples(&q, &mut build.clone());
        assert_eq!(t[0].o.symbol(), sym_a);
        assert!(t[1].o.symbol().is_local(), "{b} matched {a}'s slot");
        let sym_b = build.intern(&b);
        let t = triples(&q, &mut build.clone());
        assert_eq!((t[0].o.symbol(), t[1].o.symbol()), (sym_a, sym_b));
    }

    #[test]
    fn a_dropped_clone_hands_the_base_back() {
        let mut build = Interner::new();
        build.intern("a");
        let base = Arc::as_ptr(&build.base);
        drop(build.clone());
        let b = build.intern("b");
        assert_eq!(Arc::as_ptr(&build.base), base, "the base was copied");
        assert_eq!(build.resolve(b), "b");
        assert_eq!(build.base.len(), 2);
    }
}
