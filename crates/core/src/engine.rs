//! End-to-end serve engine: the full **parse → rewrite → render** request
//! pipeline over one shared, read-only rule set, fronted by the sharded
//! rewrite-result cache.
//!
//! This is the request-path shape the ROADMAP's north star asks for —
//! "queries/sec served" as a first-class number, not just rewrite
//! throughput. Per request the engine:
//!
//! 0. fingerprints the request's raw bytes into a [`QueryFingerprint`]
//!    and probes the shared [`RewriteCache`] once — a hit copies the
//!    previously rendered rewrite once, straight into the output string,
//!    and skips the pipeline entirely,
//! 1. parses SPARQL text into a caller-owned [`ParseScratch`], pushing
//!    every term onto the worker's [`RequestTerms`], which hashes it once
//!    and gives a repeat its first occurrence's request-local symbol, then
//!    looks the distinct IRIs and literals up in the frozen rule
//!    vocabulary (an `Arc<`[`Interner`]`>`) in one staged pass — a known
//!    one takes its shared symbol, every other term keeps a request-local
//!    one that can never alias a rule symbol, and nothing is written to
//!    the vocabulary,
//! 2. rewrites the borrowed parse with the engine's own dense-indexed
//!    [`AlignmentStore`] ([`Rewriter::rewrite_ref_into`]) — after one
//!    batch load of the dispatch records and single-rule template rows
//!    the query's triple patterns will read, so their cache misses overlap
//!    instead of stalling the walk one at a time,
//! 3. renders the rewritten query into a reusable output `String` —
//!    every byte appended with `push_str`, none through `core::fmt`; when
//!    the parse saw no variable named `g…`, without the pass that offsets
//!    fresh names past such a variable — and fills the cache entry under
//!    the same raw-byte key. The engine never changes its rule set and
//!    owns its cache, so the cache lives and dies with that rule set and
//!    no entry needs invalidating.
//!
//! Every stage writes into reusable buffers, so a warm
//! [`ServeEngine::serve`] call performs **zero heap allocations** on both
//! the hit and the cold path — `tests/alloc_free.rs` asserts that, parser
//! and cache probe included. The HTTP front end (`crates/server`) pins one
//! [`ServeScratch`] per worker thread and shares one `ServeEngine` behind
//! an `Arc`, so the same guarantee holds end to end through the socket
//! path.
//!
//! A cache hit also makes **no atomic read-modify-write on shared
//! memory**: the hit/miss counts accumulate in the worker's scratch and
//! merge into the engine's totals once every 64 probes. The only shared
//! write on a hit is setting the slot's CLOCK reference bit, and only when
//! the eviction hand has cleared it. The cache's value cap is fixed when
//! the engine is built, by its [`CacheConfig`].
//!
//! [`QueryFingerprint`]: crate::cache::QueryFingerprint

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::ONE_RULE_SET;
use crate::pattern::render_query_unshifted_into;
use crate::{
    fingerprint_raw, parse_query_into, render_query_into, AlignmentStore, CacheConfig, CacheStats,
    Interner, ParseError, ParseScratch, QueryFingerprint, QueryRef, RequestTerms, RewriteCache,
    RewriteScratch, Rewriter,
};

/// Shared, read-only serve state: the dense-indexed rule set, the rule
/// vocabulary workers parse against, and (unless disabled) the shared
/// rewrite-result cache.
pub struct ServeEngine {
    /// The rule set; it is also the rewriter.
    store: AlignmentStore,
    /// An empty [`RequestTerms`] over the rule vocabulary. Each worker
    /// clones it (an `Arc` bump), so parsing resolves to the rule set's
    /// symbols without locks and without writing them.
    base_interner: RequestTerms,
    /// Rewrite-result cache; `None` when constructed cache-less (the
    /// cold-path reference in tests).
    cache: Option<RewriteCache>,
    /// Probe counts merged from workers' scratches.
    totals: Totals,
}

/// Per-worker reusable state for [`ServeEngine::serve`]. All steady-state
/// buffers and all per-probe counting live here; the engine's shared
/// totals are written once every 64 probes.
///
/// Aligned to 128 bytes (two cache lines, the unit the adjacent-line
/// prefetcher pulls in), so two workers' scratches laid out side by side
/// never share a line: every hit writes `pending` and `cache_hits`.
#[repr(align(128))]
pub struct ServeScratch {
    /// The worker's request table over the engine's rule vocabulary: it
    /// holds one request's terms, which each parse clears.
    interner: RequestTerms,
    parse: ParseScratch,
    rewrite: RewriteScratch,
    fresh_base: String,
    /// The response: a cache hit is copied straight into it, a cold serve
    /// renders into it.
    out: String,
    /// Counts not yet merged into the engine's totals.
    pending: PendingCounts,
    /// Request-level hits and misses since construction/reset.
    cache_hits: u64,
    cache_misses: u64,
}

impl ServeScratch {
    /// Cache hits recorded by this scratch since construction/reset.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Cache misses (cold serves while caching was enabled) recorded by
    /// this scratch since construction/reset.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    pub fn reset_cache_counters(&mut self) {
        self.cache_hits = 0;
        self.cache_misses = 0;
    }

    /// Probe `cache` straight into the output buffer, counting the probe
    /// and merging the counts into `totals` every [`FLUSH`] probes;
    /// returns whether the request is served. `out`'s allocation is lent
    /// to the lookup as bytes and taken back as a `String` in place: the
    /// cached rewrite is copied once, from the cache's pool, and UTF-8
    /// validation neither copies nor reallocates. The bytes were rendered
    /// from a `String` and survived the seqlock check, so validation is a
    /// formality — a cheap one that keeps this module free of `unsafe`. On
    /// a miss (torn copies included) or invalid bytes, `out` is left empty
    /// with its capacity kept.
    fn probe(
        &mut self,
        cache: &RewriteCache,
        totals: &Totals,
        fp: QueryFingerprint,
        gen: u64,
    ) -> bool {
        let mut bytes = std::mem::take(&mut self.out).into_bytes();
        let mut hit = cache.lookup(fp, gen, &mut bytes);
        if !hit {
            bytes.clear();
        }
        self.out = String::from_utf8(bytes).unwrap_or_else(|invalid| {
            hit = false;
            let mut bytes = invalid.into_bytes();
            bytes.clear();
            String::from_utf8(bytes).unwrap_or_default()
        });
        if hit {
            self.pending.probe_hits += 1;
            self.cache_hits += 1;
        } else {
            self.pending.probe_misses += 1;
        }
        if self.pending.probe_hits + self.pending.probe_misses == FLUSH {
            totals.merge(&mut self.pending);
        }
        hit
    }
}

/// A worker's probe counts since its last merge into [`Totals`].
#[derive(Default)]
struct PendingCounts {
    probe_hits: u64,
    probe_misses: u64,
}

/// Probes a worker counts in its scratch before merging them into the
/// engine's [`Totals`].
const FLUSH: u64 = 64;

/// Engine-wide probe counts, merged from workers' scratches every
/// [`FLUSH`] probes. Aligned to its own cache line so those merges never
/// invalidate the line every hit reads.
#[repr(align(64))]
#[derive(Default)]
struct Totals {
    probe_hits: AtomicU64,
    probe_misses: AtomicU64,
}

impl Totals {
    fn merge(&self, pending: &mut PendingCounts) {
        self.probe_hits
            .fetch_add(pending.probe_hits, Ordering::Relaxed);
        self.probe_misses
            .fetch_add(pending.probe_misses, Ordering::Relaxed);
        *pending = PendingCounts::default();
    }
}

impl ServeEngine {
    /// Share `store` read-only, and `interner`, the vocabulary its rules
    /// were built with, behind an `Arc`. This is the only way to build an
    /// engine. `cache` sizes the rewrite-result cache
    /// (`Some(CacheConfig::default())` for the shape the binary ships), or
    /// `None` serves every request through the cold pipeline — the
    /// reference the cached path is compared against in tests.
    pub fn with_cache(
        store: AlignmentStore,
        interner: Interner,
        cache: Option<CacheConfig>,
    ) -> ServeEngine {
        ServeEngine {
            store,
            base_interner: RequestTerms::new(Arc::new(interner)),
            cache: cache.map(RewriteCache::new),
            totals: Totals::default(),
        }
    }

    /// Exactly [`ServeEngine::with_cache`] with `Some(config)`; `samples`
    /// is ignored. Kept only because the benchmark package still calls
    /// it; ROADMAP item 0's `[benchmark]` change drops the call.
    #[doc(hidden)]
    pub fn with_tuned_cache(
        store: AlignmentStore,
        interner: Interner,
        config: CacheConfig,
        _samples: &[String],
    ) -> ServeEngine {
        ServeEngine::with_cache(store, interner, Some(config))
    }

    /// Cache observability snapshot (occupancy and evictions, probe hits
    /// and misses, oversize bypasses); `None` when the engine is
    /// cache-less. Probe counts lag by under 64 probes per worker — see
    /// [`CacheStats`] for the probe-level semantics. Counter scan, not hot
    /// path.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|cache| CacheStats {
            probe_hits: self.totals.probe_hits.load(Ordering::Relaxed),
            probe_misses: self.totals.probe_misses.load(Ordering::Relaxed),
            ..cache.stats()
        })
    }

    /// The installed cache's value-size cap in bytes (`None` cache-less):
    /// `config.value_cap`, fixed at construction.
    pub fn cache_value_cap(&self) -> Option<usize> {
        self.cache.as_ref().map(RewriteCache::value_cap)
    }

    /// Always `(0, 0)`: the value cap is fixed at construction, so the
    /// cache is never resized. Kept only because the benchmark package
    /// still reads it; ROADMAP item 0's `[benchmark]` change drops it.
    #[doc(hidden)]
    pub fn cache_resizes(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The rule set the engine serves, which is also its rewriter —
    /// ground-truth access for equivalence tests and offline
    /// (non-serve-path) rewriting.
    pub fn rewriter(&self) -> &AlignmentStore {
        &self.store
    }

    /// The empty [`RequestTerms`] over the rule vocabulary that each
    /// worker's scratch clones.
    pub fn base_interner(&self) -> &RequestTerms {
        &self.base_interner
    }

    /// A fresh worker scratch. Its [`RequestTerms`] shares the engine's
    /// vocabulary (an `Arc` bump, no copy) and cannot write it; after it,
    /// the worker shares nothing mutable.
    pub fn scratch(&self) -> ServeScratch {
        ServeScratch {
            interner: self.base_interner.clone(),
            parse: ParseScratch::new(),
            rewrite: RewriteScratch::new(),
            fresh_base: String::new(),
            out: String::new(),
            pending: PendingCounts::default(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Serve one request. With the cache enabled, a repeated query is
    /// answered by fingerprint + probe + copy; otherwise the full parse →
    /// rewrite → render pipeline runs and the result fills the cache.
    /// Returns the rewritten query text, borrowed from the scratch's output
    /// buffer. Zero heap allocations once the scratch's buffers have grown
    /// to the request's size — hit or miss, whatever strings it holds.
    ///
    /// One key per request: the **raw-byte** fingerprint (one pass over the
    /// request bytes, four hash lanes in parallel, no staging copy; the
    /// benchmark's `cache.fingerprint_raw_ns` layer) is probed once, and a
    /// miss inserts the rendered rewrite under that same key. Clients
    /// re-send the same string, so byte-identical repeats are the hits
    /// that matter; a re-spelled query (other whitespace, keyword case,
    /// PREFIX aliases) misses once and is then cached under its own bytes.
    /// Identical bytes parse identically, so no lexer but the parser's
    /// decides what a cached answer is served for. A hit copies the cached
    /// rewrite once, from the cache's pool straight into the returned
    /// buffer.
    pub fn serve<'s>(
        &self,
        request: &str,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s str, ParseError> {
        let Some(cache) = &self.cache else {
            self.serve_cold(request, scratch)?;
            return Ok(&scratch.out);
        };
        let fp = fingerprint_raw(request);
        if scratch.probe(cache, &self.totals, fp, ONE_RULE_SET) {
            return Ok(&scratch.out);
        }
        self.serve_cold(request, scratch)?;
        // Counted only after a successful cold serve: a rejected request
        // was never served, so it is neither a hit nor a miss.
        scratch.cache_misses += 1;
        cache.insert(fp, ONE_RULE_SET, scratch.out.as_bytes());
        Ok(&scratch.out)
    }

    /// The uncached pipeline: parse → rewrite → render into `scratch.out`.
    fn serve_cold(&self, request: &str, scratch: &mut ServeScratch) -> Result<(), ParseError> {
        parse_query_into(request, &mut scratch.interner, &mut scratch.parse)?;
        self.store
            .rewrite_ref_into(scratch.parse.query_ref(), &mut scratch.rewrite);
        let query = QueryRef {
            select: scratch.rewrite.select(),
            pattern: scratch.rewrite.pattern(),
        };
        // The rewrite's variables are some of the request's: if none of
        // those is named `g…`, the fresh-name base is 0.
        if scratch.interner.has_g_names() {
            render_query_into(
                query,
                &scratch.interner,
                &mut scratch.fresh_base,
                &mut scratch.out,
            );
        } else {
            render_query_unshifted_into(query, &scratch.interner, &mut scratch.out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Term, TriplePattern};

    /// One rule mapping a short source predicate onto a long target IRI,
    /// so rewrites of source-vocabulary queries come out much bigger than
    /// they went in — easy to push past a small value cap.
    fn cached_engine(value_cap: usize) -> ServeEngine {
        long_rule_engine(Some(CacheConfig {
            shards: 2,
            slots_per_shard: 256,
            value_cap,
        }))
    }

    fn long_rule_engine(cache: Option<CacheConfig>) -> ServeEngine {
        let mut interner = Interner::new();
        let mut store = AlignmentStore::new();
        let var_s = Term::var(interner.intern("s"));
        let var_o = Term::var(interner.intern("o"));
        let src = Term::iri(interner.intern("http://src.example.org/onto/p"));
        let tgt = Term::iri(
            interner.intern("http://tgt.example.org/onto/a-deliberately-long-predicate-q"),
        );
        store
            .add_predicate(
                TriplePattern::new(var_s, src, var_o),
                vec![TriplePattern::new(var_s, tgt, var_o)],
            )
            .expect("valid rule");
        ServeEngine::with_cache(store, interner, cache)
    }

    #[test]
    fn a_hit_is_copied_into_out_and_a_miss_leaves_it_empty() {
        let engine = cached_engine(4096);
        let cold = long_rule_engine(None);
        let q = "SELECT * WHERE { ?s <http://src.example.org/onto/p> ?o }";
        let expected = cold
            .serve(q, &mut cold.scratch())
            .expect("parses")
            .to_owned();
        let mut scratch = engine.scratch();
        assert_eq!(engine.serve(q, &mut scratch).expect("parses"), expected);
        let cache = engine.cache.as_ref().expect("cache installed");

        // A miss empties `out`, keeping its allocation for the cold render.
        let cap = scratch.out.capacity();
        let absent = QueryFingerprint::from_parts(0xdead_beef, 7);
        assert!(!scratch.probe(cache, &engine.totals, absent, ONE_RULE_SET));
        assert_eq!(scratch.out, "");
        assert_eq!(scratch.out.capacity(), cap);
        // So does probing the entry under another tag.
        let raw = fingerprint_raw(q);
        assert!(!scratch.probe(cache, &engine.totals, raw, ONE_RULE_SET + 1));
        assert_eq!(scratch.out, "");

        assert!(scratch.probe(cache, &engine.totals, raw, ONE_RULE_SET));
        assert_eq!(scratch.out, expected);
        assert_eq!(scratch.cache_hits(), 1);
        assert_eq!(engine.serve(q, &mut scratch).expect("parses"), expected);
        assert_eq!(scratch.cache_hits(), 2);
    }

    #[test]
    fn one_spelling_fills_one_cache_entry() {
        // One key per request: a miss inserts once, a re-spelling of the
        // same query is a miss of its own, and a repeat only hits.
        let engine = cached_engine(4096);
        let mut scratch = engine.scratch();
        let occupancy = || engine.cache_stats().expect("cache installed").occupancy();
        let text = "SELECT * WHERE { ?s <http://src.example.org/onto/p> ?o . ?o ?q \"x\"@en }";
        let respelled =
            "select * where {\n  $s <http://src.example.org/onto/p> ?o .\n  ?o ?q \"x\"@EN\n}";

        let rendered = engine.serve(text, &mut scratch).expect("parses").to_owned();
        assert_eq!(occupancy(), 1, "a miss fills exactly one entry");
        assert_eq!((scratch.cache_hits(), scratch.cache_misses()), (0, 1));

        assert_eq!(
            engine.serve(respelled, &mut scratch).expect("parses"),
            rendered
        );
        assert_eq!(
            occupancy(),
            2,
            "a re-spelling is cached under its own bytes"
        );
        assert_eq!((scratch.cache_hits(), scratch.cache_misses()), (0, 2));

        for spelling in [text, respelled] {
            assert_eq!(
                engine.serve(spelling, &mut scratch).expect("parses"),
                rendered
            );
        }
        assert_eq!(occupancy(), 2, "a repeat adds no entry");
        assert_eq!((scratch.cache_hits(), scratch.cache_misses()), (2, 2));

        // Probe counts reach the engine in merges of 64: a request that
        // fails to parse is a probe miss but not a served miss.
        let probes = || {
            let stats = engine.cache_stats().expect("cache installed");
            (stats.hits(), stats.misses())
        };
        assert_eq!(probes(), (0, 0), "4 probes stay in the scratch");
        assert!(engine.serve("SELECT * WHERE {", &mut scratch).is_err());
        assert_eq!(scratch.cache_misses(), 2, "a rejected request is no miss");
        for _ in 5..64 {
            engine.serve(text, &mut scratch).expect("parses");
        }
        // After 64·k probes: all merged, 2 served misses + 1 rejected.
        for k in 1..=3 {
            assert_eq!(probes(), (64 * k - 3, 3), "after {} probes", 64 * k);
            for _ in 0..64 {
                engine.serve(text, &mut scratch).expect("parses");
            }
        }
        assert_eq!(scratch.cache_misses(), 2);
    }

    #[test]
    fn unique_terms_leave_the_base_as_built() {
        // Every request brings a novel literal and a novel variable: neither
        // may reach the shared strings, and the worker's table holds the
        // terms of the last request only.
        let engine = long_rule_engine(None);
        let base = engine.base_interner().len();
        let mut scratch = engine.scratch();
        for i in 0..100_000 {
            let q = format!(
                "SELECT ?s ?g{i} WHERE {{ ?s <http://src.example.org/onto/p> \"{i}\"^^<http://www.w3.org/2001/XMLSchema#integer> . ?s ?p ?g{i} }}"
            );
            let out = engine.serve(&q, &mut scratch).expect("parses").to_owned();
            let mut fresh = engine.scratch();
            let fresh = engine.serve(&q, &mut fresh).expect("parses");
            assert_eq!(
                out, fresh,
                "request {i} rendered differently on a used scratch"
            );
            assert_eq!(scratch.interner.len(), base, "request {i} grew the base");
            // One entry per distinct term: ?s, ?g{i}, the rule IRI, the
            // literal and ?p, however often each occurs.
            assert_eq!(scratch.interner.request_len(), 5, "request {i}");
        }
        assert_eq!(engine.base_interner().len(), base);
    }

    /// Rules for the no-aliasing cases: `?s src:p ?o` rewrites to `?s
    /// tgt:p ?o` only where `?o = "gold"`. Built the same way on every
    /// call, so two calls mint the same symbols.
    fn guarded_rules() -> (AlignmentStore, Interner) {
        let mut it = Interner::new();
        let mut store = AlignmentStore::new();
        let lhs = crate::parse_bgp("?s <http://src/p> ?o", &mut it)
            .unwrap()
            .patterns[0];
        let rhs = crate::parse_bgp("?s <http://tgt/p> ?o", &mut it)
            .unwrap()
            .patterns;
        let mut tmpl = crate::RuleTemplate::from_triples(rhs);
        let gold = Term::literal(it.intern("\"gold\""));
        let o = tmpl.push_expr(crate::ExprNode::Term(lhs.o));
        let g = tmpl.push_expr(crate::ExprNode::Term(gold));
        let eq = tmpl.push_expr(crate::ExprNode::Cmp(crate::CmpOp::Eq, o, g));
        tmpl.set_guard(eq);
        store.add_complex_predicate(lhs, tmpl).unwrap();
        (store, it)
    }

    #[test]
    fn request_local_terms_never_alias_rule_terms() {
        let (store, it) = guarded_rules();
        let gold = it.get("\"gold\"").expect("a rule constant");
        let engine = ServeEngine::with_cache(store, it, None);
        let mut scratch = engine.scratch();
        let mut parse = |q: &str| {
            parse_query_into(q, &mut scratch.interner, &mut scratch.parse).expect("parses");
            scratch.parse.pattern().triples.clone()
        };

        // An IRI the rules never mention, used twice, is one term, local,
        // and matches no rule.
        let t = parse("SELECT * WHERE { ?s <http://elsewhere/q> ?o . ?o <http://elsewhere/q> ?s }");
        assert_eq!(t[0].p, t[1].p);
        assert!(t[0].p.symbol().is_local());
        assert_eq!(
            (t[0].s, t[0].o),
            (t[1].o, t[1].s),
            "?s and ?o are one term each"
        );
        let rules = engine.rewriter();
        assert_eq!(rules.predicate_candidates(t[0].p), &[] as &[u32]);
        assert_eq!(rules.entity_target(t[0].p), None);
        let rendered = |q: &str| engine.serve(q, &mut engine.scratch()).unwrap().to_owned();
        assert_eq!(
            rendered("SELECT * WHERE { ?s <http://elsewhere/q> ?o . ?o <http://elsewhere/q> ?s }"),
            "SELECT * WHERE {\n  ?s <http://elsewhere/q> ?o .\n  ?o <http://elsewhere/q> ?s .\n}"
        );

        // A literal equal to the guard constant is the rules' symbol and
        // fires the guard; any other literal is local and does not.
        let t = parse("SELECT * WHERE { ?s <http://src/p> \"gold\" . ?s <http://src/p> \"lead\" }");
        assert_eq!(t[0].o, Term::literal(gold));
        assert!(t[1].o.symbol().is_local());
        assert!(
            rendered("SELECT * WHERE { ?s <http://src/p> \"gold\" }").contains("<http://tgt/p>")
        );
        assert!(
            !rendered("SELECT * WHERE { ?s <http://src/p> \"lead\" }").contains("<http://tgt/p>")
        );

        // `?s`, the name of a rule variable, rewrites exactly as it does
        // when an `Interner` interns it into the rules' own symbol.
        let q = "SELECT ?s WHERE { ?s <http://src/p> \"gold\" . ?o <http://src/p> ?s }";
        let (_, mut build) = guarded_rules();
        let reference = crate::parse_query(q, &mut build).unwrap();
        let mut rewrite = RewriteScratch::new();
        rules.rewrite_ref_into(reference.as_ref(), &mut rewrite);
        assert_eq!(rendered(q), rewrite.to_query().to_sparql(&build));
        let t = parse(q);
        assert!(t[0].s.symbol().is_local(), "a query variable stays local");
    }

    #[test]
    fn scratches_side_by_side_share_no_cache_line() {
        assert!(std::mem::align_of::<ServeScratch>() >= 128);
    }

    #[test]
    fn cached_rewrite_is_not_served_to_a_spelling_the_parser_rejects() {
        // `"x"^^a:b:c` is one literal typed <http://a/b:c>; `"x"^^a:b :c`
        // leaves a stray `:c` behind and does not parse. A key that lexed
        // the datatype differently from the tokenizer would answer the
        // second with the first's cached rewrite.
        let engine = cached_engine(4096);
        let mut scratch = engine.scratch();
        let prologue = "PREFIX a: <http://a/> PREFIX : <http://e/> SELECT * WHERE";
        let valid = format!("{prologue} {{ ?s ?p \"x\"^^a:b:c }}");
        let invalid = format!("{prologue} {{ ?s ?p \"x\"^^a:b :c }}");
        let cold = ServeEngine::with_cache(AlignmentStore::new(), Interner::new(), None);
        assert!(cold.serve(&invalid, &mut cold.scratch()).is_err());

        engine.serve(&valid, &mut scratch).expect("parses");
        engine.serve(&valid, &mut scratch).expect("parses");
        assert_eq!(scratch.cache_hits(), 1, "first spelling is cached");
        assert!(engine.serve(&invalid, &mut scratch).is_err());
    }
}
