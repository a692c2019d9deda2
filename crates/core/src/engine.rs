//! End-to-end serve engine: the full **parse → rewrite → render** request
//! pipeline over one shared, read-only rule set, fronted by the sharded
//! rewrite-result cache.
//!
//! This is the request-path shape the ROADMAP's north star asks for —
//! "queries/sec served" as a first-class number, not just rewrite
//! throughput. Per request the engine:
//!
//! 0. canonicalizes the request text into a [`QueryFingerprint`]
//!    (one tokenizer pass) and probes the shared [`RewriteCache`] — a hit
//!    copies the previously rendered rewrite straight into the output
//!    buffer and skips the pipeline entirely,
//! 1. parses SPARQL text into a caller-owned [`ParseScratch`]
//!    (worker-local interner — known strings resolve to their shared
//!    symbols, novel strings get worker-private ids that can never alias a
//!    rule symbol),
//! 2. rewrites the borrowed parse via [`Rewriter::rewrite_ref_into`]
//!    against the shared dense-indexed [`AlignmentStore`],
//! 3. renders the rewritten query into a reusable output `String` and
//!    fills the cache entry (stamped with the store's revision, so an
//!    engine rebuilt over a changed rule set misses every old entry).
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
//! memory**: the worker reads the cache instance it pinned in its scratch
//! (one acquire-load confirms no resize was published since), and the
//! hit/miss and controller counts accumulate in the scratch, merging into
//! the engine's totals once every 64 serves. The only shared write on a
//! hit is setting the slot's CLOCK reference bit, and only when the
//! eviction hand has cleared it.
//!
//! [`QueryFingerprint`]: crate::cache::QueryFingerprint

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::snapshot::{Pin, Snapshot};
use crate::{
    fingerprint_query, fingerprint_raw, parse_query_into, render_query_into, AlignmentStore,
    CacheConfig, CacheStats, IndexedRewriter, Interner, ParseError, ParseScratch, QueryFingerprint,
    QueryRef, RewriteCache, RewriteScratch, Rewriter,
};

/// Shared, read-only serve state: the dense-indexed rule set, the
/// build-phase interner workers clone from, and (unless disabled) the
/// shared rewrite-result cache.
pub struct ServeEngine {
    rewriter: IndexedRewriter<Arc<AlignmentStore>>,
    /// Build-phase interner. Each worker clones it, sharing its strings,
    /// so parsing can intern novel strings into the clone's private overlay
    /// without locks while every pre-existing symbol stays identical to
    /// the rule set's.
    base_interner: Interner,
    /// Rewrite-result cache behind its adaptive-cap controller; `None`
    /// when constructed cache-less (the cold-path reference in tests).
    cache: Option<AdaptiveCache>,
    /// Rule-set revision the engine was built at — the generation tag for
    /// every cache entry. The store behind the `Arc` is immutable here, so
    /// one snapshot is exact; an engine rebuilt after `add_*` gets the new
    /// revision and every old entry lazily misses.
    revision: u64,
}

/// Per-worker reusable state for [`ServeEngine::serve`]. All steady-state
/// buffers and all per-serve counting live here; the engine's shared
/// totals are written once every 64 serves.
pub struct ServeScratch {
    interner: Interner,
    parse: ParseScratch,
    rewrite: RewriteScratch,
    fresh_base: String,
    out: String,
    /// Cache copy-out buffer (bytes are validated UTF-8 before use).
    hit_buf: Vec<u8>,
    /// The cache instance this worker serves from, re-pinned only after
    /// the controller publishes a resized one.
    cache: Pin<RewriteCache>,
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

    /// Probe `cache` into the copy-out buffer, counting the probe.
    fn probe(&mut self, cache: &RewriteCache, fp: QueryFingerprint, gen: u64) -> bool {
        let hit = cache.lookup(fp, gen, &mut self.hit_buf);
        if hit {
            self.pending.probe_hits += 1;
        } else {
            self.pending.probe_misses += 1;
        }
        hit
    }
}

/// A worker's share of the controller and probe counts since its last
/// flush into [`Totals`].
#[derive(Default)]
struct PendingCounts {
    serves: u64,
    window_max_len: usize,
    probe_hits: u64,
    probe_misses: u64,
}

/// Serves per adaptation window: the cap controller looks at the live
/// oversize-bypass rate once every this many served requests.
const ADAPT_WINDOW: u64 = 1024;
/// Serves a worker counts in its scratch before merging them into the
/// engine's totals. Dividing [`ADAPT_WINDOW`] makes the global serve count
/// land exactly on every window boundary.
const FLUSH: u64 = 64;
const _: () = assert!(ADAPT_WINDOW.is_multiple_of(FLUSH));
/// Absolute value-cap ceiling, matching the tuned-cache construction clamp.
const ADAPT_MAX_CAP: usize = 1 << 20;
/// Grow the cap when more than this percentage of a window's serves
/// bypassed the cache for being oversized.
const GROW_BYPASS_PCT: u64 = 5;
/// Shrink only when at most this percentage bypassed — the `(1%, 5%)`
/// band between the two thresholds is the hysteresis dead zone where the
/// cap holds.
const SHRINK_BYPASS_PCT: u64 = 1;

/// The rewrite cache behind a runtime cap controller.
///
/// [`RewriteCache`] physically sizes every shard's value pool by its cap,
/// so changing the cap means building a new cache. The live instance sits
/// in a [`Snapshot`] cell: each worker serves from the instance pinned in
/// its scratch, and a resize publishes the new instance, which a worker
/// picks up at its next request. Once per [`ADAPT_WINDOW`] serves the
/// controller compares the window's oversize-bypass count against the
/// thresholds above: a bypass-heavy window doubles the cap (halving
/// slots-per-shard so the pool byte budget stays put), a bypass-free
/// window whose largest served rewrite fits comfortably halves it back.
/// Three guards keep it from oscillating: the dead zone between the
/// thresholds, the construction cap as a hard floor, and the
/// largest-rewrite-this-window check (hits included) — a hot oversize
/// value that got cached by a grow keeps the cap up even though it no
/// longer *bypasses* anything.
struct AdaptiveCache {
    cell: Snapshot<RewriteCache>,
    /// Cap the engine was constructed with — the adaptive floor.
    base_cap: usize,
    /// Construction config; rebuilds derive their geometry from it.
    base_config: CacheConfig,
    totals: Totals,
}

/// Engine-wide counts, merged from workers' scratches every [`FLUSH`]
/// serves and updated by the controller. Aligned to its own cache lines so
/// those merges never invalidate the line every hit reads.
#[repr(align(64))]
#[derive(Default)]
struct Totals {
    serves: AtomicU64,
    /// Largest rendered rewrite served (hit or cold) this window.
    window_max_len: AtomicUsize,
    probe_hits: AtomicU64,
    probe_misses: AtomicU64,
    /// Evictions and oversize bypasses of instances replaced by a resize,
    /// added under the cell's mutex as each one is retired.
    retired_evictions: AtomicU64,
    retired_bypasses: AtomicU64,
    /// Bypass total at the last window boundary.
    last_bypasses: AtomicU64,
    grows: AtomicU64,
    shrinks: AtomicU64,
}

impl AdaptiveCache {
    fn new(config: CacheConfig) -> AdaptiveCache {
        let cache = RewriteCache::new(config);
        let base_cap = cache.value_cap();
        AdaptiveCache {
            cell: Snapshot::new(cache),
            base_cap,
            base_config: config,
            totals: Totals::default(),
        }
    }

    /// Per-serve bookkeeping, all in the worker's scratch; every
    /// [`FLUSH`]-th serve merges it into the totals.
    fn note_serve(&self, pending: &mut PendingCounts, out_len: usize) {
        pending.window_max_len = pending.window_max_len.max(out_len);
        pending.serves += 1;
        if pending.serves == FLUSH {
            self.flush(pending);
        }
    }

    /// Merge a worker's counts into the totals. The flush that brings the
    /// global serve count onto a multiple of [`ADAPT_WINDOW`] runs one
    /// controller step. Allocation-free unless that step resizes.
    fn flush(&self, pending: &mut PendingCounts) {
        let t = &self.totals;
        t.window_max_len
            .fetch_max(pending.window_max_len, Ordering::Relaxed);
        t.probe_hits
            .fetch_add(pending.probe_hits, Ordering::Relaxed);
        t.probe_misses
            .fetch_add(pending.probe_misses, Ordering::Relaxed);
        let serves = t.serves.fetch_add(pending.serves, Ordering::Relaxed) + pending.serves;
        *pending = PendingCounts::default();
        if serves.is_multiple_of(ADAPT_WINDOW) {
            self.adapt();
        }
    }

    /// Shard-slot count for a cap `k` doublings above the base: the pool
    /// byte budget (`slots × cap`) is held constant by trading entry count
    /// for entry size.
    fn slots_for(&self, new_cap: usize) -> usize {
        let k = (new_cap / self.base_cap).trailing_zeros();
        (self.base_config.slots_per_shard >> k).max(8)
    }

    /// One controller step, under the cell's mutex: a resize and the
    /// retirement of the old instance's counters happen as one.
    fn adapt(&self) {
        let t = &self.totals;
        self.cell.update(|cache| {
            let live_bypasses = cache.oversize_bypasses();
            let bypasses = t.retired_bypasses.load(Ordering::Relaxed) + live_bypasses;
            let cur_cap = cache.value_cap();
            let delta = bypasses.saturating_sub(t.last_bypasses.swap(bypasses, Ordering::Relaxed));
            let window_max = t.window_max_len.swap(0, Ordering::Relaxed);
            let new_cap = if delta * 100 >= GROW_BYPASS_PCT * ADAPT_WINDOW {
                // Refuse to grow past the absolute ceiling or past the point
                // where the constant byte budget leaves too few slots to probe.
                if cur_cap.saturating_mul(2) > ADAPT_MAX_CAP || self.slots_for(cur_cap) <= 8 {
                    return None;
                }
                t.grows.fetch_add(1, Ordering::Relaxed);
                cur_cap * 2
            } else if delta * 100 <= SHRINK_BYPASS_PCT * ADAPT_WINDOW
                && cur_cap > self.base_cap
                && window_max.saturating_mul(2) <= cur_cap
            {
                t.shrinks.fetch_add(1, Ordering::Relaxed);
                (cur_cap / 2).max(self.base_cap)
            } else {
                return None;
            };
            t.retired_bypasses
                .fetch_add(live_bypasses, Ordering::Relaxed);
            t.retired_evictions
                .fetch_add(cache.evictions(), Ordering::Relaxed);
            Some(RewriteCache::new(CacheConfig {
                slots_per_shard: self.slots_for(new_cap),
                value_cap: new_cap,
                ..self.base_config
            }))
        });
    }

    /// The live instance's stats plus the engine's totals, read under the
    /// cell's mutex so a concurrent resize is counted exactly once.
    fn stats(&self) -> CacheStats {
        let t = &self.totals;
        self.cell.read(|cache| CacheStats {
            probe_hits: t.probe_hits.load(Ordering::Relaxed),
            probe_misses: t.probe_misses.load(Ordering::Relaxed),
            retired_evictions: t.retired_evictions.load(Ordering::Relaxed),
            retired_bypasses: t.retired_bypasses.load(Ordering::Relaxed),
            ..cache.stats()
        })
    }
}

impl ServeEngine {
    /// Share `store` read-only and keep the interner for worker clones.
    /// `cache` sizes the rewrite-result cache
    /// (`Some(CacheConfig::default())` for the production shape), or
    /// `None` serves every request through the cold pipeline — the
    /// reference the cached path is compared against in tests.
    pub fn with_cache(
        store: AlignmentStore,
        interner: Interner,
        cache: Option<CacheConfig>,
    ) -> ServeEngine {
        let revision = store.revision();
        ServeEngine {
            rewriter: IndexedRewriter::new(Arc::new(store)),
            base_interner: interner,
            cache: cache.map(AdaptiveCache::new),
            revision,
        }
    }

    /// Like [`ServeEngine::with_cache`], but the cache's value cap is
    /// **tuned from the workload** instead of taken from `config`: the
    /// engine first serves `samples` through the cold pipeline, measures
    /// the largest rendered rewrite, and installs the cache with that
    /// length (clamped to `[64, 1 MiB]`) as the cap. A cap sized to the
    /// workload means no live query is silently bypassed for being
    /// oversized, while a pathological one-off can't make every shard's
    /// value pool pay for it.
    ///
    /// Samples that fail to parse are skipped; if none parses, the cap
    /// falls back to `config.value_cap` unchanged.
    pub fn with_tuned_cache(
        store: AlignmentStore,
        interner: Interner,
        mut config: CacheConfig,
        samples: &[String],
    ) -> ServeEngine {
        let mut engine = ServeEngine::with_cache(store, interner, None);
        let mut scratch = engine.scratch();
        let mut max_len = 0usize;
        for sample in samples {
            if let Ok(out) = engine.serve(sample, &mut scratch) {
                max_len = max_len.max(out.len());
            }
        }
        if max_len > 0 {
            config.value_cap = max_len.clamp(64, 1 << 20);
        }
        engine.cache = Some(AdaptiveCache::new(config));
        engine
    }

    /// Cache observability snapshot (per-shard occupancy and evictions of
    /// the live instance, probe hits and misses, oversize bypasses);
    /// `None` when the engine is cache-less. Every counter is monotone
    /// across adaptive resizes. Probe counts lag by under 64 serves per
    /// worker — see [`CacheStats`] for the probe-level semantics. Counter
    /// scan, not hot path.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(AdaptiveCache::stats)
    }

    /// The installed cache's **current** value-size cap in bytes (`None`
    /// cache-less). Under [`ServeEngine::with_tuned_cache`] it starts at
    /// the measured workload maximum, not the config default — and either
    /// construction is only the starting point: the cap adapts at runtime
    /// to the live oversize-bypass rate (see [`ServeEngine::cache_resizes`]).
    pub fn cache_value_cap(&self) -> Option<usize> {
        self.cache
            .as_ref()
            .map(|ac| ac.cell.read(RewriteCache::value_cap))
    }

    /// How often the adaptive cap controller resized the cache at runtime:
    /// `(grows, shrinks)`. `(0, 0)` for a cache-less engine or a workload
    /// whose rewrites fit the constructed cap (the controller's hysteresis
    /// band holds the cap still on such streams).
    pub fn cache_resizes(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), |ac| {
            (
                ac.totals.grows.load(Ordering::Relaxed),
                ac.totals.shrinks.load(Ordering::Relaxed),
            )
        })
    }

    /// The dense-indexed rewriter — ground-truth access for equivalence
    /// tests and offline (non-serve-path) rewriting.
    pub fn rewriter(&self) -> &IndexedRewriter<Arc<AlignmentStore>> {
        &self.rewriter
    }

    /// The build-phase interner workers clone from.
    pub fn base_interner(&self) -> &Interner {
        &self.base_interner
    }

    /// A fresh worker scratch. Its interner clone shares the engine's
    /// strings (an `Arc` bump, no copy of the vocabulary); after it, the
    /// worker shares nothing mutable.
    pub fn scratch(&self) -> ServeScratch {
        let cache = self.cache.as_ref().map(|ac| ac.cell.load());
        ServeScratch {
            interner: self.base_interner.clone(),
            parse: ParseScratch::new(),
            rewrite: RewriteScratch::new(),
            fresh_base: String::new(),
            out: String::new(),
            hit_buf: Vec::with_capacity(cache.as_ref().map_or(0, |(_, c)| c.value_cap())),
            cache,
            pending: PendingCounts::default(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Serve one request. With the cache enabled, a repeated (or
    /// equivalently re-spelled) query is answered by fingerprint + probe +
    /// copy; otherwise the full parse → rewrite → render pipeline runs and
    /// the result backfills the cache. Returns the rewritten query text,
    /// borrowed from the scratch's output buffer. Zero heap allocations
    /// once the scratch (and its interner) are warm for the request's
    /// vocabulary — hit or miss.
    ///
    /// Two-level keying: the **raw-byte** fingerprint (word-speed hash, a
    /// few ns) catches byte-identical repeats — the dominant case, clients
    /// re-send the same string — and only on a raw miss does the
    /// **canonical** fingerprint (one tokenizer pass; the benchmark's
    /// `cache.fingerprint_canon_ns` layer) run to catch whitespace /
    /// keyword-case / PREFIX-alias re-spellings. A canonical hit promotes the raw
    /// spelling to its own entry so the next identical request takes the
    /// fast level.
    pub fn serve<'s>(
        &self,
        request: &str,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s str, ParseError> {
        let Some(ac) = &self.cache else {
            self.serve_cold(request, scratch)?;
            return Ok(&scratch.out);
        };
        // Moved out for the serve so the pinned instance and the rest of
        // the scratch can be borrowed separately; moving an `Arc` touches
        // no reference count.
        let mut pinned = scratch.cache.take();
        let served = self.serve_via(ac.cell.pin(&mut pinned), request, scratch);
        scratch.cache = pinned;
        served?;
        ac.note_serve(&mut scratch.pending, scratch.out.len());
        Ok(&scratch.out)
    }

    /// The cached serve path against one pinned cache instance.
    fn serve_via(
        &self,
        cache: &RewriteCache,
        request: &str,
        scratch: &mut ServeScratch,
    ) -> Result<(), ParseError> {
        let raw_fp = fingerprint_raw(request);
        if self.finish_hit(scratch.probe(cache, raw_fp, self.revision), scratch) {
            return Ok(());
        }
        let canon_fp = fingerprint_query(request);
        if let Some(fp) = canon_fp {
            if self.finish_hit(scratch.probe(cache, fp, self.revision), scratch) {
                // Promote this exact spelling: next time it hits on the
                // raw level without paying for canonicalization.
                cache.insert(raw_fp, self.revision, scratch.out.as_bytes());
                return Ok(());
            }
        }
        self.serve_cold(request, scratch)?;
        // Counted only after a successful cold serve: a rejected request
        // was never served, so it is neither a hit nor a miss.
        scratch.cache_misses += 1;
        // Fill under the canonical key (shared by every re-spelling) and
        // the raw key (this spelling's fast level) — one entry when the
        // request is already in canonical spelling and the keys coincide.
        // Every text the parser accepts canonicalizes, so `canon_fp` is
        // `Some` here; should that ever break, the request is not cached.
        if let Some(fp) = canon_fp {
            cache.insert(fp, self.revision, scratch.out.as_bytes());
            if fp != raw_fp {
                cache.insert(raw_fp, self.revision, scratch.out.as_bytes());
            }
        }
        Ok(())
    }

    /// On `hit`, validate the copied bytes and move them into the output
    /// buffer; returns whether the request is fully served. The copied
    /// bytes were rendered into a `String` by a previous cold serve and
    /// survived the seqlock validation, so UTF-8 checking is a formality —
    /// but a cheap one, and it keeps this module free of `unsafe`. Failure
    /// falls through to the cold path.
    fn finish_hit(&self, hit: bool, scratch: &mut ServeScratch) -> bool {
        if !hit {
            return false;
        }
        let ServeScratch {
            out,
            hit_buf,
            cache_hits,
            ..
        } = scratch;
        match std::str::from_utf8(hit_buf) {
            Ok(text) => {
                *cache_hits += 1;
                out.clear();
                out.push_str(text);
                true
            }
            Err(_) => false,
        }
    }

    /// The uncached pipeline: parse → rewrite → render into `scratch.out`.
    fn serve_cold(&self, request: &str, scratch: &mut ServeScratch) -> Result<(), ParseError> {
        parse_query_into(request, &mut scratch.interner, &mut scratch.parse)?;
        self.rewriter
            .rewrite_ref_into(scratch.parse.query_ref(), &mut scratch.rewrite);
        render_query_into(
            QueryRef {
                select: scratch.rewrite.select(),
                pattern: scratch.rewrite.pattern(),
            },
            &scratch.interner,
            &mut scratch.fresh_base,
            &mut scratch.out,
        );
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
    fn adaptive_engine(value_cap: usize) -> ServeEngine {
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
        ServeEngine::with_cache(
            store,
            interner,
            Some(CacheConfig {
                shards: 2,
                slots_per_shard: 256,
                value_cap,
            }),
        )
    }

    #[test]
    fn cached_rewrite_is_not_served_to_a_spelling_the_parser_rejects() {
        // `"x"^^a:b:c` is one literal typed <http://a/b:c>; `"x"^^a:b :c`
        // leaves a stray `:c` behind and does not parse. The cache key must
        // lex the datatype as the tokenizer does, or the second is answered
        // with the first's cached rewrite.
        let engine = adaptive_engine(4096);
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

    #[test]
    fn value_cap_adapts_to_bypass_rate_with_hysteresis() {
        let engine = adaptive_engine(64);
        let mut scratch = engine.scratch();
        let base_cap = engine.cache_value_cap().expect("cache installed");
        assert_eq!(base_cap, 64);

        // A query whose rewrite renders far past the 64-byte cap (each of
        // the six patterns expands to the long target IRI) and one that
        // stays comfortably under it.
        let big = "SELECT * WHERE { \
             ?a <http://src.example.org/onto/p> ?b . \
             ?c <http://src.example.org/onto/p> ?d . \
             ?e <http://src.example.org/onto/p> ?f . \
             ?g <http://src.example.org/onto/p> ?h . \
             ?i <http://src.example.org/onto/p> ?j . \
             ?k <http://src.example.org/onto/p> ?l }";
        let small = "SELECT * WHERE { ?s ?p ?o }";
        let big_len = engine.serve(big, &mut scratch).expect("parses").len();
        assert!(
            (257..=512).contains(&big_len),
            "test geometry: big rewrite must need exactly three doublings, got {big_len}"
        );

        // Phase 1 — bypass-heavy stream: every serve re-renders and the
        // insert is refused, so the controller doubles the cap at window
        // boundaries until the value fits (64 → 128 → 256 → 512).
        for _ in 0..5 * ADAPT_WINDOW {
            engine.serve(big, &mut scratch).expect("parses");
        }
        let grown_cap = engine.cache_value_cap().unwrap();
        assert!(
            grown_cap >= big_len,
            "cap never grew past the hot value: cap {grown_cap}, value {big_len}"
        );
        let (grows, shrinks) = engine.cache_resizes();
        assert!(grows >= 3, "expected three doublings, saw {grows}");
        assert_eq!(shrinks, 0, "nothing to shrink during the bypass phase");

        // The now-fitting value is served from the cache.
        scratch.reset_cache_counters();
        engine.serve(big, &mut scratch).expect("parses");
        engine.serve(big, &mut scratch).expect("parses");
        assert!(
            scratch.cache_hits() >= 1,
            "grown cache never hit the formerly-bypassed value"
        );

        // Phase 2 — hysteresis: pure hits mean a zero bypass rate, but the
        // window's largest served rewrite is the hot value itself, so the
        // cap must hold instead of shrinking back and re-evicting it (the
        // oscillation the dead zone + window-max guard exist to prevent).
        for _ in 0..2 * ADAPT_WINDOW {
            engine.serve(big, &mut scratch).expect("parses");
        }
        assert_eq!(
            engine.cache_value_cap().unwrap(),
            grown_cap,
            "cap oscillated under a hit-heavy stream of large values"
        );

        // Phase 3 — the large values stop arriving: bypass-free windows of
        // small rewrites walk the cap back down, floored at the
        // construction cap.
        for _ in 0..5 * ADAPT_WINDOW {
            engine.serve(small, &mut scratch).expect("parses");
        }
        assert_eq!(
            engine.cache_value_cap().unwrap(),
            base_cap,
            "cap did not return to the construction floor"
        );
        let (_, shrinks) = engine.cache_resizes();
        assert!(shrinks >= 3, "expected three halvings, saw {shrinks}");
    }

    #[test]
    fn cache_counters_are_monotone_across_resizes() {
        // A resize retires the live cache instance; its counters must carry
        // over instead of restarting at zero.
        let engine = adaptive_engine(64);
        let mut scratch = engine.scratch();
        let big = "SELECT * WHERE { \
             ?a <http://src.example.org/onto/p> ?b . \
             ?c <http://src.example.org/onto/p> ?d . \
             ?e <http://src.example.org/onto/p> ?f }";
        let mut last = (0, 0, 0);
        for i in 0..3 * ADAPT_WINDOW {
            engine.serve(big, &mut scratch).expect("parses");
            let stats = engine.cache_stats().expect("cache installed");
            let now = (stats.misses(), stats.oversize_bypasses(), stats.evictions());
            assert!(
                now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2,
                "(misses, bypasses, evictions) went from {last:?} to {now:?} at serve {i}"
            );
            last = now;
        }
        assert!(engine.cache_resizes().0 >= 1, "the stream never resized");
        assert!(last.1 >= ADAPT_WINDOW, "bypasses before the grow were lost");
    }
}
