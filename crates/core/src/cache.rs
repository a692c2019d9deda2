//! Sharded rewrite-result cache: serve repeated queries at memcpy speed.
//!
//! The rewriting model is deterministic per (query text, rule set): over a
//! given [`crate::align::AlignmentStore`], the same request text always
//! yields the same rewritten text. Real linked-data endpoints see heavily
//! skewed, repeated query workloads, so a serve path that re-runs the full
//! ~µs parse → rewrite → render pipeline for a text it rendered a
//! microsecond ago is leaving an order of magnitude on the table. This
//! module provides the two pieces that close that gap:
//!
//! 1. [`fingerprint_query`] — a **token-level canonicalizer driven by the
//!    parser's tokenizer** that maps every textual spelling of one logical
//!    query to one 64-bit fingerprint (plus a canonical-length tag) without
//!    allocating: whitespace/comments collapse to single separators,
//!    keywords case-normalize, `$x` normalizes to `?x`, language tags
//!    lowercase, and QNames resolve against the query's own PREFIX table to
//!    their full-IRI spelling (the prologue itself contributes nothing, so
//!    alias renames and unused declarations don't split the cache entry).
//!    A probe therefore costs tokenize + hash + memcpy instead of
//!    parse + rewrite + render.
//! 2. [`RewriteCache`] — a sharded, **read-lock-free** map from fingerprint
//!    to rendered rewrite: N power-of-two shards, each a fixed-capacity
//!    open-addressed table of seqlock-versioned slots over a flat
//!    pre-allocated value pool. Readers never block and never allocate;
//!    writers (cache fills) serialize behind a short per-shard spinlock.
//!    Eviction is CLOCK-style second chance over the probe neighborhood.
//!
//! # Conservative canonicalization
//!
//! The canonical key must never map two queries with *different* rewrites
//! to one fingerprint. It is one more consumer of `parser::Tokenizer`, the
//! lexer the parser itself reads (see `parser::canonicalize`), and it only
//! applies transformations the parser makes semantically invisible.
//! Spellings it cannot prove equivalent simply fingerprint differently — a
//! harmless missed hit. Text the tokenizer or the prologue reader rejects,
//! or whose QNames do not resolve (text the parser rejects too), returns
//! `None` and the caller serves cold without touching the cache.
//!
//! # Invalidation contract
//!
//! Entries are stamped with a **generation** — by convention the owning
//! store's [`crate::align::AlignmentStore::revision`]. Every `add_*`
//! bumps the revision, so all entries cached under the old rule set lazily
//! miss (and become preferred eviction victims). No eager scan, no epoch
//! machinery: correctness is a single integer compare per probe.
//!
//! # Memory model
//!
//! The value pool is a flat array of `AtomicU64` words, so concurrent
//! read/overwrite is a *defined* race: a reader that overlaps a writer sees
//! torn words, fails the seqlock version check, and treats the probe as a
//! miss. No `unsafe` anywhere — "memcpy speed" here is a relaxed-atomic
//! word copy, which compiles to the same wide loads/stores.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use crate::parser::canonicalize;

/// Canonical identity of one query text: a 64-bit hash of the normalized
/// byte stream plus the stream's length as a cheap secondary discriminator
/// (two queries must collide on both to alias).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct QueryFingerprint {
    /// Hash of the normalized byte stream; never 0 (0 is the vacant-slot
    /// sentinel, real hashes are remapped).
    hash: u64,
    /// Length of the normalized byte stream.
    norm_len: u32,
}

impl QueryFingerprint {
    /// Construct from raw parts. Exposed for tests and for callers that
    /// key the cache by something other than SPARQL text; `hash == 0` is
    /// remapped to 1 (0 is the vacant-slot sentinel).
    pub fn from_parts(hash: u64, norm_len: u32) -> QueryFingerprint {
        QueryFingerprint {
            hash: if hash == 0 { 1 } else { hash },
            norm_len,
        }
    }
}

/// Streaming 64-bit hash over the normalized byte stream.
///
/// Bytes accumulate in a small stack buffer and are digested 8 at a time
/// (Fx-style rotate-xor-multiply over little-endian words), so the digest
/// depends only on the byte *stream*, never on how the canonicalizer chunks
/// its `push_bytes` calls — a QName expanded as three slices (`<`, base,
/// local) hashes identically to the same IRI fed as one slice. Buffering
/// instead of packing a word incrementally keeps the per-byte hot path at
/// one store + one increment; the mix loop runs on whole cache-resident
/// words when the buffer drains. The federation planner keys its partition
/// cache with one too, so every text-keyed cache key in the crate is seeded.
pub(crate) struct Fingerprinter {
    hash: u64,
    buf: [u8; Self::BUF],
    buf_len: usize,
    len: u32,
}

/// Per-process random fingerprint seed. Query text is attacker-controlled
/// at a public endpoint and the digest function is public, so an *unseeded*
/// hash would let an adversary precompute two distinct queries with one
/// fingerprint offline and poison the cache (query A served query B's
/// rewrite). Folding OS entropy into the initial state (via `RandomState`,
/// the same source `HashMap` uses for its DoS resistance) makes the
/// colliding pair depend on a value the attacker never sees. Fingerprints
/// are therefore stable within a process — all a cache key needs — but
/// deliberately differ across processes.
fn process_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(0x5eed);
        h.finish()
    })
}

impl Fingerprinter {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const K: u64 = 0x517c_c1b7_2722_0a95;
    /// Multiple of 8 so a full drain leaves no remainder.
    const BUF: usize = 256;

    pub(crate) fn new() -> Fingerprinter {
        Fingerprinter {
            hash: Self::SEED ^ process_seed(),
            buf: [0; Self::BUF],
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }

    /// Digest every complete 8-byte word in the buffer; the 0–7 byte tail
    /// moves to the front and stays pending (stream chunking must not
    /// influence word boundaries).
    fn drain(&mut self) {
        let words = self.buf_len / 8;
        for i in 0..words {
            let w = u64::from_le_bytes(self.buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            self.mix(w);
        }
        let rem = self.buf_len % 8;
        self.buf.copy_within(words * 8..self.buf_len, 0);
        self.buf_len = rem;
    }

    #[inline]
    pub(crate) fn push_bytes(&mut self, s: &[u8]) {
        let mut s = s;
        while !s.is_empty() {
            let room = Self::BUF - self.buf_len;
            if room == 0 {
                self.drain();
                continue;
            }
            let take = room.min(s.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&s[..take]);
            self.buf_len += take;
            self.len = self.len.wrapping_add(take as u32);
            s = &s[take..];
        }
    }

    pub(crate) fn finish(mut self) -> QueryFingerprint {
        self.drain();
        if self.buf_len > 0 {
            // Pack the 1–7 byte tail, tagged with its length so trailing
            // NULs in the stream can't alias an empty tail.
            let mut w = (self.buf_len as u64) << 56;
            for (i, &b) in self.buf[..self.buf_len].iter().enumerate() {
                w |= (b as u64) << (8 * i);
            }
            self.mix(w);
        }
        let len = self.len;
        self.mix(len as u64);
        // Fold high-bit entropy down (Fx's multiply drives it upward) so
        // both the shard selector and the slot index see mixed bits.
        let h = self.hash;
        QueryFingerprint::from_parts(h ^ (h >> 32), len)
    }
}

/// Canonicalize and fingerprint one query text in a single tokenizer
/// pass, without allocating (up to 8 PREFIX declarations; more spill a
/// scratch vector). Its per-call cost is the benchmark's
/// `cache.fingerprint_canon_ns` layer.
///
/// Returns `None` exactly when the text does not tokenize, has a malformed
/// PREFIX prologue, or has a QName (datatypes included) that does not
/// resolve against it — texts the parser rejects, so every text [`crate::parser::parse_query`] accepts is
/// cacheable. The caller should serve `None` texts through the cold path
/// without touching the cache.
pub fn fingerprint_query(text: &str) -> Option<QueryFingerprint> {
    let mut fp = Fingerprinter::new();
    canonicalize(text, &mut |b| fp.push_bytes(b))?;
    Some(fp.finish())
}

/// Fingerprint the **raw** bytes of a request — no canonicalization, pure
/// word-at-a-time hashing (a few ns per 100 bytes). This is the first-level
/// cache key for byte-identical repeats, which dominate real endpoint
/// traffic (clients re-send the same string); [`fingerprint_query`] is the
/// second level that folds re-*spellings* onto one entry.
///
/// Safe to mix with canonical fingerprints in one [`RewriteCache`]: the
/// canonical stream of a query is itself a valid spelling of that query
/// (single separators, expanded IRIs, normalized keywords), so even a text
/// whose raw bytes *are* some query's canonical stream maps to the same
/// rewrite either way.
pub fn fingerprint_raw(text: &str) -> QueryFingerprint {
    let mut fp = Fingerprinter::new();
    fp.push_bytes(text.as_bytes());
    fp.finish()
}

/// Linear-probe window: an entry lives within `PROBE` slots of its home
/// index, so lookups touch a bounded neighborhood and eviction (which must
/// keep entries findable) picks victims inside the same window.
const PROBE: usize = 8;

/// Sizing knobs for [`RewriteCache`]. Shard and slot counts round up to
/// powers of two; `value_cap` rounds up to a multiple of 8 (the pool is
/// word-granular). Defaults: 8 shards × 1024 slots × 2 KiB ≈ 16 MiB of
/// value pool — thousands of distinct hot queries, far beyond the hot set
/// of a skewed endpoint workload.
#[derive(Copy, Clone, Debug)]
pub struct CacheConfig {
    pub shards: usize,
    pub slots_per_shard: usize,
    /// Maximum cacheable rendered-rewrite size in bytes; longer results are
    /// simply not cached.
    pub value_cap: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            slots_per_shard: 1024,
            value_cap: 2048,
        }
    }
}

/// Slot metadata. The value bytes live in the shard's word pool at the
/// slot's fixed offset; `version` is a seqlock (odd = write in progress)
/// that makes the fp/gen/len/value group read consistently without locks.
struct Slot {
    version: AtomicU32,
    /// CLOCK reference bit: set on hit, cleared by the eviction hand.
    refbit: AtomicU32,
    /// Fingerprint hash; 0 = never written.
    fp: AtomicU64,
    norm_len: AtomicU32,
    /// Generation (store revision) the entry was rendered under.
    gen: AtomicU64,
    /// Value length in bytes (≤ `value_cap`).
    val_len: AtomicU32,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU32::new(0),
            refbit: AtomicU32::new(0),
            fp: AtomicU64::new(0),
            norm_len: AtomicU32::new(0),
            gen: AtomicU64::new(0),
            val_len: AtomicU32::new(0),
        }
    }
}

struct Shard {
    /// Writer spinlock: fills/evictions are rare relative to hits and
    /// complete in sub-µs, so a spin (not a parking mutex) keeps the write
    /// path dependency-free and the struct `const`-free.
    lock: AtomicU32,
    /// CLOCK hand: rotating start offset within the probe window.
    hand: AtomicU32,
    slots: Box<[Slot]>,
    /// Flat value pool: `slots.len() * words_per_slot` relaxed-atomic words.
    /// Racing reads of words being overwritten are defined behavior; the
    /// seqlock version check discards torn copies.
    pool: Box<[AtomicU64]>,
    /// Inserts refused because the value exceeded `value_cap`. Oversized
    /// rewrites (UNION blowups) are the queries that would benefit most
    /// from caching, so the bypass rate is an observability signal, not
    /// noise — surfaced via [`RewriteCache::oversize_bypasses`].
    bypassed: AtomicU64,
    /// Live entries overwritten by an insert for a *different* key —
    /// capacity pressure made visible (refreshes of the same key are not
    /// evictions).
    evictions: AtomicU64,
}

/// Point-in-time observability snapshot of one shard, taken by
/// [`RewriteCache::stats`].
#[derive(Copy, Clone, Default, Debug)]
pub struct ShardCacheStats {
    /// Slots holding a written entry (never decreases: slots are
    /// overwritten, not emptied).
    pub occupancy: usize,
    /// Total slots in the shard.
    pub slots: usize,
    /// Live entries overwritten by an insert under a different key.
    pub evictions: u64,
    /// Inserts refused because the value exceeded the cache's value cap.
    pub oversize_bypasses: u64,
}

/// Aggregated cache observability: per-shard occupancy and eviction
/// counters, snapshotted without stopping traffic (counters are relaxed
/// atomics; occupancy is a racy-but-monotone scan), plus the counts the
/// cache's owner keeps.
///
/// Hit/miss counters are **probe-level** — one lookup is one hit or one
/// miss — but counting them belongs to the **caller**:
/// [`RewriteCache::lookup`] writes no counter, so a hit touches no shared
/// cache line, and [`RewriteCache::stats`] reports 0 for both. The serve
/// engine counts its probes in each worker's scratch and merges them into
/// engine-wide totals once every 64 serves, so
/// [`crate::ServeEngine::cache_stats`] lags by under 64 serves per worker.
/// The engine probes under two keys per request (raw, then canonical), so
/// its probe hit ratio is lower than its request-level hit rate — both are
/// real signals, they answer different questions.
#[derive(Clone, Default, Debug)]
pub struct CacheStats {
    /// Shards of the live cache instance.
    pub per_shard: Vec<ShardCacheStats>,
    /// Probe hits and misses counted by the owner.
    pub(crate) probe_hits: u64,
    pub(crate) probe_misses: u64,
    /// Evictions and oversize bypasses of instances the owner replaced
    /// (the engine's adaptive resizes), so the totals never go backwards.
    pub(crate) retired_evictions: u64,
    pub(crate) retired_bypasses: u64,
}

impl CacheStats {
    /// Written slots across all shards.
    pub fn occupancy(&self) -> usize {
        self.per_shard.iter().map(|s| s.occupancy).sum()
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard.iter().map(|s| s.slots).sum()
    }

    pub fn hits(&self) -> u64 {
        self.probe_hits
    }

    pub fn misses(&self) -> u64 {
        self.probe_misses
    }

    pub fn evictions(&self) -> u64 {
        self.retired_evictions + self.per_shard.iter().map(|s| s.evictions).sum::<u64>()
    }

    pub fn oversize_bypasses(&self) -> u64 {
        self.retired_bypasses
            + self
                .per_shard
                .iter()
                .map(|s| s.oversize_bypasses)
                .sum::<u64>()
    }

    /// Probe-level hit ratio in `[0, 1]`; 0.0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Sharded, read-lock-free map from [`QueryFingerprint`] to rendered
/// rewrite bytes. See the module docs for the design; the public surface
/// is just [`RewriteCache::lookup`] and [`RewriteCache::insert`].
pub struct RewriteCache {
    shards: Box<[Shard]>,
    value_cap: usize,
    words_per_slot: usize,
}

impl Default for RewriteCache {
    fn default() -> RewriteCache {
        RewriteCache::new(CacheConfig::default())
    }
}

impl RewriteCache {
    pub fn new(config: CacheConfig) -> RewriteCache {
        let n_shards = config.shards.max(1).next_power_of_two();
        let n_slots = config.slots_per_shard.max(PROBE).next_power_of_two();
        let value_cap = config.value_cap.max(8).div_ceil(8) * 8;
        let words_per_slot = value_cap / 8;
        let shards = (0..n_shards)
            .map(|_| Shard {
                lock: AtomicU32::new(0),
                hand: AtomicU32::new(0),
                slots: (0..n_slots).map(|_| Slot::new()).collect(),
                pool: (0..n_slots * words_per_slot)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                bypassed: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect();
        RewriteCache {
            shards,
            value_cap,
            words_per_slot,
        }
    }

    /// Maximum cacheable value size in bytes (config's `value_cap`, rounded
    /// up to a word multiple). Size reusable read buffers to this.
    #[inline]
    pub fn value_cap(&self) -> usize {
        self.value_cap
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shards[0].slots.len()
    }

    /// Inserts refused because the value exceeded [`RewriteCache::value_cap`]
    /// — queries that will re-render on every request. Summed across
    /// shards; monotone over the cache's lifetime.
    pub fn oversize_bypasses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.bypassed.load(Ordering::Relaxed))
            .sum()
    }

    /// Live entries overwritten under a different key, summed across
    /// shards; monotone over the cache's lifetime.
    pub(crate) fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot per-shard observability: occupancy, evictions, and
    /// oversize bypasses. Probe hits and misses read 0: the caller counts
    /// them (see [`CacheStats`]). The occupancy scan walks every slot
    /// (relaxed loads), so treat this as an operator endpoint, not a
    /// hot-path call.
    pub fn stats(&self) -> CacheStats {
        let per_shard = self
            .shards
            .iter()
            .map(|s| ShardCacheStats {
                occupancy: s
                    .slots
                    .iter()
                    .filter(|slot| slot.fp.load(Ordering::Relaxed) != 0)
                    .count(),
                slots: s.slots.len(),
                evictions: s.evictions.load(Ordering::Relaxed),
                oversize_bypasses: s.bypassed.load(Ordering::Relaxed),
            })
            .collect();
        CacheStats {
            per_shard,
            ..CacheStats::default()
        }
    }

    /// Shard for a fingerprint (high hash bits) and home slot within it
    /// (low hash bits) — distinct bit ranges so shard and slot selection
    /// stay uncorrelated.
    #[inline]
    fn place(&self, fp: QueryFingerprint) -> (&Shard, usize) {
        let shard = &self.shards[(fp.hash >> 48) as usize & (self.shards.len() - 1)];
        let slot = fp.hash as usize & (shard.slots.len() - 1);
        (shard, slot)
    }

    /// Look up `fp` under generation `gen`, copying the cached bytes into
    /// `out` (cleared first) on a hit. Lock-free and allocation-free once
    /// `out` has `value_cap` capacity; a probe that races a concurrent
    /// overwrite fails its version check and reports a miss.
    ///
    /// On `true`, `out` holds bytes some `insert` stored verbatim under the
    /// same (fingerprint, generation) — for this crate's use, the rendered
    /// rewrite `String`, so they are valid UTF-8.
    ///
    /// A probe counts nothing: its only shared write is a hit setting a
    /// clear CLOCK reference bit. Callers that want hit/miss numbers count the return
    /// value themselves, as the serve engine does (its totals lag by under
    /// 64 serves per worker; see [`CacheStats`]).
    pub fn lookup(&self, fp: QueryFingerprint, gen: u64, out: &mut Vec<u8>) -> bool {
        let (shard, home) = self.place(fp);
        let mask = shard.slots.len() - 1;
        for i in 0..PROBE {
            let idx = (home + i) & mask;
            let slot = &shard.slots[idx];
            let v1 = slot.version.load(Ordering::Acquire);
            let sfp = slot.fp.load(Ordering::Relaxed);
            if sfp == 0 {
                // Slots are never emptied once written, so a vacant slot
                // terminates the probe: nothing was ever pushed past it.
                return false;
            }
            if v1 & 1 == 1
                || sfp != fp.hash
                || slot.norm_len.load(Ordering::Relaxed) != fp.norm_len
                || slot.gen.load(Ordering::Relaxed) != gen
            {
                continue;
            }
            let len = slot.val_len.load(Ordering::Relaxed) as usize;
            if len > self.value_cap {
                continue; // torn metadata; the version check would fail anyway
            }
            // Word-granular copy-out straight into `out`'s storage:
            // resize once (no per-word capacity checks), then overwrite by
            // 8-byte chunks. The words are relaxed atomic loads, so racing
            // an overwrite is defined — torn bytes are discarded below.
            let n_words = len.div_ceil(8);
            out.clear();
            out.resize(n_words * 8, 0);
            let base = idx * self.words_per_slot;
            for (chunk, w) in out
                .chunks_exact_mut(8)
                .zip(&shard.pool[base..base + n_words])
            {
                chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            out.truncate(len);
            // Order the data loads before the validating version re-read.
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) == v1 {
                // Store only a clear bit: a hot entry's bit is nearly always
                // set, and skipping the redundant store keeps its slot's
                // cache line shared between cores instead of moving it to
                // whichever core hit last.
                if slot.refbit.load(Ordering::Relaxed) == 0 {
                    slot.refbit.store(1, Ordering::Relaxed);
                }
                return true;
            }
            // Torn copy (entry was overwritten mid-read): treat as a miss —
            // the cold path will re-render and refresh the entry.
            return false;
        }
        false
    }

    /// Insert `value` for `fp` under generation `gen`. Values longer than
    /// [`RewriteCache::value_cap`] are not cached — the bypass is counted
    /// per shard and surfaced by [`RewriteCache::oversize_bypasses`].
    /// Writers serialize per shard behind a spinlock; victim choice is:
    /// refresh the matching entry, else a never-written slot, else a
    /// stale-generation entry, else CLOCK second-chance over the probe
    /// window.
    pub fn insert(&self, fp: QueryFingerprint, gen: u64, value: &[u8]) {
        let (shard, home) = self.place(fp);
        if value.len() > self.value_cap {
            shard.bypassed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mask = shard.slots.len() - 1;
        while shard.lock.swap(1, Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        let mut victim = None;
        let mut stale = None;
        for i in 0..PROBE {
            let idx = (home + i) & mask;
            let slot = &shard.slots[idx];
            let sfp = slot.fp.load(Ordering::Relaxed);
            if sfp == 0 {
                victim = Some(idx);
                break;
            }
            if sfp == fp.hash && slot.norm_len.load(Ordering::Relaxed) == fp.norm_len {
                victim = Some(idx);
                break;
            }
            if stale.is_none() && slot.gen.load(Ordering::Relaxed) != gen {
                stale = Some(idx);
            }
        }
        let idx = victim.or(stale).unwrap_or_else(|| {
            // CLOCK second chance over the probe window: sweep from the
            // shard hand clearing reference bits; the first slot found
            // clear is the victim. Two sweeps bound the scan — after one
            // full sweep every bit is clear.
            let start = shard.hand.load(Ordering::Relaxed) as usize;
            let mut chosen = (home + (start % PROBE)) & mask;
            for k in 0..2 * PROBE {
                let idx = (home + ((start + k) % PROBE)) & mask;
                if shard.slots[idx].refbit.swap(0, Ordering::Relaxed) == 0 {
                    chosen = idx;
                    shard
                        .hand
                        .store(((start + k + 1) % PROBE) as u32, Ordering::Relaxed);
                    break;
                }
            }
            chosen
        });

        let slot = &shard.slots[idx];
        let prev_fp = slot.fp.load(Ordering::Relaxed);
        if prev_fp != 0 && prev_fp != fp.hash {
            // Overwriting a live entry for a different key: capacity (or
            // staleness) pushed something out. Same-key refreshes are not
            // evictions.
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let v = slot.version.load(Ordering::Relaxed);
        // Seqlock write: odd version first, then data, then even version.
        slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.fp.store(fp.hash, Ordering::Relaxed);
        slot.norm_len.store(fp.norm_len, Ordering::Relaxed);
        slot.gen.store(gen, Ordering::Relaxed);
        slot.val_len.store(value.len() as u32, Ordering::Relaxed);
        let base = idx * self.words_per_slot;
        let mut chunks = value.chunks_exact(8);
        let mut wi = base;
        for c in &mut chunks {
            shard.pool[wi].store(
                u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
                Ordering::Relaxed,
            );
            wi += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            shard.pool[wi].store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
        slot.version.store(v.wrapping_add(2), Ordering::Release);
        slot.refbit.store(1, Ordering::Relaxed);
        shard.lock.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(text: &str) -> QueryFingerprint {
        fingerprint_query(text).unwrap_or_else(|| panic!("uncacheable: {text:?}"))
    }

    #[test]
    fn whitespace_and_comments_collapse() {
        let a = fp("SELECT * WHERE { ?s <http://p> ?o }");
        assert_eq!(a, fp("SELECT  *\n\tWHERE  {\n  ?s <http://p> ?o\n}\n"));
        assert_eq!(a, fp("SELECT * # projection\nWHERE { ?s <http://p> ?o }"));
        assert_ne!(a, fp("SELECT * WHERE { ?s <http://q> ?o }"));
        assert_ne!(
            a,
            fp("SELECT * WHERE { ?s <http://p> ?o . ?s <http://p> ?o }")
        );
    }

    #[test]
    fn keyword_case_normalizes_but_terms_stay_case_sensitive() {
        let a = fp("SELECT * WHERE { ?s <http://p> ?o }");
        assert_eq!(a, fp("select * where { ?s <http://p> ?o }"));
        assert_eq!(a, fp("Select * Where { ?s <http://p> ?o }"));
        // Variable names and IRIs are case-sensitive.
        assert_ne!(a, fp("SELECT * WHERE { ?S <http://p> ?o }"));
        assert_ne!(a, fp("SELECT * WHERE { ?s <HTTP://p> ?o }"));
        // `true`/`false` are case-sensitive in the parser: `TRUE` is a
        // different (invalid) word and must not merge with `true`.
        assert_ne!(
            fp("SELECT * WHERE { ?s <http://p> true }"),
            fp("SELECT * WHERE { ?s <http://p> TRUE }")
        );
    }

    #[test]
    fn dollar_sigil_and_lang_tag_case_normalize() {
        assert_eq!(
            fp("SELECT ?x WHERE { ?x <http://p> ?y }"),
            fp("SELECT $x WHERE { $x <http://p> $y }")
        );
        assert_eq!(
            fp("SELECT * WHERE { ?s <http://p> \"x\"@EN-gb }"),
            fp("SELECT * WHERE { ?s <http://p> \"x\"@en-GB }")
        );
        // Literal bodies are untouched.
        assert_ne!(
            fp("SELECT * WHERE { ?s <http://p> \"X\" }"),
            fp("SELECT * WHERE { ?s <http://p> \"x\" }")
        );
    }

    #[test]
    fn prefix_aliases_resolve_to_one_fingerprint() {
        let full = fp("SELECT * WHERE { ?s <http://ex.org/ns#name> ?o }");
        // Alias spelling, renamed alias, extra unused declaration, and
        // shadowed redeclaration all canonicalize to the full-IRI stream.
        assert_eq!(
            full,
            fp("PREFIX ex: <http://ex.org/ns#> SELECT * WHERE { ?s ex:name ?o }")
        );
        assert_eq!(
            full,
            fp("PREFIX zz: <http://ex.org/ns#> SELECT * WHERE { ?s zz:name ?o }")
        );
        assert_eq!(
            full,
            fp("PREFIX a: <http://other/> PREFIX b: <http://ex.org/ns#> \
                SELECT * WHERE { ?s b:name ?o }")
        );
        assert_eq!(
            full,
            fp("PREFIX p: <http://other/> PREFIX p: <http://ex.org/ns#> \
                SELECT * WHERE { ?s p:name ?o }")
        );
        // Datatype QNames expand too.
        assert_eq!(
            fp("PREFIX x: <http://t/> SELECT * WHERE { ?s <http://p> \"3\"^^x:int }"),
            fp("SELECT * WHERE { ?s <http://p> \"3\"^^<http://t/int> }")
        );
        // Different expansion, different fingerprint.
        assert_ne!(
            full,
            fp("PREFIX ex: <http://ex.org/other#> SELECT * WHERE { ?s ex:name ?o }")
        );
    }

    #[test]
    fn datatype_qname_runs_through_every_colon_like_the_tokenizer() {
        // The tokenizer takes every name byte or ':' after `^^` as the
        // datatype, so the first text is one literal typed <http://a/b:c>
        // and the second — a literal typed a:b followed by a stray `:c` —
        // is a parse error. One fingerprint for both would serve the
        // first's cached rewrite for a query the parser rejects.
        let prologue = "PREFIX a: <http://a/> PREFIX : <http://e/> SELECT * WHERE";
        let joined = format!("{prologue} {{ ?s ?p \"x\"^^a:b:c }}");
        let split = format!("{prologue} {{ ?s ?p \"x\"^^a:b :c }}");
        assert_ne!(fingerprint_query(&joined), fingerprint_query(&split));
        // The expansion happens at the first colon, as in `intern_literal`.
        assert_eq!(
            fingerprint_query(&joined),
            fingerprint_query("SELECT * WHERE { ?s ?p \"x\"^^<http://a/b:c> }")
        );
    }

    #[test]
    fn uncacheable_texts_return_none() {
        for text in [
            "SELECT * WHERE { ?s und:eclared ?o }",
            "SELECT * WHERE { ?s <http://p> \"unterminated }",
            "SELECT * WHERE { ?s <http://p> \"x\"@ }",
            "SELECT * WHERE { ?s <http://p> ?o FILTER(?o & 1) }",
            "PREFIX broken <http://p> SELECT * WHERE { ?s ?p ?o }",
            "SELECT * WHERE { ? <http://p> ?o }",
            "SELECT * WHERE { ?s <http://p> 3abc }",
            "SELECT * WHERE { ?s <http://p> ?o } \x01",
        ] {
            assert_eq!(fingerprint_query(text), None, "cached {text:?}");
        }
    }

    #[test]
    fn operator_spellings_do_not_merge() {
        // `<` as comparison vs `<=`: distinct streams.
        assert_ne!(
            fp("SELECT * WHERE { ?s <http://p> ?o FILTER(?o < 3) }"),
            fp("SELECT * WHERE { ?s <http://p> ?o FILTER(?o <= 3) }")
        );
        // Adjacent tokens never concatenate across the separator.
        assert_ne!(
            fp("SELECT ?a ?b WHERE { ?a <http://p> ?b }"),
            fp("SELECT ?ab WHERE { ?ab <http://p> ?ab }")
        );
    }

    #[test]
    fn fingerprint_is_chunking_independent() {
        // One stream fed as many small writes vs few large ones.
        let mut a = Fingerprinter::new();
        for b in b"abcdefghijklmnopqrstuvwxyz0123456789" {
            a.push_bytes(std::slice::from_ref(b));
        }
        let mut b = Fingerprinter::new();
        b.push_bytes(b"abc");
        b.push_bytes(b"defghijklmnop");
        b.push_bytes(b"qrstuvwxyz0123456789");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn cache_round_trips_and_terminates_probes() {
        let cache = RewriteCache::new(CacheConfig {
            shards: 2,
            slots_per_shard: 16,
            value_cap: 64,
        });
        let mut buf = Vec::new();
        let k = fp("SELECT * WHERE { ?s <http://p0> ?o }");
        assert!(!cache.lookup(k, 0, &mut buf));
        cache.insert(k, 0, b"rewritten-0");
        assert!(cache.lookup(k, 0, &mut buf));
        assert_eq!(buf, b"rewritten-0");
        // Refresh in place.
        cache.insert(k, 0, b"rewritten-0b");
        assert!(cache.lookup(k, 0, &mut buf));
        assert_eq!(buf, b"rewritten-0b");
        // Oversized values are not cached — and each refusal is counted.
        assert_eq!(cache.oversize_bypasses(), 0);
        let big = fp("SELECT * WHERE { ?s <http://big> ?o }");
        cache.insert(big, 0, &[b'x'; 65]);
        assert!(!cache.lookup(big, 0, &mut buf));
        assert_eq!(cache.oversize_bypasses(), 1);
        cache.insert(big, 0, &[b'x'; 200]);
        assert_eq!(cache.oversize_bypasses(), 2);
        // A value exactly at the cap is cacheable, not a bypass.
        cache.insert(big, 0, &[b'y'; 64]);
        assert!(cache.lookup(big, 0, &mut buf));
        assert_eq!(cache.oversize_bypasses(), 2);
    }

    #[test]
    fn generation_mismatch_misses_and_recovers() {
        let cache = RewriteCache::new(CacheConfig::default());
        let k = fp("SELECT * WHERE { ?s <http://p> ?o }");
        let mut buf = Vec::new();
        cache.insert(k, 7, b"under-rev-7");
        assert!(cache.lookup(k, 7, &mut buf));
        // Rule set changed (revision bumped): stale entry must miss.
        assert!(!cache.lookup(k, 8, &mut buf));
        cache.insert(k, 8, b"under-rev-8");
        assert!(cache.lookup(k, 8, &mut buf));
        assert_eq!(buf, b"under-rev-8");
        assert!(!cache.lookup(k, 7, &mut buf));
    }

    #[test]
    fn eviction_keeps_recent_entries_findable() {
        // Tiny cache, many inserts: churn far past capacity, then verify
        // the most recent insert is always servable.
        let cache = RewriteCache::new(CacheConfig {
            shards: 1,
            slots_per_shard: 8,
            value_cap: 64,
        });
        let mut buf = Vec::new();
        for i in 0..256 {
            let text = format!("SELECT * WHERE {{ ?s <http://p{i}> ?o }}");
            let k = fp(&text);
            let val = format!("result-{i}");
            cache.insert(k, 0, val.as_bytes());
            assert!(cache.lookup(k, 0, &mut buf), "just-inserted {i} missing");
            assert_eq!(buf, val.as_bytes());
        }
    }

    #[test]
    fn stats_track_occupancy_and_evictions_but_not_probes() {
        let cache = RewriteCache::new(CacheConfig {
            shards: 1,
            slots_per_shard: 8,
            value_cap: 64,
        });
        let mut buf = Vec::new();
        let s0 = cache.stats();
        assert_eq!((s0.occupancy(), s0.capacity()), (0, 8));
        assert_eq!(s0.evictions(), 0);

        let k = fp("SELECT * WHERE { ?s <http://p0> ?o }");
        assert!(!cache.lookup(k, 0, &mut buf)); // miss
        cache.insert(k, 0, b"v0");
        assert!(cache.lookup(k, 0, &mut buf)); // hit
        let s1 = cache.stats();
        assert_eq!(s1.occupancy(), 1);
        // Probes are the caller's to count: the cache keeps no tally.
        assert_eq!((s1.hits(), s1.misses(), s1.hit_ratio()), (0, 0, 0.0));
        // Refreshing the same key is not an eviction.
        cache.insert(k, 0, b"v0b");
        assert_eq!(cache.stats().evictions(), 0);

        // Churn far past the 8-slot capacity: evictions must be counted
        // and occupancy saturates at capacity.
        for i in 0..64 {
            let text = format!("SELECT * WHERE {{ ?s <http://p{i}> ?o }}");
            cache.insert(fp(&text), 0, b"x");
        }
        let s2 = cache.stats();
        assert!(
            s2.evictions() > 0,
            "64 inserts into 8 slots evicted nothing"
        );
        assert!(s2.occupancy() <= s2.capacity());
        assert!(s2.occupancy() > 1);
        // Oversize bypasses are surfaced through the same snapshot.
        cache.insert(fp("SELECT * WHERE { ?s <http://big> ?o }"), 0, &[b'x'; 65]);
        assert_eq!(cache.stats().oversize_bypasses(), 1);
    }

    #[test]
    fn from_parts_never_produces_the_vacant_sentinel() {
        assert_eq!(QueryFingerprint::from_parts(0, 5).hash, 1);
        assert_eq!(QueryFingerprint::from_parts(3, 5).hash, 3);
    }

    /// Bases of the re-spelling corpus, written with one space between
    /// tokens so `respell` can work token by token: the three bases of
    /// `parser::tests::mutated_queries_never_panic`, then one base per
    /// lexer corner the canonical key has to read like the parser.
    const BASES: &[&str] = &[
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?x foaf:name ?n ; a foaf:Person }",
        "SELECT * WHERE { ?s <http://p> \"x\"@en-GB . OPTIONAL { ?s <http://q> 3.14 } \
         { ?a <http://b> true } UNION { ?d <http://e> \"y\"^^<http://t> } \
         FILTER ( ?s <= 3 && ! ( ?a = ?d ) ) }",
        "SELECT ?s WHERE { ?s <http://p> ?o . SERVICE <http://fed.example.org/sparql> \
         { ?o <http://q> ?r } SERVICE ?ep { ?r <http://t> ?u } }",
        "PREFIX a: <http://a/> PREFIX : <http://e/> SELECT * WHERE { ?s ?p \"x\"^^a:b:c }",
        "PREFIX : <http://e/> SELECT * WHERE { ?s ?p ?o:y ?q ?r }",
        "PREFIX : <http://e/> SELECT * WHERE { ?s ?p _:b:y ?q ?r }",
        "SELECT $x WHERE { $x a <http://e/C> ; <http://e/p> true , \"x\"@EN }",
        "PREFIX p: <http://other/> PREFIX p: <http://ex.org/ns#> \
         SELECT * WHERE { ?s p:name ?o FILTER ( ?o != p:none ) }",
    ];

    /// One random spelling of `base`: bare-word case flips (`a` and `true`
    /// included), `$`↔`?`, language-tag case, a prefix rename, QName ↔ full
    /// IRI, whitespace and comments between tokens, then, half the time,
    /// one byte overwrite, space insertion or truncation. Most results are
    /// the base query re-spelled, the rest are other queries or errors:
    /// the properties below hold for any text.
    fn respell(base: &str, rng: &mut impl FnMut() -> u64) -> String {
        fn flip(s: &str, rng: &mut impl FnMut() -> u64) -> String {
            s.chars()
                .map(|c| {
                    if rng().is_multiple_of(2) {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect()
        }
        let mut toks: Vec<String> = base.split(' ').map(String::from).collect();
        let is_decl: Vec<bool> = (0..toks.len())
            .map(|i| (1..=2).any(|d| i >= d && toks[i - d] == "PREFIX"))
            .collect();
        let names: Vec<usize> = (0..toks.len()).filter(|&i| toks[i] == "PREFIX").collect();
        if !names.is_empty() && rng().is_multiple_of(4) {
            let old = toks[names[rng() as usize % names.len()] + 1].clone();
            let new = format!("r{}:", rng() % 100);
            for (i, t) in toks.iter_mut().enumerate() {
                let qname = t.starts_with(|c: char| c.is_ascii_alphabetic() || c == ':');
                if (is_decl[i] || qname) && t.starts_with(&old) {
                    *t = t.replacen(&old, &new, 1);
                } else if t.contains(&format!("^^{old}")) {
                    *t = t.replacen(&format!("^^{old}"), &format!("^^{new}"), 1);
                }
            }
        }
        let decls: Vec<(String, String)> = names
            .iter()
            .map(|&i| {
                let iri = &toks[i + 2];
                (toks[i + 1].clone(), iri[1..iri.len() - 1].to_string())
            })
            .collect();
        let expand = |qname: &str| -> Option<String> {
            let colon = qname.find(':')?;
            let (_, iri) = decls.iter().rev().find(|(n, _)| *n == qname[..=colon])?;
            Some(format!("<{iri}{}>", &qname[colon + 1..]))
        };
        let mut prologue = Vec::new();
        for i in (0..toks.len()).filter(|&i| !is_decl[i]) {
            let t = toks[i].clone();
            let first = t.as_bytes()[0];
            toks[i] = if t.bytes().all(|b| b.is_ascii_alphabetic()) {
                flip(&t, rng)
            } else if matches!(first, b'?' | b'$') && rng().is_multiple_of(2) {
                format!("{}{}", if first == b'?' { '$' } else { '?' }, &t[1..])
            } else if let Some(at) = t.find("\"@") {
                format!("{}{}", &t[..at + 2], flip(&t[at + 2..], rng))
            } else if let Some(dt) = t.find("\"^^").filter(|&d| !t[d + 3..].starts_with('<')) {
                match expand(&t[dt + 3..]) {
                    Some(iri) if rng().is_multiple_of(2) => format!("{}{iri}", &t[..dt + 3]),
                    _ => t,
                }
            } else if (first.is_ascii_alphabetic() || first == b':') && rng().is_multiple_of(2) {
                expand(&t).unwrap_or(t)
            } else if first == b'<' && t.ends_with('>') && rng().is_multiple_of(3) {
                let body = &t[1..t.len() - 1];
                match body.rfind(['/', '#']) {
                    Some(cut) if body[cut + 1..].bytes().all(|b| b.is_ascii_alphanumeric()) => {
                        let name = format!("z{}", prologue.len());
                        prologue.push(format!("PREFIX {name}: <{}>", &body[..=cut]));
                        format!("{name}:{}", &body[cut + 1..])
                    }
                    _ => t,
                }
            } else {
                t
            };
        }
        const SEPS: &[&str] = &[" ", " ", "  ", "\n", "\t", " # note\n", "\n# {x}\n  ", ""];
        let mut text = String::new();
        for t in prologue.iter().chain(&toks) {
            text.push_str(t);
            text.push_str(SEPS[rng() as usize % SEPS.len()]);
        }
        let mut bytes = text.into_bytes();
        let at = rng() as usize % (bytes.len() + 1);
        match rng() % 6 {
            0 if at < bytes.len() => bytes[at] = 0x20 + (rng() % 0x5f) as u8,
            1 => bytes.insert(at, b' '),
            2 => bytes.truncate(at),
            _ => {}
        }
        String::from_utf8(bytes).expect("ASCII perturbations stay UTF-8")
    }

    /// Each base, every one-space insertion into it (so token splits such
    /// as `a:b :c` are always present) and 600 seeded respellings.
    fn corpus() -> Vec<String> {
        // xorshift64*, as in the parser fuzz, so the corpus is seed-stable.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut out = Vec::new();
        for base in BASES {
            out.push(base.to_string());
            out.extend((0..=base.len()).map(|p| format!("{} {}", &base[..p], &base[p..])));
            out.extend((0..600).map(|_| respell(base, &mut rng)));
        }
        out
    }

    #[test]
    fn texts_sharing_a_fingerprint_parse_alike() {
        let corpus = corpus();
        let mut groups: std::collections::HashMap<(u64, u32), Vec<&str>> = Default::default();
        for t in &corpus {
            if let Some(fp) = fingerprint_query(t) {
                groups.entry((fp.hash, fp.norm_len)).or_default().push(t);
            }
        }
        let mut it = crate::interner::Interner::new();
        let mut shared = 0;
        for texts in groups.values() {
            let first = crate::parser::parse_query(texts[0], &mut it).ok();
            for t in &texts[1..] {
                assert_eq!(
                    crate::parser::parse_query(t, &mut it).ok(),
                    first,
                    "{:?} and {t:?} share a fingerprint but parse differently",
                    texts[0]
                );
                shared += 1;
            }
        }
        assert!(shared > 1000, "only {shared} texts shared a key");
    }

    #[test]
    fn every_parseable_text_is_cacheable() {
        let mut it = crate::interner::Interner::new();
        let motivation = [
            "PREFIX : <http://e/> SELECT * WHERE { ?s ?p ?o:y ?q ?r }",
            "PREFIX : <http://e/> SELECT * WHERE { ?s ?p _:b:y ?q ?r }",
        ];
        for t in motivation {
            assert!(crate::parser::parse_query(t, &mut it).is_ok(), "{t:?}");
        }
        for t in corpus().iter().map(String::as_str).chain(motivation) {
            if crate::parser::parse_query(t, &mut it).is_ok() {
                assert!(
                    fingerprint_query(t).is_some(),
                    "{t:?} parses but is uncacheable"
                );
            }
        }
    }

    #[test]
    fn canonical_bytes_spell_the_same_query_under_the_same_key() {
        // `fingerprint_raw` keys live beside canonical keys in one cache:
        // that is sound because the canonical stream is itself a spelling
        // of the query it was built from.
        let mut it = crate::interner::Interner::new();
        for t in corpus() {
            let Ok(query) = crate::parser::parse_query(&t, &mut it) else {
                continue;
            };
            let mut canon = Vec::new();
            canonicalize(&t, &mut |b| canon.extend_from_slice(b)).expect("parseable");
            let canon = String::from_utf8(canon).expect("canonical bytes are UTF-8");
            assert_eq!(
                crate::parser::parse_query(&canon, &mut it).ok(),
                Some(query),
                "{t:?} canonicalizes to {canon:?}"
            );
            assert_eq!(
                Some(fingerprint_raw(&canon)),
                fingerprint_query(&t),
                "{t:?}"
            );
        }
    }
}
