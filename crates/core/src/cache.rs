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
//! 1. [`fingerprint_raw`] — a seeded 64-bit hash of the request's bytes
//!    (plus their length as a second tag), digested in place without
//!    allocating. It is the serve path's only key: a probe costs
//!    hash + memcpy instead of parse + rewrite + render, and a re-spelled
//!    query is a separate entry.
//! 2. [`RewriteCache`] — a sharded, **read-lock-free** map from fingerprint
//!    to rendered rewrite: N power-of-two shards, each a fixed-capacity
//!    open-addressed table of seqlock-versioned slots over a flat
//!    fixed-size value pool. Readers never block and never allocate;
//!    writers (cache fills) serialize behind a short per-shard spinlock.
//!    Eviction is CLOCK-style second chance over the probe neighborhood.
//!
//! # Invalidation contract
//!
//! A cache serves **one rule set and is dropped with it**. Its only
//! in-repo owner is the serve engine ([`crate::ServeEngine`]), which builds
//! its cache beside the one rule set it serves and never changes that rule
//! set, so no entry can outlive the rules that rendered it and nothing is
//! ever invalidated. Each entry still carries a caller's `gen` tag, which
//! [`RewriteCache::lookup`] compares; the engine holds it constant.
//!
//! # Memory model
//!
//! The value pool is a flat array of `AtomicU64` words, so concurrent
//! read/overwrite is a *defined* race: a reader that overlaps a writer sees
//! torn words, fails the seqlock version check, and treats the probe as a
//! miss. "Memcpy speed" here is a relaxed-atomic word copy, which compiles
//! to the same wide loads/stores.
//!
//! Each shard's pool is taken zeroed from the allocator, so its size is
//! reserved address space, not resident memory: a page is committed when
//! the first insert writes into it, and a cache that never fills never
//! pays for its full capacity. A never-written slot's `fp` reads 0, and a
//! lookup stops there before it reads the pool. Taking the zeroed pool is
//! the crate's one `unsafe` block (`zeroed_pool`, with its safety
//! argument); every access after it is a safe atomic load or store.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use crate::parser::canonicalize;

/// Cache key of one query text: a seeded 64-bit hash of its byte stream
/// plus the stream's length as a cheap secondary discriminator (two texts
/// must collide on both to alias).
///
/// No key bytes are stored beside it, so a collision is not detected: the
/// second text is served the first one's rewrite. For texts the hash
/// treats as random, the chance that any miss in a process's lifetime
/// lands on a resident entry of another text is ≈ entries × misses ÷ 2⁶⁴
/// — with the default 8,192 slots and 10¹² misses, about 4 × 10⁻⁴. Pairs
/// crafted to collide are another matter: the digest is public, and the
/// only defence is the per-process seed every fingerprint starts from,
/// which an attacker never sees.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct QueryFingerprint {
    /// Hash of the byte stream; never 0 (0 is the vacant-slot sentinel,
    /// real hashes are remapped).
    hash: u64,
    /// Length of the byte stream.
    len: u32,
}

impl QueryFingerprint {
    /// Construct from raw parts. Exposed for tests and for callers that
    /// key the cache by something other than SPARQL text; `hash == 0` is
    /// remapped to 1 (0 is the vacant-slot sentinel).
    pub fn from_parts(hash: u64, len: u32) -> QueryFingerprint {
        QueryFingerprint {
            hash: if hash == 0 { 1 } else { hash },
            len,
        }
    }
}

/// Streaming 64-bit hash over the normalized byte stream.
///
/// The stream is digested in 32-byte blocks: word `j` of a block
/// (little-endian) feeds lane `j` of four independent Fx-style
/// rotate-xor-multiply chains, each seeded per process, so a block's four
/// multiplies run in parallel instead of as one dependent chain.
/// [`Fingerprinter::finish`] folds the lanes into one word, then mixes in
/// the 0–31 byte tail (whole words, then the partial word tagged with its
/// length) and the stream length.
///
/// Blocks and lanes are fixed by stream position, so the digest depends
/// only on the byte *stream*, never on how the canonicalizer chunks its
/// `push_bytes` calls — a QName expanded as three slices (`<`, base,
/// local) hashes identically to the same IRI fed as one slice, and
/// [`fingerprint_raw`], which digests whole blocks straight from the
/// request, agrees with the pushed digest of the same bytes. Pushed
/// bytes go through a small stack buffer, which keeps the canonicalizer's
/// per-token sink at one copy + one increment.
pub(crate) struct Fingerprinter {
    lanes: [u64; 4],
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

/// One Fx-style step: the hash chain's only operation.
#[inline(always)]
fn step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(Fingerprinter::K)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

impl Fingerprinter {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const K: u64 = 0x517c_c1b7_2722_0a95;
    /// Bytes per block: one word per lane.
    const BLOCK: usize = 32;
    /// Multiple of [`Self::BLOCK`] so a full drain leaves no remainder.
    const BUF: usize = 256;

    pub(crate) fn new() -> Fingerprinter {
        Fingerprinter {
            lanes: Self::seeded_lanes(),
            buf: [0; Self::BUF],
            buf_len: 0,
            len: 0,
        }
    }

    /// Every lane starts from the process seed, each at a distinct point so
    /// equal words in different lanes do not cancel out when they fold.
    #[inline]
    fn seeded_lanes() -> [u64; 4] {
        let seed = Self::SEED ^ process_seed();
        [0, 1, 2, 3].map(|j| step(seed, j))
    }

    /// Digest every whole block of `bytes` into `lanes` and return the
    /// 0–31 byte remainder. `bytes` must start on a block boundary of the
    /// stream.
    #[inline]
    fn digest_blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
        let mut blocks = bytes.chunks_exact(Self::BLOCK);
        let [mut a, mut b, mut c, mut d] = *lanes;
        for block in &mut blocks {
            a = step(a, le_word(&block[0..8]));
            b = step(b, le_word(&block[8..16]));
            c = step(c, le_word(&block[16..24]));
            d = step(d, le_word(&block[24..32]));
        }
        *lanes = [a, b, c, d];
        blocks.remainder()
    }

    /// Digest every whole block in the buffer; the 0–31 byte tail moves to
    /// the front and stays pending (stream chunking must not influence
    /// block boundaries). Kept out of line: it runs once per buffer-full,
    /// and inlined it would bloat `push_bytes`, the canonicalizer's
    /// per-token sink.
    #[inline(never)]
    fn drain(&mut self) {
        let rem = Self::digest_blocks(&mut self.lanes, &self.buf[..self.buf_len]).len();
        self.buf.copy_within(self.buf_len - rem..self.buf_len, 0);
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
        Self::fold(self.lanes, &self.buf[..self.buf_len], self.len)
    }

    /// Fold the lanes into one word, then mix in the stream's 0–31 byte
    /// `tail` and its length `len`.
    #[inline]
    fn fold(lanes: [u64; 4], tail: &[u8], len: u32) -> QueryFingerprint {
        let [a, b, c, d] = lanes;
        let mut h = step(step(step(a, b), c), d);
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            h = step(h, le_word(w));
        }
        let partial = words.remainder();
        if !partial.is_empty() {
            // Pack the 1–7 byte partial word, tagged with its length so
            // trailing NULs in the stream can't alias an empty tail.
            let mut w = (partial.len() as u64) << 56;
            for (i, &b) in partial.iter().enumerate() {
                w |= (b as u64) << (8 * i);
            }
            h = step(h, w);
        }
        h = step(h, len as u64);
        // Fold high-bit entropy down (Fx's multiply drives it upward) so
        // both the shard selector and the slot index see mixed bits.
        QueryFingerprint::from_parts(h ^ (h >> 32), len)
    }
}

/// Canonicalize and fingerprint one query text in a single tokenizer
/// pass, without allocating (up to 8 PREFIX declarations; more spill a
/// scratch vector): whitespace and comments collapse to single
/// separators, keywords case-normalize, `$x` becomes `?x`, language tags
/// lowercase, and QNames resolve to full IRIs against the query's own
/// PREFIX table (which contributes nothing itself), so every spelling
/// the parser cannot tell apart gets one fingerprint.
///
/// Off the serve path: [`crate::ServeEngine`] keys on [`fingerprint_raw`]
/// alone. This is kept only for the benchmark's
/// `cache.fingerprint_canon_ns` layer, until a change to the benchmark
/// retires that layer.
///
/// Returns `None` exactly when the text does not tokenize, has a malformed
/// PREFIX prologue, or has a QName (datatypes included) that does not
/// resolve against it — texts the parser rejects, so every text
/// [`crate::parser::parse_query`] accepts has a fingerprint.
#[doc(hidden)]
pub fn fingerprint_query(text: &str) -> Option<QueryFingerprint> {
    let mut fp = Fingerprinter::new();
    canonicalize(text, &mut |b| fp.push_bytes(b))?;
    Some(fp.finish())
}

/// Fingerprint the **raw** bytes of a request — no canonicalization and no
/// staging copy: whole 32-byte blocks are digested straight from `text`
/// (four lanes in parallel; the benchmark's `cache.fingerprint_raw_ns`
/// layer), and the 0–31 byte tail is read in place by the fold. This is
/// the serve cache's only key: byte-identical repeats dominate real
/// endpoint traffic (clients re-send the same string), and a re-spelling
/// of a cached query misses once and is cached under its own bytes. See
/// [`QueryFingerprint`] for the collision bound.
pub fn fingerprint_raw(text: &str) -> QueryFingerprint {
    let mut lanes = Fingerprinter::seeded_lanes();
    let tail = Fingerprinter::digest_blocks(&mut lanes, text.as_bytes());
    // The stream length counts modulo 2^32, as `push_bytes` counts it.
    Fingerprinter::fold(lanes, tail, text.len() as u32)
}

/// Linear-probe window: an entry lives within `PROBE` slots of its home
/// index, so lookups touch a bounded neighborhood and eviction (which must
/// keep entries findable) picks victims inside the same window.
const PROBE: usize = 8;

/// Sizing knobs for [`RewriteCache`]. Shard and slot counts round up to
/// powers of two; `value_cap` rounds up to a multiple of 8 (the pool is
/// word-granular). Defaults: 8 shards × 1024 slots × 2 KiB ≈ 16 MiB of
/// value pool — thousands of distinct hot queries, far beyond the hot set
/// of a skewed endpoint workload. The 16 MiB is reserved address space:
/// its pages are committed as entries land (an entry commits the one or
/// two 4 KiB pages its value spans, if no other entry has), so a cache
/// holding a few hundred rewrites costs about a MiB, and only a full cache
/// commits all of it.
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
    /// Fingerprint length.
    fp_len: AtomicU32,
    /// The caller's `gen` tag the entry was inserted under.
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
            fp_len: AtomicU32::new(0),
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
    /// Flat value pool: `slots.len() * words_per_slot` relaxed-atomic words
    /// from [`zeroed_pool`], committed page by page as inserts write them.
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
pub(crate) struct ShardCacheStats {
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
/// engine-wide totals once every 64 probes, so
/// [`crate::ServeEngine::cache_stats`] lags by under 64 probes per worker.
/// The engine probes once per request, under the raw-byte key, so its
/// probe hits equal its request-level hits, and its probe misses exceed
/// its cold serves only by the requests that then fail to parse.
#[derive(Clone, Default, Debug)]
pub struct CacheStats {
    /// One entry per shard.
    pub(crate) per_shard: Vec<ShardCacheStats>,
    /// Probe hits and misses counted by the owner.
    pub(crate) probe_hits: u64,
    pub(crate) probe_misses: u64,
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
        self.per_shard.iter().map(|s| s.evictions).sum()
    }

    pub fn oversize_bypasses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.oversize_bypasses).sum()
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

/// The `gen` tag the serve engine, the cache's only in-repo owner, passes
/// to every [`RewriteCache::lookup`] and [`RewriteCache::insert`]. The
/// engine builds its cache beside the one rule set it serves for its whole
/// life and drops it with it, so no entry can meet a second rule set and
/// one value is enough.
pub(crate) const ONE_RULE_SET: u64 = 0;

/// A value pool of `n` zero words, taken zeroed from the allocator rather
/// than written word by word: the system allocator serves a request this
/// large with a fresh mapping whose pages the kernel commits on first
/// touch.
#[allow(unsafe_code)]
fn zeroed_pool(n: usize) -> Box<[AtomicU64]> {
    // SAFETY: `AtomicU64` has the same size, alignment and bit validity as
    // `u64`, so all-zero bytes are a valid `AtomicU64` holding 0, and
    // `new_zeroed_slice` has zeroed every element.
    unsafe { Box::<[AtomicU64]>::new_zeroed_slice(n).assume_init() }
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
                pool: zeroed_pool(n_slots * words_per_slot),
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
    /// `out` has capacity for the value rounded up to a whole word (at most
    /// `value_cap`); a probe that races a concurrent overwrite fails its
    /// version check and reports a miss.
    ///
    /// On `true`, `out` holds bytes some `insert` stored verbatim under the
    /// same (fingerprint, generation) — for this crate's use, the rendered
    /// rewrite `String`, so they are valid UTF-8. On `false` its contents
    /// are unspecified: a torn copy leaves partial bytes behind.
    ///
    /// A probe counts nothing: its only shared write is a hit setting a
    /// clear CLOCK reference bit. Callers that want hit/miss numbers count the return
    /// value themselves, as the serve engine does (its totals lag by under
    /// 64 probes per worker; see [`CacheStats`]).
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
                || slot.fp_len.load(Ordering::Relaxed) != fp.len
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
    /// refresh the matching entry, else a never-written slot, else CLOCK
    /// second-chance over the probe window.
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
        for i in 0..PROBE {
            let idx = (home + i) & mask;
            let slot = &shard.slots[idx];
            let sfp = slot.fp.load(Ordering::Relaxed);
            if sfp == 0 {
                victim = Some(idx);
                break;
            }
            if sfp == fp.hash && slot.fp_len.load(Ordering::Relaxed) == fp.len {
                victim = Some(idx);
                break;
            }
        }
        let idx = victim.unwrap_or_else(|| {
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
            // Overwriting a live entry for a different key: capacity pushed
            // something out. Same-key refreshes are not evictions.
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let v = slot.version.load(Ordering::Relaxed);
        // Seqlock write: odd version first, then data, then even version.
        slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.fp.store(fp.hash, Ordering::Relaxed);
        slot.fp_len.store(fp.len, Ordering::Relaxed);
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
        // Stream lengths 0..=300 cross the 8-byte word, the 32-byte block
        // and the 256-byte buffer boundaries. Every length is fed whole, as
        // `fingerprint_raw`, byte by byte, and split in two at every point;
        // the three-piece feeds put a 5-byte piece at every offset.
        let text: Vec<u8> = (0..300u32).map(|i| b'!' + (i * 7 % 90) as u8).collect();
        let text = String::from_utf8(text).expect("ASCII");
        let digest = |pieces: &[&str]| {
            let mut fp = Fingerprinter::new();
            for piece in pieces {
                fp.push_bytes(piece.as_bytes());
            }
            fp.finish()
        };
        for len in 0..=text.len() {
            let t = &text[..len];
            let whole = digest(&[t]);
            assert_eq!(fingerprint_raw(t), whole, "raw vs pushed, len {len}");
            let mut bytewise = Fingerprinter::new();
            for b in t.as_bytes() {
                bytewise.push_bytes(std::slice::from_ref(b));
            }
            assert_eq!(bytewise.finish(), whole, "byte by byte, len {len}");
            for k in 0..=len {
                assert_eq!(digest(&[&t[..k], &t[k..]]), whole, "len {len} split at {k}");
                let j = (k + 5).min(len);
                assert_eq!(
                    digest(&[&t[..k], &t[k..j], &t[j..]]),
                    whole,
                    "len {len} split at {k} and {j}"
                );
            }
        }
    }

    #[test]
    fn flipping_any_byte_changes_the_fingerprint() {
        // A byte sits in some lane of some block, in one of the tail's
        // whole words or in its partial word; each must reach the digest.
        // The lengths end the stream on a block boundary, in the tail's
        // whole words, in a partial word after one, and in a bare partial
        // word.
        for len in [224, 216, 203, 197] {
            let text: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let base = fingerprint_raw(std::str::from_utf8(&text).expect("ASCII"));
            for pos in 0..len.min(200) {
                for flip in [b'A', b'~'] {
                    let mut t = text.clone();
                    t[pos] = flip;
                    let t = String::from_utf8(t).expect("ASCII");
                    assert_ne!(fingerprint_raw(&t), base, "len {len}, byte {pos} -> {flip}");
                }
            }
        }
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
        // Looked up under another tag: the entry must miss.
        assert!(!cache.lookup(k, 8, &mut buf));
        cache.insert(k, 8, b"under-rev-8");
        assert!(cache.lookup(k, 8, &mut buf));
        assert_eq!(buf, b"under-rev-8");
        assert!(!cache.lookup(k, 7, &mut buf));
    }

    #[test]
    fn eviction_keeps_recent_entries_findable() {
        // Tiny cache, many inserts: churn far past capacity under
        // alternating `gen` tags, then verify the most recent insert is
        // always servable under its own tag and never under the other.
        // The CLOCK sweep alone places it: no victim is chosen by tag.
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
            let gen = i % 2;
            cache.insert(k, gen, val.as_bytes());
            assert!(cache.lookup(k, gen, &mut buf), "just-inserted {i} missing");
            assert_eq!(buf, val.as_bytes());
            assert!(
                !cache.lookup(k, gen ^ 1, &mut buf),
                "{i} found under the other tag"
            );
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
                groups.entry((fp.hash, fp.len)).or_default().push(t);
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
        // The canonical stream is itself a spelling of the query it was
        // built from, and hashing it raw gives the canonical fingerprint.
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
