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

/// Cache key of one query text: a seeded 64-bit hash of its bytes plus
/// their length as a cheap secondary discriminator (two texts must collide
/// on both to alias).
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
    /// Hash of the bytes; never 0 (0 is the vacant-slot sentinel, real
    /// hashes are remapped).
    hash: u64,
    /// Length of the text in bytes.
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

// The fingerprint is a 64-bit hash digested in 32-byte blocks: word `j`
// of a block (little-endian) feeds lane `j` of four independent Fx-style
// rotate-xor-multiply chains, each seeded per process, so a block's four
// multiplies run in parallel instead of as one dependent chain. `fold`
// then folds the lanes into one word and mixes in the 0–31 byte tail
// (whole words, then the partial word tagged with its length) and the
// text's length.
const FP_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const FP_K: u64 = 0x517c_c1b7_2722_0a95;
/// Bytes per block: one word per lane.
const BLOCK: usize = 32;

/// One Fx-style step: the hash chain's only operation.
#[inline(always)]
fn step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FP_K)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Every lane starts from the process seed, each at a distinct point so
/// equal words in different lanes do not cancel out when they fold.
///
/// Query text is attacker-controlled at a public endpoint and the digest
/// function is public, so an *unseeded* hash would let an adversary
/// precompute two distinct queries with one fingerprint offline and poison
/// the cache (query A served query B's rewrite). The process seed
/// ([`crate::fxhash::process_seed`]) is a value the attacker never sees.
/// Fingerprints are stable within a process — all a cache key needs — but
/// deliberately differ across processes.
#[inline]
fn seeded_lanes() -> [u64; 4] {
    let seed = FP_SEED ^ crate::fxhash::process_seed();
    [0, 1, 2, 3].map(|j| step(seed, j))
}

/// Digest every whole block of `bytes` into `lanes` and return the 0–31
/// byte remainder.
#[inline]
fn digest_blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let mut blocks = bytes.chunks_exact(BLOCK);
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

/// Fold the lanes into one word, then mix in the text's 0–31 byte `tail`
/// and its length `len`.
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
        // trailing NULs in the text can't alias an empty tail.
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

/// [`fingerprint_raw`], kept only for the benchmark's
/// `cache.fingerprint_canon_ns` layer; ROADMAP item 0 deletes both.
#[doc(hidden)]
pub fn fingerprint_query(text: &str) -> Option<QueryFingerprint> {
    Some(fingerprint_raw(text))
}

/// Fingerprint the **raw** bytes of a request, with no staging copy: whole
/// 32-byte blocks are digested straight from `text` (four lanes in
/// parallel; the benchmark's `cache.fingerprint_raw_ns` layer), and the
/// 0–31 byte tail is read in place by the fold. This is the serve cache's
/// only key: byte-identical repeats dominate real endpoint traffic
/// (clients re-send the same string), and a re-spelling of a cached query
/// misses once and is cached under its own bytes. See
/// [`QueryFingerprint`] for the collision bound.
pub fn fingerprint_raw(text: &str) -> QueryFingerprint {
    let mut lanes = seeded_lanes();
    let tail = digest_blocks(&mut lanes, text.as_bytes());
    // The length counts modulo 2^32.
    fold(lanes, tail, text.len() as u32)
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
    /// noise — surfaced via [`CacheStats::oversize_bypasses`].
    bypassed: AtomicU64,
    /// Live entries overwritten by an insert for a *different* key —
    /// capacity pressure made visible (refreshes of the same key are not
    /// evictions).
    evictions: AtomicU64,
}

/// Cache observability totals across all shards, snapshotted without
/// stopping traffic (counters are relaxed atomics; occupancy is a
/// racy-but-monotone scan), plus the counts the cache's owner keeps.
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
    /// Slots holding a written entry (never decreases: slots are
    /// overwritten, not emptied).
    pub(crate) occupancy: usize,
    /// Total slots.
    pub(crate) capacity: usize,
    /// Live entries overwritten by an insert under a different key.
    pub(crate) evictions: u64,
    /// Inserts refused because the value exceeded the cache's value cap.
    pub(crate) oversize_bypasses: u64,
    /// Probe hits and misses, counted by the owner.
    pub(crate) probe_hits: u64,
    pub(crate) probe_misses: u64,
}

impl CacheStats {
    /// Written slots across all shards.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn hits(&self) -> u64 {
        self.probe_hits
    }

    pub fn misses(&self) -> u64 {
        self.probe_misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Inserts refused because the value exceeded
    /// [`RewriteCache::value_cap`] — queries that will re-render on every
    /// request. Monotone over the cache's lifetime.
    pub fn oversize_bypasses(&self) -> u64 {
        self.oversize_bypasses
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

    /// Snapshot occupancy, evictions and oversize bypasses, summed over
    /// the shards. Probe hits and misses read 0: the caller counts them
    /// (see [`CacheStats`]). The occupancy scan walks every slot (relaxed
    /// loads), so treat this as an operator endpoint, not a hot-path call.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity: self.capacity(),
            ..CacheStats::default()
        };
        for s in self.shards.iter() {
            stats.occupancy += s
                .slots
                .iter()
                .filter(|slot| slot.fp.load(Ordering::Relaxed) != 0)
                .count();
            stats.evictions += s.evictions.load(Ordering::Relaxed);
            stats.oversize_bypasses += s.bypassed.load(Ordering::Relaxed);
        }
        stats
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
    /// per shard and surfaced by [`CacheStats::oversize_bypasses`].
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
        fingerprint_raw(text)
    }

    #[test]
    fn every_prefix_length_gets_its_own_hash() {
        // Lengths 0..=300 end the text in a lane of a block, in the tail's
        // whole words and in its partial word, across word, block and
        // 256-byte boundaries; no two prefixes may share the `hash` that
        // places shard and slot.
        let text: Vec<u8> = (0..300u32).map(|i| b'!' + (i * 7 % 90) as u8).collect();
        let text = String::from_utf8(text).expect("ASCII");
        let mut seen = std::collections::HashMap::new();
        for len in 0..=text.len() {
            if let Some(other) = seen.insert(fp(&text[..len]).hash, len) {
                panic!("prefixes of {other} and {len} bytes share a hash");
            }
        }
        // A trailing NUL must not vanish into the partial word's padding:
        // the word is tagged with its length.
        for n in [7, 8, 31, 32, 33] {
            let t = &text[..n];
            assert_ne!(fp(t).hash, fp(&format!("{t}\0")).hash, "{n} bytes");
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
        assert_eq!(cache.stats().oversize_bypasses(), 0);
        let big = fp("SELECT * WHERE { ?s <http://big> ?o }");
        cache.insert(big, 0, &[b'x'; 65]);
        assert!(!cache.lookup(big, 0, &mut buf));
        assert_eq!(cache.stats().oversize_bypasses(), 1);
        cache.insert(big, 0, &[b'x'; 200]);
        assert_eq!(cache.stats().oversize_bypasses(), 2);
        // A value exactly at the cap is cacheable, not a bypass.
        cache.insert(big, 0, &[b'y'; 64]);
        assert!(cache.lookup(big, 0, &mut buf));
        assert_eq!(cache.stats().oversize_bypasses(), 2);
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
}
