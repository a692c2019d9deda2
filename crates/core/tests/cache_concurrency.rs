//! Concurrency guarantees of the sharded rewrite-result cache: under
//! concurrent hits, misses, refreshes, and CLOCK evictions, a lookup must
//! either miss or return **exactly** the bytes inserted for its own
//! fingerprint and `gen` tag — never another entry's value, never a torn
//! mix. A cache serves one rule set and is dropped with it, so nothing
//! here invalidates; the in-repo callers hold `gen` constant, and
//! `concurrent_generations_never_cross` checks only that two tags never
//! serve each other's bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use sparql_rewrite_core::{fingerprint_query, CacheConfig, RewriteCache};

/// xorshift64* (the workload generator's RNG) so threads get deterministic
/// but distinct access streams.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[test]
fn concurrent_churn_never_serves_a_foreign_value() {
    // A cache much smaller than the key space, so eviction churn is
    // constant: 2 shards x 16 slots vs 192 distinct keys.
    let cache = RewriteCache::new(CacheConfig {
        shards: 2,
        slots_per_shard: 16,
        value_cap: 128,
    });
    // Real fingerprints from real query texts, each mapped to a unique,
    // self-identifying value (so any cross-fingerprint mixup is caught by
    // a byte comparison).
    let keys: Vec<_> = (0..192)
        .map(|i| {
            let text = format!("SELECT * WHERE {{ ?s <http://ex.org/p{i}> ?o{i} }}");
            let value = format!("SELECT * WHERE {{ ?s <http://tgt.org/p{i}> ?o{i} }}");
            (fingerprint_query(&text).expect("cacheable"), value)
        })
        .collect();
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);

    thread::scope(|scope| {
        for t in 0..4u64 {
            let cache = &cache;
            let keys = &keys;
            let (hits, misses) = (&hits, &misses);
            scope.spawn(move || {
                let mut rng = 0xc0ffee ^ (t + 1);
                let mut buf = Vec::with_capacity(cache.value_cap());
                for _ in 0..200_000 {
                    let i = (xorshift(&mut rng) % keys.len() as u64) as usize;
                    let (fp, expected) = &keys[i];
                    if cache.lookup(*fp, 0, &mut buf) {
                        assert_eq!(
                            buf,
                            expected.as_bytes(),
                            "lookup for key {i} returned a foreign/torn value"
                        );
                        hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        cache.insert(*fp, 0, expected.as_bytes());
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    // Both paths must actually have been exercised.
    assert!(hits.load(Ordering::Relaxed) > 0, "no hits at all");
    assert!(misses.load(Ordering::Relaxed) > 0, "no misses at all");
}

#[test]
fn concurrent_generations_never_cross() {
    // Writers continuously refresh the same keys under two different
    // generations; readers must only ever observe the value matching the
    // generation they asked for.
    let cache = RewriteCache::new(CacheConfig {
        shards: 1,
        slots_per_shard: 8,
        value_cap: 64,
    });
    let keys: Vec<_> = (0..12)
        .map(|i| {
            let text = format!("SELECT * WHERE {{ ?s <http://gen.org/p{i}> ?o }}");
            fingerprint_query(&text).expect("cacheable")
        })
        .collect();
    let value = |i: usize, gen: u64| format!("result-{i}-under-gen-{gen}");

    thread::scope(|scope| {
        for t in 0..4u64 {
            let cache = &cache;
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = 0xdead_beef ^ t;
                let mut buf = Vec::with_capacity(cache.value_cap());
                for _ in 0..100_000 {
                    let i = (xorshift(&mut rng) % keys.len() as u64) as usize;
                    let gen = xorshift(&mut rng) % 2;
                    if cache.lookup(keys[i], gen, &mut buf) {
                        assert_eq!(
                            buf,
                            value(i, gen).as_bytes(),
                            "generation {gen} lookup observed another generation's value"
                        );
                    } else {
                        cache.insert(keys[i], gen, value(i, gen).as_bytes());
                    }
                }
            });
        }
    });
}
