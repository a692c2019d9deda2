//! A rewrite cache commits memory as entries land, not when it is built.
//!
//! Each shard's value pool is taken zeroed from the allocator, so building
//! a [`RewriteCache`] at [`CacheConfig::default()`] (≈16 MiB of pool)
//! reserves address space and commits only the slot metadata; an insert
//! commits the pages its value lands in. This binary reads the process's
//! resident set (`VmRSS` in `/proc/self/status`), so it holds exactly one
//! `#[test]`: a second test running beside it would move the reading.
#![cfg(target_os = "linux")]

use sparql_rewrite_core::{CacheConfig, QueryFingerprint, RewriteCache};

const MIB: u64 = 1 << 20;

/// Entries inserted per shard, and the shards they go to.
const PER_SHARD: usize = 128;
const SHARDS_FILLED: usize = 4;

/// Resident set of this process in bytes.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("a VmRSS line in kB");
    kb * 1024
}

/// With transparent huge pages set to `always`, the kernel may back a
/// touched part of a pool with a whole 2 MiB page, so one insert can commit
/// up to a shard's pool.
fn huge_pages_always() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|s| s.contains("[always]"))
}

#[test]
fn building_commits_no_pool_and_inserts_commit_their_pages() {
    let config = CacheConfig::default();
    let pool_bytes = (config.shards * config.slots_per_shard * config.value_cap) as u64;
    let page = 4096u64;

    // Everything the measured windows use is allocated up front: the
    // keys, the values (lengths 1..=value_cap, most not a word multiple)
    // and the lookup buffer.
    let entries: Vec<(QueryFingerprint, Vec<u8>)> = (0..SHARDS_FILLED)
        .flat_map(|shard| (0..PER_SHARD).map(move |i| (shard, i)))
        .map(|(shard, i)| {
            // High hash bits pick the shard, low bits the home slot: slots
            // 8 apart are 16 KiB apart in the pool, so every value lands
            // on pages of its own.
            let slot = (8 * i + 3) as u64;
            let fp = QueryFingerprint::from_parts(((shard as u64) << 48) | slot, 64);
            let len = 1 + (shard * PER_SHARD + i) * 13 % config.value_cap;
            let value = (0..len)
                .map(|b| (b as u8) ^ (i as u8) ^ (shard as u8).rotate_left(4))
                .collect();
            (fp, value)
        })
        .collect();
    let mut out = Vec::with_capacity(config.value_cap);

    let before = vm_rss();
    let cache = RewriteCache::new(config);
    let built = vm_rss();
    let build_cost = built.saturating_sub(before);
    assert!(
        build_cost < MIB,
        "building a {pool_bytes}-byte-pool cache committed {build_cost} bytes: \
         the pool must stay uncommitted until entries land"
    );

    for (fp, value) in &entries {
        cache.insert(*fp, 0, value);
    }
    let filled = vm_rss();
    let insert_cost = filled.saturating_sub(built);
    // Each value spans at most two pages; reading the counter can be off
    // by a few hundred KiB, hence the floor at half the one-page cost.
    let k = entries.len() as u64;
    let floor = k * page / 2;
    let ceiling = if huge_pages_always() {
        SHARDS_FILLED as u64 * (pool_bytes / config.shards as u64) + 2 * MIB
    } else {
        2 * k * page + 2 * MIB
    };
    assert!(
        (floor..=ceiling).contains(&insert_cost),
        "{k} inserts committed {insert_cost} bytes, expected {floor}..={ceiling}: \
         an insert commits the pages its value lands in, not the {pool_bytes}-byte pool"
    );
    assert!(
        ceiling < pool_bytes,
        "the bound must tell the entries from the pool"
    );

    for (fp, value) in &entries {
        assert!(cache.lookup(*fp, 0, &mut out), "{fp:?} missed after insert");
        assert_eq!(&out, value, "{fp:?} read back different bytes");
    }
}
