//! Workload-driven tests of the core serve engine
//! (`sparql_rewrite_core::engine`). They live here rather than beside the
//! engine because they drive it with `common::workload`'s seeded generator
//! and re-spelling helpers, which the server's soak legs share.

#[allow(dead_code)]
mod common;

use std::sync::Barrier;
use std::thread;

use common::workload::{
    alias_prefix, generate, perturb_whitespace, zipf_ranks, Rng, WorkloadSpec, ZipfSpec,
};
use sparql_rewrite_core::{
    parse_bgp, parse_query, AlignmentStore, CacheConfig, Interner, Rewriter, ServeEngine,
};

fn engine_and_requests(group_shapes: bool) -> (ServeEngine, Vec<String>) {
    let spec = WorkloadSpec {
        n_rules: 300,
        patterns_per_query: 8,
        n_queries: 40,
        seed: 0xcafe_f00d,
        group_shapes,
    };
    let mut w = generate(&spec);
    let requests = w.query_texts();
    let engine = ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        Some(CacheConfig::default()),
    );
    (engine, requests)
}

/// Two engines over byte-identical workloads (same seed): one cached,
/// one cold, for output-equivalence checks.
fn cached_and_cold(
    spec: &WorkloadSpec,
    cache: Option<CacheConfig>,
) -> (ServeEngine, ServeEngine, Vec<String>) {
    let mut w = generate(spec);
    let requests = w.query_texts();
    let cached = ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        cache.or(Some(CacheConfig::default())),
    );
    let mut w2 = generate(spec);
    let cold = ServeEngine::with_cache(
        std::mem::take(&mut w2.store),
        std::mem::replace(&mut w2.interner, Interner::new()),
        None,
    );
    (cached, cold, requests)
}

/// Satellite property test: over random group queries × random
/// whitespace/PREFIX-alias re-spellings of the same logical query, the
/// cached serve output is **byte-identical** to the cold-path output —
/// and the re-spellings actually share one cache entry (the second and
/// later variants hit).
#[test]
fn cached_serve_is_byte_identical_to_cold_over_perturbed_queries() {
    for group_shapes in [false, true] {
        let spec = WorkloadSpec {
            n_rules: 300,
            patterns_per_query: 8,
            n_queries: 24,
            seed: 0x5eed_cafe ^ group_shapes as u64,
            group_shapes,
        };
        let (cached, cold, requests) = cached_and_cold(&spec, None);
        let mut cached_scratch = cached.scratch();
        let mut cold_scratch = cold.scratch();
        let mut rng = Rng::new(0x0bad_5eed);
        for text in &requests {
            let variants = [
                text.clone(),
                perturb_whitespace(text, &mut rng),
                perturb_whitespace(text, &mut rng),
                alias_prefix(text, "s", "http://src.example.org/onto/"),
                alias_prefix(
                    &perturb_whitespace(text, &mut rng),
                    "zz-alias",
                    "http://src.example.org/onto/",
                ),
            ];
            let hits_before = cached_scratch.cache_hits();
            for (i, variant) in variants.iter().enumerate() {
                let want = cold
                    .serve(variant, &mut cold_scratch)
                    .expect("variant parses cold")
                    .to_string();
                let got = cached
                    .serve(variant, &mut cached_scratch)
                    .expect("variant parses cached");
                assert_eq!(got, want, "variant {i} of {text:?} diverged");
            }
            // Variant 0 misses (first sighting); 1..4 are re-spellings
            // of the same canonical query and must all hit.
            assert_eq!(
                cached_scratch.cache_hits() - hits_before,
                variants.len() as u64 - 1,
                "re-spellings of {text:?} did not share one cache entry"
            );
        }
    }
}

/// Concurrent hits, misses, and CLOCK evictions (cache far smaller
/// than the distinct-query set) must never surface a stale or foreign
/// rewrite: every served result is compared against the cold-path
/// ground truth for its own request.
#[test]
fn concurrent_cached_serves_never_return_a_foreign_result() {
    let spec = WorkloadSpec {
        n_rules: 300,
        patterns_per_query: 8,
        n_queries: 96,
        seed: 0xfeed_beef,
        group_shapes: false,
    };
    // 1 shard × 16 slots vs 96 distinct queries: constant eviction.
    let (cached, cold, requests) = cached_and_cold(
        &spec,
        Some(CacheConfig {
            shards: 1,
            slots_per_shard: 16,
            value_cap: 4096,
        }),
    );
    let mut cold_scratch = cold.scratch();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| cold.serve(r, &mut cold_scratch).unwrap().to_string())
        .collect();
    thread::scope(|scope| {
        for t in 0..4u64 {
            let cached = &cached;
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                let mut scratch = cached.scratch();
                let mut rng = Rng::new(0x1234_5678 ^ (t + 1));
                for _ in 0..2_000 {
                    let i = rng.below(requests.len());
                    let got = cached.serve(&requests[i], &mut scratch).unwrap();
                    assert_eq!(got, expected[i], "request {i} served a foreign rewrite");
                }
            });
        }
    });
}

/// One rule mapping a short source predicate onto a long target IRI, so a
/// few aligned patterns render far past a 64-byte cap while an unaligned
/// `?s ?p ?o` stays well under it.
fn long_predicate_engine(cache: Option<CacheConfig>) -> ServeEngine {
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();
    let lhs = parse_bgp("?s <http://src.example.org/onto/p> ?o", &mut interner)
        .expect("rule lhs parses")
        .patterns[0];
    let rhs = parse_bgp(
        "?s <http://tgt.example.org/onto/a-deliberately-long-predicate-q> ?o",
        &mut interner,
    )
    .expect("rule rhs parses")
    .patterns;
    store.add_predicate(lhs, rhs).expect("valid rule");
    ServeEngine::with_cache(store, interner, cache)
}

/// An adaptive resize publishes a new cache instance while other workers
/// are mid-serve on the old one. Four threads serve a stream whose big
/// phases force the cap up and whose small phases walk it back down;
/// every response must equal the cache-less engine's.
#[test]
fn concurrent_serves_across_cache_resizes_match_the_cold_path() {
    let cached = long_predicate_engine(Some(CacheConfig {
        shards: 2,
        slots_per_shard: 256,
        value_cap: 64,
    }));
    let cold = long_predicate_engine(None);
    // Three big queries (4–6 aligned patterns, each rewrite several times
    // the 64-byte cap), then the small one last.
    let mut requests: Vec<String> = (4..=6)
        .map(|n| {
            let body: String = (0..n)
                .map(|i| format!("?a{i} <http://src.example.org/onto/p> ?b{i} . "))
                .collect();
            format!("SELECT * WHERE {{ {body}}}")
        })
        .collect();
    requests.push("SELECT * WHERE { ?s ?p ?o }".to_string());
    let small = requests.len() - 1;
    let mut cold_scratch = cold.scratch();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| cold.serve(r, &mut cold_scratch).unwrap().to_string())
        .collect();
    let barrier = Barrier::new(4);
    thread::scope(|scope| {
        for t in 0..4u64 {
            let (cached, requests, expected, barrier) = (&cached, &requests, &expected, &barrier);
            scope.spawn(move || {
                let mut scratch = cached.scratch();
                let mut rng = Rng::new(0x5a_f00d ^ (t + 1));
                for phase in 0..4 {
                    // Phases never overlap, so each one's windows see only
                    // its own mix.
                    barrier.wait();
                    for _ in 0..2_048 {
                        // Even phases: seven big requests in eight, so the
                        // bypass rate grows the cap. Odd phases: small only,
                        // so the cap shrinks back.
                        let i = if phase % 2 == 0 && rng.below(8) != 0 {
                            rng.below(small)
                        } else {
                            small
                        };
                        let got = cached.serve(&requests[i], &mut scratch).unwrap();
                        assert_eq!(got, expected[i], "request {i} diverged from the cold path");
                    }
                }
            });
        }
    });
    let (grows, shrinks) = cached.cache_resizes();
    assert!(
        grows >= 1 && shrinks >= 1,
        "the stream must both grow and shrink the cache: {grows} grows, {shrinks} shrinks"
    );
}

/// The Zipf stream drives real cache behavior: a head-heavy request
/// mix over a fitting cache yields a ≥0.9 hit rate after one warm
/// pass.
#[test]
fn zipf_stream_hits_after_warm_pass() {
    let spec = WorkloadSpec {
        n_rules: 300,
        patterns_per_query: 8,
        n_queries: 32,
        seed: 0xabcd_ef01,
        group_shapes: false,
    };
    let (cached, _cold, distinct) = cached_and_cold(&spec, None);
    let ranks = zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: distinct.len(),
        n_requests: 512,
        seed: 77,
    });
    let mut scratch = cached.scratch();
    for &r in &ranks {
        cached.serve(&distinct[r as usize], &mut scratch).unwrap();
    }
    scratch.reset_cache_counters();
    for &r in &ranks {
        cached.serve(&distinct[r as usize], &mut scratch).unwrap();
    }
    let (h, m) = (scratch.cache_hits(), scratch.cache_misses());
    assert!(
        h as f64 / (h + m) as f64 >= 0.9,
        "hit rate {h}/{} below 0.9",
        h + m
    );
}

#[test]
fn serve_matches_offline_rewrite() {
    for group_shapes in [false, true] {
        let (engine, requests) = engine_and_requests(group_shapes);
        let mut scratch = engine.scratch();
        let mut check_interner = engine.base_interner().clone();
        for req in &requests {
            let served = engine.serve(req, &mut scratch).unwrap().to_string();
            // Ground truth: owned-type parse → rewrite → display.
            let parsed = parse_query(req, &mut check_interner).unwrap();
            let expected = engine
                .rewriter()
                .rewrite_query(&parsed)
                .display(&check_interner)
                .to_string();
            assert_eq!(served, expected, "request: {req}");
            // The served text is valid SPARQL.
            parse_query(&served, &mut check_interner).unwrap();
        }
    }
}

#[test]
fn serve_is_deterministic_across_scratches() {
    let (engine, requests) = engine_and_requests(true);
    let mut a = engine.scratch();
    let mut b = engine.scratch();
    for req in &requests {
        let one = engine.serve(req, &mut a).unwrap().to_string();
        // Second scratch, repeated serves: same text.
        let two = engine.serve(req, &mut b).unwrap().to_string();
        let three = engine.serve(req, &mut b).unwrap().to_string();
        assert_eq!(one, two);
        assert_eq!(two, three);
    }
}

/// Oversized rewrites bypass the cache silently on the value path —
/// but the engine must still count them, so operators can see repeated
/// queries that will never hit.
#[test]
fn oversized_rewrites_are_counted_as_bypasses() {
    let spec = WorkloadSpec {
        n_rules: 300,
        patterns_per_query: 8,
        n_queries: 4,
        seed: 0xbead_cafe,
        group_shapes: false,
    };
    // 64-byte cap: every rendered rewrite in this workload exceeds it.
    let (cached, _cold, requests) = cached_and_cold(
        &spec,
        Some(CacheConfig {
            shards: 1,
            slots_per_shard: 16,
            value_cap: 64,
        }),
    );
    let bypasses = || {
        cached
            .cache_stats()
            .expect("cache installed")
            .oversize_bypasses()
    };
    assert_eq!(bypasses(), 0);
    let mut scratch = cached.scratch();
    for req in &requests {
        cached.serve(req, &mut scratch).unwrap();
    }
    let after_first = bypasses();
    assert!(
        after_first >= requests.len() as u64,
        "expected one bypass per oversized serve, saw {after_first}"
    );
    // Re-serving the same requests can't hit (nothing was cached) and
    // keeps counting bypasses.
    let hits_before = scratch.cache_hits();
    for req in &requests {
        cached.serve(req, &mut scratch).unwrap();
    }
    assert_eq!(scratch.cache_hits(), hits_before);
    assert!(bypasses() > after_first);
}

/// The workload-tuned cap lands exactly on the largest rendered
/// rewrite: with the same requests that tuned it, **nothing** is
/// bypassed — the cap-boundary value (the max-length rewrite itself)
/// is cached and hits on re-serve.
#[test]
fn tuned_value_cap_caches_the_boundary_rewrite() {
    let spec = WorkloadSpec {
        n_rules: 300,
        patterns_per_query: 8,
        n_queries: 16,
        seed: 0x7e57_cab5,
        group_shapes: true,
    };
    let mut w = generate(&spec);
    let requests = w.query_texts();
    let engine = ServeEngine::with_tuned_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        CacheConfig {
            shards: 1,
            slots_per_shard: 64,
            // Deliberately tiny: tuning must override it upward.
            value_cap: 8,
        },
        &requests,
    );
    let cap = engine.cache_value_cap().expect("tuned engine has a cache");
    let mut scratch = engine.scratch();
    let mut max_len = 0usize;
    for req in &requests {
        max_len = max_len.max(engine.serve(req, &mut scratch).unwrap().len());
    }
    // The cache rounds its cap up to a word multiple.
    assert_eq!(
        cap,
        max_len.max(64).div_ceil(8) * 8,
        "cap is the measured workload max"
    );
    assert_eq!(
        engine.cache_stats().unwrap().oversize_bypasses(),
        0,
        "a rewrite exactly at the tuned cap must be cached, not bypassed"
    );
    // The boundary-length rewrite hits like every other.
    scratch.reset_cache_counters();
    for req in &requests {
        engine.serve(req, &mut scratch).unwrap();
    }
    assert_eq!(scratch.cache_misses(), 0);
    assert_eq!(scratch.cache_hits(), requests.len() as u64);
}

/// No parseable sample → the tuned constructor falls back to the
/// config's cap instead of installing a degenerate one.
#[test]
fn tuned_value_cap_falls_back_when_no_sample_parses() {
    let spec = WorkloadSpec {
        n_rules: 50,
        patterns_per_query: 4,
        n_queries: 4,
        seed: 0x0fa1_bacc,
        group_shapes: false,
    };
    let mut w = generate(&spec);
    let engine = ServeEngine::with_tuned_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        CacheConfig {
            shards: 1,
            slots_per_shard: 16,
            value_cap: 776,
        },
        &["SELECT WHERE {".to_string(), "not sparql".to_string()],
    );
    assert_eq!(engine.cache_value_cap(), Some(776));
}
