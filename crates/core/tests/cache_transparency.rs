//! Cache transparency: a cache must never change a served byte.
//!
//! Engine leg: a cached `ServeEngine` must answer every request with
//! exactly the bytes a cache-less engine renders for it, whatever the cache
//! does underneath. Two threads share one cached engine and serve seeded
//! streams that make the cache do everything it can at once: re-spellings
//! of hot queries (whitespace, comments, PREFIX aliases, keyword case,
//! `$x`) that hit and evict each other in a cache far smaller than the key
//! set; more than 4,096 novel literals per worker, so each worker's
//! interner overlay is trimmed mid-stream; and rewrites on both sides of
//! the value cap, so the adaptive controller resizes the cache while both
//! threads serve from it. Each thread checks every response against a
//! cache-less engine over the same rules, on a scratch of its own.
//!
//! Planner leg: `FederationPlanner::plan_for_dispatch` with the partition
//! cache on must plan every query exactly as a planner without it. Two
//! workers share the cached planner; their interner overlays hold the same
//! novel strings under different ids, so a partition key built from symbol
//! ids instead of term text would serve one worker the other's rewrite.

use std::thread;

use std::sync::Arc;

use sparql_rewrite_core::{
    parse_bgp, parse_query, AlignmentStore, CacheConfig, DispatchPlan, FederationPlanner, Interner,
    RewriteLimits, ServeEngine, Term,
};

const SRC: &str = "http://src.example.org/onto/";
const ENT: &str = "http://src.example.org/ent/";
const PREDICATES: usize = 8;
const ENTITIES: usize = 4;
const BASES: usize = 24;
const SPELLINGS: usize = 6;
const REQUESTS_PER_WORKER: usize = 60_000;
/// One request in this many (on average) carries a novel literal.
const NOVEL_EVERY: u64 = 12;
/// Novel strings a worker's interner overlay holds before it is trimmed.
const OVERLAY_BOUND: usize = 4096;

/// xorshift64*, as in the other seeded tests, so the streams are stable.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Every source predicate maps onto a long target IRI (predicate 0 onto
/// two, a UNION), and every source entity onto a target one, so rewrites
/// come out several times longer than their queries.
fn engine(cache: Option<CacheConfig>) -> ServeEngine {
    let mut it = Interner::new();
    let mut store = AlignmentStore::new();
    for k in 0..PREDICATES {
        let lhs = parse_bgp(&format!("?s <{SRC}p{k}> ?o"), &mut it)
            .unwrap()
            .patterns[0];
        let tgt = format!("http://tgt.example.org/onto/a-deliberately-long-target-predicate-{k}");
        let rhs = parse_bgp(&format!("?s <{tgt}> ?o"), &mut it)
            .unwrap()
            .patterns;
        store.add_predicate(lhs, rhs).unwrap();
    }
    let lhs = parse_bgp(&format!("?s <{SRC}p0> ?o"), &mut it)
        .unwrap()
        .patterns[0];
    let rhs = parse_bgp("?s <http://tgt.example.org/onto/second-branch> ?o", &mut it)
        .unwrap()
        .patterns;
    store.add_predicate(lhs, rhs).unwrap();
    for k in 0..ENTITIES {
        let from = Term::iri(it.intern(&format!("{ENT}e{k}")));
        let to = Term::iri(it.intern(&format!("http://tgt.example.org/ent/entity-{k}")));
        store.add_entity(from, to).unwrap();
    }
    ServeEngine::with_cache(store, it, cache)
}

/// One token of a base query. IRIs under [`SRC`] or [`ENT`] can be spelled
/// as QNames, keywords in any case, variables with `?` or `$`.
#[derive(Clone)]
enum Tok {
    Kw(&'static str),
    Var(String),
    Iri(&'static str, String),
    Lit(String),
    Punct(&'static str),
}

/// Base query `b`: `1 + b % 12` patterns, so rendered rewrites run from
/// about 100 to about 1,300 bytes; every third pattern's object is an
/// aligned entity.
fn base(b: usize) -> Vec<Tok> {
    let mut toks = vec![
        Tok::Kw("SELECT"),
        Tok::Punct("*"),
        Tok::Kw("WHERE"),
        Tok::Punct("{"),
    ];
    for j in 0..1 + b % 12 {
        if j > 0 {
            toks.push(Tok::Punct("."));
        }
        toks.push(Tok::Var("s".into()));
        toks.push(Tok::Iri(SRC, format!("p{}", (b + j) % PREDICATES)));
        if j % 3 == 2 {
            toks.push(Tok::Iri(ENT, format!("e{}", (b + j) % ENTITIES)));
        } else {
            toks.push(Tok::Var(format!("o{j}")));
        }
    }
    toks.push(Tok::Punct("}"));
    toks
}

/// `toks` with a FILTER on a literal no other request carries.
fn with_novel_literal(mut toks: Vec<Tok>, literal: String) -> Vec<Tok> {
    let close = toks.pop();
    toks.extend([
        Tok::Kw("FILTER"),
        Tok::Punct("("),
        Tok::Var("s".into()),
        Tok::Punct("!="),
        Tok::Lit(literal),
        Tok::Punct(")"),
    ]);
    toks.extend(close);
    toks
}

/// Spell `toks` as SPARQL. `plain` gives the one canonical spelling;
/// otherwise every choice is drawn from `rng`: separators (spaces, tabs,
/// newlines, comments), keyword case, `$` or `?`, and QNames under
/// declared (and sometimes unused) PREFIX aliases.
fn spell(toks: &[Tok], rng: &mut u64, plain: bool) -> String {
    let mut out = String::new();
    let (src_alias, ent_alias) = if plain {
        (None, None)
    } else {
        let pick = |r: u64| match r % 3 {
            0 => None,
            1 => Some("a"),
            _ => Some("zz-alias"),
        };
        let src = pick(xorshift(rng));
        let ent = pick(xorshift(rng)).map(|a| if a == "a" { "e" } else { "ent" });
        (src, ent)
    };
    for (alias, ns) in [(src_alias, SRC), (ent_alias, ENT)] {
        if let Some(alias) = alias {
            out.push_str(&format!("PREFIX {alias}: <{ns}> "));
        }
    }
    if !plain && xorshift(rng).is_multiple_of(4) {
        out.push_str("prefix unused: <http://unused.example.org/> ");
    }
    for (i, tok) in toks.iter().enumerate() {
        if i > 0 {
            out.push_str(if plain {
                " "
            } else {
                match xorshift(rng) % 8 {
                    0 => "\n  ",
                    1 => "\t",
                    2 => " # a comment\n",
                    3 => "   ",
                    _ => " ",
                }
            });
        }
        match tok {
            Tok::Kw(kw) if !plain => match xorshift(rng) % 3 {
                0 => out.push_str(&kw.to_ascii_lowercase()),
                1 => {
                    out.push_str(&kw[..1]);
                    out.push_str(&kw[1..].to_ascii_lowercase());
                }
                _ => out.push_str(kw),
            },
            Tok::Kw(kw) => out.push_str(kw),
            Tok::Var(v) => {
                out.push(if !plain && xorshift(rng).is_multiple_of(2) {
                    '$'
                } else {
                    '?'
                });
                out.push_str(v);
            }
            Tok::Iri(ns, local) => {
                let alias = if *ns == SRC { src_alias } else { ent_alias };
                match alias {
                    Some(alias) => out.push_str(&format!("{alias}:{local}")),
                    None => out.push_str(&format!("<{ns}{local}>")),
                }
            }
            Tok::Lit(l) => out.push_str(&format!("\"{l}\"")),
            Tok::Punct(p) => out.push_str(p),
        }
    }
    out
}

/// One request of a worker's stream.
enum Request {
    /// Spelling `spelling` of base `base`, shared by both workers.
    Hot { base: usize, spelling: usize },
    /// A spelling of base `base` with a literal no other request carries.
    Novel { base: usize, text: String },
}

impl Request {
    fn base(&self) -> usize {
        match self {
            Request::Hot { base, .. } | Request::Novel { base, .. } => *base,
        }
    }
}

/// Worker `w`'s request stream: hot re-spellings drawn with a skew toward
/// low base numbers and, one request in [`NOVEL_EVERY`] on average, a
/// novel literal. Returns the stream and its count of novel literals.
fn stream(w: u64) -> (Vec<Request>, usize) {
    let mut rng = 0x7ea5_0000 ^ (w + 1);
    let mut novel = 0;
    let requests = (0..REQUESTS_PER_WORKER)
        .map(|i| {
            let r = xorshift(&mut rng);
            let b = ((r % BASES as u64) * ((r >> 8) % BASES as u64) / BASES as u64) as usize;
            if (r >> 16).is_multiple_of(NOVEL_EVERY) {
                novel += 1;
                let toks = with_novel_literal(base(b), format!("w{w}-novel-{i}"));
                let text = spell(&toks, &mut rng, false);
                Request::Novel { base: b, text }
            } else {
                let spelling = (r >> 24) as usize % SPELLINGS;
                Request::Hot { base: b, spelling }
            }
        })
        .collect();
    (requests, novel)
}

#[test]
fn cached_serves_are_byte_identical_to_cold_under_churn_trims_and_resizes() {
    // Every base's spellings: the canonical one and five seeded others.
    let mut rng = 0x5eed_0036;
    let hot: Vec<Vec<String>> = (0..BASES)
        .map(|b| {
            let toks = base(b);
            (0..SPELLINGS)
                .map(|k| spell(&toks, &mut rng, k == 0))
                .collect()
        })
        .collect();

    let streams: Vec<_> = (0..2).map(stream).collect();
    for (w, (_, novel)) in streams.iter().enumerate() {
        assert!(
            *novel > OVERLAY_BOUND,
            "worker {w} sees {novel} novel literals, too few to trim its overlay"
        );
    }

    // The value cap is the rewrite length of the request at the 70th
    // percentile: the longer 30 % bypass the cache until the controller
    // grows it.
    let cold = engine(None);
    let mut scratch = cold.scratch();
    let base_len: Vec<usize> = hot
        .iter()
        .map(|spellings| cold.serve(&spellings[0], &mut scratch).unwrap().len())
        .collect();
    let mut lens: Vec<usize> = streams
        .iter()
        .flat_map(|(requests, _)| requests.iter().map(|r| base_len[r.base()]))
        .collect();
    lens.sort_unstable();
    let value_cap = lens[lens.len() * 7 / 10];
    // 16 slots (8 after the grow) against 144 hot spellings: nearly every
    // serve evicts, so one worker's hits keep racing the other's overwrite
    // of the same slot — the race the seqlock version check must catch.
    let cached = engine(Some(CacheConfig {
        shards: 1,
        slots_per_shard: 16,
        value_cap,
    }));

    let hits: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(w, (requests, _))| {
                let (cached, cold, hot) = (&cached, &cold, &hot);
                scope.spawn(move || {
                    let mut cached_scratch = cached.scratch();
                    let mut cold_scratch = cold.scratch();
                    // The cold engine's answer to each hot spelling, served
                    // on first sight: repeats then cost the cached engine
                    // alone, so its hits overlap the other worker's inserts.
                    let mut cold_hot = vec![vec![None::<String>; SPELLINGS]; BASES];
                    for (i, request) in requests.iter().enumerate() {
                        let (text, want): (&str, &str) = match request {
                            Request::Hot { base, spelling } => {
                                let text = &hot[*base][*spelling];
                                let want = cold_hot[*base][*spelling].get_or_insert_with(|| {
                                    cold.serve(text, &mut cold_scratch).unwrap().to_owned()
                                });
                                (text, want)
                            }
                            Request::Novel { text, .. } => {
                                (text, cold.serve(text, &mut cold_scratch).unwrap())
                            }
                        };
                        let got = cached.serve(text, &mut cached_scratch).unwrap();
                        assert_eq!(got, want, "worker {w}, request {i}: {text:?}");
                    }
                    cached_scratch.cache_hits()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = cached.cache_stats().expect("cache installed");
    assert!(hits.iter().all(|&h| h > 0), "a worker never hit: {hits:?}");
    assert!(stats.evictions() > 0, "the cache never evicted");
    assert!(
        cached.cache_resizes().0 >= 1,
        "the controller never grew the cache (cap {:?})",
        cached.cache_value_cap()
    );
}

/// Novel variable names both workers intern, each in an order of its own.
const NOVEL_NAMES: usize = 16;
const PLANS_PER_WORKER: usize = 2_000;

/// Two members: `a` maps `http://a/p{k}` onto its own target predicate,
/// `b` maps `http://b/p{k}` likewise and its `p0` onto a second template as
/// well (a UNION). `http://c/...` is aligned nowhere and stays residual.
fn planner(it: &mut Interner, cache: bool) -> FederationPlanner {
    let mut planner = FederationPlanner::new();
    for ns in ["a", "b"] {
        let mut store = AlignmentStore::new();
        for k in 0..4 {
            let lhs = parse_bgp(&format!("?s <http://{ns}/p{k}> ?o"), it)
                .unwrap()
                .patterns[0];
            let rhs = parse_bgp(&format!("?s <http://{ns}-tgt/p{k}> ?o"), it)
                .unwrap()
                .patterns;
            store.add_predicate(lhs, rhs).unwrap();
        }
        if ns == "b" {
            let lhs = parse_bgp("?s <http://b/p0> ?o", it).unwrap().patterns[0];
            let rhs = parse_bgp("?s <http://b-alt/p0> ?m . ?m <http://b-alt/q> ?o", it)
                .unwrap()
                .patterns;
            store.add_predicate(lhs, rhs).unwrap();
        }
        let term = Term::iri(it.intern(&format!("http://{ns}.example.org/sparql")));
        planner.add_endpoint(term, Arc::new(store));
    }
    if cache {
        planner.enable_partition_cache(CacheConfig::default());
    }
    planner
}

/// What a plan ships: each endpoint's id and subquery, in dispatch order.
fn shipped(plan: &DispatchPlan) -> Vec<(u32, &str)> {
    plan.endpoints
        .iter()
        .map(|e| (e.endpoint.0, e.subquery.as_str()))
        .collect()
}

#[test]
fn cached_plans_are_byte_identical_to_uncached_across_worker_overlays() {
    let mut it = Interner::new();
    let cached = planner(&mut it, true);
    let uncached = planner(&mut it, false);

    let names: Vec<String> = (0..NOVEL_NAMES).map(|k| format!("novel{k}")).collect();
    let mut workers: Vec<Interner> = (0..2u64)
        .map(|w| {
            let mut order = names.clone();
            let mut rng = 0x91a4_0000 ^ (w + 1);
            for i in (1..order.len()).rev() {
                order.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
            }
            let mut interner = it.clone();
            for name in &order {
                interner.intern(name);
            }
            interner
        })
        .collect();
    // Both overlays hold the same ids, so a name whose id differs between
    // them also shares its id with another name.
    let [w0, w1] = &mut workers[..] else {
        unreachable!()
    };
    assert!(
        names.iter().any(|n| w0.intern(n) != w1.intern(n)),
        "test geometry: every novel name has one id in both overlays"
    );

    let limits = RewriteLimits::default();
    let mut rng = 0x91a4_5eed;
    for i in 0..PLANS_PER_WORKER {
        for (w, interner) in workers.iter_mut().enumerate() {
            let mut text = String::from("SELECT * WHERE {");
            for _ in 0..1 + xorshift(&mut rng) % 3 {
                let r = xorshift(&mut rng);
                let subject = &names[(r % NOVEL_NAMES as u64) as usize];
                let ns = ["a", "b", "c"][((r >> 8) % 3) as usize];
                text.push_str(&format!(
                    " ?{subject} <http://{ns}/p{}> ?o .",
                    (r >> 16) % 4
                ));
            }
            text.push_str(" }");
            let query = parse_query(&text, interner).unwrap();
            let got = cached
                .plan_for_dispatch(query.as_ref(), interner, limits)
                .unwrap();
            let want = uncached
                .plan_for_dispatch(query.as_ref(), interner, limits)
                .unwrap();
            assert_eq!(
                shipped(&got),
                shipped(&want),
                "worker {w}, plan {i}: {text}"
            );
        }
    }
    let stats = cached.partition_cache_stats();
    assert!(
        stats.hits > stats.misses,
        "the partition cache barely hit: {stats:?}"
    );
}
