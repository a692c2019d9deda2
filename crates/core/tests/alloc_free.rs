//! Steady-state rewriting performs zero heap allocations.
//!
//! This binary installs a counting global allocator, warms a
//! [`RewriteScratch`] over a workload once, then asserts that repeated
//! `rewrite_ref_into` calls never touch the allocator again. The workload
//! deliberately exercises every allocation-prone path: entity substitution,
//! one-to-many template expansion, multi-template UNION expansion,
//! fresh-variable minting, rule misses, and recursive group-pattern
//! rewriting (nested groups, OPTIONAL, UNION, FILTER trees).

use sparql_rewrite_chaos::counting_alloc::{thread_allocation_count, CountingAllocator};
use sparql_rewrite_core::{
    fingerprint_query, parse_bgp, parse_query, parse_query_into, render_query_into, AlignmentStore,
    CacheConfig, CmpOp, ExprNode, Interner, ParseScratch, Query, QueryRef, RewriteCache,
    RewriteScratch, Rewriter, RuleTemplate, ServeEngine, Term,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn build_fixture() -> (AlignmentStore, Vec<Query>) {
    let mut it = Interner::new();
    let mut store = AlignmentStore::new();
    // Entity alignment, 1:1 template, and 1:2 template with an existential.
    store
        .add_entity(
            parse_bgp("?x <http://src/E> ?y", &mut it).unwrap().patterns[0].p,
            parse_bgp("?x <http://tgt/E> ?y", &mut it).unwrap().patterns[0].p,
        )
        .unwrap();
    let lhs1 = parse_bgp("?a <http://src/one> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let rhs1 = parse_bgp("?b <http://tgt/one> ?a", &mut it)
        .unwrap()
        .patterns;
    store.add_predicate(lhs1, rhs1).unwrap();
    let lhs2 = parse_bgp("?a <http://src/split> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let rhs2 = parse_bgp(
        "?a <http://tgt/h> ?m . ?m <http://tgt/t> ?b . ?m <http://tgt/k> _:bn",
        &mut it,
    )
    .unwrap()
    .patterns;
    store.add_predicate(lhs2, rhs2).unwrap();
    // Two templates on one predicate: every `src:multi` pattern expands into
    // a two-branch UNION.
    let lhs3 = parse_bgp("?a <http://src/multi> ?b", &mut it)
        .unwrap()
        .patterns[0];
    for tgt in ["m1", "m2"] {
        let rhs = parse_bgp(&format!("?a <http://tgt/{tgt}> ?b"), &mut it)
            .unwrap()
            .patterns;
        store.add_predicate(lhs3, rhs).unwrap();
    }

    let queries = vec![
        parse_query(
            "SELECT ?a ?b WHERE { ?a <http://src/one> ?b . ?a <http://src/E> ?b }",
            &mut it,
        )
        .unwrap(),
        parse_query(
            "SELECT * WHERE { ?p <http://src/split> ?q . ?q <http://src/split> ?r . ?r <http://miss/p> ?s }",
            &mut it,
        )
        .unwrap(),
        parse_query("SELECT ?x WHERE { ?x <http://nohit/p> <http://nohit/o> }", &mut it).unwrap(),
        // Group-pattern shapes driven through the recursive path: nested
        // group, OPTIONAL, explicit UNION, FILTER with entity substitution,
        // and a multi-template UNION expansion inside the OPTIONAL.
        parse_query(
            "SELECT * WHERE { ?a <http://src/one> ?b . \
             OPTIONAL { ?b <http://src/multi> ?c } \
             { ?c <http://src/split> ?d } UNION { { ?c <http://src/one> ?e } } \
             FILTER(?b != <http://src/E> && ?c < 42 || !(?d = \"z\"@en)) }",
            &mut it,
        )
        .unwrap(),
        // A multi-match at top level sandwiched between pass-throughs.
        parse_query(
            "SELECT * WHERE { ?x <http://miss/p> ?y . ?x <http://src/multi> ?z . \
             ?z <http://miss/q> ?w }",
            &mut it,
        )
        .unwrap(),
    ];
    (store, queries)
}

#[test]
fn steady_state_rewrite_ref_into_is_allocation_free() {
    let (store, queries) = build_fixture();
    let rewriter = &store;
    let mut scratch = RewriteScratch::new();

    // Warm-up: first pass may grow the scratch buffers.
    for q in &queries {
        rewriter.rewrite_ref_into(q.as_ref(), &mut scratch);
    }
    let expected: Vec<(usize, u32)> = queries
        .iter()
        .map(|q| {
            rewriter.rewrite_ref_into(q.as_ref(), &mut scratch);
            (scratch.pattern().triples.len(), scratch.fresh_count())
        })
        .collect();

    let before = thread_allocation_count();
    for _ in 0..1_000 {
        for (q, exp) in queries.iter().zip(&expected) {
            rewriter.rewrite_ref_into(q.as_ref(), &mut scratch);
            assert_eq!(
                (scratch.pattern().triples.len(), scratch.fresh_count()),
                *exp
            );
        }
    }
    let after = thread_allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state rewrite_ref_into must not allocate"
    );
}

/// Query texts covering the allocation-prone parse paths: PREFIX + QName
/// expansion, flat predicate-object/object lists, full group shapes
/// (nested group, OPTIONAL, UNION, FILTER with typed-literal sugar), and
/// predicates that the fixture's rule set expands into a multi-branch
/// UNION at rewrite time.
const PIPELINE_TEXTS: &[&str] = &[
    "PREFIX src: <http://src/>\nSELECT ?a ?b WHERE { ?a src:one ?b ; src:E ?b . ?b src:one ?a , ?c }",
    "SELECT * WHERE { ?p <http://src/split> ?q . ?q <http://miss/p> 42 . ?q <http://miss/q> \"x\"@en }",
    "SELECT * WHERE { ?a <http://src/one> ?b . \
     OPTIONAL { ?b <http://src/multi> ?c } \
     { ?c <http://src/split> ?d } UNION { { ?c <http://src/one> ?e } } \
     FILTER(?b != <http://src/E> && ?c < 42 || !(?d = \"z\"@en)) }",
    "SELECT * WHERE { ?x <http://miss/p> ?y . ?x <http://src/multi> ?z . ?z <http://miss/q> true }",
];

#[test]
fn steady_state_parse_query_into_is_allocation_free() {
    let mut it = Interner::new();
    let mut scratch = ParseScratch::new();
    // Warm-up: first pass interns every distinct string and grows the
    // scratch buffers to the batch's high-water mark.
    for text in PIPELINE_TEXTS {
        parse_query_into(text, &mut it, &mut scratch).unwrap();
    }
    let expected: Vec<(usize, usize)> = PIPELINE_TEXTS
        .iter()
        .map(|text| {
            parse_query_into(text, &mut it, &mut scratch).unwrap();
            (
                scratch.pattern().triples.len(),
                scratch.select().map_or(0, <[_]>::len),
            )
        })
        .collect();

    let before = thread_allocation_count();
    for _ in 0..1_000 {
        for (text, exp) in PIPELINE_TEXTS.iter().zip(&expected) {
            parse_query_into(text, &mut it, &mut scratch).unwrap();
            assert_eq!(
                (
                    scratch.pattern().triples.len(),
                    scratch.select().map_or(0, <[_]>::len)
                ),
                *exp
            );
        }
    }
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "steady-state parse_query_into must not allocate"
    );
}

/// Rules over the same vocabulary as PIPELINE_TEXTS, including the
/// two-template `src:multi` predicate whose rewrite expands a UNION, and
/// the interner they were built with — rule terms and query terms must
/// share symbols.
fn pipeline_rules() -> (AlignmentStore, Interner) {
    let mut it = Interner::new();
    let mut store = AlignmentStore::new();
    store
        .add_entity(
            parse_bgp("?x <http://src/E> ?y", &mut it).unwrap().patterns[0].p,
            parse_bgp("?x <http://tgt/E> ?y", &mut it).unwrap().patterns[0].p,
        )
        .unwrap();
    let lhs1 = parse_bgp("?a <http://src/one> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let rhs1 = parse_bgp("?b <http://tgt/one> ?a", &mut it)
        .unwrap()
        .patterns;
    store.add_predicate(lhs1, rhs1).unwrap();
    let lhs2 = parse_bgp("?a <http://src/split> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let rhs2 = parse_bgp("?a <http://tgt/h> ?m . ?m <http://tgt/t> ?b", &mut it)
        .unwrap()
        .patterns;
    store.add_predicate(lhs2, rhs2).unwrap();
    let lhs3 = parse_bgp("?a <http://src/multi> ?b", &mut it)
        .unwrap()
        .patterns[0];
    for tgt in ["m1", "m2"] {
        let rhs = parse_bgp(&format!("?a <http://tgt/{tgt}> ?b"), &mut it)
            .unwrap()
            .patterns;
        store.add_predicate(lhs3, rhs).unwrap();
    }
    (store, it)
}

#[test]
fn steady_state_parse_rewrite_render_pipeline_is_allocation_free() {
    let (store, mut it) = pipeline_rules();
    let rewriter = &store;
    let mut parse = ParseScratch::new();
    let mut rewrite = RewriteScratch::new();
    let mut fresh_base = String::new();
    let mut out = String::new();

    let serve = |text: &str,
                 it: &mut Interner,
                 parse: &mut ParseScratch,
                 rewrite: &mut RewriteScratch,
                 fresh_base: &mut String,
                 out: &mut String| {
        parse_query_into(text, it, parse).unwrap();
        rewriter.rewrite_ref_into(parse.query_ref(), rewrite);
        render_query_into(
            QueryRef {
                select: rewrite.select(),
                pattern: rewrite.pattern(),
            },
            it,
            fresh_base,
            out,
        );
        out.len()
    };

    for text in PIPELINE_TEXTS {
        serve(
            text,
            &mut it,
            &mut parse,
            &mut rewrite,
            &mut fresh_base,
            &mut out,
        );
    }
    let expected: Vec<usize> = PIPELINE_TEXTS
        .iter()
        .map(|t| {
            serve(
                t,
                &mut it,
                &mut parse,
                &mut rewrite,
                &mut fresh_base,
                &mut out,
            )
        })
        .collect();

    let before = thread_allocation_count();
    for _ in 0..1_000 {
        for (text, exp) in PIPELINE_TEXTS.iter().zip(&expected) {
            let len = serve(
                text,
                &mut it,
                &mut parse,
                &mut rewrite,
                &mut fresh_base,
                &mut out,
            );
            assert_eq!(len, *exp);
        }
    }
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "steady-state parse → rewrite → render must not allocate"
    );
}

#[test]
fn cache_hit_path_is_allocation_free() {
    // The cache probe — fingerprint, lookup, copy-out — is the entire
    // serve path for a repeated query, so it must be as allocation-free as
    // the pipeline it short-circuits. Fingerprinting itself must also stay
    // clean on the miss path (it runs before every cold serve).
    let cache = RewriteCache::new(CacheConfig::default());
    let texts: Vec<String> = PIPELINE_TEXTS.iter().map(|t| t.to_string()).collect();
    let fps: Vec<_> = texts
        .iter()
        .map(|t| fingerprint_query(t).expect("pipeline texts are cacheable"))
        .collect();
    for (i, fp) in fps.iter().enumerate() {
        cache.insert(*fp, 0, format!("rendered-{i}").into_bytes().as_slice());
    }
    let mut buf = Vec::with_capacity(cache.value_cap());
    // Warm pass.
    for (text, fp) in texts.iter().zip(&fps) {
        assert_eq!(fingerprint_query(text), Some(*fp));
        assert!(cache.lookup(*fp, 0, &mut buf));
    }
    let before = thread_allocation_count();
    for _ in 0..1_000 {
        for text in &texts {
            let computed = fingerprint_query(text).expect("cacheable");
            assert!(cache.lookup(computed, 0, &mut buf));
        }
    }
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "steady-state fingerprint + cache lookup must not allocate"
    );
}

/// A repeated request through `ServeEngine::serve` is fingerprint + probe +
/// one copy into the scratch's output string: no allocation, and the bytes
/// of the cold render.
#[test]
fn serve_hit_path_is_allocation_free() {
    let serve_all = |engine: &ServeEngine| {
        let mut scratch = engine.scratch();
        PIPELINE_TEXTS
            .iter()
            .map(|t| engine.serve(t, &mut scratch).unwrap().to_owned())
            .collect::<Vec<String>>()
    };
    let (store, it) = pipeline_rules();
    let cold = serve_all(&ServeEngine::with_cache(store, it, None));
    let (store, it) = pipeline_rules();
    let engine = ServeEngine::with_cache(store, it, Some(CacheConfig::default()));
    let mut scratch = engine.scratch();
    // The first pass renders and fills the cache; the second hits, and may
    // grow the output string once to a whole number of words.
    for _ in 0..2 {
        for text in PIPELINE_TEXTS {
            engine.serve(text, &mut scratch).unwrap();
        }
    }
    scratch.reset_cache_counters();
    let before = thread_allocation_count();
    for _ in 0..1_000 {
        for (text, expected) in PIPELINE_TEXTS.iter().zip(&cold) {
            assert_eq!(engine.serve(text, &mut scratch).unwrap(), expected);
        }
    }
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "steady-state cache hits must not allocate"
    );
    assert_eq!(scratch.cache_hits(), 1_000 * PIPELINE_TEXTS.len() as u64);
}

/// Resetting a worker's interner overlay between requests keeps every
/// buffer: once a fill-and-reset cycle has run, the next ones allocate
/// nothing.
#[test]
fn warm_overlay_reset_allocates_nothing() {
    let mut build = Interner::new();
    build.intern("http://src/one");
    let base = build.len();
    let mut worker = build.clone();
    // Fixed-width literals: every cycle refills the overlay to the same
    // byte count. 10,000 novel strings pass the overlay bound twice over.
    let literals: Vec<String> = (0..30_000).map(|i| format!("\"{i:06}\"")).collect();
    let request = |lit: &String, worker: &mut Interner| {
        worker.trim_overlay();
        worker.intern("s");
        worker.intern(lit);
        worker.len() - base
    };
    for lit in &literals[..20_000] {
        request(lit, &mut worker);
    }
    let before = thread_allocation_count();
    let mut resets = 0;
    let mut last = worker.len() - base;
    for lit in &literals[20_000..] {
        let overlay = request(lit, &mut worker);
        resets += usize::from(overlay < last);
        last = overlay;
    }
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "a warm overlay reset must not allocate"
    );
    assert!(resets >= 2, "the overlay was reset {resets} times");
    assert_eq!(worker.get("http://src/one").map(|s| s.index()), Some(0));
}

/// Complex correspondences — guarded rules (statically true / statically
/// false / undecidable), existential chain templates, and value-transform
/// FILTERs — must be as allocation-free in steady state as flat templates.
/// This drives the guard pre-pass, residual-FILTER emission (expression
/// pool import with leaf substitution), and UNION branches that carry an
/// inner group + FILTER chain.
#[test]
fn complex_rule_rewriting_is_allocation_free() {
    let mut it = Interner::new();
    let mut store = AlignmentStore::new();

    // Guarded 1:1: fires only when ?b = <http://val/yes>; an undecidable
    // match carries the instantiated guard along as a residual FILTER.
    let g_lhs = parse_bgp("?a <http://src/g> ?b", &mut it).unwrap().patterns[0];
    let mut tmpl =
        RuleTemplate::from_triples(parse_bgp("?a <http://tgt/g> ?b", &mut it).unwrap().patterns);
    let l = tmpl.push_expr(ExprNode::Term(g_lhs.o));
    let r = tmpl.push_expr(ExprNode::Term(Term::iri(it.intern("http://val/yes"))));
    let g = tmpl.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r));
    tmpl.set_guard(g);
    store.add_complex_predicate(g_lhs, tmpl).unwrap();

    // 1:2 existential chain plus an emitted value-transform FILTER.
    let c_lhs = parse_bgp("?a <http://src/len> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let mut tmpl = RuleTemplate::from_triples(
        parse_bgp("?a <http://tgt/q> ?m . ?m <http://tgt/v> ?b", &mut it)
            .unwrap()
            .patterns,
    );
    let l = tmpl.push_expr(ExprNode::Term(c_lhs.o));
    let r = tmpl.push_expr(ExprNode::Term(Term::literal(it.intern("\"0\""))));
    let f = tmpl.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
    tmpl.push_filter(f);
    store.add_complex_predicate(c_lhs, tmpl).unwrap();

    // Flat + guarded templates colliding on one predicate: every match
    // expands into a UNION whose second branch is a group with a residual
    // FILTER inside.
    let m_lhs = parse_bgp("?a <http://src/multi> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let flat = parse_bgp("?a <http://tgt/m1> ?b", &mut it)
        .unwrap()
        .patterns;
    store.add_predicate(m_lhs, flat).unwrap();
    let mut tmpl = RuleTemplate::from_triples(
        parse_bgp("?a <http://tgt/m2> ?b", &mut it)
            .unwrap()
            .patterns,
    );
    let l = tmpl.push_expr(ExprNode::Term(m_lhs.s));
    let r = tmpl.push_expr(ExprNode::Term(Term::iri(it.intern("http://ex/skip"))));
    let g = tmpl.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
    tmpl.set_guard(g);
    store.add_complex_predicate(m_lhs, tmpl).unwrap();

    let queries = vec![
        // Guard statically true, statically false (rule pruned, pattern
        // passes through), and undecidable (residual FILTER emitted).
        parse_query(
            "SELECT * WHERE { ?x <http://src/g> <http://val/yes> }",
            &mut it,
        )
        .unwrap(),
        parse_query(
            "SELECT * WHERE { ?x <http://src/g> <http://val/no> }",
            &mut it,
        )
        .unwrap(),
        parse_query("SELECT * WHERE { ?x <http://src/g> ?y }", &mut it).unwrap(),
        // Chain + transform twice over: two fresh existentials minted.
        parse_query(
            "SELECT * WHERE { ?x <http://src/len> ?y . ?y <http://src/len> ?z }",
            &mut it,
        )
        .unwrap(),
        parse_query("SELECT * WHERE { ?x <http://src/multi> ?y }", &mut it).unwrap(),
    ];

    let rewriter = &store;
    let mut scratch = RewriteScratch::new();
    for q in &queries {
        rewriter.rewrite_ref_into(q.as_ref(), &mut scratch);
    }
    let expected: Vec<(usize, u32)> = queries
        .iter()
        .map(|q| {
            rewriter.rewrite_ref_into(q.as_ref(), &mut scratch);
            (scratch.pattern().triples.len(), scratch.fresh_count())
        })
        .collect();

    let before = thread_allocation_count();
    for _ in 0..1_000 {
        for (q, exp) in queries.iter().zip(&expected) {
            rewriter.rewrite_ref_into(q.as_ref(), &mut scratch);
            assert_eq!(
                (scratch.pattern().triples.len(), scratch.fresh_count()),
                *exp
            );
        }
    }
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "steady-state complex-rule rewriting must not allocate"
    );
}

/// The federation planner's call: a pattern with no projection.
#[test]
fn pattern_only_rewrite_is_allocation_free_after_warmup() {
    let (store, queries) = build_fixture();
    let rewriter = &store;
    let mut scratch = RewriteScratch::new();
    fn pattern_only(q: &Query) -> QueryRef<'_> {
        QueryRef {
            select: None,
            pattern: &q.pattern,
        }
    }
    for q in &queries {
        rewriter.rewrite_ref_into(pattern_only(q), &mut scratch);
    }
    let before = thread_allocation_count();
    for _ in 0..100 {
        for q in &queries {
            rewriter.rewrite_ref_into(pattern_only(q), &mut scratch);
        }
    }
    assert_eq!(thread_allocation_count() - before, 0);
}

/// A worker's scratch shares the engine's interned strings instead of
/// copying them: building one costs the same allocations over a
/// 100k-symbol vocabulary as over a 10-symbol one.
#[test]
fn serve_scratch_allocations_do_not_scale_with_the_vocabulary() {
    let scratch_allocs = |n_symbols: usize| {
        let mut it = Interner::new();
        for i in 0..n_symbols {
            it.intern(&format!("http://src/e{i}"));
        }
        let engine =
            ServeEngine::with_cache(AlignmentStore::new(), it, Some(CacheConfig::default()));
        let before = thread_allocation_count();
        let scratch = engine.scratch();
        let allocs = thread_allocation_count() - before;
        drop(scratch);
        allocs
    };
    assert_eq!(scratch_allocs(100_000), scratch_allocs(10));
}
