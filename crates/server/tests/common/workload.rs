//! Deterministic synthetic workloads: alignment rule sets of configurable
//! size plus query batches that exercise them — flat BGP batches or
//! group-shaped batches (OPTIONAL / UNION / FILTER / nested groups) that
//! drive the recursive rewrite path — plus **skewed request streams**
//! ([`ZipfSpec`]) and textual perturbation helpers modeling how real
//! clients re-send the same logical query with different formatting.
//!
//! All randomness comes from a seeded xorshift64* generator so every run
//! sees byte-identical workloads.

use std::fmt::Write as _;
use std::sync::Arc;

use sparql_rewrite_core::{
    parse_query, AlignmentStore, Bgp, CmpOp, ExprNode, FederationPlanner, GroupPattern, Interner,
    Query, RuleTemplate, Term, TriplePattern,
};

/// xorshift64* — tiny, fast, deterministic; no `rand` crate in the offline
/// container.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// True with probability `num/den`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Uniform in `[0, 1)` (53-bit mantissa precision).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A Zipfian request-stream shape: `n_requests` draws over ranks
/// `0..n_distinct` where rank `i` has weight `1/(i+1)^s`. `s = 0.0` is
/// uniform; `s = 1.0` is the classic skew observed in public SPARQL
/// endpoint logs (a few head queries dominate, a long tail of one-offs).
#[derive(Copy, Clone, Debug)]
pub struct ZipfSpec {
    pub s: f64,
    pub n_distinct: usize,
    pub n_requests: usize,
    pub seed: u64,
}

/// Draw a seeded Zipfian rank stream: each element is a rank in
/// `0..n_distinct`, sampled by inverse-CDF binary search over the
/// cumulative weights (`O(log n)` per draw, exact for any `s`).
pub fn zipf_ranks(spec: &ZipfSpec) -> Vec<u32> {
    assert!(spec.n_distinct > 0, "zipf needs at least one distinct rank");
    let mut cumulative = Vec::with_capacity(spec.n_distinct);
    let mut total = 0.0f64;
    for i in 0..spec.n_distinct {
        total += 1.0 / ((i + 1) as f64).powf(spec.s);
        cumulative.push(total);
    }
    let mut rng = Rng::new(spec.seed);
    (0..spec.n_requests)
        .map(|_| {
            let u = rng.unit_f64() * total;
            cumulative
                .partition_point(|&c| c < u)
                .min(spec.n_distinct - 1) as u32
        })
        .collect()
}

/// Re-spell `text` with perturbed (but equivalent) whitespace: every
/// existing separator becomes a random run of spaces/tabs/newlines, and a
/// comment is occasionally injected. Parses to the same query; exercises
/// the cache normalizer's whitespace collapse.
///
/// Assumes `text` has no spaces *inside* string literals (true for every
/// generated workload and for rendered rewrites of them) — a literal
/// containing a space would be corrupted.
pub fn perturb_whitespace(text: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for c in text.chars() {
        if c == ' ' || c == '\n' {
            match rng.below(5) {
                0 => out.push_str("  "),
                1 => out.push_str("\n\t"),
                2 => out.push_str(" \n "),
                3 => out.push('\t'),
                _ => out.push(' '),
            }
            if rng.chance(1, 16) {
                out.push_str("# client comment\n");
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Re-spell `text` using a PREFIX alias: a `PREFIX {alias}: <{base}>`
/// prologue is prepended and every full-IRI occurrence `<{base}{local}>`
/// whose local part is a simple name becomes `{alias}:{local}`. Parses to
/// the same query (QNames expand right back); exercises the cache
/// normalizer's prefix resolution.
pub fn alias_prefix(text: &str, alias: &str, base: &str) -> String {
    let mut out = String::with_capacity(text.len() + alias.len() + base.len() + 16);
    out.push_str("PREFIX ");
    out.push_str(alias);
    out.push_str(": <");
    out.push_str(base);
    out.push_str(">\n");
    let needle = format!("<{base}");
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let local_start = at + needle.len();
        let Some(close) = rest[local_start..].find('>') else {
            break;
        };
        let local = &rest[local_start..local_start + close];
        out.push_str(&rest[..at]);
        if !local.is_empty()
            && local
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            out.push_str(alias);
            out.push(':');
            out.push_str(local);
        } else {
            out.push_str(&rest[at..local_start + close + 1]);
        }
        rest = &rest[local_start + close + 1..];
    }
    out.push_str(rest);
    out
}

pub struct Workload {
    pub interner: Interner,
    pub store: AlignmentStore,
    pub queries: Vec<Query>,
}

impl Workload {
    /// Render every query back to SPARQL text — the request form the
    /// serve engine and the HTTP front end take.
    pub fn query_texts(&self) -> Vec<String> {
        self.queries
            .iter()
            .map(|q| q.to_sparql(&self.interner))
            .collect()
    }
}

pub struct WorkloadSpec {
    pub n_rules: usize,
    pub patterns_per_query: usize,
    pub n_queries: usize,
    pub seed: u64,
    /// When true, queries are group graph patterns — a base triples run
    /// plus OPTIONAL, an explicit UNION, and a FILTER — and every eighth
    /// predicate carries a *second* template so multi-template UNION
    /// expansion fires on real traffic. When false, queries are the flat
    /// BGP batches of the original benchmark (byte-identical to the
    /// pre-group-pattern workloads for a given seed).
    pub group_shapes: bool,
}

/// Build a workload: `n_rules` alignments (half entity, half predicate —
/// 30% of predicate templates expand to a two-pattern chain introducing an
/// existential variable) and `n_queries` queries whose patterns hit the
/// rule set ~80% of the time.
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let mut rng = Rng::new(spec.seed);
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();

    let n_pred_rules = spec.n_rules / 2;
    let n_entity_rules = spec.n_rules - n_pred_rules;

    let mut src_preds = Vec::with_capacity(n_pred_rules);
    let mut src_entities = Vec::with_capacity(n_entity_rules);
    let mut name = String::with_capacity(64);
    let iri = |interner: &mut Interner, name: &mut String, base: &str, i: usize| -> Term {
        name.clear();
        name.push_str(base);
        name.push_str(&i.to_string());
        Term::iri(interner.intern(name))
    };

    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));
    let var_mid = Term::var(interner.intern("m"));

    for i in 0..n_pred_rules {
        let src = iri(&mut interner, &mut name, "http://src.example.org/onto/p", i);
        let tgt = iri(&mut interner, &mut name, "http://tgt.example.org/onto/p", i);
        src_preds.push(src);
        let lhs = TriplePattern::new(var_s, src, var_o);
        let rhs = if rng.chance(3, 10) {
            // Chain through an existential variable: ?s tgt ?m . ?m tgt' ?o
            let tgt2 = iri(&mut interner, &mut name, "http://tgt.example.org/onto/q", i);
            vec![
                TriplePattern::new(var_s, tgt, var_mid),
                TriplePattern::new(var_mid, tgt2, var_o),
            ]
        } else {
            vec![TriplePattern::new(var_s, tgt, var_o)]
        };
        store.add_predicate(lhs, rhs).expect("valid template");
    }
    for i in 0..n_entity_rules {
        let src = iri(&mut interner, &mut name, "http://src.example.org/ent/e", i);
        let tgt = iri(&mut interner, &mut name, "http://tgt.example.org/ent/e", i);
        src_entities.push(src);
        store.add_entity(src, tgt).expect("valid entity alignment");
    }
    if spec.group_shapes {
        // Second template on every eighth predicate: those patterns now
        // match two rules and must expand into a two-branch UNION.
        for i in (0..n_pred_rules).step_by(8) {
            let lhs = TriplePattern::new(var_s, src_preds[i], var_o);
            let alt = iri(&mut interner, &mut name, "http://tgt.example.org/alt/p", i);
            store
                .add_predicate(lhs, vec![TriplePattern::new(var_s, alt, var_o)])
                .expect("valid template");
        }
    }

    // Predicates/entities outside the rule set, for the ~20% miss traffic.
    let mut miss_preds = Vec::with_capacity(64);
    for i in 0..64 {
        miss_preds.push(iri(
            &mut interner,
            &mut name,
            "http://other.example.org/onto/p",
            i,
        ));
    }

    // Pre-intern query variables ?v0..?v63.
    let mut vars = Vec::with_capacity(64);
    for i in 0..64 {
        name.clear();
        name.push('v');
        name.push_str(&i.to_string());
        vars.push(Term::var(interner.intern(&name)));
    }

    let mut queries = Vec::with_capacity(spec.n_queries);
    if spec.group_shapes {
        let mut text = String::with_capacity(1024);
        for _ in 0..spec.n_queries {
            group_query_text(&mut rng, spec, n_pred_rules, n_entity_rules, &mut text);
            let q = parse_query(&text, &mut interner).expect("generated group query parses");
            queries.push(q);
        }
    } else {
        for _ in 0..spec.n_queries {
            let mut patterns = Vec::with_capacity(spec.patterns_per_query);
            for k in 0..spec.patterns_per_query {
                let s = vars[k % vars.len()];
                let p = if !src_preds.is_empty() && rng.chance(8, 10) {
                    src_preds[rng.below(src_preds.len())]
                } else {
                    miss_preds[rng.below(miss_preds.len())]
                };
                // A third of objects are concrete entities (half of those hit an
                // entity alignment), the rest chain to the next variable.
                let o = if !src_entities.is_empty() && rng.chance(1, 3) {
                    if rng.chance(1, 2) {
                        src_entities[rng.below(src_entities.len())]
                    } else {
                        vars[(k + 7) % vars.len()]
                    }
                } else {
                    vars[(k + 1) % vars.len()]
                };
                patterns.push(TriplePattern::new(s, p, o));
            }
            queries.push(Query {
                select: None,
                pattern: GroupPattern::from_bgp(&Bgp::new(patterns)),
            });
        }
    }

    Workload {
        interner,
        store,
        queries,
    }
}

/// Write one group-shaped query into `text`: roughly `patterns_per_query`
/// triples split across a base run, an OPTIONAL body, a two-branch UNION,
/// a nested group, and a FILTER whose operands hit the entity alignments.
fn group_query_text(
    rng: &mut Rng,
    spec: &WorkloadSpec,
    n_pred_rules: usize,
    n_entity_rules: usize,
    text: &mut String,
) {
    let pred = |rng: &mut Rng, out: &mut String| {
        if n_pred_rules > 0 && rng.chance(8, 10) {
            let _ = write!(
                out,
                "<http://src.example.org/onto/p{}>",
                rng.below(n_pred_rules)
            );
        } else {
            let _ = write!(out, "<http://other.example.org/onto/p{}>", rng.below(64));
        }
    };
    let triple = |rng: &mut Rng, out: &mut String, k: usize| {
        let _ = write!(out, "?v{} ", k % 64);
        pred(rng, out);
        let _ = write!(out, " ?v{} . ", (k + 1) % 64);
    };
    text.clear();
    text.push_str("SELECT * WHERE { ");
    let base = spec.patterns_per_query.saturating_sub(4).max(1);
    for k in 0..base {
        triple(rng, text, k);
    }
    text.push_str("OPTIONAL { ");
    triple(rng, text, base);
    text.push_str("} { ");
    triple(rng, text, base + 1);
    text.push_str("} UNION { { ");
    triple(rng, text, base + 2);
    text.push_str("} } ");
    let ent = if n_entity_rules > 0 {
        format!(
            "<http://src.example.org/ent/e{}>",
            rng.below(n_entity_rules)
        )
    } else {
        "<http://other.example.org/ent/e0>".to_string()
    };
    let _ = write!(
        text,
        "FILTER(?v0 != {ent} || ?v1 < {} && !(?v2 = \"x\"@en)) }}",
        rng.below(100)
    );
}

/// Shape of a federated workload: `n_endpoints` members, each with its own
/// vocabulary (`http://ep{e}.example.org/onto/p{i}`) and rule set, plus
/// queries whose patterns mix predicates from every member (and some no
/// member knows) so the planner's partitioning has real work to do.
pub struct FederationSpec {
    pub n_endpoints: usize,
    pub rules_per_endpoint: usize,
    pub n_queries: usize,
    pub patterns_per_query: usize,
    pub seed: u64,
}

pub struct FederationWorkload {
    pub interner: Interner,
    /// Planner with every endpoint's store registered, dense indexes built.
    pub planner: FederationPlanner,
    pub queries: Vec<Query>,
}

/// Build a federated workload from a seed. Every eighth predicate per
/// endpoint carries a second template, so partition rewrites grow UNION
/// branches; on the first endpoint every eighth predicate (offset by 4) is
/// a complex correspondence — alternating guarded templates and
/// existential chains with transform FILTERs — so complex rewriting runs
/// through the full federated pipeline; ~15% of query patterns use
/// predicates no endpoint aligns, exercising the residual (local)
/// partition.
pub fn generate_federation(spec: &FederationSpec) -> FederationWorkload {
    assert!(
        spec.n_endpoints > 0,
        "federation needs at least one endpoint"
    );
    let mut rng = Rng::new(spec.seed);
    let mut interner = Interner::new();
    let mut name = String::with_capacity(64);
    let iri = |interner: &mut Interner, name: &mut String, base: &str, i: usize| -> Term {
        name.clear();
        name.push_str(base);
        name.push_str(&i.to_string());
        Term::iri(interner.intern(name))
    };
    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));
    let var_mid = Term::var(interner.intern("m"));
    let lit_raw = Term::literal(interner.intern("\"raw\""));

    let mut stores = Vec::with_capacity(spec.n_endpoints);
    let mut endpoint_terms = Vec::with_capacity(spec.n_endpoints);
    let mut pred_pools: Vec<Vec<Term>> = Vec::with_capacity(spec.n_endpoints);
    for e in 0..spec.n_endpoints {
        let mut store = AlignmentStore::new();
        let onto = format!("http://ep{e}.example.org/onto/p");
        let tgt_base = format!("http://ep{e}.example.org/tgt/p");
        let mut preds = Vec::with_capacity(spec.rules_per_endpoint);
        for i in 0..spec.rules_per_endpoint {
            let src = iri(&mut interner, &mut name, &onto, i);
            let tgt = iri(&mut interner, &mut name, &tgt_base, i);
            preds.push(src);
            let lhs = TriplePattern::new(var_s, src, var_o);
            if e == 0 && i % 8 == 4 {
                // The first endpoint serves complex correspondences too:
                // alternating guarded 1:1 templates (the guard is
                // undecidable against variable-object traffic, so it rides
                // into the SERVICE subquery as a residual FILTER) and
                // existential chains with a value-transform FILTER.
                let tmpl = if i % 16 == 4 {
                    let mut t =
                        RuleTemplate::from_triples(vec![TriplePattern::new(var_s, tgt, var_o)]);
                    let l = t.push_expr(ExprNode::Term(var_o));
                    let gate = iri(&mut interner, &mut name, "http://ep0.example.org/gate/g", i);
                    let r = t.push_expr(ExprNode::Term(gate));
                    let g = t.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
                    t.set_guard(g);
                    t
                } else {
                    let link = iri(&mut interner, &mut name, "http://ep0.example.org/link/p", i);
                    let mut t = RuleTemplate::from_triples(vec![
                        TriplePattern::new(var_s, tgt, var_mid),
                        TriplePattern::new(var_mid, link, var_o),
                    ]);
                    let l = t.push_expr(ExprNode::Term(var_o));
                    let r = t.push_expr(ExprNode::Term(lit_raw));
                    let f = t.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
                    t.push_filter(f);
                    t
                };
                store
                    .add_complex_predicate(lhs, tmpl)
                    .expect("valid complex template");
                continue;
            }
            store
                .add_predicate(lhs, vec![TriplePattern::new(var_s, tgt, var_o)])
                .expect("valid template");
            if i % 8 == 0 {
                let alt = iri(
                    &mut interner,
                    &mut name,
                    &format!("http://ep{e}.example.org/alt/p"),
                    i,
                );
                store
                    .add_predicate(
                        TriplePattern::new(var_s, src, var_o),
                        vec![TriplePattern::new(var_s, alt, var_o)],
                    )
                    .expect("valid template");
            }
        }
        endpoint_terms.push(Term::iri(
            interner.intern(&format!("http://ep{e}.example.org/sparql")),
        ));
        stores.push(store);
        pred_pools.push(preds);
    }

    let mut miss_preds = Vec::with_capacity(32);
    for i in 0..32 {
        miss_preds.push(iri(
            &mut interner,
            &mut name,
            "http://nobody.example.org/onto/p",
            i,
        ));
    }
    let mut vars = Vec::with_capacity(32);
    for i in 0..32 {
        name.clear();
        name.push('v');
        name.push_str(&i.to_string());
        vars.push(Term::var(interner.intern(&name)));
    }

    let mut queries = Vec::with_capacity(spec.n_queries);
    for _ in 0..spec.n_queries {
        let mut patterns = Vec::with_capacity(spec.patterns_per_query);
        for k in 0..spec.patterns_per_query {
            let p = if rng.chance(85, 100) {
                let pool = &pred_pools[rng.below(spec.n_endpoints)];
                pool[rng.below(pool.len())]
            } else {
                miss_preds[rng.below(miss_preds.len())]
            };
            patterns.push(TriplePattern::new(
                vars[k % vars.len()],
                p,
                vars[(k + 1) % vars.len()],
            ));
        }
        queries.push(Query {
            select: None,
            pattern: GroupPattern::from_bgp(&Bgp::new(patterns)),
        });
    }

    let mut planner = FederationPlanner::new();
    for (store, term) in stores.into_iter().zip(endpoint_terms) {
        planner.add_endpoint(term, Arc::new(store));
    }
    FederationWorkload {
        interner,
        planner,
        queries,
    }
}
