//! Rewriter semantics: entity substitution, predicate-template expansion,
//! multi-template UNION expansion, recursive group rewriting, FILTER
//! substitution, variable-capture avoidance, and `RewriteLimits` boundaries
//! on random rule sets and random group-shaped queries. Whether rewrites
//! return the right answers is checked in `tests/oracle.rs`.

use sparql_rewrite_core::{
    parse_bgp, parse_query, AlignmentStore, Bgp, CmpOp, ExprNode, GroupPattern, Interner,
    PatternNode, Query, RewriteError, RewriteLimits, RewriteScratch, Rewriter, RuleTemplate, Term,
    TriplePattern,
};

mod common;
use common::{random_group_query_text, rewrite, Rng};

fn iri(i: &mut Interner, s: &str) -> Term {
    Term::iri(i.intern(s))
}

fn var(i: &mut Interner, s: &str) -> Term {
    Term::var(i.intern(s))
}

/// `SELECT * WHERE { bgp }`.
fn star(bgp: &Bgp) -> Query {
    Query {
        select: None,
        pattern: GroupPattern::from_bgp(bgp),
    }
}

/// The root group's nodes, materialized for shape assertions.
fn root_nodes(p: &GroupPattern) -> Vec<PatternNode> {
    p.root_children().map(|c| p.nodes[c as usize]).collect()
}

#[test]
fn entity_substitution_all_positions() {
    let mut it = Interner::new();
    let src = iri(&mut it, "http://src/Person");
    let tgt = iri(&mut it, "http://tgt/Agent");
    let src_p = iri(&mut it, "http://src/knows");
    let tgt_p = iri(&mut it, "http://tgt/acquaintedWith");
    let mut store = AlignmentStore::new();
    store.add_entity(src, tgt).unwrap();
    store.add_entity(src_p, tgt_p).unwrap();

    // src appears as subject and object, src_p as predicate.
    let bgp = Bgp::new(vec![
        TriplePattern::new(src, src_p, src),
        TriplePattern::new(var(&mut it, "x"), src_p, var(&mut it, "y")),
    ]);
    let rewritten = rewrite(&store, &star(&bgp)).pattern;
    assert_eq!(
        rewritten.triples,
        vec![
            TriplePattern::new(tgt, tgt_p, tgt),
            TriplePattern::new(var(&mut it, "x"), tgt_p, var(&mut it, "y")),
        ]
    );
    assert!(rewritten.is_flat());
}

#[test]
fn entity_substitution_via_parsed_query() {
    let mut it = Interner::new();
    let query = parse_query(
        "PREFIX src: <http://src/>\n\
         SELECT ?name WHERE { ?p src:name ?name . ?p a src:Person }",
        &mut it,
    )
    .unwrap();
    let mut store = AlignmentStore::new();
    store
        .add_entity(
            iri(&mut it, "http://src/Person"),
            iri(&mut it, "http://tgt/Agent"),
        )
        .unwrap();
    store
        .add_entity(
            iri(&mut it, "http://src/name"),
            iri(&mut it, "http://tgt/label"),
        )
        .unwrap();
    let out = rewrite(&store, &query);
    let rendered = out.to_sparql(&it);
    assert!(rendered.contains("<http://tgt/label>"), "{rendered}");
    assert!(rendered.contains("<http://tgt/Agent>"), "{rendered}");
    assert!(!rendered.contains("http://src/"), "{rendered}");
    // rdf:type stays untouched.
    assert!(
        rendered.contains("<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"),
        "{rendered}"
    );
}

#[test]
fn predicate_template_one_to_many_expansion() {
    let mut it = Interner::new();
    // ?x src:name ?n  =>  ?x tgt:firstName ?f . ?x tgt:lastName ?l
    // (?f, ?l are template-introduced existentials)
    let lhs = parse_bgp("?x <http://src/name> ?n", &mut it)
        .unwrap()
        .patterns[0];
    let rhs = parse_bgp(
        "?x <http://tgt/firstName> ?f . ?x <http://tgt/lastName> ?l",
        &mut it,
    )
    .unwrap()
    .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();

    let query = parse_query(
        "SELECT ?who WHERE { ?who <http://src/name> \"Ada\" }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    assert_eq!(out.pattern.triples.len(), 2);
    let [a, b] = [out.pattern.triples[0], out.pattern.triples[1]];
    // ?x bound to ?who in both output patterns.
    assert_eq!(a.s, var(&mut it, "who"));
    assert_eq!(b.s, var(&mut it, "who"));
    assert_eq!(a.p, iri(&mut it, "http://tgt/firstName"));
    assert_eq!(b.p, iri(&mut it, "http://tgt/lastName"));
    // The literal "Ada" bound nothing (lhs object ?n is unused in rhs);
    // objects are structural fresh existentials, distinct from each other.
    assert!(a.o.is_fresh() && b.o.is_fresh());
    assert_ne!(a.o, b.o);
}

#[test]
fn template_with_concrete_lhs_object_matches_selectively() {
    let mut it = Interner::new();
    // Only rewrite `?x src:type src:Special` patterns.
    let lhs = parse_bgp("?x <http://src/type> <http://src/Special>", &mut it)
        .unwrap()
        .patterns[0];
    let rhs = parse_bgp("?x <http://tgt/kind> <http://tgt/Special>", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs.clone()).unwrap();

    let hit = parse_bgp("?a <http://src/type> <http://src/Special>", &mut it).unwrap();
    let miss = parse_bgp("?a <http://src/type> <http://src/Other>", &mut it).unwrap();
    let hit_out = rewrite(&store, &star(&hit)).pattern;
    assert_eq!(hit_out.triples[0].p, iri(&mut it, "http://tgt/kind"));
    let miss_out = rewrite(&store, &star(&miss)).pattern;
    assert_eq!(
        miss_out,
        GroupPattern::from_bgp(&miss),
        "non-matching object must not rewrite"
    );
}

#[test]
fn repeated_lhs_variable_requires_equal_terms() {
    let mut it = Interner::new();
    // ?x src:sameAs ?x — only matches reflexive patterns.
    let lhs = parse_bgp("?x <http://src/sameAs> ?x", &mut it)
        .unwrap()
        .patterns[0];
    let rhs = parse_bgp("?x <http://tgt/reflexive> ?x", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();

    let reflexive = parse_bgp("?a <http://src/sameAs> ?a", &mut it).unwrap();
    let out = rewrite(&store, &star(&reflexive)).pattern;
    assert_eq!(out.triples[0].p, iri(&mut it, "http://tgt/reflexive"));

    let non_reflexive = parse_bgp("?a <http://src/sameAs> ?b", &mut it).unwrap();
    let out = rewrite(&store, &star(&non_reflexive)).pattern;
    assert_eq!(out, GroupPattern::from_bgp(&non_reflexive));
}

#[test]
fn fresh_variables_avoid_capture() {
    let mut it = Interner::new();
    // Template introduces ?m; the query already uses ?m AND the first few
    // generated names (?g0, ?g1), so naive renaming would capture.
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p1> ?m . ?m <http://tgt/p2> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();

    let query = parse_query(
        "SELECT * WHERE { ?m <http://src/p> ?g0 . ?g0 <http://other/q> ?g1 }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    assert_eq!(out.pattern.triples.len(), 3);
    let intro = out.pattern.triples[0].o; // the renamed ?m from the template
    assert!(intro.is_fresh(), "template existentials are Fresh terms");
    // The introduced variable is none of the query's variables.
    for taken in ["m", "g0", "g1"] {
        assert_ne!(intro, var(&mut it, taken), "captured ?{taken}");
    }
    // And it joins the two expanded patterns.
    assert_eq!(out.pattern.triples[1].s, intro);
    // Untouched pattern still references the original ?g0/?g1.
    assert_eq!(out.pattern.triples[2].s, var(&mut it, "g0"));
    assert_eq!(out.pattern.triples[2].o, var(&mut it, "g1"));
}

#[test]
fn fresh_variables_distinct_across_multiple_expansions() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> ?m . ?m <http://tgt/q> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();

    // The same rule fires twice; each expansion must mint a distinct ?m.
    let query = parse_query(
        "SELECT * WHERE { ?a <http://src/p> ?b . ?c <http://src/p> ?d }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    assert_eq!(out.pattern.triples.len(), 4);
    let m1 = out.pattern.triples[0].o;
    let m2 = out.pattern.triples[2].o;
    assert_ne!(m1, m2, "existentials from separate expansions must differ");
}

#[test]
fn entity_substitution_feeds_template_matching() {
    let mut it = Interner::new();
    // Entity rule maps the predicate into the vocabulary the template
    // expects; template must fire on the substituted pattern.
    let old_p = iri(&mut it, "http://legacy/knows");
    let src_p = iri(&mut it, "http://src/knows");
    let mut store = AlignmentStore::new();
    store.add_entity(old_p, src_p).unwrap();
    let lhs = parse_bgp("?a <http://src/knows> ?b", &mut it)
        .unwrap()
        .patterns[0];
    let rhs = parse_bgp("?b <http://tgt/knownBy> ?a", &mut it)
        .unwrap()
        .patterns;
    store.add_predicate(lhs, rhs).unwrap();

    let query = parse_bgp("?x <http://legacy/knows> ?y", &mut it).unwrap();
    let out = rewrite(&store, &star(&query)).pattern;
    assert_eq!(
        out.triples,
        vec![TriplePattern::new(
            var(&mut it, "y"),
            iri(&mut it, "http://tgt/knownBy"),
            var(&mut it, "x"),
        )]
    );
}

// ---------------------------------------------------------------------------
// Multi-template matches: the paper's union semantics. These tests fail on
// a first-match-wins rewriter — every alternative must survive.
// ---------------------------------------------------------------------------

#[test]
fn two_matching_templates_expand_to_a_union_of_both() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs1 = parse_bgp("?s <http://tgt/first> ?o", &mut it)
        .unwrap()
        .patterns;
    let rhs2 = parse_bgp("?s <http://tgt/second> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs1).unwrap();
    store.add_predicate(lhs, rhs2).unwrap();
    let query = parse_bgp("?x <http://src/p> ?y", &mut it).unwrap();
    let out = rewrite(&store, &star(&query)).pattern;
    // Shape: root group holds exactly one UNION with two group branches.
    let nodes = root_nodes(&out);
    assert_eq!(nodes.len(), 1, "{nodes:?}");
    let PatternNode::Union { first } = nodes[0] else {
        panic!("expected a UNION node, got {nodes:?} — alternatives were dropped");
    };
    let branches: Vec<u32> = out.children_from(first).collect();
    assert_eq!(branches.len(), 2, "one branch per matching template");
    // Branch order follows rule-id order: first, then second.
    let branch_pred = |b: u32| -> Term {
        let PatternNode::Group { first } = out.nodes[b as usize] else {
            panic!("union branch must be a group");
        };
        let run = out.children_from(first).next().unwrap();
        out.run(run)[0].p
    };
    assert_eq!(branch_pred(branches[0]), iri(&mut it, "http://tgt/first"));
    assert_eq!(branch_pred(branches[1]), iri(&mut it, "http://tgt/second"));
}

#[test]
fn union_expansion_preserves_surrounding_conjunction() {
    let mut it = Interner::new();
    // One multi-match triple sandwiched between two pass-through triples:
    // the group must keep the order run / UNION / run.
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs1 = parse_bgp("?s <http://tgt/a> ?o", &mut it).unwrap().patterns;
    let rhs2 = parse_bgp("?s <http://tgt/b> ?o", &mut it).unwrap().patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs1).unwrap();
    store.add_predicate(lhs, rhs2).unwrap();
    let query = parse_bgp(
        "?x <http://keep/1> ?y . ?x <http://src/p> ?z . ?z <http://keep/2> ?w",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &star(&query));
    let nodes = root_nodes(&out.pattern);
    assert_eq!(nodes.len(), 3, "{nodes:?}");
    assert!(matches!(nodes[0], PatternNode::Triples { len: 1, .. }));
    assert!(matches!(nodes[1], PatternNode::Union { .. }));
    assert!(matches!(nodes[2], PatternNode::Triples { len: 1, .. }));
    let rendered = out.to_sparql(&it);
    assert!(rendered.contains("<http://keep/1>"), "{rendered}");
    assert!(rendered.contains("UNION"), "{rendered}");
    assert!(rendered.contains("<http://tgt/a>"), "{rendered}");
    assert!(rendered.contains("<http://tgt/b>"), "{rendered}");
}

#[test]
fn union_branch_order_is_deterministic_in_rule_id_order() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let mut store = AlignmentStore::new();
    // Three templates, registered in a known order; branches must follow it.
    for name in ["zeta", "alpha", "mid"] {
        let rhs = parse_bgp(&format!("?s <http://tgt/{name}> ?o"), &mut it)
            .unwrap()
            .patterns;
        store.add_predicate(lhs, rhs).unwrap();
    }
    let query = parse_query("SELECT * WHERE { ?x <http://src/p> ?y }", &mut it).unwrap();
    let first = rewrite(&store, &query).to_sparql(&it);
    // Registration order, not alphabetical order.
    let (za, aa, ma) = (
        first.find("zeta").unwrap(),
        first.find("alpha").unwrap(),
        first.find("mid").unwrap(),
    );
    assert!(za < aa && aa < ma, "{first}");
    // Deterministic across repeated rewrites.
    for _ in 0..5 {
        assert_eq!(rewrite(&store, &query).to_sparql(&it), first);
    }
}

#[test]
fn union_branches_get_distinct_existentials() {
    let mut it = Interner::new();
    // Both templates introduce an existential ?m; the two branches must not
    // share one fresh term (they are separate scopes, but shared counters
    // would also be wrong across the surrounding conjunction).
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs1 = parse_bgp("?s <http://tgt/a> ?m . ?m <http://tgt/a2> ?o", &mut it)
        .unwrap()
        .patterns;
    let rhs2 = parse_bgp("?s <http://tgt/b> ?m . ?m <http://tgt/b2> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs1).unwrap();
    store.add_predicate(lhs, rhs2).unwrap();
    let query = parse_bgp("?x <http://src/p> ?y", &mut it).unwrap();
    let out = rewrite(&store, &star(&query)).pattern;
    let m1 = out.triples[0].o;
    let m2 = out.triples[2].o;
    assert!(m1.is_fresh() && m2.is_fresh());
    assert_ne!(m1, m2);
}

// ---------------------------------------------------------------------------
// Recursive group rewriting: OPTIONAL, UNION, nested groups, FILTER.
// ---------------------------------------------------------------------------

#[test]
fn rewrites_inside_optional_union_and_nested_groups() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> ?o", &mut it).unwrap().patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();
    store
        .add_entity(iri(&mut it, "http://src/E"), iri(&mut it, "http://tgt/E"))
        .unwrap();

    let query = parse_query(
        "SELECT * WHERE { ?a <http://src/p> ?b . \
         OPTIONAL { ?b <http://src/p> <http://src/E> } \
         { ?c <http://src/p> ?d } UNION { { ?e <http://src/p> ?f } } }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    let rendered = out.to_sparql(&it);
    assert!(
        !rendered.contains("http://src/"),
        "source vocabulary must be rewritten everywhere: {rendered}"
    );
    assert_eq!(rendered.matches("<http://tgt/p>").count(), 4, "{rendered}");
    assert!(rendered.contains("<http://tgt/E>"), "{rendered}");
    assert!(rendered.contains("OPTIONAL {"), "{rendered}");
    assert!(rendered.contains("UNION"), "{rendered}");
    // Structure preserved: run, optional, union at the root.
    let nodes = root_nodes(&out.pattern);
    assert!(matches!(nodes[0], PatternNode::Triples { .. }));
    assert!(matches!(nodes[1], PatternNode::Optional { .. }));
    assert!(matches!(nodes[2], PatternNode::Union { .. }));
}

#[test]
fn multi_template_match_inside_optional_becomes_nested_union() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs1 = parse_bgp("?s <http://tgt/a> ?o", &mut it).unwrap().patterns;
    let rhs2 = parse_bgp("?s <http://tgt/b> ?o", &mut it).unwrap().patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs1).unwrap();
    store.add_predicate(lhs, rhs2).unwrap();
    let query = parse_query(
        "SELECT * WHERE { ?x <http://other/q> ?y OPTIONAL { ?x <http://src/p> ?z } }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    let nodes = root_nodes(&out.pattern);
    let PatternNode::Optional { first } = nodes[1] else {
        panic!("expected OPTIONAL at root: {nodes:?}");
    };
    let inner: Vec<PatternNode> = out
        .pattern
        .children_from(first)
        .map(|c| out.pattern.nodes[c as usize])
        .collect();
    assert_eq!(inner.len(), 1);
    assert!(
        matches!(inner[0], PatternNode::Union { .. }),
        "multi-match inside OPTIONAL must expand to a UNION in place: {inner:?}"
    );
}

#[test]
fn filter_expressions_get_entity_substitution() {
    let mut it = Interner::new();
    let mut store = AlignmentStore::new();
    store
        .add_entity(
            iri(&mut it, "http://src/Special"),
            iri(&mut it, "http://tgt/Special"),
        )
        .unwrap();
    let query = parse_query(
        "SELECT * WHERE { ?s <http://p> ?o \
         FILTER(?o = <http://src/Special> || !(?o < 3) && ?s != \"x\"@EN) }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    let rendered = out.to_sparql(&it);
    assert!(
        rendered.contains("<http://tgt/Special>"),
        "entity alignment must apply inside FILTER: {rendered}"
    );
    assert!(!rendered.contains("http://src/"), "{rendered}");
    // Variables and the rest of the expression pass through (lang tag was
    // normalized at parse time).
    assert!(rendered.contains("\"x\"@en"), "{rendered}");
    assert!(rendered.contains("||"), "{rendered}");
    assert!(rendered.contains("!("), "{rendered}");
}

// ---------------------------------------------------------------------------
// Seeded `RewriteLimits` boundaries on random rule sets and random queries.
// ---------------------------------------------------------------------------

fn random_term(rng: &mut Rng, it: &mut Interner, vocab: usize) -> Term {
    match rng.below(4) {
        0 => Term::var(it.intern(&format!("v{}", rng.below(8)))),
        1 => Term::iri(it.intern(&format!("http://ex/e{}", rng.below(vocab)))),
        2 => Term::literal(it.intern(&format!("\"lit{}\"", rng.below(vocab)))),
        _ => Term::blank(it.intern(&format!("b{}", rng.below(4)))),
    }
}

/// Random complex template for `lhs`: a chain body of depth 1..=3 linked by
/// existential variables, a guard over the lhs variables (when any —
/// sometimes statically decidable `=`/`!=`, sometimes an ordered comparison
/// that stays residual, sometimes negated), and a transform-style filter
/// relating a body variable to a constant.
fn random_complex_template(rng: &mut Rng, it: &mut Interner, lhs: TriplePattern) -> RuleTemplate {
    let depth = 1 + rng.below(3);
    let mut triples = Vec::new();
    let mut prev = if lhs.s.is_var() {
        lhs.s
    } else {
        Term::var(it.intern("c0"))
    };
    for k in 0..depth {
        let next = if k + 1 == depth && lhs.o.is_var() && rng.below(2) == 0 {
            lhs.o
        } else {
            Term::var(it.intern(&format!("c{}", k + 1)))
        };
        triples.push(TriplePattern::new(
            prev,
            Term::iri(it.intern(&format!("http://tgt/p{}", rng.below(12)))),
            next,
        ));
        prev = next;
    }
    let mut tmpl = RuleTemplate::from_triples(triples.clone());
    let lhs_vars: Vec<Term> = [lhs.s, lhs.o].into_iter().filter(|t| t.is_var()).collect();
    if !lhs_vars.is_empty() && rng.below(3) > 0 {
        let v = lhs_vars[rng.below(lhs_vars.len())];
        let l = tmpl.push_expr(ExprNode::Term(v));
        let c = Term::iri(it.intern(&format!("http://ex/e{}", rng.below(20))));
        let r = tmpl.push_expr(ExprNode::Term(c));
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt][rng.below(3)];
        let mut g = tmpl.push_expr(ExprNode::Cmp(op, l, r));
        if rng.below(4) == 0 {
            g = tmpl.push_expr(ExprNode::Not(g));
        }
        tmpl.set_guard(g);
    }
    if rng.below(2) == 0 {
        // Body subjects/objects are always variables (existential chain
        // links or lhs-bound), so this is a valid filter reference.
        let bv = triples[rng.below(triples.len())].o;
        let l = tmpl.push_expr(ExprNode::Term(bv));
        let r = tmpl.push_expr(ExprNode::Term(Term::literal(
            it.intern(&format!("\"t{}\"", rng.below(9))),
        )));
        let op = [CmpOp::Ne, CmpOp::Le, CmpOp::Gt][rng.below(3)];
        let f = tmpl.push_expr(ExprNode::Cmp(op, l, r));
        tmpl.push_filter(f);
    }
    tmpl
}

/// Random rule set over a fixed predicate vocabulary; about half the rules
/// are entity alignments, predicate templates deliberately collide on the
/// same predicate so multi-template UNION expansion is exercised, and about
/// a third of the templates are complex (guarded / chain / transform) so
/// guard pruning and residual-FILTER emission count toward the caps.
fn random_store(rng: &mut Rng, it: &mut Interner) -> AlignmentStore {
    let preds: Vec<Term> = (0..12)
        .map(|i| Term::iri(it.intern(&format!("http://ex/p{i}"))))
        .collect();
    let mut store = AlignmentStore::new();
    let n_rules = 1 + rng.below(40);
    for _ in 0..n_rules {
        if rng.below(2) == 0 {
            // Entity rule between random concrete IRIs.
            let from = Term::iri(it.intern(&format!("http://ex/e{}", rng.below(20))));
            let to = Term::iri(it.intern(&format!("http://tgt/e{}", rng.below(20))));
            store.add_entity(from, to).unwrap();
        } else {
            let s = if rng.below(2) == 0 {
                Term::var(it.intern("ts"))
            } else {
                random_term(rng, it, 20)
            };
            let o = if rng.below(2) == 0 {
                Term::var(it.intern("to"))
            } else {
                random_term(rng, it, 20)
            };
            let lhs = TriplePattern::new(s, preds[rng.below(preds.len())], o);
            if rng.below(3) == 0 {
                let tmpl = random_complex_template(rng, it, lhs);
                store.add_complex_predicate(lhs, tmpl).unwrap();
                continue;
            }
            let n_rhs = 1 + rng.below(3);
            let rhs: Vec<TriplePattern> = (0..n_rhs)
                .map(|k| {
                    TriplePattern::new(
                        if rng.below(2) == 0 {
                            s
                        } else {
                            Term::var(it.intern(&format!("fresh{k}")))
                        },
                        Term::iri(it.intern(&format!("http://tgt/p{}", rng.below(12)))),
                        if rng.below(2) == 0 {
                            o
                        } else {
                            Term::var(it.intern(&format!("fresh{}", k + 1)))
                        },
                    )
                })
                .collect();
            store.add_predicate(lhs, rhs).unwrap();
        }
    }
    store
}

/// How often each outcome of a capped rewrite occurred over a property run.
#[derive(Default, Debug)]
struct CapOutcomes {
    ok: usize,
    union_exceeded: usize,
    size_exceeded: usize,
}

impl CapOutcomes {
    fn assert_each_occurred(&self) {
        assert!(
            self.ok > 0 && self.union_exceeded > 0 && self.size_exceeded > 0,
            "an outcome never occurred: {self:?}"
        );
    }
}

/// Rewrite `query` under caps drawn from `0..=8` for both limits, a few
/// draws on one scratch. A capped rewrite returns `Ok` or a typed
/// [`RewriteError`] and never panics; an error names its own cap and a
/// requirement above it; an `Ok` equals the unbounded rewrite; and after an
/// error, an unbounded rewrite on the same scratch equals one on a fresh
/// scratch.
fn check_random_caps(
    rng: &mut Rng,
    store: &AlignmentStore,
    query: &Query,
    seen: &mut CapOutcomes,
    context: &str,
) {
    let unbounded = rewrite(store, query);
    let mut scratch = RewriteScratch::new();
    for _ in 0..4 {
        let limits = RewriteLimits {
            max_union_branches: rng.below(9) as u32,
            max_template_size: rng.below(9) as u32,
        };
        let err = match store.try_rewrite_ref_into(query.as_ref(), &mut scratch, limits) {
            Ok(()) => {
                assert_eq!(scratch.to_query(), unbounded, "{context}, {limits:?}");
                seen.ok += 1;
                continue;
            }
            Err(err) => err,
        };
        let (cap, required, limit) = match err {
            RewriteError::UnionBranchesExceeded { cap, required } => {
                seen.union_exceeded += 1;
                (cap, required, limits.max_union_branches)
            }
            RewriteError::TemplateSizeExceeded { cap, required } => {
                seen.size_exceeded += 1;
                (cap, required, limits.max_template_size)
            }
        };
        assert_eq!(cap, limit, "{context}, {limits:?}: {err}");
        assert!(required > cap, "{context}, {limits:?}: {err}");
        store.rewrite_ref_into(query.as_ref(), &mut scratch);
        assert_eq!(
            scratch.to_query(),
            unbounded,
            "{context}, {limits:?}: the failed call left the scratch dirty"
        );
    }
}

#[test]
fn property_capped_rewrite_on_random_rule_sets() {
    let mut seen = CapOutcomes::default();
    for seed in 1..=20u64 {
        let mut rng = Rng(seed * 0x9e37_79b9);
        let mut it = Interner::new();
        let store = random_store(&mut rng, &mut it);
        let preds: Vec<Term> = (0..12)
            .map(|i| Term::iri(it.intern(&format!("http://ex/p{i}"))))
            .collect();
        let n_patterns = 1 + rng.below(16);
        let patterns: Vec<TriplePattern> = (0..n_patterns)
            .map(|_| {
                TriplePattern::new(
                    random_term(&mut rng, &mut it, 20),
                    if rng.below(4) == 0 {
                        random_term(&mut rng, &mut it, 20)
                    } else {
                        preds[rng.below(preds.len())]
                    },
                    random_term(&mut rng, &mut it, 20),
                )
            })
            .collect();
        let query = Query {
            select: None,
            pattern: GroupPattern::from_bgp(&Bgp::new(patterns)),
        };
        let context = format!("seed {seed}: {}", query.to_sparql(&it));
        check_random_caps(&mut rng, &store, &query, &mut seen, &context);
    }
    seen.assert_each_occurred();
}

#[test]
fn property_capped_rewrite_on_random_group_queries() {
    let mut seen = CapOutcomes::default();
    for seed in 1..=25u64 {
        let mut rng = Rng(seed * 0x51ed_2701);
        let mut it = Interner::new();
        let store = random_store(&mut rng, &mut it);
        let text = random_group_query_text(&mut rng);
        let query = parse_query(&text, &mut it).unwrap_or_else(|e| {
            panic!("seed {seed}: generated query failed to parse: {e}\n{text}")
        });
        let context = format!("seed {seed}: {text}");
        check_random_caps(&mut rng, &store, &query, &mut seen, &context);
    }
    seen.assert_each_occurred();
}

#[test]
fn template_blank_nodes_freshened_per_expansion() {
    let mut it = Interner::new();
    // rhs introduces a blank node — an existential that must not be shared
    // across independent expansions, nor capture the query's own _:b.
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> _:b", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();

    let query = parse_query(
        "SELECT * WHERE { ?a <http://src/p> ?x . ?c <http://src/p> ?d . _:b <http://other/q> ?e }",
        &mut it,
    )
    .unwrap();
    let out = rewrite(&store, &query);
    assert_eq!(out.pattern.triples.len(), 3);
    let o1 = out.pattern.triples[0].o;
    let o2 = out.pattern.triples[1].o;
    let query_blank = Term::blank(it.intern("b"));
    assert_ne!(o1, o2, "one existential shared across expansions");
    assert_ne!(o1, query_blank, "captured the query's _:b");
    assert_ne!(o2, query_blank, "captured the query's _:b");
    // The query's own blank node passes through untouched.
    assert_eq!(out.pattern.triples[2].s, query_blank);
}

// ---------------------------------------------------------------------------
// Scratch reuse, per-query determinism, and re-rewriting prior output.
// ---------------------------------------------------------------------------

#[test]
fn scratch_reuse_matches_fresh_scratch() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> ?m . ?m <http://tgt/q> ?o", &mut it)
        .unwrap()
        .patterns;
    let rhs2 = parse_bgp("?s <http://tgt/alt> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();
    store.add_predicate(lhs, rhs2).unwrap(); // multi-match: UNION output

    let queries = [
        parse_query("SELECT * WHERE { ?a <http://src/p> ?b }", &mut it).unwrap(),
        parse_query(
            "SELECT ?x WHERE { ?x <http://src/p> ?y OPTIONAL { ?y <http://src/p> ?z } \
             FILTER(?x != 4) }",
            &mut it,
        )
        .unwrap(),
        parse_query("SELECT * WHERE { ?u <http://other/p> ?v }", &mut it).unwrap(),
    ];
    let mut reused = RewriteScratch::new();
    for q in &queries {
        store.rewrite_ref_into(q.as_ref(), &mut reused);
        let via_reuse = reused.to_query();
        // A scratch dirtied by earlier queries must give byte-identical
        // results to a brand-new one.
        let mut clean = RewriteScratch::new();
        store.rewrite_ref_into(q.as_ref(), &mut clean);
        assert_eq!(via_reuse, clean.to_query());
        // And to the allocating convenience path.
        assert_eq!(via_reuse, rewrite(&store, q));
    }
}

#[test]
fn rewrite_is_deterministic_per_query() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> ?m . ?m <http://tgt/q> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();
    let query = parse_query(
        "SELECT * WHERE { ?a <http://src/p> ?b . ?c <http://src/p> ?d }",
        &mut it,
    )
    .unwrap();
    // The fresh counter restarts per rewrite call, so the same query always
    // produces the same output — the property that makes multi-threaded
    // batch rewriting order-independent.
    let first = rewrite(&store, &query);
    for _ in 0..5 {
        assert_eq!(rewrite(&store, &query), first);
    }
}

#[test]
fn rerewriting_output_skips_existing_fresh_counters() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://mid/p> ?m . ?m <http://mid/q> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();
    // Second stage rewrites the mid vocabulary onward, introducing another
    // existential.
    let lhs2 = parse_bgp("?s <http://mid/q> ?o", &mut it).unwrap().patterns[0];
    let rhs2 = parse_bgp("?s <http://tgt/q1> ?k . ?k <http://tgt/q2> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store2 = AlignmentStore::new();
    store2.add_predicate(lhs2, rhs2).unwrap();

    let query = parse_bgp("?a <http://src/p> ?b", &mut it).unwrap();
    let stage1 = rewrite(&store, &star(&query));
    // stage1: ?a mid:p g0 . g0 mid:q ?b   (g0 = Fresh(0))
    let stage2 = rewrite(&store2, &stage1).pattern;
    // stage2 must mint existentials that do not collide with Fresh(0).
    let mut fresh: Vec<Term> = stage2
        .triples
        .iter()
        .flat_map(|tp| tp.terms())
        .filter(|t| t.is_fresh())
        .collect();
    fresh.sort();
    fresh.dedup();
    assert_eq!(fresh.len(), 2, "{stage2:?}");
    // The join structure survives: g0 appears in both the passthrough and
    // the expanded patterns, and the new existential differs from it.
    assert_eq!(stage2.triples.len(), 3);
    assert_eq!(stage2.triples[0].o, stage2.triples[1].s);
    assert_ne!(stage2.triples[1].s, stage2.triples[2].s);
}

#[test]
fn fresh_vars_never_collide_with_g_named_query_vars_when_rendered() {
    let mut it = Interner::new();
    let lhs = parse_bgp("?s <http://src/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> ?m . ?m <http://tgt/q> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store = AlignmentStore::new();
    store.add_predicate(lhs, rhs).unwrap();
    // The query itself uses ?g0 and ?g1 — the names the renderer would
    // otherwise hand to the first two fresh existentials.
    let query = parse_query("SELECT ?g0 WHERE { ?g0 <http://src/p> ?g1 }", &mut it).unwrap();
    let out = rewrite(&store, &query);
    let rendered = out.to_sparql(&it);
    // The existential joins the two expanded patterns and must be a new
    // name, not ?g0/?g1.
    assert!(rendered.contains("?g2"), "{rendered}");
    let reparsed = parse_query(&rendered, &mut it).unwrap();
    assert_eq!(reparsed.pattern.triples.len(), 2);
    // Join variable is shared between the two reparsed patterns and is
    // distinct from the projected ?g0 and the original ?g1.
    let join = reparsed.pattern.triples[0].o;
    assert_eq!(join, reparsed.pattern.triples[1].s);
    assert_ne!(join, var(&mut it, "g0"));
    assert_ne!(join, var(&mut it, "g1"));
}

#[test]
fn fresh_count_excludes_preexisting_fresh_terms() {
    let mut it = Interner::new();
    // Input already carries Fresh(0)/Fresh(1) (as if from a prior rewrite);
    // an empty rule set mints nothing, so fresh_count must be 0.
    let p = iri(&mut it, "http://ex/p");
    let prior = Bgp::new(vec![TriplePattern::new(Term::fresh(0), p, Term::fresh(1))]);
    let store = AlignmentStore::new();
    let mut scratch = RewriteScratch::new();
    store.rewrite_ref_into(star(&prior).as_ref(), &mut scratch);
    assert_eq!(scratch.fresh_count(), 0);

    // With a rule that mints one existential, the count is exactly 1 and the
    // new counter sits above the pre-existing ones.
    let lhs = parse_bgp("?s <http://ex/p> ?o", &mut it).unwrap().patterns[0];
    let rhs = parse_bgp("?s <http://tgt/p> ?m . ?m <http://tgt/q> ?o", &mut it)
        .unwrap()
        .patterns;
    let mut store2 = AlignmentStore::new();
    store2.add_predicate(lhs, rhs).unwrap();
    store2.rewrite_ref_into(star(&prior).as_ref(), &mut scratch);
    assert_eq!(scratch.fresh_count(), 1);
    let minted = scratch.pattern().triples[0].o;
    assert!(minted.is_fresh() && minted.fresh_index() >= 2, "{minted:?}");
}
