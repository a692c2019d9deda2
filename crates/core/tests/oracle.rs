//! The rewriter's correctness gate (Correndo et al., EDBT 2010): a
//! rewritten query returns, over the aligned data, the answers the source
//! query returns over the source data. `common/eval.rs` is the answer
//! oracle; this file generates the (rules, data, query) cases and compares
//! answers, never query text.

use std::collections::BTreeSet;

use sparql_rewrite_core::{
    parse_bgp, parse_query, AlignmentStore, ExprNode, IndexedRewriter, Interner, PatternNode,
    Rewriter, Term, TriplePattern,
};

#[allow(dead_code)]
mod common;
use common::eval::{answers, apply, show, variables, Rules, Solution};
use common::Rng;

/// One (rules, data, query) case.
struct Case {
    rules: Rules,
    data: Vec<TriplePattern>,
    /// Bit `j` of `published[i]`: data triple `i` is published under the
    /// `j`-th template of its predicate (see [`apply`]).
    published: Vec<u32>,
    query: String,
}

/// Hand-written cases, checked before the seeded ones. A divergence the
/// property finds is fixed in the rewriter and its minimal case added
/// here: entity rules as `(from, to)` terms, templates as `(lhs, rhs)` BGP
/// text, data as ground BGP text with one publication mask per triple (as
/// in [`Case::published`]; `0` for a predicate without templates), and the
/// query.
const FIXED: &[Fixed] = &[Fixed {
    // Two alternative target forms for one source predicate: one fact is
    // published in each, so only the two-branch UNION finds both; the
    // FILTER names a source entity the entity map renames.
    entities: &[("<http://src/e0>", "<http://tgt/e0>")],
    templates: &[
        ("?a <http://src/p0> ?b", "?a <http://tgt/t0> ?b"),
        (
            "?a <http://src/p0> ?b",
            "?a <http://tgt/t1> ?m . ?m <http://tgt/t2> ?b",
        ),
    ],
    data: "<http://src/e0> <http://src/p0> \"x\" . <http://src/e0> <http://src/p0> \"y\" .",
    published: &[0b01, 0b10],
    query: "SELECT * WHERE { ?s <http://src/p0> ?o FILTER(?s = <http://src/e0>) }",
}];

struct Fixed {
    entities: &'static [(&'static str, &'static str)],
    templates: &'static [(&'static str, &'static str)],
    data: &'static str,
    published: &'static [u32],
    query: &'static str,
}

impl Fixed {
    fn case(&self, it: &mut Interner) -> Case {
        let mut term = |text: &str| match text.strip_prefix('<') {
            Some(iri) => Term::iri(it.intern(iri.trim_end_matches('>'))),
            None => Term::literal(it.intern(text)),
        };
        let entities = self
            .entities
            .iter()
            .map(|&(from, to)| (term(from), term(to)))
            .collect();
        let bgp = |text: &str, it: &mut Interner| parse_bgp(text, it).unwrap().patterns;
        let templates = self
            .templates
            .iter()
            .map(|&(lhs, rhs)| (bgp(lhs, it)[0], bgp(rhs, it)))
            .collect();
        Case {
            rules: Rules {
                entities,
                templates,
            },
            data: bgp(self.data, it),
            published: self.published.to_vec(),
            query: self.query.to_string(),
        }
    }
}

fn iri(it: &mut Interner, s: &str) -> Term {
    Term::iri(it.intern(s))
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Source entities `http://src/e0..3`; literals `"s0"`, `"s1"` (mappable)
/// and `"a"` (never mapped).
const ENTITIES: usize = 4;
const LITERALS: [&str; 3] = ["\"s0\"", "\"s1\"", "\"a\""];

/// Source predicates: `p0..2` have templates, `q0..1` may be renamed by
/// entity rules, `r0` is untouched.
const PREDICATES: [&str; 6] = ["p0", "p1", "p2", "q0", "q1", "r0"];
const TEMPLATED: usize = 3;

/// Draw one source predicate, templated ones most often.
fn predicate(rng: &mut Rng) -> usize {
    match rng.below(10) {
        0..=5 => rng.below(TEMPLATED),
        6..=8 => TEMPLATED + rng.below(2),
        _ => 5,
    }
}

/// A variable or, one time in four, a blank node; either is an
/// existential in a template rhs.
fn existential(rng: &mut Rng, it: &mut Interner, name: usize) -> Term {
    let sym = it.intern(&format!("v{name}"));
    if rng.below(4) == 0 {
        Term::blank(sym)
    } else {
        Term::var(sym)
    }
}

/// `?a src:p ?b ⇒` a path from `?a` to `?b` through 0–2 existentials, each
/// link in a random direction, sometimes with one more triple hanging an
/// existential or a constant off the path. Every rhs triple gets a target
/// predicate of its own. Rule variables are named from the `?v0..5` pool
/// queries use, so capture avoidance is exercised.
fn random_template(
    rng: &mut Rng,
    it: &mut Interner,
    p: Term,
    next_target: &mut usize,
) -> (TriplePattern, Vec<TriplePattern>) {
    let mut names: Vec<usize> = (0..6).collect();
    shuffle(rng, &mut names);
    let mut names = names.into_iter();
    let a = Term::var(it.intern(&format!("v{}", names.next().unwrap())));
    let b = Term::var(it.intern(&format!("v{}", names.next().unwrap())));
    let mut path = vec![a];
    for _ in 0..rng.below(3) {
        path.push(existential(rng, it, names.next().unwrap()));
    }
    path.push(b);
    let mut target = |it: &mut Interner| {
        *next_target += 1;
        iri(it, &format!("http://tgt/t{next_target}"))
    };
    let mut rhs = Vec::new();
    for link in path.windows(2) {
        let t = target(it);
        rhs.push(if rng.below(2) == 0 {
            TriplePattern::new(link[0], t, link[1])
        } else {
            TriplePattern::new(link[1], t, link[0])
        });
    }
    if rng.below(3) == 0 {
        let from = path[rng.below(path.len())];
        let to = if rng.below(2) == 0 {
            existential(rng, it, names.next().unwrap())
        } else {
            iri(it, "http://tgt/k")
        };
        let t = target(it);
        rhs.push(TriplePattern::new(from, t, to));
    }
    (TriplePattern::new(a, p, b), rhs)
}

/// A seeded case inside the property's preconditions.
fn random_case(rng: &mut Rng, it: &mut Interner) -> Case {
    let mut rules = Rules::default();
    // A permutation, so the entity map is injective, into `http://tgt/`,
    // so source and target vocabularies stay disjoint.
    let mut perm: Vec<usize> = (0..ENTITIES).collect();
    shuffle(rng, &mut perm);
    for (i, &j) in perm.iter().enumerate() {
        if rng.below(3) > 0 {
            let from = iri(it, &format!("http://src/e{i}"));
            let to = iri(it, &format!("http://tgt/e{j}"));
            rules.entities.push((from, to));
        }
    }
    for i in 0..2 {
        if rng.below(2) == 0 {
            let from = iri(it, &format!("http://src/q{i}"));
            let to = iri(it, &format!("http://tgt/q{i}"));
            rules.entities.push((from, to));
        }
        if rng.below(2) == 0 {
            let from = Term::literal(it.intern(&format!("\"s{i}\"")));
            let to = Term::literal(it.intern(&format!("\"t{i}\"")));
            rules.entities.push((from, to));
        }
    }
    // 1–3 templates per templated predicate, in shuffled rule order.
    let mut order = Vec::new();
    let mut n_templates = [0; TEMPLATED];
    for (p, n) in n_templates.iter_mut().enumerate() {
        *n = 1 + rng.below(3);
        order.extend(std::iter::repeat_n(p, *n));
    }
    shuffle(rng, &mut order);
    let mut next_target = 0;
    for p in order {
        let p = iri(it, &format!("http://src/p{p}"));
        let template = random_template(rng, it, p, &mut next_target);
        rules.templates.push(template);
    }

    let mut data = Vec::new();
    let mut published = Vec::new();
    for _ in 0..12 + rng.below(12) {
        let s = iri(it, &format!("http://src/e{}", rng.below(ENTITIES)));
        let p = predicate(rng);
        let o = if rng.below(4) == 0 {
            Term::literal(it.intern(LITERALS[rng.below(LITERALS.len())]))
        } else {
            iri(it, &format!("http://src/e{}", rng.below(ENTITIES)))
        };
        let t = TriplePattern::new(s, iri(it, &format!("http://src/{}", PREDICATES[p])), o);
        if data.contains(&t) {
            continue;
        }
        data.push(t);
        // A non-empty subset of the predicate's templates publishes it.
        published.push(match n_templates.get(p) {
            Some(&n) => 1 + rng.below((1 << n) - 1) as u32,
            None => 0,
        });
    }
    Case {
        rules,
        data,
        published,
        query: random_query(rng),
    }
}

/// `SELECT * WHERE { … }` over the source vocabulary: triple patterns with
/// a concrete predicate, nested groups, 2–3-branch UNIONs and FILTERs over
/// `=` / `!=` / `&&` / `||` / `!`, variables from `?v0..3`. A FILTER's
/// variables are mostly ones its group has bound so far, so it filters
/// rather than fails.
fn random_query(rng: &mut Rng) -> String {
    fn constant(rng: &mut Rng) -> String {
        match rng.below(4) {
            0 => LITERALS[rng.below(LITERALS.len())].to_string(),
            _ => format!("<http://src/e{}>", rng.below(ENTITIES)),
        }
    }
    fn var(rng: &mut Rng, bound: &[usize]) -> String {
        match bound {
            [] => format!("?v{}", rng.below(4)),
            _ if rng.below(8) == 0 => format!("?v{}", rng.below(4)),
            _ => format!("?v{}", bound[rng.below(bound.len())]),
        }
    }
    fn triple(rng: &mut Rng, buf: &mut String, bound: &mut Vec<usize>) {
        let mut term = |rng: &mut Rng, constant: String| {
            if rng.below(5) == 0 {
                return constant;
            }
            let v = rng.below(4);
            bound.push(v);
            format!("?v{v}")
        };
        let e = format!("<http://src/e{}>", rng.below(ENTITIES));
        let s = term(rng, e);
        let p = PREDICATES[predicate(rng)];
        let c = constant(rng);
        let o = term(rng, c);
        buf.push_str(&format!("{s} <http://src/{p}> {o} . "));
    }
    fn atom(rng: &mut Rng, bound: &[usize]) -> String {
        let op = if rng.below(2) == 0 { "=" } else { "!=" };
        let rhs = if rng.below(3) == 0 {
            var(rng, bound)
        } else {
            constant(rng)
        };
        format!("{} {op} {rhs}", var(rng, bound))
    }
    fn filter(rng: &mut Rng, buf: &mut String, bound: &[usize]) {
        let expr = match rng.below(5) {
            0 => format!("({}) && ({})", atom(rng, bound), atom(rng, bound)),
            1 => format!("({}) || ({})", atom(rng, bound), atom(rng, bound)),
            2 => format!("!({})", atom(rng, bound)),
            _ => atom(rng, bound),
        };
        buf.push_str(&format!("FILTER({expr}) "));
    }
    /// Appends a group to `buf`, and the variables its triples bind to
    /// `bound`.
    fn group(rng: &mut Rng, buf: &mut String, depth: usize, bound: &mut Vec<usize>) {
        let mut own = Vec::new();
        buf.push_str("{ ");
        for _ in 0..1 + rng.below(3) {
            match rng.below(if depth < 2 { 7 } else { 4 }) {
                0..=2 => triple(rng, buf, &mut own),
                3 => filter(rng, buf, &own),
                4 => group(rng, buf, depth + 1, &mut own),
                _ => {
                    group(rng, buf, depth + 1, &mut own);
                    for _ in 0..1 + rng.below(2) {
                        buf.push_str("UNION ");
                        group(rng, buf, depth + 1, &mut own);
                    }
                }
            }
        }
        buf.push_str("} ");
        bound.extend(own);
    }
    let mut buf = String::from("SELECT * WHERE ");
    group(rng, &mut buf, 0, &mut Vec::new());
    buf
}

/// What one case exercised, counted for the non-vacuity assertions.
#[derive(Default, Debug)]
struct Seen {
    cases: usize,
    nonempty: usize,
    union_expanded: usize,
    filter_substituted: usize,
}

/// Check the property on one case, panicking with the case on a
/// divergence.
fn check(case: &Case, it: &mut Interner, seen: &mut Seen, label: &str) {
    let query = parse_query(&case.query, it).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut store = AlignmentStore::new();
    for &(from, to) in &case.rules.entities {
        store.add_entity(from, to).unwrap();
    }
    for (lhs, rhs) in &case.rules.templates {
        store.add_predicate(*lhs, rhs.clone()).unwrap();
    }
    let rewritten = IndexedRewriter::new(&store).rewrite_query(&query);
    let aligned = apply(
        &case.rules,
        &case.data,
        |i, j| case.published[i] >> j & 1 == 1,
        it,
    );
    let vars = variables(&query);
    let expected: BTreeSet<Solution> = answers(&query.pattern, &case.data, &vars)
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(v, t)| (v, case.rules.entity(t)))
                .collect()
        })
        .collect();
    let actual = answers(&rewritten.pattern, &aligned, &vars);
    if expected != actual {
        let rows = |set: &BTreeSet<Solution>, other: &BTreeSet<Solution>| {
            set.difference(other)
                .map(|row| {
                    let binds: Vec<String> = row
                        .iter()
                        .map(|(&v, &t)| format!("{}={}", show(v, it), show(t, it)))
                        .collect();
                    format!("  {{{}}}\n", binds.join(", "))
                })
                .collect::<String>()
        };
        let entities: String = case
            .rules
            .entities
            .iter()
            .map(|&(from, to)| format!("  {} ≡ {}\n", show(from, it), show(to, it)))
            .collect();
        let templates: String = case
            .rules
            .templates
            .iter()
            .map(|(lhs, rhs)| {
                let rhs: Vec<String> = rhs.iter().map(|tp| tp.display(it).to_string()).collect();
                format!("  {} ⇒ {}\n", lhs.display(it), rhs.join(" "))
            })
            .collect();
        let data: String = case
            .data
            .iter()
            .zip(&case.published)
            .map(|(tp, mask)| format!("  {} (published {mask:#b})\n", tp.display(it)))
            .collect();
        panic!(
            "{label}: the rewrite changed the answers\n\
             entity rules:\n{entities}templates:\n{templates}data:\n{data}\
             query: {}\nrewritten: {}\n\
             missing:\n{}extra:\n{}",
            case.query,
            rewritten.display(it),
            rows(&expected, &actual),
            rows(&actual, &expected),
        );
    }
    let unions = |nodes: &[PatternNode]| {
        nodes
            .iter()
            .filter(|n| matches!(n, PatternNode::Union { .. }))
            .count()
    };
    let mapped_in_filter = query.pattern.exprs.iter().any(|e| match *e {
        ExprNode::Term(t) => case.rules.entity(t) != t,
        _ => false,
    });
    let nonempty = !expected.is_empty();
    seen.cases += 1;
    seen.nonempty += nonempty as usize;
    seen.union_expanded +=
        (nonempty && unions(&rewritten.pattern.nodes) > unions(&query.pattern.nodes)) as usize;
    seen.filter_substituted += (nonempty && mapped_in_filter) as usize;
}

/// For every case, `eval(Q, D)` with each answer mapped through the entity
/// map equals `eval(rewrite(Q), apply(rules, D))` projected onto Q's
/// variables, compared as sets.
///
/// Preconditions. Outside them the property is false for reasons that are
/// not rewriter bugs; the generator keeps every case inside them.
/// * The entity map is injective.
/// * Source and target vocabularies are disjoint (`http://src/` and
///   `"s…"` / `"a"` against `http://tgt/` and `"t…"`).
/// * Entity rules never name a templated predicate.
/// * Each lhs is `?a p ?b` with distinct variables, and its rhs is a path
///   from `?a` to `?b` through zero or more existentials (plus triples
///   hanging off the path), so one rhs instance keeps the pair of one
///   source triple.
/// * Each target predicate appears in exactly one template, once.
/// * Each triple of a templated predicate is published under at least one
///   of its templates. Some are published under one only, so a rewrite
///   that drops a UNION branch loses answers.
/// * No query pattern has a variable predicate, and queries use BGPs,
///   nested groups, UNION and FILTER only.
#[test]
fn rewriting_preserves_answers() {
    let mut seen = Seen::default();
    for (n, fixed) in FIXED.iter().enumerate() {
        let mut it = Interner::new();
        let case = fixed.case(&mut it);
        check(&case, &mut it, &mut seen, &format!("fixed case {n}"));
    }
    for seed in 1..=400u64 {
        let mut rng = Rng(seed * 0x9e37_79b9);
        let mut it = Interner::new();
        let case = random_case(&mut rng, &mut it);
        check(&case, &mut it, &mut seen, &format!("seed {seed}"));
    }
    assert!(seen.cases >= 200, "{seen:?}");
    assert!(seen.nonempty >= 50, "too few cases with answers: {seen:?}");
    assert!(
        seen.union_expanded >= 20,
        "too few answered cases with multi-template UNION expansion: {seen:?}"
    );
    assert!(
        seen.filter_substituted >= 20,
        "too few answered cases with entity substitution in a FILTER: {seen:?}"
    );
}
