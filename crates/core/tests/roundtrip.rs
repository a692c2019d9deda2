//! Round-trip serialization: parse → rewrite with an empty rule set →
//! render must be idempotent, and rendered text must re-parse to the same
//! structure — including group graph patterns (nested groups, OPTIONAL,
//! UNION, FILTER) and the xsd-typed sugar literals.

use sparql_rewrite_core::{parse_query, AlignmentStore, Interner};

mod common;
use common::{random_group_query_text, rewrite, Rng};

const QUERIES: &[&str] = &[
    "SELECT * WHERE { ?s ?p ?o }",
    "SELECT ?s ?o WHERE { ?s <http://ex.org/p> ?o . }",
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
     SELECT ?name ?mbox WHERE {\n\
       ?x foaf:name ?name ;\n\
          foaf:mbox ?mbox .\n\
       ?x a foaf:Person\n\
     }",
    "PREFIX ex: <http://ex.org/>\n\
     SELECT ?a WHERE { ?a ex:p \"plain\" , \"tagged\"@en , \
      \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> }",
    "SELECT * WHERE { _:b <http://ex.org/p> ?v . ?v <http://ex.org/q> _:b }",
    // Bare group pattern without the WHERE keyword.
    "SELECT ?x { ?x <http://ex.org/p> <http://ex.org/o> }",
    // Group graph patterns: OPTIONAL, UNION (binary and n-ary), FILTER,
    // nesting, and the empty group.
    "SELECT * WHERE { ?s <http://ex.org/p> ?o OPTIONAL { ?o <http://ex.org/q> ?r } }",
    "SELECT * WHERE { { ?s <http://ex.org/p> ?o } UNION { ?s <http://ex.org/q> ?o } }",
    "SELECT ?s WHERE { { ?s <http://a> 1 } UNION { ?s <http://b> 2.5 } UNION { ?s <http://c> true } }",
    "SELECT * WHERE { ?s <http://ex.org/p> ?o . FILTER(?o > 3) }",
    "SELECT * WHERE { ?s <http://ex.org/p> ?o \
     FILTER(?o = <http://ex.org/X> || !(?o < 3) && ?s != \"x\"@en) }",
    "SELECT * WHERE { ?a <http://p1> ?b OPTIONAL { ?b <http://p2> ?c \
     { ?c <http://p3> ?d } UNION { ?c <http://p4> ?e FILTER(?e <= -7) } } ?f <http://p5> ?g }",
    "SELECT * WHERE { }",
    "SELECT * WHERE { OPTIONAL { } { } UNION { } }",
    // SERVICE groups: IRI and variable endpoints, nesting inside and
    // around other group constructs.
    "SELECT * WHERE { ?s <http://ex.org/p> ?o . SERVICE <http://fed.org/sparql> { ?o <http://ex.org/q> ?r } }",
    "SELECT ?r WHERE { SERVICE ?ep { ?o <http://ex.org/q> ?r OPTIONAL { ?r <http://ex.org/s> ?t } } }",
    "SELECT * WHERE { SERVICE <http://a.org/> { SERVICE <http://b.org/> { ?s ?p ?o } FILTER(?o > 1) } }",
    "SELECT * WHERE { { SERVICE ?e { ?s <http://p> 1 } } UNION { ?s <http://q> 2 } SERVICE <http://c.org/> { } }",
];

#[test]
fn parse_rewrite_empty_render_is_idempotent() {
    let store = AlignmentStore::new();
    for input in QUERIES {
        let mut interner = Interner::new();
        let parsed = parse_query(input, &mut interner).unwrap_or_else(|e| {
            panic!("failed to parse {input:?}: {e}");
        });
        let rewritten = rewrite(&store, &parsed);
        assert_eq!(
            rewritten, parsed,
            "empty rule set must be the identity rewrite for {input:?}"
        );
        let rendered = rewritten.to_sparql(&interner);

        // The rendered text is valid SPARQL for this fragment: it parses,
        // and it parses to the same structure.
        let reparsed = parse_query(&rendered, &mut interner).unwrap_or_else(|e| {
            panic!("rendered text failed to re-parse: {e}\n--- rendered ---\n{rendered}");
        });
        assert_eq!(
            reparsed, parsed,
            "render → parse must be the identity for {input:?}\n--- rendered ---\n{rendered}"
        );

        // Full fixpoint: rendering the reparsed query reproduces the text.
        let rerendered = reparsed.to_sparql(&interner);
        assert_eq!(rendered, rerendered, "rendering must be a fixpoint");
    }
}

#[test]
fn random_group_queries_round_trip() {
    // Deterministic seeds through the shared generator: parse → render →
    // parse must be structural identity and render → parse → render a
    // textual fixpoint for arbitrarily nested OPTIONAL/UNION/FILTER shapes.
    for seed in 1..=30u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let text = random_group_query_text(&mut rng);
        let mut interner = Interner::new();
        let parsed = parse_query(&text, &mut interner)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        let rendered = parsed.to_sparql(&interner);
        let reparsed = parse_query(&rendered, &mut interner)
            .unwrap_or_else(|e| panic!("seed {seed}: re-parse failed: {e}\n{rendered}"));
        assert_eq!(reparsed, parsed, "seed {seed}\n{text}\n---\n{rendered}");
        assert_eq!(
            reparsed.to_sparql(&interner),
            rendered,
            "seed {seed}: rendering must be a fixpoint"
        );
    }
}

#[test]
fn rendered_rewrite_reparses() {
    // A non-empty rewrite also renders to parseable SPARQL.
    let mut interner = Interner::new();
    let query = parse_query(
        "PREFIX src: <http://src.org/>\nSELECT ?n WHERE { ?x src:name ?n }",
        &mut interner,
    )
    .unwrap();
    let mut store = AlignmentStore::new();
    let lhs = sparql_rewrite_core::parse_bgp("?a <http://src.org/name> ?b", &mut interner)
        .unwrap()
        .patterns[0];
    let rhs = sparql_rewrite_core::parse_bgp(
        "?a <http://tgt.org/first> ?f . ?a <http://tgt.org/last> ?l",
        &mut interner,
    )
    .unwrap()
    .patterns;
    store.add_predicate(lhs, rhs).unwrap();
    let out = rewrite(&store, &query);
    let rendered = out.to_sparql(&interner);
    let reparsed = parse_query(&rendered, &mut interner).unwrap();
    // Fresh existentials are structural (`TermKind::Fresh`); parsing their
    // rendered `?g{n}` names yields ordinary variables, so the invariant is
    // shape + textual fixpoint rather than term-for-term equality.
    assert_eq!(reparsed.pattern.triples.len(), 2);
    assert_eq!(reparsed.select, out.select);
    let rerendered = reparsed.to_sparql(&interner);
    assert_eq!(
        rendered, rerendered,
        "render → parse → render must be a fixpoint"
    );
    // The rendered existentials must not collide with any query variable.
    assert!(
        rendered.contains("?g0") && rendered.contains("?g1"),
        "{rendered}"
    );
}

#[test]
fn rendered_union_rewrite_reparses() {
    // A multi-template rewrite renders UNION branches that re-parse to the
    // same structure.
    let mut interner = Interner::new();
    let query = parse_query(
        "SELECT * WHERE { ?x <http://src/p> ?y . ?y <http://keep/q> ?z }",
        &mut interner,
    )
    .unwrap();
    let mut store = AlignmentStore::new();
    let lhs = sparql_rewrite_core::parse_bgp("?a <http://src/p> ?b", &mut interner)
        .unwrap()
        .patterns[0];
    for tgt in ["one", "two", "three"] {
        let rhs =
            sparql_rewrite_core::parse_bgp(&format!("?a <http://tgt/{tgt}> ?b"), &mut interner)
                .unwrap()
                .patterns;
        store.add_predicate(lhs, rhs).unwrap();
    }
    let out = rewrite(&store, &query);
    let rendered = out.to_sparql(&interner);
    assert_eq!(rendered.matches("UNION").count(), 2, "{rendered}");
    let reparsed = parse_query(&rendered, &mut interner).unwrap();
    assert_eq!(reparsed.pattern, out.pattern);
    assert_eq!(
        reparsed.to_sparql(&interner),
        rendered,
        "render → parse → render must be a fixpoint"
    );
}

#[test]
fn unsupported_constructs_error_cleanly() {
    let mut interner = Interner::new();
    for q in [
        "SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o } }",
        // SERVICE endpoints must be IRIs or variables, not literals.
        "SELECT * WHERE { ?s ?p ?o . SERVICE \"end\" { ?s ?q ?r } }",
        "SELECT * WHERE { ?s ?p ?o MINUS { ?s ?q ?r } }",
        // UNION must follow a braced group.
        "SELECT * WHERE { ?s ?p ?o UNION { ?s ?q ?r } }",
    ] {
        assert!(parse_query(q, &mut interner).is_err(), "accepted: {q}");
    }
    // Undeclared prefix.
    assert!(parse_query("SELECT * WHERE { ?s foaf:name ?o }", &mut interner).is_err());
}

#[test]
fn datatype_qname_expands_to_full_iri() {
    let mut interner = Interner::new();
    let prologue = "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";
    let q1 = parse_query(
        &format!("{prologue}SELECT * WHERE {{ ?s <http://p> \"5\"^^xsd:int }}"),
        &mut interner,
    )
    .unwrap();
    let q2 = parse_query(
        "SELECT * WHERE { ?s <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> }",
        &mut interner,
    )
    .unwrap();
    // QName and full-IRI spellings intern to the same literal symbol...
    assert_eq!(q1.pattern.triples[0].o, q2.pattern.triples[0].o);
    // ...and the rendered form is prefix-free, so it re-parses standalone.
    let rendered = q1.to_sparql(&interner);
    assert!(
        rendered.contains("^^<http://www.w3.org/2001/XMLSchema#int>"),
        "{rendered}"
    );
    assert_eq!(parse_query(&rendered, &mut interner).unwrap(), q1);
}

#[test]
fn bare_numeric_sugar_round_trips_via_typed_form() {
    // `42` parses to the `"42"^^<xsd:integer>` literal, renders in that
    // canonical quoted form, and the re-parse is the identity.
    let mut interner = Interner::new();
    let q = parse_query(
        "SELECT * WHERE { ?s <http://p> 42 . ?s <http://q> -1.5 }",
        &mut interner,
    )
    .unwrap();
    let rendered = q.to_sparql(&interner);
    assert!(
        rendered.contains("\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"),
        "{rendered}"
    );
    assert!(
        rendered.contains("\"-1.5\"^^<http://www.w3.org/2001/XMLSchema#decimal>"),
        "{rendered}"
    );
    assert_eq!(parse_query(&rendered, &mut interner).unwrap(), q);
}

#[test]
fn malformed_literal_suffixes_are_rejected() {
    let mut interner = Interner::new();
    for q in [
        "SELECT * WHERE { ?s <http://p> \"x\"@ }", // empty language tag
        "SELECT * WHERE { ?s <http://p> \"x\"^^ }", // empty datatype
        "SELECT * WHERE { ?s <http://p> \"5\"^^xsd:int }", // undeclared prefix
    ] {
        assert!(parse_query(q, &mut interner).is_err(), "accepted: {q}");
    }
}

#[test]
fn bare_bgp_rejects_trailing_input_after_brace() {
    let mut interner = Interner::new();
    let err =
        sparql_rewrite_core::parse_bgp("{ ?s <http://p> ?o } ?x <http://q> ?y", &mut interner);
    assert!(
        err.is_err(),
        "trailing patterns after '}}' must not be dropped"
    );
}
