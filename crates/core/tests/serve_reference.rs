//! The serve path against a reference that shares nothing between
//! requests.
//!
//! The reference parses each request into its own deep copy of the rule
//! vocabulary (`interner.clone()`), so every term it reads is interned
//! there, then rewrites and renders. The subject is what a worker does:
//! one [`RequestTerms`] over the frozen vocabulary, reused across the
//! whole stream, whose terms the vocabulary lacks stay request-local. The
//! two must render byte-identical text, or fail with the same
//! [`ParseError`] (offset and message). So must [`ServeEngine::serve`],
//! which renders with a shortcut of its own when no variable is named
//! `g…`: once without a cache, and once cached, each request served twice
//! (a miss, then a hit).
//!
//! The stream is the shared random group-query generator's output, put
//! through a seeded mangler aimed at the request table: names that share
//! a prefix, on both sides of 8 and 16 bytes (and a 7-byte name after a
//! long name whose first eight bytes, with the length XORed in, look the
//! same); requests with more than 32 distinct local texts; IRIs the
//! vocabulary lacks, used several times; IRIs one byte off a vocabulary
//! IRI; `?q` beside `<q>`, the key of a rule, in either order; `g{k}`
//! variables the rewrite drops or keeps beside fresh ones; a guard's
//! constant literal in each spelling the parser canonicalises; PREFIX
//! aliases; and malformed tails.

use std::sync::Arc;

use sparql_rewrite_core::{
    parse_bgp, parse_query, parse_query_into, render_query_into, AlignmentStore, CacheConfig,
    CmpOp, ExprNode, Interner, ParseError, ParseScratch, QueryRef, RequestTerms, RewriteScratch,
    Rewriter, RuleTemplate, ServeEngine,
};

mod common;
use common::{random_group_query_text, rewrite, Rng};

/// `?s <{lhs}> ?o` rewritten to `?s <{rhs}> ?o` only where `?o` equals
/// the literal `constant`, spelled as in a query.
fn add_guarded(
    store: &mut AlignmentStore,
    it: &mut Interner,
    lhs: &str,
    rhs: &str,
    constant: &str,
) {
    let lhs = parse_bgp(&format!("?s <{lhs}> ?o"), it).unwrap().patterns[0];
    let rhs = parse_bgp(&format!("?s <{rhs}> ?o"), it).unwrap().patterns;
    let constant = parse_bgp(&format!("?s ?p {constant}"), it)
        .unwrap()
        .patterns[0]
        .o;
    let mut tmpl = RuleTemplate::from_triples(rhs);
    let o = tmpl.push_expr(ExprNode::Term(lhs.o));
    let c = tmpl.push_expr(ExprNode::Term(constant));
    let eq = tmpl.push_expr(ExprNode::Cmp(CmpOp::Eq, o, c));
    tmpl.set_guard(eq);
    store.add_complex_predicate(lhs, tmpl).unwrap();
}

/// A small rule set over the generator's vocabulary (`http://ex/p0..11`,
/// `http://ex/e0..19`), so rewrites fire: renames, a chain with an
/// existential, a second template (UNION), and entity alignments. Beside
/// them: a rule keyed on `<q>`, whose text is also a variable name; a rule
/// that drops its lhs object for an existential; and rules guarded on a
/// language-tagged and on an integer literal.
fn rules(it: &mut Interner) -> AlignmentStore {
    let mut store = AlignmentStore::new();
    for (lhs, rhs) in [
        ("?s <q> ?o", "?s <http://out/q> ?o"),
        (
            "?s <http://ex/drop> ?o",
            "?s <http://out/droph> ?m . ?m <http://out/dropt> <http://out/c>",
        ),
    ] {
        let lhs = parse_bgp(lhs, it).unwrap().patterns[0];
        store
            .add_predicate(lhs, parse_bgp(rhs, it).unwrap().patterns)
            .unwrap();
    }
    add_guarded(
        &mut store,
        it,
        "http://ex/lang",
        "http://out/lang",
        "\"gold\"@en",
    );
    add_guarded(&mut store, it, "http://ex/int", "http://out/int", "42");
    for i in 0..12 {
        let lhs = parse_bgp(&format!("?s <http://ex/p{i}> ?o"), it)
            .unwrap()
            .patterns[0];
        let rhs = match i % 3 {
            0 => format!("?s <http://out/p{i}> ?o"),
            1 => format!("?s <http://out/p{i}h> ?m . ?m <http://out/p{i}t> ?o"),
            _ => continue,
        };
        store
            .add_predicate(lhs, parse_bgp(&rhs, it).unwrap().patterns)
            .unwrap();
        if i % 4 == 0 {
            let alt = parse_bgp(&format!("?s <http://out/alt{i}> ?o"), it).unwrap();
            store.add_predicate(lhs, alt.patterns).unwrap();
        }
    }
    for e in (0..20).step_by(3) {
        let from = parse_bgp(&format!("<http://ex/e{e}> ?p ?o"), it).unwrap();
        let to = parse_bgp(&format!("<http://out/e{e}> ?p ?o"), it).unwrap();
        store
            .add_entity(from.patterns[0].s, to.patterns[0].s)
            .unwrap();
    }
    store
}

/// `len` lowercase letters.
fn letters(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Names that share one prefix: cut at 6 to 9 and 15 to 17 bytes, one
/// byte longer than each cut, and a long name after which the 7-byte cut
/// is a trap: its eighth byte is the 7-byte name's length XORed with the
/// long name's, so the first eight bytes with the length XORed into the
/// eighth are equal for both. The long name comes first.
fn prefix_family(rng: &mut Rng) -> Vec<String> {
    let base = letters(rng, 24);
    let long_len = (100..130usize)
        .filter(|&n| ((n as u8) ^ 7).is_ascii_lowercase())
        .nth(rng.below(4))
        .expect("a length whose low byte XOR 7 is a letter");
    let mut long = base[..7].to_string();
    long.push(((long_len as u8) ^ 7) as char);
    long.push_str(&letters(rng, long_len - 8));
    let mut names = vec![long];
    for cut in [6, 7, 8, 9, 15, 16, 17] {
        names.push(base[..cut].to_string());
        names.push(format!("{}{}", &base[..cut], letters(rng, 1)));
    }
    names
}

/// One term spelled from `name`: a variable, a blank node, a relative
/// IRI or a literal.
fn term(rng: &mut Rng, name: &str) -> String {
    match rng.below(4) {
        0 | 1 => format!("?{name}"),
        2 => format!("<{name}>"),
        _ => format!("\"{name}\""),
    }
}

/// Triples the mangler adds at the top of the query's group.
fn extra_triples(rng: &mut Rng) -> String {
    let mut out = String::new();
    if rng.below(2) == 0 {
        let names = prefix_family(rng);
        for pair in names.windows(2) {
            let (s, o) = (term(rng, &pair[0]), term(rng, &pair[1]));
            let s = if s.starts_with('"') {
                format!("?{}", pair[0])
            } else {
                s
            };
            out.push_str(&format!("{s} <http://ex/p{}> {o} . ", rng.below(12)));
        }
        // The trap again, the short name straight after the long one.
        out.push_str(&format!("?{} ?{} _:{} . ", names[0], names[3], names[3]));
    }
    if rng.below(3) == 0 {
        // More than 32 distinct local texts.
        let n = 33 + rng.below(40);
        let len = 1 + rng.below(12);
        let stem = letters(rng, len);
        for i in 0..n {
            out.push_str(&format!("?{stem}{i} <http://ex/p1> ?{stem}{} . ", i + 1));
        }
    }
    if rng.below(2) == 0 {
        // An IRI the vocabulary lacks, used several times, and IRIs one
        // byte off vocabulary IRIs.
        let len = 1 + rng.below(20);
        let absent = format!("<http://absent.example/{}>", letters(rng, len));
        out.push_str(&format!(
            "{absent} {absent} ?v1 . ?v2 <http://ex/p3> {absent} . "
        ));
        out.push_str(&format!(
            "?v0 <http://ex/p{}x> <http://ex/e{}> . ?v0 <http://ex/p> \"lit{}\" . ",
            rng.below(12),
            rng.below(20),
            rng.below(25)
        ));
    }
    if rng.below(4) == 0 {
        out.push_str(&format!("?v3 <http://ex/p0> ?g{} . ", rng.below(12)));
    }
    if rng.below(3) == 0 {
        // `?q` and `<q>`, the key of a rule, in either order.
        out.push_str(["?q <q> ?v1 . ", "?v1 <q> ?q . "][rng.below(2)]);
    }
    if rng.below(4) == 0 {
        // A `g{k}` variable the rewrite drops, for a fresh one.
        out.push_str(&format!("?v2 <http://ex/drop> ?g{} . ", rng.below(12)));
    }
    if rng.below(4) == 0 {
        // A `g{k}` variable the rewrite keeps beside a fresh one.
        out.push_str(&format!("?g{} <http://ex/p1> ?v4 . ", rng.below(12)));
    }
    if rng.below(3) == 0 {
        // A guard's constant, in each spelling the parser canonicalises.
        let lang = ["\"gold\"@en", "\"gold\"@EN", "\"gold\"@en-GB"][rng.below(3)];
        let int = [
            "42",
            "\"42\"^^xsd:integer",
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>",
            "43",
        ][rng.below(4)];
        out.push_str(&format!(
            "?v5 <http://ex/lang> {lang} . ?v5 <http://ex/int> {int} . "
        ));
    }
    out
}

/// Spell some `http://ex/` and `http://absent.example/` IRIs through a
/// PREFIX alias.
fn alias(rng: &mut Rng, text: &str) -> String {
    let mut out = String::from("PREFIX ex: <http://ex/>\nPREFIX ab: <http://absent.example/>\n");
    let mut rest = text;
    while let Some(at) = rest.find("<http://") {
        out.push_str(&rest[..at]);
        let end = at + rest[at..].find('>').expect("IRIs close");
        let iri = &rest[at..=end];
        match (
            iri.strip_prefix("<http://ex/"),
            iri.strip_prefix("<http://absent.example/"),
        ) {
            (Some(local), _) if rng.below(2) == 0 => {
                out.push_str("ex:");
                out.push_str(&local[..local.len() - 1]);
            }
            (_, Some(local)) if rng.below(2) == 0 => {
                out.push_str("ab:");
                out.push_str(&local[..local.len() - 1]);
            }
            _ => out.push_str(iri),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    out
}

/// End the query badly.
fn malform(rng: &mut Rng, text: &mut String) {
    match rng.below(5) {
        0 => text.truncate(rng.below(text.len())),
        1 => text.push_str("} extra"),
        2 => text.push_str("GRAPH ?g { }"),
        3 => {
            let cut = text.rfind('}').expect("a group");
            text.truncate(cut);
            text.push_str("FILTER(?v0 && ) }");
        }
        _ => {
            let cut = text.rfind('}').expect("a group");
            text.truncate(cut);
            text.push_str("?v0 <http://ex/p1 ?o }");
        }
    }
}

/// One request of the stream.
fn request(rng: &mut Rng) -> String {
    let query = random_group_query_text(rng);
    let open = query.find('{').expect("a group") + 1;
    let mut text = format!(
        "{} {}{}",
        &query[..open],
        extra_triples(rng),
        &query[open..]
    );
    if text.contains("xsd:") {
        text.insert_str(0, "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n");
    }
    if rng.below(3) == 0 {
        text = alias(rng, &text);
    }
    if rng.below(6) == 0 {
        malform(rng, &mut text);
    }
    text
}

/// Parse `text` into its own copy of `vocab`, rewrite, render.
fn reference(vocab: &Interner, store: &AlignmentStore, text: &str) -> Result<String, ParseError> {
    let mut own = vocab.clone();
    let query = parse_query(text, &mut own)?;
    Ok(rewrite(store, &query).to_sparql(&own))
}

/// A worker: one request table and one set of buffers for the stream.
struct Worker {
    terms: RequestTerms,
    parse: ParseScratch,
    rewrite: RewriteScratch,
    fresh_base: String,
    out: String,
}

impl Worker {
    fn serve(&mut self, store: &AlignmentStore, text: &str) -> Result<&str, ParseError> {
        parse_query_into(text, &mut self.terms, &mut self.parse)?;
        store.rewrite_ref_into(self.parse.query_ref(), &mut self.rewrite);
        render_query_into(
            QueryRef {
                select: self.rewrite.select(),
                pattern: self.rewrite.pattern(),
            },
            &self.terms,
            &mut self.fresh_base,
            &mut self.out,
        );
        Ok(&self.out)
    }
}

/// An engine over [`rules`], with `cache` or without one.
fn engine(cache: Option<CacheConfig>) -> ServeEngine {
    let mut vocab = Interner::new();
    let store = rules(&mut vocab);
    ServeEngine::with_cache(store, vocab, cache)
}

#[test]
fn a_reused_request_table_serves_what_a_fresh_vocabulary_copy_does() {
    let mut vocab = Interner::new();
    let store = rules(&mut vocab);
    let vocab = Arc::new(vocab);
    // The engine serves each request through the same parse, and renders
    // it with a shortcut of its own; the cached one serves each request
    // twice, a miss and then a hit.
    let cold = engine(None);
    let cached = engine(Some(CacheConfig {
        shards: 2,
        slots_per_shard: 256,
        value_cap: 16 << 10,
    }));
    let (mut cold_scratch, mut cached_scratch) = (cold.scratch(), cached.scratch());
    let mut worker = Worker {
        terms: RequestTerms::new(Arc::clone(&vocab)),
        parse: ParseScratch::new(),
        rewrite: RewriteScratch::new(),
        fresh_base: String::new(),
        out: String::new(),
    };
    let mut rng = Rng(0x5e7e_2ef0_0d15_ea5e);
    let (mut served, mut rejected, mut rewritten) = (0, 0, 0);
    // Outputs through the `<q>` rule, the dropping rule and each guard.
    let targets = [
        "<http://out/q>",
        "<http://out/droph>",
        "<http://out/lang>",
        "<http://out/int>",
    ];
    let mut fired = [0; 4];
    for n in 0..2_000 {
        let text = request(&mut rng);
        let expected = reference(&vocab, &store, &text);
        let got = worker.serve(&store, &text).map(str::to_owned);
        assert_eq!(got, expected, "request {n}:\n{text}");
        let uncached = cold.serve(&text, &mut cold_scratch).map(str::to_owned);
        assert_eq!(uncached, expected, "request {n}, uncached engine:\n{text}");
        for pass in ["miss", "hit"] {
            let cached = cached.serve(&text, &mut cached_scratch).map(str::to_owned);
            assert_eq!(cached, expected, "request {n}, cache {pass}:\n{text}");
        }
        match got {
            Ok(out) => {
                served += 1;
                rewritten += usize::from(out.contains("<http://out/"));
                for (count, target) in fired.iter_mut().zip(targets) {
                    *count += usize::from(out.contains(target));
                }
            }
            Err(_) => rejected += 1,
        }
    }
    // The stream must exercise both outcomes and the rules.
    assert!(
        served > 1_500 && rejected > 150,
        "{served} served, {rejected} rejected"
    );
    assert!(rewritten > 1_000, "{rewritten} rewritten");
    assert!(
        fired.iter().all(|&n| n > 100),
        "{targets:?} fired {fired:?}"
    );
    assert_eq!(cached_scratch.cache_hits(), served, "every repeat hits");
}
