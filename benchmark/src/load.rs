//! Rule text → `AlignmentStore`, through the public `parse_bgp` /
//! `parse_query` / `add_*` entry points only. This is the first half of
//! what `setup_s` measures.

use std::time::{Duration, Instant};

use sparql_rewrite_core::{
    parse_bgp, parse_query, AlignmentStore, GroupPattern, Interner, PatternNode, RuleTemplate,
    Term, TriplePattern,
};

enum ParsedRule {
    Entity(Term, Term),
    Predicate(TriplePattern, Vec<TriplePattern>),
    Complex(TriplePattern, RuleTemplate),
}

/// `add_*` calls cost well under 1 µs each, so they are timed per block.
const ADD_BLOCK: usize = 64;

/// Parse every line of `text` into `interner` and add the rules to
/// `store`. Returns the time spent inside the `add_*` calls (the `align`
/// layer's share of loading; the rest is `parser`).
pub fn load_rules(
    text: &str,
    interner: &mut Interner,
    store: &mut AlignmentStore,
) -> Result<Duration, String> {
    let mut add_time = Duration::ZERO;
    let mut block = Vec::with_capacity(ADD_BLOCK);
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        block.push(parse_rule(line, interner).map_err(|e| format!("rule line {}: {e}", n + 1))?);
        if block.len() == ADD_BLOCK {
            add_time += add_block(&mut block, store)?;
        }
    }
    add_time += add_block(&mut block, store)?;
    Ok(add_time)
}

fn add_block(block: &mut Vec<ParsedRule>, store: &mut AlignmentStore) -> Result<Duration, String> {
    let t0 = Instant::now();
    for rule in block.drain(..) {
        match rule {
            ParsedRule::Entity(from, to) => store.add_entity(from, to),
            ParsedRule::Predicate(lhs, rhs) => store.add_predicate(lhs, rhs),
            ParsedRule::Complex(lhs, tmpl) => store.add_complex_predicate(lhs, tmpl),
        }
        .map_err(|e| e.to_string())?;
    }
    Ok(t0.elapsed())
}

fn one_triple(text: &str, interner: &mut Interner) -> Result<TriplePattern, String> {
    let bgp = parse_bgp(text, interner).map_err(|e| e.to_string())?;
    match bgp.patterns.as_slice() {
        [tp] => Ok(*tp),
        _ => Err(format!("expected one triple pattern in {text:?}")),
    }
}

fn parse_rule(line: &str, interner: &mut Interner) -> Result<ParsedRule, String> {
    let mut fields = line.split('\t');
    let kind = fields.next().unwrap_or("");
    let mut field = || fields.next().ok_or_else(|| "missing field".to_string());
    match kind {
        "E" => {
            let tp = one_triple(field()?, interner)?;
            Ok(ParsedRule::Entity(tp.s, tp.o))
        }
        "P" => {
            let lhs = one_triple(field()?, interner)?;
            let rhs = parse_bgp(field()?, interner).map_err(|e| e.to_string())?;
            Ok(ParsedRule::Predicate(lhs, rhs.patterns))
        }
        "C" => {
            let lhs = one_triple(field()?, interner)?;
            // The body is a group of triples and FILTERs: let the query
            // parser build the (topologically ordered) expression pool.
            let body = parse_query(&format!("SELECT * WHERE {{ {} }}", field()?), interner)
                .map_err(|e| e.to_string())?
                .pattern;
            let mut tmpl = RuleTemplate::from_triples(body.triples);
            tmpl.exprs = body.exprs;
            for node in &body.nodes {
                if let PatternNode::Filter { expr } = node {
                    tmpl.push_filter(*expr);
                }
            }
            // The guard field is optional.
            let guard = fields.next().unwrap_or("");
            if !guard.is_empty() {
                let g = parse_query(&format!("SELECT * WHERE {{ FILTER({guard}) }}"), interner)
                    .map_err(|e| e.to_string())?
                    .pattern;
                let expr = g
                    .nodes
                    .iter()
                    .find_map(|n| match n {
                        PatternNode::Filter { expr } => Some(*expr),
                        _ => None,
                    })
                    .ok_or_else(|| format!("guard {guard:?} did not parse as a FILTER"))?;
                // Append the guard's pool behind the body's, indices rebased.
                let mut pool = GroupPattern::new();
                pool.exprs = std::mem::take(&mut tmpl.exprs);
                let base = pool.import_exprs(&g.exprs, |t| t);
                tmpl.exprs = pool.exprs;
                tmpl.set_guard(base + expr);
            }
            Ok(ParsedRule::Complex(lhs, tmpl))
        }
        other => Err(format!("unknown rule kind {other:?}")),
    }
}
