//! Helpers shared by the integration tests: an owned-result rewrite, the
//! deterministic xorshift RNG and the random group-shaped query generator.
//! One copy, so a grammar extension (a new literal form, a new pattern
//! shape) changes the round-trip and rewriter property coverage together.

use sparql_rewrite_core::{AlignmentStore, Query, RewriteScratch, Rewriter};

/// The answer oracle; only `tests/oracle.rs` evaluates queries.
#[allow(dead_code)]
pub mod eval;

/// Rewrite `query` into an owned result through a fresh scratch.
pub fn rewrite(store: &AlignmentStore, query: &Query) -> Query {
    let mut scratch = RewriteScratch::new();
    store.rewrite_ref_into(query.as_ref(), &mut scratch);
    scratch.to_query()
}

/// xorshift64* — deterministic, dependency-free.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random `SELECT * WHERE { ... }` text with nested groups, OPTIONAL,
/// UNION, SERVICE, FILTER, and every literal form the parser sugars. The
/// vocabulary (`http://ex/p0..11`, `http://ex/e0..19`, `?v0..7`)
/// deliberately overlaps the rewriter property tests' random rule sets so
/// rewrites fire — SERVICE endpoints draw from the same entity pool, so
/// endpoint entity substitution fires too.
pub fn random_group_query_text(rng: &mut Rng) -> String {
    fn gen_triple(rng: &mut Rng, buf: &mut String) {
        let s = rng.below(8);
        let p = rng.below(12);
        buf.push_str(&format!("?v{s} <http://ex/p{p}> "));
        match rng.below(5) {
            0 => buf.push_str(&format!("?v{}", rng.below(8))),
            1 => buf.push_str(&format!("<http://ex/e{}>", rng.below(20))),
            2 => buf.push_str(&format!("{}", rng.below(50))),
            3 => buf.push_str("\"text\"@en-GB"),
            _ => buf.push_str(&format!("\"lit{}\"", rng.below(20))),
        }
        buf.push_str(" . ");
    }
    fn gen_filter(rng: &mut Rng, buf: &mut String) {
        buf.push_str("FILTER(");
        let v = rng.below(8);
        match rng.below(4) {
            0 => buf.push_str(&format!("?v{v} < {}", rng.below(100))),
            1 => buf.push_str(&format!("?v{v} != <http://ex/e{}>", rng.below(20))),
            2 => buf.push_str(&format!(
                "?v{v} = \"lit{}\" || ?v{} >= {}",
                rng.below(20),
                rng.below(8),
                rng.below(100)
            )),
            _ => buf.push_str(&format!("!(?v{v} > 3.5) && ?v{} <= true", rng.below(8))),
        }
        buf.push_str(") ");
    }
    fn gen_group(rng: &mut Rng, buf: &mut String, depth: usize) {
        buf.push_str("{ ");
        let n = 1 + rng.below(3);
        for _ in 0..n {
            match rng.below(if depth < 2 { 7 } else { 2 }) {
                0 | 1 => gen_triple(rng, buf),
                2 => {
                    buf.push_str("OPTIONAL ");
                    gen_group(rng, buf, depth + 1);
                }
                5 => {
                    match rng.below(3) {
                        0 => buf.push_str(&format!("SERVICE ?v{} ", rng.below(8))),
                        _ => buf.push_str(&format!("SERVICE <http://ex/e{}> ", rng.below(20))),
                    }
                    gen_group(rng, buf, depth + 1);
                }
                3 => {
                    gen_group(rng, buf, depth + 1);
                    buf.push_str("UNION ");
                    gen_group(rng, buf, depth + 1);
                    if rng.below(2) == 0 {
                        buf.push_str("UNION ");
                        gen_group(rng, buf, depth + 1);
                    }
                }
                4 => gen_filter(rng, buf),
                _ => gen_group(rng, buf, depth + 1),
            }
        }
        buf.push_str("} ");
    }
    let mut buf = String::from("SELECT * WHERE ");
    gen_group(rng, &mut buf, 0);
    buf
}
