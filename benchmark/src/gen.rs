//! Seeded input generator. Everything the program under test receives —
//! rule text, query text, request order — is derived from `--seed` here;
//! the same seed gives the same bytes.
//!
//! Rule text is one rule per line, tab-separated:
//!
//! ```text
//! E <TAB> <from> owl:sameAs <to>            entity alignment (as a triple)
//! P <TAB> lhs triple <TAB> rhs triples      flat predicate template
//! C <TAB> lhs triple <TAB> group body [<TAB> guard expression]
//! ```

use std::fmt::Write as _;

pub const SAME_AS: &str = "<http://www.w3.org/2002/07/owl#sameAs>";

/// xorshift64* — deterministic, dependency-free.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds (1, 2, 3…) over the state space.
        Rng((seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which complex correspondences a generated rule set carries.
#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Complex {
    /// Flat templates only.
    None,
    /// Every 3rd predicate rule is a guarded template.
    Guarded,
    /// Guarded as above, and the two-triple chains carry a value-transform
    /// FILTER (federation endpoint 0).
    GuardedAndChainFilters,
}

/// `n_rules` alignments over the vocabulary `{src}/onto/p{i}` and
/// `{src}/ent/e{i}`: half entity, half predicate; 30 % of flat predicate
/// templates are two-triple chains through an existential; every 8th
/// predicate has a second template (so it expands to a 2-branch UNION).
pub fn rules_text(rng: &mut Rng, n_rules: usize, src: &str, tgt: &str, complex: Complex) -> String {
    let n_pred = n_rules / 2;
    let n_ent = n_rules - n_pred;
    let mut out = String::with_capacity(n_rules * 120);
    for i in 0..n_pred {
        let lhs = format!("?s <{src}/onto/p{i}> ?o");
        if complex != Complex::None && i % 3 == 0 {
            let op = if rng.chance(1, 2) { "=" } else { "!=" };
            let ent = rng.below(n_ent.max(1));
            let _ = writeln!(
                out,
                "C\t{lhs}\t?s <{tgt}/onto/p{i}> ?o\t?o {op} <{src}/ent/e{ent}>"
            );
        } else if rng.chance(3, 10) {
            let chain = format!("?s <{tgt}/onto/p{i}> ?m . ?m <{tgt}/onto/q{i}> ?o");
            if complex == Complex::GuardedAndChainFilters {
                let _ = writeln!(out, "C\t{lhs}\t{chain} . FILTER(?o != \"raw\")");
            } else {
                let _ = writeln!(out, "P\t{lhs}\t{chain}");
            }
        } else {
            let _ = writeln!(out, "P\t{lhs}\t?s <{tgt}/onto/p{i}> ?o");
        }
    }
    for i in 0..n_ent {
        let _ = writeln!(out, "E\t<{src}/ent/e{i}> {SAME_AS} <{tgt}/ent/e{i}>");
    }
    for i in (0..n_pred).step_by(8) {
        let _ = writeln!(out, "P\t?s <{src}/onto/p{i}> ?o\t?s <{tgt}/alt/p{i}> ?o");
    }
    out
}

pub const SRC: &str = "http://src.example.org";
pub const TGT: &str = "http://tgt.example.org";

/// Query `i` of a single-store workload: six triple patterns split over a
/// base run, an OPTIONAL, a two-branch UNION and a FILTER. ~80 % of the
/// predicates and half of the concrete objects hit the rule set. The
/// FILTER constant is `i`, so queries are pairwise distinct.
pub fn group_query(rng: &mut Rng, i: usize, n_rules: usize) -> String {
    let n_pred = n_rules / 2;
    let n_ent = n_rules - n_pred;
    let mut q = String::with_capacity(640);
    q.push_str("SELECT * WHERE { ");
    let mut triple = |q: &mut String, k: usize| {
        let _ = write!(q, "?v{k} ");
        if rng.chance(8, 10) {
            let _ = write!(q, "<{SRC}/onto/p{}>", rng.below(n_pred));
        } else {
            let _ = write!(q, "<http://other.example.org/onto/p{}>", rng.below(64));
        }
        if rng.chance(1, 3) {
            if rng.chance(1, 2) {
                let _ = write!(q, " <{SRC}/ent/e{}> . ", rng.below(n_ent));
            } else {
                let _ = write!(q, " <http://other.example.org/ent/e{}> . ", rng.below(64));
            }
        } else {
            let _ = write!(q, " ?v{} . ", k + 1);
        }
    };
    for k in 0..3 {
        triple(&mut q, k);
    }
    q.push_str("OPTIONAL { ");
    triple(&mut q, 3);
    q.push_str("} { ");
    triple(&mut q, 4);
    q.push_str("} UNION { ");
    triple(&mut q, 5);
    let _ = write!(
        q,
        "}} FILTER(?v0 != <{SRC}/ent/e{}> || ?v1 < {i} && !(?v2 = \"x\"@en)) }}",
        rng.below(n_ent)
    );
    q
}

/// Same query, every separator re-spelled as a random whitespace run with
/// an occasional comment. (Generated text has no spaces inside literals.)
pub fn perturb_whitespace(text: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for c in text.chars() {
        if c != ' ' {
            out.push(c);
            continue;
        }
        out.push_str(["  ", "\n\t", " \n ", "\t", " "][rng.below(5)]);
        if rng.chance(1, 16) {
            out.push_str("# client comment\n");
        }
    }
    out
}

/// Same query with `<{SRC}/onto/pN>` written as `s:pN` under a PREFIX.
pub fn alias_prefix(text: &str) -> String {
    let needle = format!("<{SRC}/onto/");
    let mut out = format!("PREFIX s: <{SRC}/onto/>\n");
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let local_start = at + needle.len();
        let close = rest[local_start..].find('>').expect("IRI is closed");
        out.push_str(&rest[..at]);
        out.push_str("s:");
        out.push_str(&rest[local_start..local_start + close]);
        rest = &rest[local_start + close + 1..];
    }
    out.push_str(rest);
    out
}

/// `n_draws` Zipf(s = 1.0) ranks over `0..n_distinct` by inverse-CDF search.
pub fn zipf_ranks(rng: &mut Rng, n_distinct: usize, n_draws: usize) -> Vec<u32> {
    let mut cumulative = Vec::with_capacity(n_distinct);
    let mut total = 0.0f64;
    for i in 0..n_distinct {
        total += 1.0 / (i + 1) as f64;
        cumulative.push(total);
    }
    (0..n_draws)
        .map(|_| {
            let u = rng.unit_f64() * total;
            cumulative.partition_point(|&c| c < u).min(n_distinct - 1) as u32
        })
        .collect()
}

pub const FED_ENDPOINTS: usize = 3;

pub fn fed_src(e: usize) -> String {
    format!("http://ep{e}.example.org")
}

pub fn fed_endpoint_iri(e: usize) -> String {
    format!("http://ep{e}.example.org/sparql")
}

/// Query `i` of the federated workload: a flat six-pattern conjunction
/// whose predicates mix every member's vocabulary, 15 % of them aligned by
/// no member (the residual partition). The last object is `?q{i}`, so
/// queries are pairwise distinct.
pub fn fed_query(rng: &mut Rng, i: usize, rules_per_endpoint: usize) -> String {
    let n_pred = rules_per_endpoint / 2;
    let n_ent = rules_per_endpoint - n_pred;
    let mut q = String::with_capacity(512);
    q.push_str("SELECT * WHERE { ");
    for k in 0..6 {
        let e = rng.below(FED_ENDPOINTS);
        let _ = write!(q, "?v{k} ");
        if rng.chance(15, 100) {
            let _ = write!(q, "<http://other.example.org/onto/p{}>", rng.below(64));
        } else {
            let _ = write!(q, "<{}/onto/p{}>", fed_src(e), rng.below(n_pred));
        }
        if k == 5 {
            let _ = write!(q, " ?q{i} . ");
        } else if rng.chance(1, 4) {
            let _ = write!(q, " <{}/ent/e{}> . ", fed_src(e), rng.below(n_ent));
        } else {
            let _ = write!(q, " ?v{} . ", k + 1);
        }
    }
    q.push('}');
    q
}
