//! # sparql-rewrite-core
//!
//! High-throughput implementation of the SPARQL BGP rewriting approach of
//! Correndo et al., *"SPARQL query rewriting for implementing data
//! integration over linked data"* (EDBT 2010): queries written against a
//! source ontology are rewritten — via entity and predicate alignments —
//! into queries over a target ontology.
//!
//! Performance is structural, not bolted on:
//!
//! * [`term::Term`] packs kind + interner symbol into 4 bytes, so a
//!   [`pattern::TriplePattern`] is a 12-byte `Copy` value and all hot-path
//!   comparisons are integer ops ([`interner::Interner`] holds the strings).
//! * [`pattern::GroupPattern`] stores the full group-graph-pattern tree
//!   (nested groups, OPTIONAL, UNION, FILTER) *flattened*: nodes, sibling
//!   links, triples, and filter expressions are four flat `Vec`s of `Copy`
//!   values — no per-node boxing, so a whole rewritten tree fits in
//!   reusable scratch buffers.
//! * [`parser`] tokenizes without allocating — input slices are borrowed
//!   until intern time — and [`parser::parse_query_into`] writes into a
//!   caller-owned [`parser::ParseScratch`], so steady-state parsing (every
//!   string already interned) performs zero heap allocations.
//! * [`align::AlignmentStore`] keeps its rules in **dense direct-indexed
//!   tables** keyed by interner symbol id, updated in place by every
//!   `add_*` and sized by the symbols the rules mention: candidate lookup
//!   per triple pattern is a bounds-checked array load, no hashing at all,
//!   and there is no other lookup structure to fall back to.
//! * [`rewriter`] makes the store itself the rewriter:
//!   [`align::AlignmentStore`]'s [`rewriter::Rewriter`] impl applies entity
//!   alignments (inside FILTER expressions too) and expands a triple
//!   pattern matched by N predicate templates into an N-branch UNION — the
//!   paper's union semantics — recursively over the whole group tree.
//!   Complex correspondences
//!   ([`align::AlignmentStore::add_complex_predicate`]: guarded
//!   group-pattern templates with chain bodies, emitted FILTER
//!   constraints, and value transforms) ride the same engine — guards are statically decided per match where
//!   possible and emitted as residual FILTERs where not.
//! * [`cache`] exploits that rewriting is deterministic per (query text,
//!   rule set): [`cache::fingerprint_raw`] hashes the request's bytes
//!   with a per-process seed (cost: the benchmark's
//!   `cache.fingerprint_raw_ns` layer) and [`cache::RewriteCache`] maps
//!   the fingerprint to the rendered rewrite through sharded,
//!   read-lock-free seqlock slots — a repeated query is served by
//!   hash + memcpy instead of parse + rewrite + render. A cache serves
//!   one rule set and is dropped with it, so nothing is ever invalidated.
//! * [`federate`] turns N per-endpoint [`align::AlignmentStore`]s into a
//!   fault-tolerant dispatch plan: patterns are partitioned by which
//!   endpoint's rules can rewrite them (O(1) candidate-count reads double
//!   as the statistics-free selectivity signal for ordering), rewritten
//!   and rendered as one subquery per endpoint, and executed concurrently
//!   — by the calling thread plus persistent dispatch lanes — over a pluggable
//!   [`federate::EndpointTransport`] — each endpoint wrapped in deadlines,
//!   seeded-jitter retries, and a circuit breaker, degrading to
//!   deterministic partial results instead of all-or-nothing.
//!
//! The engine has two phases, and the borrow checker is what separates
//! them. The **build phase** is single-threaded and mutable: parse queries
//! and rules into an [`interner::Interner`] and an
//! [`align::AlignmentStore`] (`&mut`; the store is valid for lookups after
//! every `add_*`, so there is nothing to freeze). The **serve phase** is
//! shared and read-only: the store goes behind `&` or an `Arc`, and so
//! does the interner, and each worker parses into its own
//! [`interner::RequestTerms`] over it (which cannot write the shared
//! strings: each parse resolves its terms against them in one staged
//! pass, keeping terms they lack request-local), rewriting takes `&self`
//! only, and
//! template-introduced existentials are structural
//! [`term::TermKind::Fresh`] terms (no interning on the hot path). With a
//! caller-owned [`rewriter::RewriteScratch`], steady-state
//! `rewrite_ref_into` performs zero heap allocations — and the whole
//! **serve pipeline** composes the same way: [`parser::parse_query_into`]
//! (into a [`parser::ParseScratch`]) → [`rewriter::Rewriter::
//! rewrite_ref_into`] (borrowing the parse via [`pattern::QueryRef`]) →
//! [`pattern::render_query_into`] (into a reusable `String`), zero
//! steady-state allocations end to end. A whole query is the only unit
//! that renders; outside the serve path, [`pattern::Query::to_sparql`]
//! returns the same bytes as a new `String`.
//!
//! See the workspace README for the paper's rewriting model, `benchmark/`
//! for the measurements and the server crate's `tests/soak.rs` and
//! `tests/zero_alloc_socket.rs` for the seeded robustness legs.

// The one `unsafe` block is the cache's zeroed value pool
// (`cache::zeroed_pool`), allowed where it stands; anything else fails the
// build.
#![deny(unsafe_code)]

pub mod align;
pub mod cache;
pub mod engine;
pub mod federate;
mod fxhash;
pub mod httpcore;
pub mod interner;
pub mod parser;
pub mod pattern;
pub mod rewriter;
mod smallvec;
pub mod term;

pub use align::{AlignError, AlignmentStore, RuleTemplate};
#[doc(hidden)]
pub use cache::fingerprint_query;
pub use cache::{fingerprint_raw, CacheConfig, CacheStats, QueryFingerprint, RewriteCache};
pub use engine::{ServeEngine, ServeScratch};
pub use federate::{
    mix_chain, read_response, BackoffPolicy, BreakerConfig, BreakerState, DispatchPlan, EndpointId,
    EndpointOutcome, EndpointPlan, EndpointReport, EndpointTransport, ExecutorConfig,
    FederatedExecutor, FederatedResult, FederationPlanner, HttpConfig, HttpEndpoint, HttpError,
    HttpLimits, HttpResponse, HttpTransport, TransportError, TransportReply, TransportRequest,
};
pub use interner::{Interner, RequestTerms, SymbolText, TermSink};
pub use parser::{parse_bgp, parse_query, parse_query_into, ParseError, ParseScratch};
pub use pattern::{
    render_query_into, Bgp, CmpOp, ExprNode, GroupPattern, PatternNode, Query, QueryRef,
    TriplePattern, NO_NODE,
};
pub use rewriter::{RewriteError, RewriteLimits, RewriteScratch, Rewriter};
pub use term::{Symbol, Term, TermKind};

/// The workspace README, whose Rust usage example `cargo test` compiles and
/// runs, so the README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
