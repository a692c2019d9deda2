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
//! * [`rewriter`] applies entity alignments (inside FILTER expressions
//!   too) and expands a triple pattern matched by N predicate templates
//!   into an N-branch UNION — the paper's union semantics — recursively
//!   over the whole group tree. Complex correspondences
//!   ([`align::AlignmentStore::add_complex_predicate`]: guarded
//!   group-pattern templates with chain bodies, emitted FILTER
//!   constraints, and value transforms) ride the same engine — guards are statically decided per match where
//!   possible and emitted as residual FILTERs where not.
//! * [`cache`] exploits that rewriting is deterministic per (query text,
//!   rule set): [`cache::fingerprint_query`] hashes the canonical spelling
//!   of the parser's own token stream (whitespace, keyword case, PREFIX
//!   aliases; cost: the benchmark's `cache.fingerprint_canon_ns` layer)
//!   and [`cache::RewriteCache`] maps the fingerprint to the
//!   rendered rewrite through sharded, read-lock-free seqlock slots — a
//!   repeated query is served by normalize + hash + memcpy instead of
//!   parse + rewrite + render, invalidated by the store's
//!   [`align::AlignmentStore::revision`] generation tag.
//! * [`federate`] turns N per-endpoint [`align::AlignmentStore`]s into a
//!   fault-tolerant dispatch plan: patterns are partitioned by which
//!   endpoint's rules can rewrite them (O(1) candidate-count reads double
//!   as the statistics-free selectivity signal for ordering), rendered as
//!   `SERVICE`-annotated subqueries, and executed concurrently — by the
//!   calling thread plus persistent dispatch lanes — over a pluggable
//!   [`federate::EndpointTransport`] — each endpoint wrapped in deadlines,
//!   seeded-jitter retries, and a circuit breaker, degrading to
//!   deterministic partial results instead of all-or-nothing.
//!
//! The engine has two phases, and the borrow checker is what separates
//! them. The **build phase** is single-threaded and mutable: parse queries
//! and rules into an [`interner::Interner`] and an
//! [`align::AlignmentStore`] (`&mut`; the store is valid for lookups after
//! every `add_*`, so there is nothing to freeze). The **serve phase** is
//! shared and read-only: the store goes behind `&` or an `Arc`, each
//! worker clones the [`interner::Interner`] (the clone shares its strings
//! and adds a private overlay), rewriting takes `&self` only, and
//! template-introduced existentials are structural
//! [`term::TermKind::Fresh`] terms (no interning on the hot path). With a
//! caller-owned [`rewriter::RewriteScratch`], steady-state
//! `rewrite_query_into` performs zero heap allocations — and the whole
//! **serve pipeline** composes the same way: [`parser::parse_query_into`]
//! (into a [`parser::ParseScratch`]) → [`rewriter::Rewriter::
//! rewrite_ref_into`] (borrowing the parse via [`pattern::QueryRef`]) →
//! [`pattern::render_query_into`] (into a reusable `String`), zero
//! steady-state allocations end to end.
//!
//! See the workspace README for the paper's rewriting model, `benchmark/`
//! for the measurements and the server crate's `tests/soak.rs` and
//! `tests/zero_alloc_socket.rs` for the seeded robustness legs.

pub mod align;
pub mod cache;
pub mod counting_alloc;
pub mod engine;
pub mod federate;
mod fxhash;
pub mod httpcore;
pub mod interner;
pub mod parser;
pub mod pattern;
pub mod rewriter;
mod smallvec;
mod snapshot;
pub mod term;

pub use align::{AlignError, AlignmentStore, RuleTemplate, TemplateRef, NO_EXPR};
pub use cache::{
    fingerprint_query, fingerprint_raw, CacheConfig, CacheStats, QueryFingerprint, RewriteCache,
    ShardCacheStats,
};
pub use engine::{ServeEngine, ServeScratch};
pub use federate::{
    classify_http_status, classify_io_error, mix_chain, read_response, BackoffPolicy,
    BreakerConfig, BreakerState, ChaosProxy, ChaosSpec, CircuitBreaker, DispatchPlan, EndpointId,
    EndpointOutcome, EndpointPlan, EndpointReport, EndpointTransport, ExecutorConfig, FaultClass,
    FaultSpec, FederatedExecutor, FederatedResult, FederationPlan, FederationPlanner, HttpConfig,
    HttpEndpoint, HttpError, HttpLimits, HttpResponse, HttpTransport, MockTransport,
    PartitionCacheStats, TransportError, TransportReply, TransportRequest,
};
pub use interner::Interner;
pub use parser::{parse_bgp, parse_query, parse_query_into, ParseError, ParseScratch};
pub use pattern::{
    render_query_into, Bgp, ChainBuilder, CmpOp, ExprNode, GroupPattern, PatternNode, Query,
    QueryRef, SelectList, TriplePattern, NO_NODE,
};
pub use rewriter::{IndexedRewriter, RewriteError, RewriteLimits, RewriteScratch, Rewriter};
pub use term::{Symbol, Term, TermKind};
