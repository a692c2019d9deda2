//! Fault-tolerant federated SERVICE dispatch.
//!
//! The EDBT'10 rewriting model exists to integrate data *across sources*;
//! this module turns N per-endpoint [`AlignmentStore`]s into a dispatch
//! plan and executes it against unreliable peers without falling over:
//!
//! 1. **Partition** ([`FederationPlanner::plan`]): each top-level triple
//!    pattern of a parsed query is assigned to the endpoint whose rules can
//!    rewrite it. The assignment reads
//!    [`AlignmentStore::predicate_candidates`] — an O(1) slice lookup
//!    against the store's dispatch table — and the candidate *count* doubles as a
//!    statistics-free selectivity signal in the spirit of Yannakis et al.:
//!    endpoints are dispatched most-selective-first (smallest expected
//!    expansion), ties broken by endpoint id. Patterns no endpoint can
//!    rewrite, and all non-conjunctive structure (OPTIONAL, UNION, FILTER,
//!    nested groups), stay in a local residual partition.
//! 2. **Rewrite + render**: each partition is rewritten against its
//!    endpoint's own rules and rendered both as a standalone subquery (the
//!    text shipped over the transport) and as a
//!    [`PatternNode::Service`]-annotated block of the combined federated
//!    query.
//! 3. **Execute** ([`FederatedExecutor`]): subqueries are dispatched
//!    concurrently — the calling thread plus a few persistent dispatch
//!    lanes, no thread spawned per request — over a pluggable
//!    [`EndpointTransport`]. Every endpoint call is wrapped in the full
//!    resilience kit — a per-request deadline with budget propagation into
//!    the transport, bounded retries with seeded jittered exponential
//!    backoff ([`BackoffPolicy`]), and a per-endpoint
//!    closed/open/half-open [`CircuitBreaker`] — and degrades to a
//!    deterministic [`FederatedResult`] carrying a per-endpoint
//!    [`EndpointOutcome`] (served / timed-out / circuit-open /
//!    exhausted-retries), so callers always get the partial results that
//!    *were* obtainable plus structured error annotations.
//!
//! # Determinism
//!
//! Timing runs on a **virtual clock**: latencies come from the transport's
//! reply (the [`MockTransport`] draws them from a seeded stream), backoff
//! delays and fault schedules derive from seed + endpoint + call + attempt
//! counters, and deadline/breaker arithmetic uses only those virtual
//! nanoseconds. Identical seeds therefore replay failure scenarios
//! bit-identically — [`FederatedResult`]s compare equal across runs — while
//! real threads still execute endpoints concurrently.

mod backoff;
mod breaker;
pub mod chaos;
mod executor;
mod http;
mod transport;

pub use backoff::BackoffPolicy;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{ChaosProxy, ChaosSpec, FaultClass};
pub use executor::{ExecutorConfig, FederatedExecutor};
pub use http::{
    read_response, HttpConfig, HttpEndpoint, HttpError, HttpLimits, HttpResponse, HttpTransport,
};
pub use transport::{
    classify_http_status, classify_io_error, EndpointTransport, FaultSpec, MockTransport,
    TransportError, TransportReply, TransportRequest,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::align::AlignmentStore;
use crate::cache::{CacheConfig, Fingerprinter, QueryFingerprint, RewriteCache};
use crate::interner::Interner;
use crate::pattern::{
    render_query_into, Bgp, ChainBuilder, ExprNode, GroupPattern, PatternNode, Query, QueryRef,
    SelectList, TriplePattern,
};
use crate::rewriter::{IndexedRewriter, RewriteError, RewriteLimits, RewriteScratch, Rewriter};
use crate::term::Term;

/// Index of a federation member, assigned by registration order on the
/// [`FederationPlanner`] and shared by the executor and transport layers.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EndpointId(pub u32);

/// SplitMix64 finalizer: the one deterministic mixing primitive every
/// federate component derives its randomness from. Stateless, so seeded
/// streams index by (seed, endpoint, call, attempt) without shared RNG
/// state — concurrency cannot perturb replay.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Chain-absorb `parts` into one 64-bit draw. Public because every seeded
/// schedule in the workspace — the chaos proxy, the server tests' chaos
/// *client*, and the mutation fuzzes — derives its draws from this one
/// primitive, keyed by (seed, index...) tuples; stateless mixing is what
/// makes replays byte-identical under concurrency.
#[inline]
pub fn mix_chain(seed: u64, parts: &[u64]) -> u64 {
    let mut h = mix64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for &p in parts {
        h = mix64(h ^ p);
    }
    h
}

/// How one endpoint's call ended. Carried per endpoint in a
/// [`FederatedResult`] so partial results arrive with structured error
/// annotations instead of an all-or-nothing failure.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EndpointOutcome {
    /// The subquery was answered. `latency_nanos` is the endpoint's total
    /// virtual elapsed time including failed attempts and backoff.
    Served { attempts: u32, latency_nanos: u64 },
    /// The deadline budget ran out (mid-attempt or during backoff).
    TimedOut { attempts: u32, elapsed_nanos: u64 },
    /// The endpoint's circuit breaker was open: no request was (or no
    /// further requests were) sent.
    CircuitOpen { attempts: u32 },
    /// Every permitted attempt failed. `permanent` is true when the last
    /// error was non-retryable (retries were pointless, not merely used up).
    ExhaustedRetries { attempts: u32, permanent: bool },
}

impl EndpointOutcome {
    #[inline]
    pub fn is_served(&self) -> bool {
        matches!(self, EndpointOutcome::Served { .. })
    }
}

/// Per-endpoint slice of a [`FederatedResult`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EndpointReport {
    pub endpoint: EndpointId,
    pub outcome: EndpointOutcome,
    /// Response payload when served, `None` otherwise.
    pub rows: Option<String>,
    /// Breaker state observed after this call completed.
    pub breaker: BreakerState,
}

/// Deterministic result of one federated execution: one report per
/// dispatched endpoint, in plan (dispatch) order. Equal seeds produce equal
/// results, bit for bit — asserted by tests and the bench soak gate.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FederatedResult {
    pub reports: Vec<EndpointReport>,
}

impl FederatedResult {
    /// Number of endpoints that answered.
    pub fn served_count(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_served())
            .count()
    }

    /// True when every endpoint answered (no degradation).
    pub fn is_complete(&self) -> bool {
        self.served_count() == self.reports.len()
    }

    /// Canonical textual form, stable across processes — what the
    /// determinism gates byte-compare.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "ep={} outcome={:?} breaker={:?} rows={}",
                r.endpoint.0,
                r.outcome,
                r.breaker,
                r.rows.as_deref().unwrap_or("-")
            );
        }
        out
    }
}

/// One endpoint's share of a [`FederationPlan`], in dispatch order.
#[derive(Clone, Debug)]
pub struct EndpointPlan {
    pub endpoint: EndpointId,
    /// The endpoint's interned IRI term (as registered).
    pub endpoint_term: Term,
    /// Rendered `SELECT * WHERE { ... }` text of the rewritten partition —
    /// what the transport ships.
    pub subquery: String,
    /// Summed candidate counts of the partition's patterns: the
    /// statistics-free selectivity signal (lower dispatches first).
    pub selectivity: u64,
    /// Number of source patterns routed to this endpoint.
    pub n_patterns: usize,
}

/// Output of [`FederationPlanner::plan`].
#[derive(Clone, Debug)]
pub struct FederationPlan {
    /// The combined federated query: one `SERVICE <endpoint> { ... }` block
    /// per dispatched endpoint (in dispatch order, rewritten against that
    /// endpoint's rules) followed by the local residual, under the original
    /// projection.
    pub annotated: Query,
    /// Per-endpoint subqueries in dispatch order — feed these to
    /// [`FederatedExecutor::execute`].
    pub endpoints: Vec<EndpointPlan>,
    /// Number of triple patterns no endpoint could rewrite (kept local).
    pub n_residual_patterns: usize,
}

/// Output of [`FederationPlanner::plan_for_dispatch`]: just what the
/// executor consumes, with no SERVICE-annotated combined query — the
/// variant the partition cache can serve without rewriting at all.
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// Per-endpoint subqueries in dispatch order.
    pub endpoints: Vec<EndpointPlan>,
    /// Number of triple patterns no endpoint could rewrite (kept local).
    pub n_residual_patterns: usize,
}

struct PlannerEndpoint {
    term: Term,
    store: Arc<AlignmentStore>,
    /// Bumped on every store replacement; folded into the cache
    /// generation so a swapped-in store can never serve another store's
    /// cached rewrites, even on a revision-counter collision.
    epoch: u64,
}

/// Per-endpoint partition rewrite cache: (endpoint id, partition
/// fingerprint) → rendered subquery text, generation-tagged like the PR 5
/// serve cache.
struct PartitionCache {
    cache: RewriteCache,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Hit/miss counters of the planner's partition cache.
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
pub struct PartitionCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// Partitions queries across per-endpoint rule sets and renders
/// SERVICE-annotated subqueries. Build-phase: register endpoints with
/// [`FederationPlanner::add_endpoint`], then call
/// [`FederationPlanner::plan`] freely from the serve phase (`&self`).
///
/// With [`FederationPlanner::enable_partition_cache`], rendered partition
/// rewrites are memoized per `(endpoint id, partition fingerprint)` under
/// the endpoint store's [`AlignmentStore::revision`] generation tag:
/// repeated hot partitions — the normal shape of a Zipfian query stream —
/// are planned by [`FederationPlanner::plan_for_dispatch`] without
/// re-rewriting or re-rendering anything.
#[derive(Default)]
pub struct FederationPlanner {
    endpoints: Vec<PlannerEndpoint>,
    cache: Option<PartitionCache>,
}

/// Reusable buffers threaded through per-partition rewriting.
#[derive(Default)]
struct PlanScratch {
    rewrite: RewriteScratch,
    fresh_base: String,
}

/// A query's triples partitioned across endpoints, plus dispatch order.
struct Partitioned {
    parts: Vec<Vec<TriplePattern>>,
    scores: Vec<u64>,
    residual: Vec<ResidualItem>,
    /// Endpoints with non-empty partitions, most selective first.
    order: Vec<usize>,
}

/// What a residual (locally kept) item is: a triple no endpoint matched, or
/// a non-conjunctive node copied structurally.
enum ResidualItem {
    Triple(TriplePattern),
    Node(u32),
}

impl FederationPlanner {
    pub fn new() -> FederationPlanner {
        FederationPlanner::default()
    }

    /// Register a federation member: its SPARQL endpoint term (an interned
    /// IRI) and its alignment rule set. Returns the member's id; ids are
    /// dense and assigned in registration order.
    pub fn add_endpoint(&mut self, endpoint: Term, store: Arc<AlignmentStore>) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(PlannerEndpoint {
            term: endpoint,
            store,
            epoch: 0,
        });
        id
    }

    /// Swap one endpoint's rule set in place (e.g. after an alignment
    /// refresh), keeping its id and dispatch identity. The endpoint's
    /// cache epoch is bumped, so partition rewrites cached against the
    /// old store are unreachable even when the stores' revision counters
    /// collide.
    pub fn replace_endpoint_store(&mut self, id: EndpointId, store: Arc<AlignmentStore>) {
        let ep = &mut self.endpoints[id.0 as usize];
        ep.store = store;
        ep.epoch += 1;
    }

    /// Memoize rendered partition rewrites (see the type docs). Call once
    /// during the build phase; planning stays `&self`.
    pub fn enable_partition_cache(&mut self, config: CacheConfig) {
        self.cache = Some(PartitionCache {
            cache: RewriteCache::new(config),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        });
    }

    /// Partition-cache hit/miss counters; zeros when the cache is off.
    pub fn partition_cache_stats(&self) -> PartitionCacheStats {
        match &self.cache {
            Some(pc) => PartitionCacheStats {
                hits: pc.hits.load(Ordering::Relaxed),
                misses: pc.misses.load(Ordering::Relaxed),
            },
            None => PartitionCacheStats::default(),
        }
    }

    pub fn n_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// The endpoint IRI term `id` was registered with (ids are dense
    /// registration indexes — see [`FederationPlanner::add_endpoint`]).
    /// Lets a front end match transport addresses against planner members
    /// by IRI instead of by registration order.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this planner.
    pub fn endpoint_term(&self, id: EndpointId) -> Term {
        self.endpoints[id.0 as usize].term
    }

    /// Cache key of endpoint `e`'s partition: the endpoint id, then every
    /// term's kind, length and text (a fresh term's counter instead), fed
    /// through the query cache's seeded `Fingerprinter`. Terms are keyed
    /// by text, not by symbol id: every worker shares this cache, and a
    /// symbol minted into one worker's interner overlay names a different
    /// string in the next worker's. The seed keeps a caller from working
    /// out two colliding partitions offline.
    fn partition_fingerprint(
        &self,
        e: usize,
        part: &[TriplePattern],
        interner: &Interner,
    ) -> QueryFingerprint {
        let mut fp = Fingerprinter::new();
        fp.push_bytes(&(e as u64).to_le_bytes());
        for tp in part {
            for t in tp.terms() {
                fp.push_bytes(&[t.kind() as u8]);
                if t.is_fresh() {
                    fp.push_bytes(&t.fresh_index().to_le_bytes());
                } else {
                    let text = interner.resolve(t.symbol());
                    fp.push_bytes(&(text.len() as u64).to_le_bytes());
                    fp.push_bytes(text.as_bytes());
                }
            }
        }
        fp.finish()
    }

    /// Cache generation of endpoint `e`: store revision in the low bits,
    /// replacement epoch in the high bits.
    fn endpoint_generation(&self, e: usize) -> u64 {
        let ep = &self.endpoints[e];
        (ep.epoch << 48) ^ ep.store.revision()
    }

    /// Which endpoint should answer `tp`, and at what selectivity cost?
    ///
    /// Preference order: a predicate-template match (score = candidate
    /// count, O(1) read from the dispatch table — fewer candidates is more
    /// specific) beats an entity-only match (some term has an entity
    /// alignment but no template applies), beats nothing (residual). Ties
    /// go to the lowest endpoint id, keeping plans deterministic.
    fn assign(&self, tp: TriplePattern) -> Option<(usize, u64)> {
        let mut best: Option<(u8, u64, usize)> = None;
        for (i, ep) in self.endpoints.iter().enumerate() {
            let store: &AlignmentStore = &ep.store;
            let p = store.entity_target(tp.p).unwrap_or(tp.p);
            let candidates = store.predicate_candidates(p).len() as u64;
            let key = if candidates > 0 {
                (0u8, candidates)
            } else if tp.terms().iter().any(|t| store.entity_target(*t).is_some()) {
                (1u8, 1u64)
            } else {
                continue;
            };
            if best.is_none_or(|b| (key.0, key.1, i) < (b.0, b.1, b.2)) {
                best = Some((key.0, key.1, i));
            }
        }
        best.map(|(_, score, i)| (i, score))
    }

    /// Partition the root conjunction of `src` across endpoints and fix
    /// the dispatch order — the shared front half of both planning paths.
    fn partition(&self, src: &GroupPattern) -> Partitioned {
        let n = self.endpoints.len();
        let mut parts: Vec<Vec<TriplePattern>> = vec![Vec::new(); n];
        let mut scores: Vec<u64> = vec![0; n];
        let mut residual: Vec<ResidualItem> = Vec::new();
        for ci in src.root_children() {
            if matches!(src.nodes[ci as usize], PatternNode::Triples { .. }) {
                for &tp in src.run(ci) {
                    match self.assign(tp) {
                        Some((e, score)) => {
                            parts[e].push(tp);
                            scores[e] += score;
                        }
                        None => residual.push(ResidualItem::Triple(tp)),
                    }
                }
            } else {
                residual.push(ResidualItem::Node(ci));
            }
        }

        // Yannakis-style statistics-free ordering: dispatch the most
        // selective partition (smallest summed candidate count) first.
        let mut order: Vec<usize> = (0..n).filter(|&e| !parts[e].is_empty()).collect();
        order.sort_by_key(|&e| (scores[e], e));
        Partitioned {
            parts,
            scores,
            residual,
            order,
        }
    }

    /// Rewrite endpoint `e`'s partition into `scratch` and render it into
    /// `subquery`.
    fn rewrite_partition(
        &self,
        e: usize,
        part: &[TriplePattern],
        interner: &Interner,
        limits: RewriteLimits,
        scratch: &mut PlanScratch,
        subquery: &mut String,
    ) -> Result<(), RewriteError> {
        let bgp = Bgp::new(part.to_vec());
        let rewriter = IndexedRewriter::new(Arc::clone(&self.endpoints[e].store));
        rewriter.try_rewrite_bgp_into(&bgp, &mut scratch.rewrite, limits)?;
        subquery.clear();
        render_query_into(
            QueryRef {
                select: None,
                pattern: scratch.rewrite.pattern(),
            },
            interner,
            &mut scratch.fresh_base,
            subquery,
        );
        Ok(())
    }

    /// Plan for execution only: like [`FederationPlanner::plan`] but
    /// without building the SERVICE-annotated combined query — which is
    /// what lets a partition-cache hit skip the rewrite *entirely* and
    /// serve the subquery text by fingerprint + memcpy. Both paths share
    /// one cache, so full `plan` calls warm it for dispatch traffic.
    pub fn plan_for_dispatch(
        &self,
        query: QueryRef<'_>,
        interner: &Interner,
        limits: RewriteLimits,
    ) -> Result<DispatchPlan, RewriteError> {
        let p = self.partition(query.pattern);
        let n_residual_patterns = p
            .residual
            .iter()
            .filter(|i| matches!(i, ResidualItem::Triple(_)))
            .count();
        let mut endpoint_plans = Vec::with_capacity(p.order.len());
        let mut scratch = PlanScratch::default();
        let mut cached = Vec::new();
        for &e in &p.order {
            let mut subquery = String::new();
            let key = self.cache.as_ref().map(|_| {
                (
                    self.partition_fingerprint(e, &p.parts[e], interner),
                    self.endpoint_generation(e),
                )
            });
            let mut hit = false;
            if let (Some(pc), Some((fp, gen))) = (&self.cache, key) {
                cached.clear();
                if pc.cache.lookup(fp, gen, &mut cached) {
                    if let Ok(text) = std::str::from_utf8(&cached) {
                        subquery.push_str(text);
                        hit = true;
                    }
                }
                let counter = if hit { &pc.hits } else { &pc.misses };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            if !hit {
                self.rewrite_partition(
                    e,
                    &p.parts[e],
                    interner,
                    limits,
                    &mut scratch,
                    &mut subquery,
                )?;
                if let (Some(pc), Some((fp, gen))) = (&self.cache, key) {
                    pc.cache.insert(fp, gen, subquery.as_bytes());
                }
            }
            endpoint_plans.push(EndpointPlan {
                endpoint: EndpointId(e as u32),
                endpoint_term: self.endpoints[e].term,
                subquery,
                selectivity: p.scores[e],
                n_patterns: p.parts[e].len(),
            });
        }
        Ok(DispatchPlan {
            endpoints: endpoint_plans,
            n_residual_patterns,
        })
    }

    /// Partition `query`, rewrite each partition against its endpoint's
    /// rules (bounded by `limits`), and render the dispatch plan.
    ///
    /// Plans are fully deterministic in the query + registered endpoints.
    /// Fails only when a partition's rewrite crosses a [`RewriteLimits`]
    /// cap.
    pub fn plan(
        &self,
        query: QueryRef<'_>,
        interner: &Interner,
        limits: RewriteLimits,
    ) -> Result<FederationPlan, RewriteError> {
        let src = query.pattern;
        let Partitioned {
            parts,
            scores,
            residual,
            order,
        } = self.partition(src);

        let mut annotated = GroupPattern::new();
        let mut chain = ChainBuilder::new();
        let mut endpoint_plans = Vec::with_capacity(order.len());
        let mut scratch = PlanScratch::default();
        for &e in &order {
            let mut subquery = String::new();
            self.rewrite_partition(e, &parts[e], interner, limits, &mut scratch, &mut subquery)?;
            // The annotated tree needs the rewritten pattern either way,
            // so the cache is only written here — warming dispatch-path
            // lookups — never consulted.
            if let Some(pc) = &self.cache {
                let fp = self.partition_fingerprint(e, &parts[e], interner);
                pc.cache
                    .insert(fp, self.endpoint_generation(e), subquery.as_bytes());
            }
            let mut svc_chain = ChainBuilder::new();
            for c in scratch.rewrite.pattern().root_children() {
                let node = copy_node(scratch.rewrite.pattern(), c, &mut annotated);
                svc_chain.push(&mut annotated, node);
            }
            let svc = annotated.push_node(PatternNode::Service {
                endpoint: self.endpoints[e].term,
                first: svc_chain.first(),
            });
            chain.push(&mut annotated, svc);
            endpoint_plans.push(EndpointPlan {
                endpoint: EndpointId(e as u32),
                endpoint_term: self.endpoints[e].term,
                subquery,
                selectivity: scores[e],
                n_patterns: parts[e].len(),
            });
        }

        // Residual: unroutable triples (as maximal runs) and structural
        // nodes, in original order, after the SERVICE blocks.
        let mut n_residual_patterns = 0;
        let mut run_start = annotated.triples.len() as u32;
        let flush = |annotated: &mut GroupPattern, chain: &mut ChainBuilder, start: u32| {
            let end = annotated.triples.len() as u32;
            if end > start {
                let node = annotated.push_node(PatternNode::Triples {
                    start,
                    len: end - start,
                });
                chain.push(annotated, node);
            }
        };
        for item in residual {
            match item {
                ResidualItem::Triple(tp) => {
                    annotated.triples.push(tp);
                    n_residual_patterns += 1;
                }
                ResidualItem::Node(ci) => {
                    flush(&mut annotated, &mut chain, run_start);
                    let node = copy_node(src, ci, &mut annotated);
                    chain.push(&mut annotated, node);
                    run_start = annotated.triples.len() as u32;
                }
            }
        }
        flush(&mut annotated, &mut chain, run_start);
        annotated.root = annotated.push_node(PatternNode::Group {
            first: chain.first(),
        });

        Ok(FederationPlan {
            annotated: Query {
                select: match query.select {
                    None => SelectList::Star,
                    Some(vars) => SelectList::Vars(vars.to_vec()),
                },
                pattern: annotated,
            },
            endpoints: endpoint_plans,
            n_residual_patterns,
        })
    }
}

/// Deep-copy the subtree at `idx` from `src` into `dst`, returning the new
/// node index.
fn copy_node(src: &GroupPattern, idx: u32, dst: &mut GroupPattern) -> u32 {
    match src.nodes[idx as usize] {
        PatternNode::Triples { .. } => {
            let start = dst.triples.len() as u32;
            let run = src.run(idx);
            dst.triples.extend_from_slice(run);
            dst.push_node(PatternNode::Triples {
                start,
                len: run.len() as u32,
            })
        }
        PatternNode::Group { first } => {
            let first = copy_children(src, first, dst);
            dst.push_node(PatternNode::Group { first })
        }
        PatternNode::Optional { first } => {
            let first = copy_children(src, first, dst);
            dst.push_node(PatternNode::Optional { first })
        }
        PatternNode::Union { first } => {
            let first = copy_children(src, first, dst);
            dst.push_node(PatternNode::Union { first })
        }
        PatternNode::Service { endpoint, first } => {
            let first = copy_children(src, first, dst);
            dst.push_node(PatternNode::Service { endpoint, first })
        }
        PatternNode::Filter { expr } => {
            let expr = copy_expr(src, expr, dst);
            dst.push_node(PatternNode::Filter { expr })
        }
    }
}

fn copy_children(src: &GroupPattern, first: u32, dst: &mut GroupPattern) -> u32 {
    let mut chain = ChainBuilder::new();
    for ci in src.children_from(first) {
        let node = copy_node(src, ci, dst);
        chain.push(dst, node);
    }
    chain.first()
}

fn copy_expr(src: &GroupPattern, e: u32, dst: &mut GroupPattern) -> u32 {
    let node = match src.exprs[e as usize] {
        ExprNode::Term(t) => ExprNode::Term(t),
        ExprNode::Cmp(op, l, r) => {
            let l = copy_expr(src, l, dst);
            let r = copy_expr(src, r, dst);
            ExprNode::Cmp(op, l, r)
        }
        ExprNode::And(l, r) => {
            let l = copy_expr(src, l, dst);
            let r = copy_expr(src, r, dst);
            ExprNode::And(l, r)
        }
        ExprNode::Or(l, r) => {
            let l = copy_expr(src, l, dst);
            let r = copy_expr(src, r, dst);
            ExprNode::Or(l, r)
        }
        ExprNode::Not(c) => {
            let c = copy_expr(src, c, dst);
            ExprNode::Not(c)
        }
    };
    dst.push_expr(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::RuleTemplate;
    use crate::parser::{parse_bgp, parse_query};
    use crate::pattern::{CmpOp, ExprNode};

    /// Two endpoints: ep0 aligns <http://a/p*>, ep1 aligns <http://b/p*>.
    fn two_endpoint_planner(it: &mut Interner) -> FederationPlanner {
        let mut planner = FederationPlanner::new();
        for (e, ns) in ["a", "b"].iter().enumerate() {
            let mut store = AlignmentStore::new();
            for i in 0..4 {
                let lhs = parse_bgp(&format!("?s <http://{ns}/p{i}> ?o"), it)
                    .unwrap()
                    .patterns[0];
                let rhs = parse_bgp(&format!("?s <http://{ns}-tgt/p{i}> ?o"), it)
                    .unwrap()
                    .patterns;
                store.add_predicate(lhs, rhs).unwrap();
            }
            // ep1's p0 additionally has a second template so its candidate
            // count (selectivity signal) is higher.
            if e == 1 {
                let lhs = parse_bgp("?s <http://b/p0> ?o", it).unwrap().patterns[0];
                let rhs = parse_bgp("?s <http://b-alt/p0> ?o", it).unwrap().patterns;
                store.add_predicate(lhs, rhs).unwrap();
            }
            let term = Term::iri(it.intern(&format!("http://{ns}.example.org/sparql")));
            planner.add_endpoint(term, Arc::new(store));
        }
        planner
    }

    #[test]
    fn plan_partitions_orders_and_renders_service_blocks() {
        let mut it = Interner::new();
        let planner = two_endpoint_planner(&mut it);
        let query = parse_query(
            "SELECT ?s WHERE { ?s <http://b/p0> ?x . ?s <http://a/p1> ?y . \
             ?s <http://nowhere/q> ?z . FILTER(?y > 3) }",
            &mut it,
        )
        .unwrap();
        let plan = planner
            .plan(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();

        // Both endpoints matched one pattern each; ep0's partition (1
        // candidate) is more selective than ep1's (2 candidates for b/p0),
        // so ep0 dispatches first.
        assert_eq!(plan.endpoints.len(), 2);
        assert_eq!(plan.endpoints[0].endpoint, EndpointId(0));
        assert_eq!(plan.endpoints[0].selectivity, 1);
        assert_eq!(plan.endpoints[1].endpoint, EndpointId(1));
        assert_eq!(plan.endpoints[1].selectivity, 2);
        assert_eq!(plan.n_residual_patterns, 1);

        // Subqueries are rewritten into each endpoint's target vocabulary.
        assert!(
            plan.endpoints[0].subquery.contains("<http://a-tgt/p1>"),
            "{}",
            plan.endpoints[0].subquery
        );
        // ep1's multi-template pattern expands to the paper's UNION.
        assert!(
            plan.endpoints[1].subquery.contains("<http://b-tgt/p0>")
                && plan.endpoints[1].subquery.contains("<http://b-alt/p0>")
                && plan.endpoints[1].subquery.contains("UNION"),
            "{}",
            plan.endpoints[1].subquery
        );

        // The annotated query carries SERVICE blocks in dispatch order,
        // then the residual (unroutable triple + FILTER), and re-parses.
        let text = plan.annotated.display(&it).to_string();
        let a_pos = text.find("SERVICE <http://a.example.org/sparql>").unwrap();
        let b_pos = text.find("SERVICE <http://b.example.org/sparql>").unwrap();
        assert!(a_pos < b_pos, "{text}");
        assert!(text.contains("<http://nowhere/q>"), "{text}");
        assert!(text.contains("FILTER(?y > \"3\""), "{text}");
        let reparsed = parse_query(&text, &mut it).unwrap();
        assert_eq!(reparsed, plan.annotated);
    }

    #[test]
    fn plan_propagates_rewrite_limits() {
        let mut it = Interner::new();
        let planner = two_endpoint_planner(&mut it);
        let query = parse_query("SELECT * WHERE { ?s <http://b/p0> ?x }", &mut it).unwrap();
        let err = planner
            .plan(query.as_ref(), &it, RewriteLimits::with_union_branch_cap(1))
            .unwrap_err();
        assert!(matches!(err, RewriteError::UnionBranchesExceeded { .. }));
    }

    #[test]
    fn plan_counts_complex_candidates_and_propagates_template_size_cap() {
        let mut it = Interner::new();
        let mut planner = FederationPlanner::new();
        let mut store = AlignmentStore::new();
        // A 3-triple existential chain with a value-transform FILTER:
        // instantiated size 4 per matching pattern.
        let lhs = parse_bgp("?s <http://c/p0> ?o", &mut it).unwrap().patterns[0];
        let mut tmpl = RuleTemplate::from_triples(
            parse_bgp(
                "?s <http://c-tgt/h> ?m . ?m <http://c-tgt/t> ?n . ?n <http://c-tgt/v> ?o",
                &mut it,
            )
            .unwrap()
            .patterns,
        );
        let l = tmpl.push_expr(ExprNode::Term(lhs.o));
        let r = tmpl.push_expr(ExprNode::Term(Term::literal(it.intern("\"0\""))));
        let f = tmpl.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
        tmpl.push_filter(f);
        store.add_complex_predicate(lhs, tmpl).unwrap();
        let ep = Term::iri(it.intern("http://c.example.org/sparql"));
        planner.add_endpoint(ep, Arc::new(store));

        let query = parse_query("SELECT * WHERE { ?s <http://c/p0> ?o }", &mut it).unwrap();
        // Complex rules participate in candidate counting — the pattern
        // routes to the endpoint rather than the residual — and the
        // rendered subquery carries the chain plus the transform FILTER.
        let plan = planner
            .plan(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        assert_eq!(plan.endpoints.len(), 1);
        assert_eq!(plan.endpoints[0].selectivity, 1);
        assert_eq!(plan.n_residual_patterns, 0);
        let sub = &plan.endpoints[0].subquery;
        assert!(
            sub.contains("<http://c-tgt/t>") && sub.contains("FILTER("),
            "{sub}"
        );

        // The per-pattern template-size cap surfaces through the planner
        // unchanged, like the UNION branch cap above.
        let err = planner
            .plan(
                query.as_ref(),
                &it,
                RewriteLimits::with_template_size_cap(3),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                RewriteError::TemplateSizeExceeded {
                    cap: 3,
                    required: 4
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn partition_fingerprints_key_on_the_endpoint_id() {
        let mut it = Interner::new();
        let planner = two_endpoint_planner(&mut it);
        let tps = parse_bgp("?s <http://a/p0> ?o . ?s <http://a/p1> ?x", &mut it)
            .unwrap()
            .patterns;
        // The same triples must hash to different cache keys per endpoint:
        // each endpoint rewrites them into a different vocabulary.
        assert_ne!(
            planner.partition_fingerprint(0, &tps, &it),
            planner.partition_fingerprint(1, &tps, &it)
        );
        // And the fingerprint is order- and content-sensitive.
        let rev: Vec<_> = tps.iter().rev().copied().collect();
        assert_ne!(
            planner.partition_fingerprint(0, &tps, &it),
            planner.partition_fingerprint(0, &rev, &it)
        );
        // Within a process it is stable, and a worker's interner clone
        // keys the same partition the same way.
        assert_eq!(
            planner.partition_fingerprint(0, &tps, &it),
            planner.partition_fingerprint(0, &tps, &it.clone())
        );
    }

    /// Two workers' interner clones mint the same private id for different
    /// novel strings; a partition cached by one worker must not be served
    /// to the other.
    #[test]
    fn partition_cache_does_not_alias_worker_private_symbols() {
        let mut it = Interner::new();
        let mut planner = two_endpoint_planner(&mut it);
        planner.enable_partition_cache(crate::cache::CacheConfig::default());
        let (mut w1, mut w2) = (it.clone(), it.clone());
        let q1 = parse_query("SELECT * WHERE { ?only_w1 <http://a/p0> ?o }", &mut w1).unwrap();
        let q2 = parse_query("SELECT * WHERE { ?only_w2 <http://a/p0> ?o }", &mut w2).unwrap();
        assert_eq!(
            q1.pattern.triples[0], q2.pattern.triples[0],
            "test geometry: both private variables share one id"
        );
        let limits = RewriteLimits::default();
        let p1 = planner.plan_for_dispatch(q1.as_ref(), &w1, limits).unwrap();
        let p2 = planner.plan_for_dispatch(q2.as_ref(), &w2, limits).unwrap();
        assert!(p1.endpoints[0].subquery.contains("?only_w1"));
        assert!(
            p2.endpoints[0].subquery.contains("?only_w2"),
            "served another worker's rewrite: {}",
            p2.endpoints[0].subquery
        );
    }

    #[test]
    fn dispatch_plan_serves_hot_partitions_from_the_cache() {
        let mut it = Interner::new();
        let mut planner = two_endpoint_planner(&mut it);
        planner.enable_partition_cache(crate::cache::CacheConfig::default());
        let query = parse_query(
            "SELECT * WHERE { ?s <http://a/p0> ?x . ?s <http://b/p1> ?y }",
            &mut it,
        )
        .unwrap();

        let cold = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        let stats = planner.partition_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "cold run misses");

        let hot = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        let stats = planner.partition_cache_stats();
        assert_eq!(stats.hits, 2, "hot partitions must not re-rewrite");
        let texts = |p: &DispatchPlan| -> Vec<String> {
            p.endpoints.iter().map(|e| e.subquery.clone()).collect()
        };
        assert_eq!(texts(&cold), texts(&hot));

        // The full planning path produces the same subqueries and warms
        // the same cache (inserts only — it always needs the rewrite for
        // the annotated tree).
        let full = planner
            .plan(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        let full_texts: Vec<String> = full.endpoints.iter().map(|e| e.subquery.clone()).collect();
        assert_eq!(full_texts, texts(&hot));
        assert_eq!(
            planner.partition_cache_stats().hits,
            2,
            "plan() never consults the cache"
        );
    }

    #[test]
    fn store_replacement_invalidates_cached_partitions() {
        let mut it = Interner::new();
        let mut planner = two_endpoint_planner(&mut it);
        planner.enable_partition_cache(crate::cache::CacheConfig::default());
        let query = parse_query("SELECT * WHERE { ?s <http://a/p1> ?y }", &mut it).unwrap();

        let before = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        assert!(before.endpoints[0].subquery.contains("<http://a-tgt/p1>"));
        assert_eq!(planner.partition_cache_stats().misses, 1);

        // Rebuild ep0's rules with the *same number of additions* (so the
        // fresh store's revision counter collides with the old one) but a
        // different target vocabulary. The epoch bump must still reach the
        // new rewrite.
        let mut store = AlignmentStore::new();
        for i in 0..4 {
            let lhs = parse_bgp(&format!("?s <http://a/p{i}> ?o"), &mut it)
                .unwrap()
                .patterns[0];
            let rhs = parse_bgp(&format!("?s <http://a-v2/p{i}> ?o"), &mut it)
                .unwrap()
                .patterns;
            store.add_predicate(lhs, rhs).unwrap();
        }
        planner.replace_endpoint_store(EndpointId(0), Arc::new(store));

        let after = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        assert!(
            after.endpoints[0].subquery.contains("<http://a-v2/p1>"),
            "stale cached rewrite served after store replacement: {}",
            after.endpoints[0].subquery
        );
        let stats = planner.partition_cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "replacement must miss, not hit"
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let mut it = Interner::new();
        let planner = two_endpoint_planner(&mut it);
        let query = parse_query(
            "SELECT * WHERE { ?s <http://a/p0> ?x . ?s <http://b/p1> ?y }",
            &mut it,
        )
        .unwrap();
        let a = planner
            .plan(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        let b = planner
            .plan(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        assert_eq!(a.annotated, b.annotated);
        let subs_a: Vec<_> = a.endpoints.iter().map(|e| &e.subquery).collect();
        let subs_b: Vec<_> = b.endpoints.iter().map(|e| &e.subquery).collect();
        assert_eq!(subs_a, subs_b);
    }
}
