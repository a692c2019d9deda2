//! Fault-tolerant federated SERVICE dispatch.
//!
//! The EDBT'10 rewriting model exists to integrate data *across sources*;
//! this module turns N per-endpoint [`AlignmentStore`]s into a dispatch
//! plan and executes it against unreliable peers without falling over:
//!
//! 1. **Partition** ([`FederationPlanner::plan_for_dispatch`]): each
//!    top-level triple pattern of a parsed query is assigned to the endpoint
//!    whose rules can rewrite it. The assignment reads
//!    the store's predicate candidates — an O(1) slice lookup
//!    against the store's dispatch table — and the candidate *count* doubles as a
//!    statistics-free selectivity signal in the spirit of Yannakis et al.:
//!    endpoints are dispatched most-selective-first (smallest expected
//!    expansion), ties broken by endpoint id. Patterns no endpoint can
//!    rewrite, all non-conjunctive structure (OPTIONAL, UNION, FILTER,
//!    nested groups, SERVICE) and the projection are shipped nowhere; the
//!    plan counts each of them as residual.
//! 2. **Rewrite + render**: each partition is rewritten against its
//!    endpoint's own rules and rendered as a standalone `SELECT *`
//!    subquery, the text shipped over the transport.
//! 3. **Execute** ([`FederatedExecutor`]): subqueries are dispatched
//!    concurrently — the calling thread plus a few persistent dispatch
//!    lanes, no thread spawned per request — over a pluggable
//!    [`EndpointTransport`]. Every endpoint call is wrapped in the full
//!    resilience kit — a per-request deadline with budget propagation into
//!    the transport, bounded retries with seeded jittered exponential
//!    backoff ([`BackoffPolicy`]), and a per-endpoint
//!    closed/open/half-open circuit breaker ([`BreakerConfig`],
//!    [`BreakerState`]) — and degrades to a
//!    deterministic [`FederatedResult`] carrying a per-endpoint
//!    [`EndpointOutcome`] (served / timed-out / circuit-open /
//!    exhausted-retries), so callers always get the partial results that
//!    *were* obtainable plus structured error annotations.
//!
//! # Determinism
//!
//! Timing runs on a **virtual clock**: latencies come from the transport's
//! reply (the tests' mock transport draws them from a seeded stream), backoff
//! delays and fault schedules derive from seed + endpoint + call + attempt
//! counters, and deadline/breaker arithmetic uses only those virtual
//! nanoseconds. Identical seeds therefore replay failure scenarios
//! bit-identically — [`FederatedResult`]s compare equal across runs — while
//! real threads still execute endpoints concurrently.

mod backoff;
mod breaker;
mod executor;
mod http;
mod transport;

pub use backoff::BackoffPolicy;
pub use breaker::{BreakerConfig, BreakerState};
pub use executor::{ExecutorConfig, FederatedExecutor};
pub use http::{
    read_response, HttpConfig, HttpEndpoint, HttpError, HttpLimits, HttpResponse, HttpTransport,
};
pub use transport::{EndpointTransport, TransportError, TransportReply, TransportRequest};

use std::sync::Arc;

use crate::align::AlignmentStore;
use crate::cache::CacheConfig;
use crate::interner::SymbolText;
use crate::pattern::{render_query_into, GroupPattern, PatternNode, QueryRef, TriplePattern};
use crate::rewriter::{RewriteError, RewriteLimits, RewriteScratch, Rewriter};
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
/// schedule in the workspace — the fault injectors of the
/// `sparql-rewrite-chaos` test crate and the mutation fuzzes — derives its
/// draws from this one primitive, keyed by (seed, index...) tuples;
/// stateless mixing is what makes replays byte-identical under concurrency.
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
}

/// One endpoint's share of a [`DispatchPlan`]: what the executor sends
/// where. Its selectivity is its position in [`DispatchPlan::endpoints`].
#[derive(Clone, Debug)]
pub struct EndpointPlan {
    pub endpoint: EndpointId,
    /// Rendered `SELECT * WHERE { ... }` text of the rewritten partition —
    /// what the transport ships.
    pub subquery: String,
}

/// Output of [`FederationPlanner::plan_for_dispatch`]: what the executor
/// consumes.
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// Per-endpoint subqueries in dispatch order.
    pub endpoints: Vec<EndpointPlan>,
    /// Parts of the query that no subquery carries: each root triple no
    /// endpoint could rewrite, each other root node (FILTER, OPTIONAL,
    /// UNION, nested group, SERVICE), and one for a projection, since every
    /// subquery selects `*`. Above zero, the answer leaves part of the query
    /// unevaluated.
    pub n_residual_patterns: usize,
}

struct PlannerEndpoint {
    term: Term,
    store: Arc<AlignmentStore>,
}

/// Always zero: the planner keeps no partition cache. Kept only because the
/// benchmark package still reads it; ROADMAP item 0's `[benchmark]` change
/// drops it.
#[doc(hidden)]
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
pub struct PartitionCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// Partitions queries across per-endpoint rule sets and renders one
/// rewritten subquery per endpoint. Build-phase: register endpoints with
/// [`FederationPlanner::add_endpoint`], then call
/// [`FederationPlanner::plan_for_dispatch`] freely from the serve phase
/// (`&self`). A member's store is fixed once it is added, and the planner
/// holds no other state.
#[derive(Default)]
pub struct FederationPlanner {
    endpoints: Vec<PlannerEndpoint>,
}

/// Reusable buffers threaded through per-partition rewriting.
#[derive(Default)]
struct PlanScratch {
    /// The partition in progress, as a flat `SELECT *` pattern.
    part: GroupPattern,
    rewrite: RewriteScratch,
    fresh_base: String,
}

/// A query's triples partitioned across endpoints, plus dispatch order.
struct Partitioned {
    parts: Vec<Vec<TriplePattern>>,
    /// What no partition carries (see [`DispatchPlan::n_residual_patterns`]).
    n_residual_patterns: usize,
    /// Endpoints with non-empty partitions, most selective first.
    order: Vec<usize>,
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
        });
        id
    }

    /// A no-op: the planner keeps no partition cache. Kept only because the
    /// benchmark package still calls it; ROADMAP item 0's `[benchmark]`
    /// change drops it.
    #[doc(hidden)]
    pub fn enable_partition_cache(&mut self, _config: CacheConfig) {}

    /// Always zero, for the same reason as `enable_partition_cache`.
    #[doc(hidden)]
    pub fn partition_cache_stats(&self) -> PartitionCacheStats {
        PartitionCacheStats::default()
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

    /// Partition the root triples of `query` across endpoints and fix the
    /// dispatch order. Every other root node (OPTIONAL, UNION, FILTER,
    /// nested group, SERVICE) is never dispatched, nor is a projection:
    /// each counts as residual, like an unroutable triple.
    fn partition(&self, query: QueryRef<'_>) -> Partitioned {
        let src = query.pattern;
        let n = self.endpoints.len();
        let mut parts: Vec<Vec<TriplePattern>> = vec![Vec::new(); n];
        let mut scores: Vec<u64> = vec![0; n];
        let mut n_residual_patterns = usize::from(query.select.is_some());
        for ci in src.root_children() {
            if !matches!(src.nodes[ci as usize], PatternNode::Triples { .. }) {
                n_residual_patterns += 1;
                continue;
            }
            for &tp in src.run(ci) {
                match self.assign(tp) {
                    Some((e, score)) => {
                        parts[e].push(tp);
                        scores[e] += score;
                    }
                    None => n_residual_patterns += 1,
                }
            }
        }

        // Yannakis-style statistics-free ordering: dispatch the most
        // selective partition (smallest summed candidate count) first.
        let mut order: Vec<usize> = (0..n).filter(|&e| !parts[e].is_empty()).collect();
        order.sort_by_key(|&e| (scores[e], e));
        Partitioned {
            parts,
            n_residual_patterns,
            order,
        }
    }

    /// Rewrite endpoint `e`'s partition into `scratch` and render it as the
    /// subquery the endpoint is sent.
    fn rewrite_partition(
        &self,
        e: usize,
        part: &[TriplePattern],
        interner: &impl SymbolText,
        limits: RewriteLimits,
        scratch: &mut PlanScratch,
    ) -> Result<String, RewriteError> {
        scratch.part.set_bgp(part);
        self.endpoints[e].store.try_rewrite_ref_into(
            QueryRef {
                select: None,
                pattern: &scratch.part,
            },
            &mut scratch.rewrite,
            limits,
        )?;
        let mut subquery = String::new();
        render_query_into(
            QueryRef {
                select: None,
                pattern: scratch.rewrite.pattern(),
            },
            interner,
            &mut scratch.fresh_base,
            &mut subquery,
        );
        Ok(subquery)
    }

    /// Partition `query`, rewrite each partition against its endpoint's
    /// rules (bounded by `limits`), and render each as the subquery its
    /// endpoint is sent.
    ///
    /// Plans are fully deterministic in the query + registered endpoints.
    /// Fails only when a partition's rewrite crosses a [`RewriteLimits`]
    /// cap.
    pub fn plan_for_dispatch(
        &self,
        query: QueryRef<'_>,
        interner: &impl SymbolText,
        limits: RewriteLimits,
    ) -> Result<DispatchPlan, RewriteError> {
        let p = self.partition(query);
        let mut endpoint_plans = Vec::with_capacity(p.order.len());
        let mut scratch = PlanScratch::default();
        for &e in &p.order {
            let subquery =
                self.rewrite_partition(e, &p.parts[e], interner, limits, &mut scratch)?;
            endpoint_plans.push(EndpointPlan {
                endpoint: EndpointId(e as u32),
                subquery,
            });
        }
        Ok(DispatchPlan {
            endpoints: endpoint_plans,
            n_residual_patterns: p.n_residual_patterns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::RuleTemplate;
    use crate::interner::Interner;
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
    fn plan_partitions_orders_and_rewrites_per_endpoint() {
        let mut it = Interner::new();
        let planner = two_endpoint_planner(&mut it);
        let query = parse_query(
            "SELECT ?s WHERE { ?s <http://b/p0> ?x . ?s <http://a/p1> ?y . \
             ?s <http://nowhere/q> ?z . FILTER(?y > 3) }",
            &mut it,
        )
        .unwrap();
        let plan = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();

        // Both endpoints matched one pattern each; ep0's partition (1
        // candidate) is more selective than ep1's (2 candidates for b/p0),
        // so ep0 dispatches first.
        let score = |text: &str, it: &mut Interner| {
            planner.assign(parse_bgp(text, it).unwrap().patterns[0])
        };
        assert_eq!(score("?s <http://a/p1> ?y", &mut it), Some((0, 1)));
        assert_eq!(score("?s <http://b/p0> ?x", &mut it), Some((1, 2)));
        assert_eq!(plan.endpoints.len(), 2);
        assert_eq!(plan.endpoints[0].endpoint, EndpointId(0));
        assert_eq!(plan.endpoints[1].endpoint, EndpointId(1));
        // Residual: the unroutable triple, the FILTER and the projection.
        assert_eq!(plan.n_residual_patterns, 3);

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
        // The residual (unroutable triple + FILTER) is shipped nowhere, and
        // every subquery is a query our own parser accepts.
        for ep in &plan.endpoints {
            assert!(
                !ep.subquery.contains("<http://nowhere/q>"),
                "{}",
                ep.subquery
            );
            assert!(!ep.subquery.contains("FILTER"), "{}", ep.subquery);
            parse_query(&ep.subquery, &mut it).unwrap();
        }
    }

    #[test]
    fn plan_propagates_rewrite_limits() {
        let mut it = Interner::new();
        let planner = two_endpoint_planner(&mut it);
        let query = parse_query("SELECT * WHERE { ?s <http://b/p0> ?x }", &mut it).unwrap();
        let err = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::with_union_branch_cap(1))
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
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        assert_eq!(plan.endpoints.len(), 1);
        assert_eq!(planner.assign(query.pattern.triples[0]), Some((0, 1)));
        assert_eq!(plan.n_residual_patterns, 0);
        let sub = &plan.endpoints[0].subquery;
        assert!(
            sub.contains("<http://c-tgt/t>") && sub.contains("FILTER("),
            "{sub}"
        );

        // The per-pattern template-size cap surfaces through the planner
        // unchanged, like the UNION branch cap above.
        let err = planner
            .plan_for_dispatch(
                query.as_ref(),
                &it,
                RewriteLimits {
                    max_template_size: 3,
                    ..RewriteLimits::unbounded()
                },
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

    /// Everything a plan does not ship counts as residual: a FILTER, an
    /// OPTIONAL group and a projection, not only unroutable triples.
    #[test]
    fn residual_counts_every_part_no_subquery_carries() {
        let mut it = Interner::new();
        let mut planner = FederationPlanner::new();
        let mut store = AlignmentStore::new();
        let lhs = parse_bgp("?s <http://a/p0> ?o", &mut it).unwrap().patterns[0];
        let rhs = parse_bgp("?s <http://t/p0> ?o", &mut it).unwrap().patterns;
        store.add_predicate(lhs, rhs).unwrap();
        let ep = Term::iri(it.intern("http://a.example.org/sparql"));
        planner.add_endpoint(ep, Arc::new(store));
        for (text, residual) in [
            ("SELECT ?s WHERE { ?s <http://a/p0> ?o FILTER(?o = 1) }", 2),
            (
                "SELECT * WHERE { ?s <http://a/p0> ?o OPTIONAL { ?o <http://a/p0> ?x } }",
                1,
            ),
            ("SELECT ?s WHERE { ?s <http://a/p0> ?o }", 1),
        ] {
            let query = parse_query(text, &mut it).unwrap();
            let plan = planner
                .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
                .unwrap();
            assert_eq!(plan.n_residual_patterns, residual, "{text}");
            assert_eq!(
                plan.endpoints[0].subquery, "SELECT * WHERE {\n  ?s <http://t/p0> ?o .\n}",
                "{text}"
            );
        }
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
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        let b = planner
            .plan_for_dispatch(query.as_ref(), &it, RewriteLimits::unbounded())
            .unwrap();
        assert_eq!(a.n_residual_patterns, b.n_residual_patterns);
        let subs_a: Vec<_> = a.endpoints.iter().map(|e| &e.subquery).collect();
        let subs_b: Vec<_> = b.endpoints.iter().map(|e| &e.subquery).collect();
        assert_eq!(subs_a, subs_b);
    }
}
