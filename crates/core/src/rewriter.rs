//! Group-graph-pattern rewriting: apply an [`AlignmentStore`] to a query.
//!
//! [`IndexedRewriter`] finds each triple pattern's rule candidates with O(1)
//! lookups against the store's dense direct-indexed dispatch tables. Its
//! reference is semantic, not a second rewriter: `tests/oracle.rs` evaluates
//! each query over source data and its rewrite over the aligned data, and
//! requires the same answers.
//!
//! # Semantics
//!
//! The query's [`GroupPattern`] tree is rewritten **recursively**: nested
//! groups, `OPTIONAL` bodies, and every `UNION` branch are rewritten in
//! place with the same rules, and `FILTER` expressions get entity
//! substitution applied to their IRI/literal operands. Per triple pattern
//! (in pattern order):
//!
//! 1. Entity alignments are applied to the subject, predicate, and object.
//!    The first entity rule in id order for a given source term wins.
//! 2. The (possibly substituted) pattern is matched against **all**
//!    predicate templates, in rule-id order:
//!    * no match — the pattern passes through unchanged;
//!    * exactly one match — the instantiated right-hand side replaces the
//!      pattern inline, extending the current triples run;
//!    * two or more matches — the paper's union semantics (Correndo et al.
//!      EDBT 2010, §4): the pattern becomes a `UNION` whose branches are
//!      the instantiated templates, **one branch per matching rule, in rule
//!      id order**. Nothing is silently dropped.
//!
//!    Complex rules ([`AlignmentStore::add_complex_predicate`]) take one
//!    extra step: each candidate's guard is statically evaluated against
//!    the lhs bindings **before** the arity above is decided (three-valued
//!    — a statically false guard removes the rule from the candidate set,
//!    possibly collapsing a would-be UNION to a single match or a
//!    pass-through; an undecidable guard lets the rule fire and emits the
//!    instantiated guard as a residual `FILTER` for the endpoint to
//!    decide). A firing complex rule appends its body chain exactly like a
//!    flat rhs and emits its template FILTER constraints — the
//!    value-transform carriers — alongside the instantiated triples.
//!
//!    Variables introduced by a template (present in rhs, absent from lhs)
//!    become [`TermKind::Fresh`] terms
//!    numbered by a per-rewrite counter — no string is interned and no name
//!    lookup happens, because a fresh term is structurally unequal to every
//!    parsed variable. Counters are minted left-to-right across the whole
//!    tree, so branch contents are deterministic and independent of thread
//!    scheduling.
//!
//! Rewriting is not run to a fixpoint: rule sets are assumed to be composed
//! offline (paper §4), so output vocabulary is never itself rewritten.
//!
//! # Concurrency and allocation
//!
//! Steady-state rewriting needs only `&self` over shared immutable state:
//! the [`Rewriter`] methods take no interner, [`AlignmentStore`] and the
//! rewriter are `Send + Sync`, and the `*_into` entry points write into a
//! caller-owned [`RewriteScratch`] whose buffers are reused across calls.
//! The rewritten group tree itself lives in the scratch as a flattened,
//! index-linked buffer ([`GroupPattern`]'s four flat `Vec`s of `Copy`
//! nodes — no per-node boxing), so after warm-up a `rewrite_query_into`
//! call performs **zero heap allocations** even when it expands UNION
//! branches and copies FILTER trees (asserted by `tests/alloc_free.rs`).
//!
//! Sharing one rule set across worker threads is an `Arc` away:
//!
//! ```
//! use std::sync::Arc;
//! use std::thread;
//! use sparql_rewrite_core::*;
//!
//! let mut interner = Interner::new();
//! let query = parse_query("SELECT * WHERE { ?s <http://src/p> ?o }", &mut interner).unwrap();
//! let mut store = AlignmentStore::new();
//! let lhs = parse_bgp("?a <http://src/p> ?b", &mut interner).unwrap().patterns[0];
//! let rhs = parse_bgp("?a <http://tgt/p> ?m . ?m <http://tgt/q> ?b", &mut interner)
//!     .unwrap()
//!     .patterns;
//! store.add_predicate(lhs, rhs).unwrap();
//!
//! // Build phase over: share everything read-only. Each worker renders
//! // with its own clone of the interner, which shares the strings.
//! let rewriter: Arc<IndexedRewriter> = Arc::new(IndexedRewriter::new(Arc::new(store)));
//!
//! let rendered: Vec<String> = thread::scope(|scope| {
//!     (0..4)
//!         .map(|_| {
//!             let rewriter = Arc::clone(&rewriter);
//!             let interner = interner.clone();
//!             let query = &query;
//!             scope.spawn(move || {
//!                 let mut scratch = RewriteScratch::new();
//!                 rewriter.rewrite_query_into(query, &mut scratch);
//!                 scratch.to_query().display(&interner).to_string()
//!             })
//!         })
//!         .collect::<Vec<_>>()
//!         .into_iter()
//!         .map(|h| h.join().unwrap())
//!         .collect()
//! });
//! assert!(rendered.iter().all(|r| r == &rendered[0]));
//! assert!(rendered[0].contains("<http://tgt/q>"));
//! ```

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::align::{AlignmentStore, TemplateRef, NO_EXPR};
use crate::pattern::{
    Bgp, ChainBuilder, CmpOp, ExprNode, GroupPattern, PatternNode, Query, QueryRef, SelectList,
    TriplePattern,
};
use crate::term::{Symbol, Term, TermKind};

/// Structured failure of a capped rewrite. The infallible [`Rewriter`]
/// methods run uncapped and can never observe one; the `try_*` entry points
/// surface it instead of letting a hostile or pathological query grow the
/// scratch without bound.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RewriteError {
    /// Template expansion would emit more UNION branches than
    /// [`RewriteLimits::max_union_branches`] allows. `required` is the
    /// branch count at the moment the cap was crossed (counting only
    /// branches minted by multi-template expansion, not UNIONs the input
    /// already contained).
    UnionBranchesExceeded { cap: u32, required: u32 },
    /// Instantiating the templates that fire for one source pattern would
    /// emit more output (triples plus FILTER constraints, residual guard
    /// included) than [`RewriteLimits::max_template_size`] allows —
    /// chain-rule bodies multiply with UNION arity, and this bounds the
    /// product per pattern. `required` is the total the firing candidate
    /// set would have emitted.
    TemplateSizeExceeded { cap: u32, required: u32 },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::UnionBranchesExceeded { cap, required } => write!(
                f,
                "rewrite expansion exceeds the UNION branch cap: {required} branches needed, cap is {cap}"
            ),
            RewriteError::TemplateSizeExceeded { cap, required } => write!(
                f,
                "template instantiation exceeds the per-pattern size cap: {required} nodes needed, cap is {cap}"
            ),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Resource limits for one rewrite call, enforced by the `try_*` entry
/// points of [`Rewriter`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RewriteLimits {
    /// Maximum number of UNION branches multi-template expansion may mint
    /// across one whole rewrite (paper-§4 expansion is one branch per
    /// matching rule per pattern, so a query whose patterns each match many
    /// templates grows multiplicatively in output size; this bounds it).
    pub max_union_branches: u32,
    /// Maximum output size (instantiated triples + emitted FILTER
    /// constraints, residual guard included) the templates firing for one
    /// source pattern may produce. Chain rules multiply their body length
    /// into every UNION branch, so this caps the per-pattern product that
    /// `max_union_branches` (which only counts branches) cannot see.
    pub max_template_size: u32,
}

impl RewriteLimits {
    /// No limits — the behavior of the infallible entry points.
    #[inline]
    pub fn unbounded() -> RewriteLimits {
        RewriteLimits {
            max_union_branches: u32::MAX,
            max_template_size: u32::MAX,
        }
    }

    /// Cap expansion-minted UNION branches at `cap`.
    #[inline]
    pub fn with_union_branch_cap(cap: u32) -> RewriteLimits {
        RewriteLimits {
            max_union_branches: cap,
            ..RewriteLimits::unbounded()
        }
    }

    /// Cap per-pattern instantiated template size at `cap`.
    #[inline]
    pub fn with_template_size_cap(cap: u32) -> RewriteLimits {
        RewriteLimits {
            max_template_size: cap,
            ..RewriteLimits::unbounded()
        }
    }
}

impl Default for RewriteLimits {
    fn default() -> RewriteLimits {
        RewriteLimits::unbounded()
    }
}

/// Caller-owned scratch space for allocation-free rewriting.
///
/// Holds the output buffers and the per-rewrite rename state. Every
/// `rewrite_*_into` call clears and refills it; buffer capacity is retained,
/// so repeated calls with a warmed scratch never touch the allocator. The
/// rewritten group tree is stored flattened ([`GroupPattern`]) — nodes,
/// sibling links, triples, and filter expressions in four flat `Vec`s.
#[derive(Default, Debug)]
pub struct RewriteScratch {
    /// Rewritten group pattern of the last call.
    pattern: GroupPattern,
    /// Projection of the last `rewrite_query_into` call (empty for `*`).
    select: Vec<Term>,
    select_star: bool,
    /// Existential renames of the template application in progress. Keyed by
    /// whole `Term` (not `Symbol`) because a blank `_:b` and a variable `?b`
    /// share an interned string but must rename independently.
    renames: Vec<(Term, Term)>,
    /// Ids of the predicate rules matching the triple pattern in progress,
    /// in rule-id order — the future UNION branches.
    match_ids: Vec<u32>,
    /// Next fresh-variable counter for this rewrite call.
    fresh_next: u32,
    /// Counter value after the pre-pass over the input (i.e. one past the
    /// largest fresh counter the input already carried); newly minted
    /// existentials are `fresh_start..fresh_next`.
    fresh_start: u32,
    /// UNION branches minted by multi-template expansion so far this call.
    branches_emitted: u32,
    /// Cap on `branches_emitted` for this call (set from [`RewriteLimits`]
    /// at entry; `u32::MAX` on the infallible paths).
    branch_limit: u32,
    /// Per-pattern instantiated-template-size cap for this call (from
    /// [`RewriteLimits::max_template_size`]; `u32::MAX` when infallible).
    tmpl_size_limit: u32,
}

impl RewriteScratch {
    pub fn new() -> RewriteScratch {
        RewriteScratch::default()
    }

    /// The rewritten group pattern of the last `rewrite_*_into` call.
    #[inline]
    pub fn pattern(&self) -> &GroupPattern {
        &self.pattern
    }

    /// All rewritten triple patterns of the last call, in rendering order
    /// across the whole tree (UNION branches included).
    #[inline]
    pub fn patterns(&self) -> &[TriplePattern] {
        &self.pattern.triples
    }

    /// Projection of the last `rewrite_query_into` call: `None` for
    /// `SELECT *`, otherwise the projected variables.
    #[inline]
    pub fn select(&self) -> Option<&[Term]> {
        if self.select_star {
            None
        } else {
            Some(&self.select)
        }
    }

    /// Number of fresh variables the last call introduced — fresh terms the
    /// input already carried (when re-rewriting a prior output) are not
    /// counted.
    #[inline]
    pub fn fresh_count(&self) -> u32 {
        self.fresh_next - self.fresh_start
    }

    /// Copy the last result out as an owned [`GroupPattern`] (allocates).
    pub fn to_pattern(&self) -> GroupPattern {
        self.pattern.clone()
    }

    /// Copy the last result out as an owned [`Query`] (allocates). Only
    /// meaningful after `rewrite_query_into`.
    pub fn to_query(&self) -> Query {
        Query {
            select: if self.select_star {
                SelectList::Star
            } else {
                SelectList::Vars(self.select.clone())
            },
            pattern: self.to_pattern(),
        }
    }
}

/// The rewriting entry points. All methods take `&self` and no interner:
/// fresh variables are structural ([`TermKind::Fresh`]), so the hot path
/// never mints strings.
pub trait Rewriter {
    /// Fallible core of [`Rewriter::rewrite_bgp_into`]: enforce `limits`,
    /// returning a [`RewriteError`] (scratch contents unspecified but safe)
    /// when expansion would cross a cap.
    fn try_rewrite_bgp_into(
        &self,
        bgp: &Bgp,
        scratch: &mut RewriteScratch,
        limits: RewriteLimits,
    ) -> Result<(), RewriteError>;

    /// Fallible core of [`Rewriter::rewrite_pattern_into`].
    fn try_rewrite_pattern_into(
        &self,
        pattern: &GroupPattern,
        scratch: &mut RewriteScratch,
        limits: RewriteLimits,
    ) -> Result<(), RewriteError>;

    /// Fallible core of [`Rewriter::rewrite_ref_into`].
    fn try_rewrite_ref_into(
        &self,
        query: QueryRef<'_>,
        scratch: &mut RewriteScratch,
        limits: RewriteLimits,
    ) -> Result<(), RewriteError>;

    /// Rewrite a bare BGP into `scratch` (allocation-free once warm). The
    /// result is a group pattern: multi-template matches expand to UNION
    /// nodes even when the input was flat.
    fn rewrite_bgp_into(&self, bgp: &Bgp, scratch: &mut RewriteScratch) {
        self.try_rewrite_bgp_into(bgp, scratch, RewriteLimits::unbounded())
            .expect("unbounded rewrite cannot fail");
    }

    /// Rewrite a full group graph pattern into `scratch`, recursively
    /// (allocation-free once warm).
    fn rewrite_pattern_into(&self, pattern: &GroupPattern, scratch: &mut RewriteScratch) {
        self.try_rewrite_pattern_into(pattern, scratch, RewriteLimits::unbounded())
            .expect("unbounded rewrite cannot fail");
    }

    /// Rewrite a borrowed query view into `scratch`: the projection is
    /// copied into the scratch, the pattern is rewritten (allocation-free
    /// once warm). This is the serve-pipeline entry point — the view can
    /// borrow straight out of a [`crate::parser::ParseScratch`], so no owned
    /// [`Query`] is ever assembled between parse and rewrite.
    fn rewrite_ref_into(&self, query: QueryRef<'_>, scratch: &mut RewriteScratch) {
        self.try_rewrite_ref_into(query, scratch, RewriteLimits::unbounded())
            .expect("unbounded rewrite cannot fail");
    }

    /// Rewrite a full query into `scratch` (allocation-free once warm).
    fn rewrite_query_into(&self, query: &Query, scratch: &mut RewriteScratch) {
        self.rewrite_ref_into(query.as_ref(), scratch);
    }

    /// Convenience wrapper allocating a fresh output pattern.
    fn rewrite_bgp(&self, bgp: &Bgp) -> GroupPattern {
        let mut scratch = RewriteScratch::new();
        self.rewrite_bgp_into(bgp, &mut scratch);
        scratch.pattern
    }

    /// Convenience wrapper allocating a fresh output pattern.
    fn rewrite_pattern(&self, pattern: &GroupPattern) -> GroupPattern {
        let mut scratch = RewriteScratch::new();
        self.rewrite_pattern_into(pattern, &mut scratch);
        scratch.pattern
    }

    /// Convenience wrapper allocating a fresh output query.
    fn rewrite_query(&self, query: &Query) -> Query {
        let mut scratch = RewriteScratch::new();
        self.rewrite_query_into(query, &mut scratch);
        scratch.to_query()
    }
}

/// The rewriter: direct-indexed candidate lookup.
///
/// Generic over how it holds the store so both phases are cheap to express:
/// borrow for single-threaded use (`IndexedRewriter::new(&store)`), or an
/// [`Arc`] for the shared serve phase (`IndexedRewriter::new(Arc::new(store))`
/// — the default type parameter). `Send + Sync` whenever the holder is.
pub struct IndexedRewriter<S = Arc<AlignmentStore>> {
    store: S,
}

impl<S: Borrow<AlignmentStore>> IndexedRewriter<S> {
    pub fn new(store: S) -> Self {
        IndexedRewriter { store }
    }

    #[inline]
    fn store(&self) -> &AlignmentStore {
        self.store.borrow()
    }
}

/// Does template lhs match the query pattern? Template variables match
/// anything (consistently — a repeated lhs variable must bind one term);
/// concrete template terms require equality. One pass over the three
/// positions: each is either compared for equality (concrete) or, if it is a
/// variable, checked for consistency against the *later* positions that
/// repeat it — so no position is examined twice.
#[inline]
fn lhs_matches(lhs: TriplePattern, tp: TriplePattern) -> bool {
    let l = lhs.terms();
    let q = tp.terms();
    for i in 0..3 {
        if l[i].is_var() {
            for j in (i + 1)..3 {
                if l[j] == l[i] && q[j] != q[i] {
                    return false;
                }
            }
        } else if l[i] != q[i] {
            return false;
        }
    }
    true
}

/// Bindings from lhs variables to the query pattern's terms. At most three
/// entries, so a flat array beats a hash map.
#[inline]
fn bind_lhs(lhs: TriplePattern, tp: TriplePattern) -> ([(Symbol, Term); 3], usize) {
    let mut bindings: [(Symbol, Term); 3] = [(Symbol(u32::MAX), tp.s); 3];
    let mut n_bindings = 0;
    for (l, q) in [(lhs.s, tp.s), (lhs.p, tp.p), (lhs.o, tp.o)] {
        if l.is_var() {
            bindings[n_bindings] = (l.symbol(), q);
            n_bindings += 1;
        }
    }
    (bindings, n_bindings)
}

/// Apply one template application's substitution to a term: lhs-bound
/// variables resolve through `bindings`; everything else variable-like
/// (unbound template variables and blank nodes) takes the rename path.
///
/// A blank node in a BGP is a non-distinguished variable, so a template
/// blank is an existential too: it must be freshened per application
/// (sharing one label across expansions would force unrelated solutions to
/// co-bind) and must never capture a blank the query itself uses. Renaming
/// it to a fresh variable is semantically equivalent.
fn subst(
    t: Term,
    bindings: &[(Symbol, Term)],
    renames: &mut Vec<(Term, Term)>,
    fresh_next: &mut u32,
) -> Term {
    match t.kind() {
        TermKind::Var => {
            let sym = t.symbol();
            for &(s, replacement) in bindings {
                if s == sym {
                    return replacement;
                }
            }
        }
        TermKind::Blank => {}
        _ => return t,
    }
    for &(s, replacement) in renames.iter() {
        if s == t {
            return replacement;
        }
    }
    let f = Term::fresh(*fresh_next);
    *fresh_next += 1;
    renames.push((t, f));
    f
}

/// Instantiate a matched template's triple body: lhs-bound variables
/// replaced by the query pattern's terms, unbound variables (and blank
/// nodes) replaced by fresh terms, consistently within this application.
/// Clears `renames` first — the rename map it leaves behind is what keeps a
/// subsequent [`instantiate_residuals`] for the *same* application
/// consistent with the body.
fn instantiate_triples(
    bindings: &[(Symbol, Term)],
    triples: &[TriplePattern],
    out: &mut Vec<TriplePattern>,
    renames: &mut Vec<(Term, Term)>,
    fresh_next: &mut u32,
) {
    // Renames are per-application: consistent across this body, reset for
    // the next expansion (the buffer's capacity is what the scratch
    // retains).
    renames.clear();
    for template in triples {
        out.push(TriplePattern::new(
            subst(template.s, bindings, renames, fresh_next),
            subst(template.p, bindings, renames, fresh_next),
            subst(template.o, bindings, renames, fresh_next),
        ));
    }
}

/// Three-valued result of deciding a guard statically.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Truth {
    True,
    False,
    Unknown,
}

/// Statically evaluate a template guard against the lhs bindings (Kleene
/// three-valued logic). `=` / `!=` over two operands that resolve to
/// concrete IRI/literal terms is decided by term identity — the engine's
/// equality is syntactic, the same notion BGP matching uses. Ordered
/// comparisons, unresolved variables, and bare term operands are `Unknown`:
/// the rule still fires and the instantiated guard rides along as a
/// residual `FILTER` for the endpoint, which owns value semantics. A pure
/// function of the pattern's terms, so rewriting stays deterministic and
/// cache-safe.
fn eval_guard(exprs: &[ExprNode], root: u32, bindings: &[(Symbol, Term)]) -> Truth {
    // Resolve a comparison operand to a concrete term, if statically known.
    let resolve = |e: u32| -> Option<Term> {
        let ExprNode::Term(mut t) = exprs[e as usize] else {
            return None;
        };
        if t.kind() == TermKind::Var {
            let sym = t.symbol();
            t = bindings.iter().find(|&&(s, _)| s == sym).map(|&(_, r)| r)?;
        }
        matches!(t.kind(), TermKind::Iri | TermKind::Literal).then_some(t)
    };
    match exprs[root as usize] {
        ExprNode::Term(_) => Truth::Unknown,
        ExprNode::Cmp(op, l, r) => {
            if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                return Truth::Unknown;
            }
            match (resolve(l), resolve(r)) {
                (Some(a), Some(b)) => {
                    if (a == b) == matches!(op, CmpOp::Eq) {
                        Truth::True
                    } else {
                        Truth::False
                    }
                }
                _ => Truth::Unknown,
            }
        }
        ExprNode::And(l, r) => match (
            eval_guard(exprs, l, bindings),
            eval_guard(exprs, r, bindings),
        ) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        },
        ExprNode::Or(l, r) => match (
            eval_guard(exprs, l, bindings),
            eval_guard(exprs, r, bindings),
        ) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        },
        ExprNode::Not(c) => match eval_guard(exprs, c, bindings) {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        },
    }
}

/// The guard verdict for one candidate template against one query pattern.
/// Unconditional templates (flat rules, or complex rules without a guard)
/// are trivially `True`.
#[inline]
fn template_truth(tmpl: &TemplateRef<'_>, bindings: &[(Symbol, Term)]) -> Truth {
    if tmpl.guard == NO_EXPR {
        Truth::True
    } else {
        eval_guard(tmpl.exprs, tmpl.guard, bindings)
    }
}

/// Number of residual FILTER constraints this application will emit: the
/// template's own filters, plus the guard when it could not be decided.
#[inline]
fn residual_count(tmpl: &TemplateRef<'_>, truth: Truth) -> u32 {
    tmpl.filters.len() as u32 + (truth == Truth::Unknown) as u32
}

/// Instantiate a firing template's residual FILTER constraints: import the
/// template expression pool into the output (one pass, child indices
/// rebased, leaves substituted with the same bindings/renames the body
/// used) and chain one `FILTER` node per residual root. Call only when
/// `residual_count > 0`, and only after [`instantiate_triples`] for the
/// same application — the body's renames are what name the existentials the
/// filters constrain.
fn instantiate_residuals(
    tmpl: &TemplateRef<'_>,
    truth: Truth,
    bindings: &[(Symbol, Term)],
    pattern: &mut GroupPattern,
    renames: &mut Vec<(Term, Term)>,
    fresh_next: &mut u32,
    chain: &mut ChainBuilder,
) {
    let base = pattern.import_exprs(tmpl.exprs, |t| subst(t, bindings, renames, fresh_next));
    if truth == Truth::Unknown {
        let node = pattern.push_node(PatternNode::Filter {
            expr: base + tmpl.guard,
        });
        chain.push(pattern, node);
    }
    for &f in tmpl.filters {
        let node = pattern.push_node(PatternNode::Filter { expr: base + f });
        chain.push(pattern, node);
    }
}

/// Rewrite one run of triple patterns, emitting output nodes into `chain`:
/// maximal triples runs, interrupted by a UNION node for every pattern that
/// matched two or more templates (one branch per template, rule-id order).
fn rewrite_run(
    store: &AlignmentStore,
    triples: &[TriplePattern],
    scratch: &mut RewriteScratch,
    chain: &mut ChainBuilder,
) -> Result<(), RewriteError> {
    let mut run_start = scratch.pattern.triples.len() as u32;
    // Close the triples run accumulated since `run_start`, if non-empty.
    fn flush(run_start: u32, scratch: &mut RewriteScratch, chain: &mut ChainBuilder) {
        let end = scratch.pattern.triples.len() as u32;
        if end > run_start {
            let node = scratch.pattern.push_node(PatternNode::Triples {
                start: run_start,
                len: end - run_start,
            });
            chain.push(&mut scratch.pattern, node);
        }
    }
    // `match_ids` is moved out of the scratch for the duration of the
    // borrow-heavy loop below; `mem::take` leaves an unallocated empty Vec
    // behind and the capacity-bearing buffer is put back afterwards, so the
    // steady state still allocates nothing.
    let mut ids = std::mem::take(&mut scratch.match_ids);
    for &tp in triples {
        let substituted = TriplePattern::new(
            store.entity_target(tp.s).unwrap_or(tp.s),
            store.entity_target(tp.p).unwrap_or(tp.p),
            store.entity_target(tp.o).unwrap_or(tp.o),
        );
        // Collect the ids of every predicate rule whose lhs matches, in
        // rule-id order, dropping those whose guard is statically false
        // *before* match arity is decided — a guard miss can collapse a
        // would-be UNION into a single inline expansion, or into a plain
        // pass-through. The same pass sums what the survivors will emit,
        // enforcing the per-pattern template-size cap.
        ids.clear();
        let mut tmpl_size: u32 = 0;
        for &id in store.predicate_candidates(substituted.p) {
            let tmpl = store.template(id);
            if !lhs_matches(tmpl.lhs, substituted) {
                continue;
            }
            let (bindings, nb) = bind_lhs(tmpl.lhs, substituted);
            let truth = template_truth(&tmpl, &bindings[..nb]);
            if truth == Truth::False {
                continue;
            }
            tmpl_size = tmpl_size
                .saturating_add(tmpl.triples.len() as u32)
                .saturating_add(residual_count(&tmpl, truth));
            ids.push(id);
        }
        if tmpl_size > scratch.tmpl_size_limit {
            // Put the id buffer back before bailing so the scratch keeps
            // its capacity for the next (possibly uncapped) call.
            scratch.match_ids = ids;
            return Err(RewriteError::TemplateSizeExceeded {
                cap: scratch.tmpl_size_limit,
                required: tmpl_size,
            });
        }
        match ids.as_slice() {
            [] => scratch.pattern.triples.push(substituted),
            [id] => {
                let tmpl = store.template(*id);
                let (bindings, nb) = bind_lhs(tmpl.lhs, substituted);
                let truth = template_truth(&tmpl, &bindings[..nb]);
                instantiate_triples(
                    &bindings[..nb],
                    tmpl.triples,
                    &mut scratch.pattern.triples,
                    &mut scratch.renames,
                    &mut scratch.fresh_next,
                );
                if residual_count(&tmpl, truth) > 0 {
                    // The instantiated body extended the current run; close
                    // it (body included), chain the FILTER nodes as
                    // siblings, and start a fresh run after them.
                    flush(run_start, scratch, chain);
                    let RewriteScratch {
                        pattern,
                        renames,
                        fresh_next,
                        ..
                    } = scratch;
                    instantiate_residuals(
                        &tmpl,
                        truth,
                        &bindings[..nb],
                        pattern,
                        renames,
                        fresh_next,
                        chain,
                    );
                    run_start = scratch.pattern.triples.len() as u32;
                }
            }
            many => {
                // Paper §4: several applicable alignments ⇒ the union of
                // the instantiated templates, in rule-id order.
                let required = scratch.branches_emitted.saturating_add(many.len() as u32);
                if required > scratch.branch_limit {
                    // Put the id buffer back before bailing so the scratch
                    // keeps its capacity for the next (possibly uncapped)
                    // call.
                    scratch.match_ids = ids;
                    return Err(RewriteError::UnionBranchesExceeded {
                        cap: scratch.branch_limit,
                        required,
                    });
                }
                scratch.branches_emitted = required;
                flush(run_start, scratch, chain);
                let mut branches = ChainBuilder::new();
                for &id in many {
                    let tmpl = store.template(id);
                    let (bindings, nb) = bind_lhs(tmpl.lhs, substituted);
                    let truth = template_truth(&tmpl, &bindings[..nb]);
                    let branch_start = scratch.pattern.triples.len() as u32;
                    instantiate_triples(
                        &bindings[..nb],
                        tmpl.triples,
                        &mut scratch.pattern.triples,
                        &mut scratch.renames,
                        &mut scratch.fresh_next,
                    );
                    let branch_len = scratch.pattern.triples.len() as u32 - branch_start;
                    let run = scratch.pattern.push_node(PatternNode::Triples {
                        start: branch_start,
                        len: branch_len,
                    });
                    let mut inner = ChainBuilder::new();
                    inner.push(&mut scratch.pattern, run);
                    if residual_count(&tmpl, truth) > 0 {
                        let RewriteScratch {
                            pattern,
                            renames,
                            fresh_next,
                            ..
                        } = scratch;
                        instantiate_residuals(
                            &tmpl,
                            truth,
                            &bindings[..nb],
                            pattern,
                            renames,
                            fresh_next,
                            &mut inner,
                        );
                    }
                    let group = scratch.pattern.push_node(PatternNode::Group {
                        first: inner.first(),
                    });
                    branches.push(&mut scratch.pattern, group);
                }
                let union = scratch.pattern.push_node(PatternNode::Union {
                    first: branches.first(),
                });
                chain.push(&mut scratch.pattern, union);
                run_start = scratch.pattern.triples.len() as u32;
            }
        }
    }
    scratch.match_ids = ids;
    flush(run_start, scratch, chain);
    Ok(())
}

/// Copy a FILTER expression tree into the scratch, applying entity
/// substitution to IRI/literal operands (Ondo et al.: complex alignments
/// need FILTER-level substitution). Variables pass through: BGP rewriting
/// preserves query-variable identity, so filter references stay valid.
fn rewrite_expr(
    store: &AlignmentStore,
    src: &GroupPattern,
    e: u32,
    scratch: &mut RewriteScratch,
) -> u32 {
    let node = match src.exprs[e as usize] {
        ExprNode::Term(t) => ExprNode::Term(store.entity_target(t).unwrap_or(t)),
        ExprNode::Cmp(op, l, r) => {
            let l = rewrite_expr(store, src, l, scratch);
            let r = rewrite_expr(store, src, r, scratch);
            ExprNode::Cmp(op, l, r)
        }
        ExprNode::And(l, r) => {
            let l = rewrite_expr(store, src, l, scratch);
            let r = rewrite_expr(store, src, r, scratch);
            ExprNode::And(l, r)
        }
        ExprNode::Or(l, r) => {
            let l = rewrite_expr(store, src, l, scratch);
            let r = rewrite_expr(store, src, r, scratch);
            ExprNode::Or(l, r)
        }
        ExprNode::Not(c) => ExprNode::Not(rewrite_expr(store, src, c, scratch)),
    };
    scratch.pattern.push_expr(node)
}

/// Rewrite one non-triples node, returning the output node index.
fn rewrite_node(
    store: &AlignmentStore,
    src: &GroupPattern,
    idx: u32,
    scratch: &mut RewriteScratch,
) -> Result<u32, RewriteError> {
    Ok(match src.nodes[idx as usize] {
        PatternNode::Group { first } => {
            let first = rewrite_children(store, src, first, scratch)?;
            scratch.pattern.push_node(PatternNode::Group { first })
        }
        PatternNode::Optional { first } => {
            let first = rewrite_children(store, src, first, scratch)?;
            scratch.pattern.push_node(PatternNode::Optional { first })
        }
        PatternNode::Union { first } => {
            let mut branches = ChainBuilder::new();
            for b in src.children_from(first) {
                let out = rewrite_node(store, src, b, scratch)?;
                branches.push(&mut scratch.pattern, out);
            }
            scratch.pattern.push_node(PatternNode::Union {
                first: branches.first(),
            })
        }
        PatternNode::Filter { expr } => {
            let expr = rewrite_expr(store, src, expr, scratch);
            scratch.pattern.push_node(PatternNode::Filter { expr })
        }
        // A SERVICE body is rewritten with the *same* rule set (the
        // federation layer builds per-endpoint subqueries by rewriting each
        // partition against that endpoint's own store); the endpoint term
        // itself gets entity substitution so an alignment can redirect a
        // federation member.
        PatternNode::Service { endpoint, first } => {
            let first = rewrite_children(store, src, first, scratch)?;
            let endpoint = store.entity_target(endpoint).unwrap_or(endpoint);
            scratch
                .pattern
                .push_node(PatternNode::Service { endpoint, first })
        }
        // Unreachable from parser output (union branches are groups), but a
        // programmatically built pattern may put a bare run here; wrap its
        // rewrite — which can fan out into run/UNION siblings — in a group.
        PatternNode::Triples { .. } => {
            let mut chain = ChainBuilder::new();
            rewrite_run(store, src.run(idx), scratch, &mut chain)?;
            scratch.pattern.push_node(PatternNode::Group {
                first: chain.first(),
            })
        }
    })
}

/// Rewrite a sibling chain, returning the head of the output chain.
fn rewrite_children(
    store: &AlignmentStore,
    src: &GroupPattern,
    first: u32,
    scratch: &mut RewriteScratch,
) -> Result<u32, RewriteError> {
    let mut chain = ChainBuilder::new();
    for ci in src.children_from(first) {
        if matches!(src.nodes[ci as usize], PatternNode::Triples { .. }) {
            rewrite_run(store, src.run(ci), scratch, &mut chain)?;
        } else {
            let out = rewrite_node(store, src, ci, scratch)?;
            chain.push(&mut scratch.pattern, out);
        }
    }
    Ok(chain.first())
}

/// Reset the scratch and run the fresh-counter pre-pass: newly minted
/// existentials must sit above any fresh counter the input already carries
/// (e.g. when re-rewriting a prior output).
fn begin_rewrite(
    terms: impl Iterator<Item = Term>,
    scratch: &mut RewriteScratch,
    limits: RewriteLimits,
) {
    scratch.pattern.clear();
    scratch.fresh_next = 0;
    scratch.branches_emitted = 0;
    scratch.branch_limit = limits.max_union_branches;
    scratch.tmpl_size_limit = limits.max_template_size;
    for t in terms {
        if t.is_fresh() {
            scratch.fresh_next = scratch.fresh_next.max(t.fresh_index() + 1);
        }
    }
    scratch.fresh_start = scratch.fresh_next;
}

/// The shared recursive rewrite engine over a full group pattern.
fn rewrite_pattern_with(
    store: &AlignmentStore,
    pattern: &GroupPattern,
    scratch: &mut RewriteScratch,
    limits: RewriteLimits,
) -> Result<(), RewriteError> {
    begin_rewrite(pattern.terms(), scratch, limits);
    scratch.pattern.nodes.reserve(pattern.nodes.len());
    scratch.pattern.next.reserve(pattern.next.len());
    scratch.pattern.triples.reserve(pattern.triples.len());
    scratch.pattern.exprs.reserve(pattern.exprs.len());
    let mut chain = ChainBuilder::new();
    for ci in pattern.root_children() {
        if matches!(pattern.nodes[ci as usize], PatternNode::Triples { .. }) {
            rewrite_run(store, pattern.run(ci), scratch, &mut chain)?;
        } else {
            let out = rewrite_node(store, pattern, ci, scratch)?;
            chain.push(&mut scratch.pattern, out);
        }
    }
    scratch.pattern.root = scratch.pattern.push_node(PatternNode::Group {
        first: chain.first(),
    });
    Ok(())
}

/// Flat-BGP entry point: the input is a single triples run under the root.
fn rewrite_bgp_with(
    store: &AlignmentStore,
    bgp: &Bgp,
    scratch: &mut RewriteScratch,
    limits: RewriteLimits,
) -> Result<(), RewriteError> {
    begin_rewrite(
        bgp.patterns.iter().flat_map(|tp| tp.terms()),
        scratch,
        limits,
    );
    scratch.pattern.triples.reserve(bgp.patterns.len());
    let mut chain = ChainBuilder::new();
    rewrite_run(store, &bgp.patterns, scratch, &mut chain)?;
    scratch.pattern.root = scratch.pattern.push_node(PatternNode::Group {
        first: chain.first(),
    });
    Ok(())
}

fn rewrite_query_with(
    store: &AlignmentStore,
    query: QueryRef<'_>,
    scratch: &mut RewriteScratch,
    limits: RewriteLimits,
) -> Result<(), RewriteError> {
    scratch.select.clear();
    match query.select {
        None => scratch.select_star = true,
        Some(vars) => {
            scratch.select_star = false;
            scratch.select.extend_from_slice(vars);
        }
    }
    rewrite_pattern_with(store, query.pattern, scratch, limits)
}

impl<S: Borrow<AlignmentStore>> Rewriter for IndexedRewriter<S> {
    fn try_rewrite_bgp_into(
        &self,
        bgp: &Bgp,
        scratch: &mut RewriteScratch,
        limits: RewriteLimits,
    ) -> Result<(), RewriteError> {
        rewrite_bgp_with(self.store(), bgp, scratch, limits)
    }

    fn try_rewrite_pattern_into(
        &self,
        pattern: &GroupPattern,
        scratch: &mut RewriteScratch,
        limits: RewriteLimits,
    ) -> Result<(), RewriteError> {
        rewrite_pattern_with(self.store(), pattern, scratch, limits)
    }

    fn try_rewrite_ref_into(
        &self,
        query: QueryRef<'_>,
        scratch: &mut RewriteScratch,
        limits: RewriteLimits,
    ) -> Result<(), RewriteError> {
        rewrite_query_with(self.store(), query, scratch, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_branch_cap_boundary() {
        use crate::interner::Interner;
        use crate::parser::{parse_bgp, parse_query};

        let mut it = Interner::new();
        let mut store = AlignmentStore::new();
        // One source predicate matched by three templates: each occurrence
        // expands into a 3-branch UNION.
        let lhs = parse_bgp("?a <http://src/p> ?b", &mut it).unwrap().patterns[0];
        for n in 0..3 {
            let rhs = parse_bgp(&format!("?a <http://tgt/p{n}> ?b"), &mut it)
                .unwrap()
                .patterns;
            store.add_predicate(lhs, rhs).unwrap();
        }
        let query = parse_query(
            "SELECT * WHERE { ?x <http://src/p> ?y . ?y <http://src/p> ?z }",
            &mut it,
        )
        .unwrap();
        let rw = IndexedRewriter::new(&store);
        let mut scratch = RewriteScratch::new();
        // Two patterns × 3 branches = 6 branches required: a cap of exactly
        // 6 succeeds (boundary), 5 fails with the structured error.
        rw.try_rewrite_ref_into(
            query.as_ref(),
            &mut scratch,
            RewriteLimits::with_union_branch_cap(6),
        )
        .expect("cap == required must succeed");
        let at_cap = scratch.to_query();
        let err = rw
            .try_rewrite_ref_into(
                query.as_ref(),
                &mut scratch,
                RewriteLimits::with_union_branch_cap(5),
            )
            .unwrap_err();
        assert_eq!(
            err,
            RewriteError::UnionBranchesExceeded {
                cap: 5,
                required: 6
            }
        );
        assert!(err.to_string().contains("6 branches"), "{err}");
        // A failed capped call must not poison the scratch: the next
        // unbounded call produces the same result as the successful one.
        rw.rewrite_query_into(&query, &mut scratch);
        assert_eq!(scratch.to_query(), at_cap);
        // Infallible path == unbounded fallible path.
        assert_eq!(rw.rewrite_query(&query), at_cap);
    }

    #[test]
    fn guarded_rule_three_valued_semantics() {
        use crate::align::RuleTemplate;
        use crate::interner::Interner;
        use crate::parser::{parse_bgp, parse_query};

        let mut it = Interner::new();
        let mut store = AlignmentStore::new();
        // ?a <src/p> ?b ⇒ ?a <tgt/p> ?b  WHEN ?b = <http://val/yes>
        let lhs = parse_bgp("?a <http://src/p> ?b", &mut it).unwrap().patterns[0];
        let body = parse_bgp("?a <http://tgt/p> ?b", &mut it).unwrap().patterns;
        let yes = crate::Term::iri(it.intern("http://val/yes"));
        let mut tmpl = RuleTemplate::from_triples(body);
        let l = tmpl.push_expr(ExprNode::Term(lhs.o));
        let r = tmpl.push_expr(ExprNode::Term(yes));
        let g = tmpl.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r));
        tmpl.set_guard(g);
        store.add_complex_predicate(lhs, tmpl).unwrap();

        let q_true = parse_query(
            "SELECT * WHERE { ?x <http://src/p> <http://val/yes> }",
            &mut it,
        )
        .unwrap();
        let q_false = parse_query(
            "SELECT * WHERE { ?x <http://src/p> <http://val/no> }",
            &mut it,
        )
        .unwrap();
        let q_open = parse_query("SELECT * WHERE { ?x <http://src/p> ?y }", &mut it).unwrap();
        let rw = IndexedRewriter::new(&store);
        let render = |q: &crate::Query| rw.rewrite_query(q).display(&it).to_string();
        // Statically true: fires cleanly, no residual FILTER.
        let out = render(&q_true);
        assert!(out.contains("<http://tgt/p>"), "{out}");
        assert!(!out.contains("FILTER"), "{out}");
        // Statically false: the rule does not fire — pass-through.
        let out = render(&q_false);
        assert!(out.contains("<http://src/p>"), "{out}");
        assert!(!out.contains("<http://tgt/p>"), "{out}");
        // Undecidable (object is an open variable): fires with the
        // instantiated guard as a residual FILTER.
        let out = render(&q_open);
        assert!(out.contains("<http://tgt/p>"), "{out}");
        assert!(
            out.contains("FILTER(?y = <http://val/yes>)"),
            "residual guard: {out}"
        );
    }

    #[test]
    fn guard_miss_collapses_union_and_chain_emits_transform_filter() {
        use crate::align::RuleTemplate;
        use crate::interner::Interner;
        use crate::parser::{parse_bgp, parse_query};

        let mut it = Interner::new();
        let mut store = AlignmentStore::new();
        let lhs = parse_bgp("?a <http://src/len> ?v", &mut it)
            .unwrap()
            .patterns[0];
        // Rule 0, guarded on <u/cm>: 2-triple chain through an existential
        // ?n, plus a value-transform filter ?n != ?v.
        let chain = parse_bgp(
            "?a <http://tgt/len> ?n . ?n <http://tgt/unit> <http://u/m>",
            &mut it,
        )
        .unwrap()
        .patterns;
        let n = chain[0].o;
        let cm = crate::Term::iri(it.intern("http://u/cm"));
        let mut tmpl = RuleTemplate::from_triples(chain);
        let l = tmpl.push_expr(ExprNode::Term(lhs.o));
        let r = tmpl.push_expr(ExprNode::Term(cm));
        let g = tmpl.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r));
        tmpl.set_guard(g);
        let fl = tmpl.push_expr(ExprNode::Term(n));
        let fr = tmpl.push_expr(ExprNode::Term(lhs.o));
        let f = tmpl.push_expr(ExprNode::Cmp(CmpOp::Ne, fl, fr));
        tmpl.push_filter(f);
        store.add_complex_predicate(lhs, tmpl).unwrap();
        // Rule 1, unguarded flat fallback on the same predicate.
        let rhs = parse_bgp("?a <http://tgt/len0> ?v", &mut it)
            .unwrap()
            .patterns;
        store.add_predicate(lhs, rhs).unwrap();

        let query = parse_query(
            "SELECT * WHERE { ?x <http://src/len> <http://u/in> }",
            &mut it,
        )
        .unwrap();
        let rw = IndexedRewriter::new(&store);
        // Guard statically false for <http://u/in>: of the two candidates
        // only the flat rule fires, so the would-be 2-branch UNION
        // collapses to an inline single-match expansion.
        let out = rw.rewrite_query(&query).display(&it).to_string();
        assert!(!out.contains("UNION"), "{out}");
        assert!(out.contains("<http://tgt/len0>"), "{out}");

        // Guard statically true: both rules fire — a UNION whose guarded
        // branch carries the chain and its transform FILTER (rendered with
        // a fresh ?g existential), with no residual guard.
        let query = parse_query(
            "SELECT * WHERE { ?x <http://src/len> <http://u/cm> }",
            &mut it,
        )
        .unwrap();
        let out = rw.rewrite_query(&query).display(&it).to_string();
        assert!(out.contains("UNION"), "{out}");
        assert!(out.contains("<http://tgt/unit> <http://u/m>"), "{out}");
        assert!(out.contains("FILTER(?g0 != <http://u/cm>)"), "{out}");
        assert!(!out.contains("http://u/cm> = "), "no residual guard: {out}");
    }

    #[test]
    fn template_size_cap_boundary() {
        use crate::align::RuleTemplate;
        use crate::interner::Interner;
        use crate::parser::{parse_bgp, parse_query};

        let mut it = Interner::new();
        let mut store = AlignmentStore::new();
        let lhs = parse_bgp("?a <http://src/p> ?b", &mut it).unwrap().patterns[0];
        // 3-triple chain + 1 transform filter = 4 output nodes per firing.
        let chain = parse_bgp(
            "?a <http://t/p1> ?m . ?m <http://t/p2> ?n . ?n <http://t/p3> ?b",
            &mut it,
        )
        .unwrap()
        .patterns;
        let m = chain[0].o;
        let mut tmpl = RuleTemplate::from_triples(chain);
        let fl = tmpl.push_expr(ExprNode::Term(m));
        let fr = tmpl.push_expr(ExprNode::Term(lhs.o));
        let f = tmpl.push_expr(ExprNode::Cmp(CmpOp::Ne, fl, fr));
        tmpl.push_filter(f);
        store.add_complex_predicate(lhs, tmpl).unwrap();

        let query = parse_query("SELECT * WHERE { ?x <http://src/p> ?y }", &mut it).unwrap();
        let rw = IndexedRewriter::new(&store);
        let mut scratch = RewriteScratch::new();
        rw.try_rewrite_ref_into(
            query.as_ref(),
            &mut scratch,
            RewriteLimits::with_template_size_cap(4),
        )
        .expect("cap == required must succeed");
        let at_cap = scratch.to_query();
        let err = rw
            .try_rewrite_ref_into(
                query.as_ref(),
                &mut scratch,
                RewriteLimits::with_template_size_cap(3),
            )
            .unwrap_err();
        assert_eq!(
            err,
            RewriteError::TemplateSizeExceeded {
                cap: 3,
                required: 4
            }
        );
        assert!(err.to_string().contains("4 nodes"), "{err}");
        // A failed capped call must not poison the scratch.
        rw.rewrite_query_into(&query, &mut scratch);
        assert_eq!(scratch.to_query(), at_cap);
        assert_eq!(rw.rewrite_query(&query), at_cap);
    }

    #[test]
    fn rewriters_over_arc_are_send_sync_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<IndexedRewriter<Arc<AlignmentStore>>>();
        assert_send_sync::<AlignmentStore>();
        // The default type parameter is the Arc form.
        assert_send_sync::<IndexedRewriter>();
    }
}
