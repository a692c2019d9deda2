//! Ontology alignments and the alignment store with dense symbol-id
//! rule dispatch.
//!
//! Following Correndo et al. (EDBT 2010), an alignment rule is either an
//! **entity alignment** `e1 ≡ e2` (rewrite every occurrence of `e1` to `e2`)
//! or a **predicate alignment** mapping a triple-pattern template to a
//! graph-pattern template, e.g.
//!
//! ```text
//! ?x src:authorOf ?y   ⇒   ?y tgt:author ?x
//! ?x src:name ?n       ⇒   ?x tgt:firstName ?f . ?x tgt:lastName ?l
//! ```
//!
//! The hot path is "for each query triple pattern, find the rules that could
//! apply". The store answers it from **dense direct-indexed tables** keyed
//! by interner symbol id — the dictionary-encoded dispatch columnar SPARQL
//! engines use: interner symbols are dense `u32`s, so "hash the key, probe,
//! compare" collapses into a single bounds-checked array load. Entity
//! targets and the predicate's posting list share one per-symbol dispatch
//! record (entity targets in the concrete-kind lanes, the posting list in
//! the otherwise-unused variable lane), and rule templates are pooled flat by
//! rule id so applying a match never chases the rule list. Every `add_*`
//! updates the tables in place, so they are the only lookup structure and
//! are valid after each call: there is no build step, and `&mut` to add /
//! `&` (or `Arc`) to read is the whole build/serve split.

use crate::pattern::{ExprNode, TriplePattern};
use crate::smallvec::SmallVec;
use crate::term::{Symbol, Term, TermKind, SYM_MASK, TAG_SHIFT};

/// Vacant guard slot in a [`RuleTemplate`] (and in the dense per-rule guard
/// pool): "this rule has no firing condition".
pub(crate) const NO_EXPR: u32 = u32::MAX;

/// The right-hand side of a complex correspondence
/// ([`AlignmentStore::add_complex_predicate`]): a guarded group-pattern
/// template in the same flattened index-linked form
/// [`crate::pattern::GroupPattern`] uses.
///
/// * `triples` — the body. May be a chain linked by existential variables:
///   variables (or blank nodes) not bound by the rule's lhs get fresh names
///   at application time, exactly like a flat
///   [`AlignmentStore::add_predicate`] rhs.
/// * `exprs` — one self-contained expression pool shared by the guard and
///   the emitted filters. Child indices are **template-relative** (0-based
///   into `exprs`) and must be topologically ordered — every node's
///   children sit strictly before it — so the pool survives CSR slicing in
///   the dense index and copies into a query's expression buffer with a
///   single base offset.
/// * `guard` — root (into `exprs`) of the optional firing condition, or
///   `u32::MAX` (none). The rewriter evaluates the guard against the lhs bindings
///   of each match: statically false → the rule does not fire for that
///   pattern; statically true → it fires with no residue; undecidable
///   (e.g. a comparison over a variable the query leaves open) → it fires
///   and the instantiated guard is emitted as a `FILTER` for the endpoint
///   to decide.
/// * `filters` — roots (into `exprs`) of constraints always emitted
///   alongside the body. Value transforms live here as FILTER-equality
///   constraints relating an existential to a computed/constant term: the
///   AST deliberately has no BIND node, so computed terms lower to the
///   FILTER syntax that already round-trips through render → parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleTemplate {
    pub triples: Vec<TriplePattern>,
    pub exprs: Vec<ExprNode>,
    pub guard: u32,
    pub filters: Vec<u32>,
}

impl Default for RuleTemplate {
    fn default() -> RuleTemplate {
        RuleTemplate {
            triples: Vec::new(),
            exprs: Vec::new(),
            guard: NO_EXPR,
            filters: Vec::new(),
        }
    }
}

impl RuleTemplate {
    /// A template that is just a triple body — semantically identical to a
    /// flat [`AlignmentStore::add_predicate`] rhs, useful as a starting
    /// point to hang a guard or filters on.
    pub fn from_triples(triples: Vec<TriplePattern>) -> RuleTemplate {
        RuleTemplate {
            triples,
            ..RuleTemplate::default()
        }
    }

    /// Append an expression node to the template pool; returns its
    /// (template-relative) index for use as a child, guard, or filter root.
    pub fn push_expr(&mut self, node: ExprNode) -> u32 {
        let idx = self.exprs.len() as u32;
        self.exprs.push(node);
        idx
    }

    /// Set the firing condition to the expression rooted at `root`.
    pub fn set_guard(&mut self, root: u32) {
        self.guard = root;
    }

    /// Emit the expression rooted at `root` as a FILTER constraint whenever
    /// the rule fires.
    pub fn push_filter(&mut self, root: u32) {
        self.filters.push(root);
    }
}

/// Error adding a rule to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// Predicate templates must have a concrete (non-variable) predicate —
    /// it is the index key and the paper's alignments are per-predicate.
    VariablePredicate,
    /// Entity alignments relate concrete terms; a variable cannot be ≡ to
    /// anything.
    VariableEntity,
    /// Empty right-hand side would silently delete query patterns.
    EmptyTemplate,
    /// Rule templates must not contain rewriter-minted
    /// [`TermKind::Fresh`] terms — their
    /// counters are meaningful only within one rewrite call, so a rule
    /// carrying one could capture the engine's own existentials.
    FreshTerm,
    /// A rule term carries a request-local symbol (a serve handle's parse
    /// gave it one): its text is valid only until that handle's next parse,
    /// and the dense tables cannot index it. Load rules through a build
    /// handle ([`crate::Interner::new`]).
    RequestLocalTerm,
    /// A template expression pool is not self-contained: a child index
    /// points at or past its own node (the pool must be topologically
    /// ordered), or a guard/filter root is out of bounds.
    MalformedTemplateExpr,
    /// A guard expression references a variable the rule's lhs does not
    /// bind. Guards are decided against lhs bindings alone, so an unbound
    /// variable could never be evaluated — nor even named consistently in
    /// the residual FILTER.
    GuardVariableUnbound,
    /// A template filter references a variable that is neither lhs-bound
    /// nor existential (occurring in the template's triples): it would
    /// dangle in the rewritten query, constraining nothing.
    TemplateVariableUnbound,
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::VariablePredicate => {
                f.write_str("predicate alignment template must have a concrete predicate")
            }
            AlignError::VariableEntity => {
                f.write_str("entity alignment endpoints must be concrete terms")
            }
            AlignError::EmptyTemplate => {
                f.write_str("predicate alignment right-hand side must be non-empty")
            }
            AlignError::FreshTerm => {
                f.write_str("alignment rules must not contain fresh (rewriter-minted) terms")
            }
            AlignError::RequestLocalTerm => f.write_str(
                "alignment rules must not contain request-local terms (parse them on a build interner)",
            ),
            AlignError::MalformedTemplateExpr => f.write_str(
                "template expression pool must be topologically ordered and self-contained",
            ),
            AlignError::GuardVariableUnbound => {
                f.write_str("guard expression references a variable not bound by the rule lhs")
            }
            AlignError::TemplateVariableUnbound => f.write_str(
                "template filter references a variable that is neither lhs-bound nor existential",
            ),
        }
    }
}

impl std::error::Error for AlignError {}

/// Whether `t` may appear in a rule: not a fresh term, and not a
/// request-local one.
fn rule_term(t: Term) -> Result<(), AlignError> {
    if t.is_fresh() {
        Err(AlignError::FreshTerm)
    } else if t.symbol().is_local() {
        Err(AlignError::RequestLocalTerm)
    } else {
        Ok(())
    }
}

/// Borrowed view of one predicate/complex rule's templates, as returned by
/// [`AlignmentStore::template`]. For flat rules
/// ([`AlignmentStore::add_predicate`]) the expression fields are empty and
/// `guard` is [`NO_EXPR`], so a single code path in the rewriter serves
/// both rule classes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TemplateRef<'a> {
    pub lhs: TriplePattern,
    pub triples: &'a [TriplePattern],
    /// Template-relative expression pool shared by `guard` and `filters`.
    pub exprs: &'a [ExprNode],
    /// Root into `exprs`, or [`NO_EXPR`] for an unconditional rule.
    pub guard: u32,
    /// Roots into `exprs` of the always-emitted FILTER constraints.
    pub filters: &'a [u32],
}

/// Vacant lane in [`AlignmentStore::table`]. `u32::MAX` decodes as a
/// [`TermKind::Fresh`] term, which [`AlignmentStore::add_entity`] rejects,
/// and is neither a rule id nor a posting-list index (both stay below it),
/// so nothing a lane can hold collides with the sentinel.
const VACANT: u32 = u32::MAX;

/// Lane-3 tag. Clear: the lane *is* the rule id of the predicate's only
/// template. Set: the low 31 bits index [`AlignmentStore::postings`] (the
/// predicate has two or more templates). Rule ids therefore stay below it.
const SPILL: u32 = 1 << 31;

/// Raw values at or above this are non-concrete: variables (tag 3) and
/// fresh terms (tags 4..=7); the concrete kinds (IRI, literal, blank) are
/// tags 0..=2. Neither can be an entity-rule source or a
/// template-predicate key, so one unsigned compare rejects both without
/// touching memory.
const CONCRETE_TAG_CEIL: u32 = (TermKind::Var as u32) << TAG_SHIFT;

/// Walk the expression subtree rooted at `root` (build-time only — the
/// scratch stack allocates) and check `ok` on every [`ExprNode::Term`]
/// leaf. The pool is already validated topological, so indices are in
/// bounds.
fn leaves_satisfy(exprs: &[ExprNode], root: u32, mut ok: impl FnMut(Term) -> bool) -> bool {
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        match exprs[i as usize] {
            ExprNode::Term(t) => {
                if !ok(t) {
                    return false;
                }
            }
            ExprNode::Cmp(_, l, r) | ExprNode::And(l, r) | ExprNode::Or(l, r) => {
                stack.push(l);
                stack.push(r);
            }
            ExprNode::Not(c) => stack.push(c),
        }
    }
    true
}

/// End offset of a CSR pool after a row was appended.
fn pool_end<T>(pool: &[T]) -> u32 {
    u32::try_from(pool.len()).expect("template pool outgrew its u32 offsets")
}

/// Rule set plus its candidate-lookup tables: direct-indexed by interner
/// symbol id, updated in place by every `add_*`, so a lookup is a
/// bounds-checked array load with no hashing and no key comparison, and is
/// correct after each add. Share it by `&` or `Arc` to serve.
///
/// Rule ids count up from 0 in `add_*` order, across all three kinds. The
/// tables and pools below are the rules' only copy.
#[derive(Debug)]
pub struct AlignmentStore {
    /// The dispatch table: one 16-byte record of four `u32` lanes per
    /// symbol, `table[(symbol << 2) | lane]`, covering symbols up to the
    /// largest one a rule is keyed on — its size follows the rule set, not
    /// the dictionary. A term carrying a later symbol falls outside it and
    /// correctly resolves to "no rule".
    ///
    /// * Lanes 0..=2 (the concrete term tags — IRI, literal, blank) hold
    ///   the raw replacement term of the first entity rule for that source
    ///   term, or [`VACANT`]. The lane is selected by the term's tag
    ///   directly, so the slot is shift+or (no multiply), and one unsigned
    ///   compare on the raw term excludes variables and fresh terms before
    ///   any memory is touched.
    /// * Lane 3 — the variable tag, which can never be an entity source —
    ///   names the predicate rules whose template predicate is this symbol:
    ///   [`VACANT`], the rule id itself while there is one such rule, or
    ///   [`SPILL`]` | i` for the list `postings[i]` from the second on.
    ///
    /// Holding a lone rule id in the lane itself means the common
    /// per-pattern predicate dispatch reads nothing but the record the
    /// entity lookup for that predicate just touched.
    table: Vec<u32>,
    /// Posting lists of the predicates with two or more templates, in
    /// rule-id order (ids only grow, so appending keeps them sorted).
    postings: Vec<SmallVec<u32, 4>>,
    /// Flat template pools indexed by **rule id**, one row per rule of
    /// every kind, so `tmpl_lhs.len()` is the rule count: `tmpl_lhs[id]` is
    /// the template's lhs, its rhs is
    /// `rhs_pool[tmpl_rhs_off[id] .. tmpl_rhs_off[id + 1]]` (every offset
    /// vector starts with one leading 0). Entity-rule ids hold a
    /// placeholder lhs and an empty rhs range; candidate lookup only ever
    /// yields predicate ids.
    tmpl_lhs: Vec<TriplePattern>,
    tmpl_rhs_off: Vec<u32>,
    rhs_pool: Vec<TriplePattern>,
    /// Complex-template pools in the same by-rule-id CSR layout as
    /// `rhs_pool`: `tmpl_guard[id]` is the rule's guard root ([`NO_EXPR`]
    /// when absent or for non-complex rules), its expression pool is
    /// `expr_pool[tmpl_expr_off[id] .. tmpl_expr_off[id + 1]]`, its filter
    /// roots `filter_pool[tmpl_filter_off[id] .. tmpl_filter_off[id + 1]]`.
    /// Expression child indices and the guard/filter roots are
    /// template-relative, so the CSR slice reproduces each rule's
    /// self-contained pool exactly — no index fix-up on the hot path. Flat
    /// predicate rules get empty ranges, keeping their dispatch untouched.
    tmpl_guard: Vec<u32>,
    tmpl_expr_off: Vec<u32>,
    expr_pool: Vec<ExprNode>,
    tmpl_filter_off: Vec<u32>,
    filter_pool: Vec<u32>,
}

impl Default for AlignmentStore {
    fn default() -> AlignmentStore {
        AlignmentStore {
            table: Vec::new(),
            postings: Vec::new(),
            tmpl_lhs: Vec::new(),
            tmpl_rhs_off: vec![0],
            rhs_pool: Vec::new(),
            tmpl_guard: Vec::new(),
            tmpl_expr_off: vec![0],
            expr_pool: Vec::new(),
            tmpl_filter_off: vec![0],
            filter_pool: Vec::new(),
        }
    }
}

impl AlignmentStore {
    pub fn new() -> AlignmentStore {
        AlignmentStore::default()
    }

    /// Register `from ≡ to`: the rewriter substitutes `to` wherever `from`
    /// occurs (subject, predicate or object position, and FILTER operands).
    /// Returns the rule id.
    ///
    /// The first entity rule for a source term wins: a later rule with the
    /// same `from` is accepted and takes an id, but never changes what
    /// `from` rewrites to.
    pub fn add_entity(&mut self, from: Term, to: Term) -> Result<u32, AlignError> {
        if from.is_var() || to.is_var() {
            return Err(AlignError::VariableEntity);
        }
        rule_term(from)?;
        rule_term(to)?;
        let placeholder = TriplePattern::new(Term::fresh(0), Term::fresh(0), Term::fresh(0));
        let id = self.push_rule(placeholder, &[], &[], NO_EXPR, &[]);
        let lane = self.lane_mut(from.symbol(), from.kind() as usize);
        if *lane == VACANT {
            *lane = to.raw();
        }
        Ok(id)
    }

    /// Register a template rewrite `lhs ⇒ rhs`: a query pattern that
    /// matches `lhs` is replaced by `rhs` with the lhs variable bindings
    /// applied. Returns the rule id.
    ///
    /// Variables occurring in `rhs` but not in `lhs` are existential and get
    /// fresh names at application time. The converse — an lhs variable
    /// unused in `rhs` — is deliberately legal: the paper's alignments may
    /// be lossy (the target ontology cannot always express every source
    /// binding), and the rule author owns that trade-off.
    pub fn add_predicate(
        &mut self,
        lhs: TriplePattern,
        rhs: Vec<TriplePattern>,
    ) -> Result<u32, AlignError> {
        if lhs.p.is_var() {
            return Err(AlignError::VariablePredicate);
        }
        if rhs.is_empty() {
            return Err(AlignError::EmptyTemplate);
        }
        lhs.terms()
            .into_iter()
            .chain(rhs.iter().flat_map(|tp| tp.terms()))
            .try_for_each(rule_term)?;
        let id = self.push_rule(lhs, &rhs, &[], NO_EXPR, &[]);
        self.push_posting(lhs.p.symbol(), id);
        Ok(id)
    }

    /// Register a complex correspondence `lhs ⇒ tmpl`: like
    /// [`AlignmentStore::add_predicate`], but the replacement is a guarded
    /// group-pattern template — triple chains linked by existentials,
    /// emitted FILTER constraints / value transforms, and an optional
    /// firing condition (see [`RuleTemplate`]). Returns the rule id.
    ///
    /// Beyond the flat-rule checks, validation enforces the template's
    /// internal scoping: the expression pool must be topologically ordered
    /// with in-bounds guard/filter roots
    /// ([`AlignError::MalformedTemplateExpr`]), every variable a guard
    /// names must be lhs-bound ([`AlignError::GuardVariableUnbound`] —
    /// guards are decided from lhs bindings alone), and every variable a
    /// filter names must be lhs-bound or existential, i.e. occur in the
    /// template's triples ([`AlignError::TemplateVariableUnbound`]). That
    /// last rule is what lets instantiation run allocation-free: by the
    /// time filters are copied, every leaf already has a binding or a fresh
    /// rename recorded by the body.
    pub fn add_complex_predicate(
        &mut self,
        lhs: TriplePattern,
        tmpl: RuleTemplate,
    ) -> Result<u32, AlignError> {
        if lhs.p.is_var() {
            return Err(AlignError::VariablePredicate);
        }
        if tmpl.triples.is_empty() {
            return Err(AlignError::EmptyTemplate);
        }
        let expr_leaves = tmpl.exprs.iter().filter_map(|e| match e {
            ExprNode::Term(t) => Some(*t),
            _ => None,
        });
        lhs.terms()
            .into_iter()
            .chain(tmpl.triples.iter().flat_map(|tp| tp.terms()))
            .chain(expr_leaves)
            .try_for_each(rule_term)?;
        // Pool topology: children strictly before parents, roots in bounds.
        let n = tmpl.exprs.len() as u32;
        for (i, e) in tmpl.exprs.iter().enumerate() {
            let i = i as u32;
            let ordered = match *e {
                ExprNode::Term(_) => true,
                ExprNode::Cmp(_, l, r) | ExprNode::And(l, r) | ExprNode::Or(l, r) => l < i && r < i,
                ExprNode::Not(c) => c < i,
            };
            if !ordered {
                return Err(AlignError::MalformedTemplateExpr);
            }
        }
        if (tmpl.guard != NO_EXPR && tmpl.guard >= n) || tmpl.filters.iter().any(|&r| r >= n) {
            return Err(AlignError::MalformedTemplateExpr);
        }
        // Variable scoping. Blank nodes follow the same existential
        // convention as variables (the rhs rename path treats them alike).
        let lhs_bound = |t: Term| t.is_var() && (t == lhs.s || t == lhs.o);
        let existential = |t: Term| {
            tmpl.triples
                .iter()
                .any(|tp| tp.s == t || tp.p == t || tp.o == t)
        };
        let needs_binding = |t: Term| t.is_var() || t.kind() == TermKind::Blank;
        if tmpl.guard != NO_EXPR
            && !leaves_satisfy(&tmpl.exprs, tmpl.guard, |t| {
                !needs_binding(t) || lhs_bound(t)
            })
        {
            return Err(AlignError::GuardVariableUnbound);
        }
        for &root in &tmpl.filters {
            if !leaves_satisfy(&tmpl.exprs, root, |t| {
                !needs_binding(t) || lhs_bound(t) || existential(t)
            }) {
                return Err(AlignError::TemplateVariableUnbound);
            }
        }
        let id = self.push_rule(lhs, &tmpl.triples, &tmpl.exprs, tmpl.guard, &tmpl.filters);
        self.push_posting(lhs.p.symbol(), id);
        Ok(id)
    }

    /// Append one rule's row to every by-rule-id pool (ids only grow, so
    /// CSR-by-rule-id is append-only; flat and entity rules contribute
    /// empty ranges). Returns the rule id.
    fn push_rule(
        &mut self,
        lhs: TriplePattern,
        triples: &[TriplePattern],
        exprs: &[ExprNode],
        guard: u32,
        filters: &[u32],
    ) -> u32 {
        assert!(self.len() < SPILL as usize, "more than 2^31 rules");
        let id = self.len() as u32;
        self.tmpl_lhs.push(lhs);
        self.tmpl_guard.push(guard);
        self.rhs_pool.extend_from_slice(triples);
        self.tmpl_rhs_off.push(pool_end(&self.rhs_pool));
        self.expr_pool.extend_from_slice(exprs);
        self.tmpl_expr_off.push(pool_end(&self.expr_pool));
        self.filter_pool.extend_from_slice(filters);
        self.tmpl_filter_off.push(pool_end(&self.filter_pool));
        id
    }

    /// Lane `lane` of `sym`'s dispatch record, growing the table to cover it.
    fn lane_mut(&mut self, sym: Symbol, lane: usize) -> &mut u32 {
        let slot = sym.index() << 2 | lane;
        if slot >= self.table.len() {
            self.table.resize((sym.index() + 1) << 2, VACANT);
        }
        &mut self.table[slot]
    }

    /// Append predicate rule `id` to the posting list of template predicate
    /// `p`: into the lane itself while it is the only one, spilling to a
    /// side list from the second template on.
    fn push_posting(&mut self, p: Symbol, id: u32) {
        let next_list = SPILL | self.postings.len() as u32;
        let lane = self.lane_mut(p, 3);
        match *lane {
            VACANT => *lane = id,
            only if only < SPILL => {
                *lane = next_list;
                let mut list = SmallVec::new();
                list.push(only);
                list.push(id);
                self.postings.push(list);
            }
            list => self.postings[(list & !SPILL) as usize].push(id),
        }
    }

    // Shim: the tables are always built. `benchmark/` is its one caller (ROADMAP item 3).
    #[doc(hidden)]
    pub fn build_dense_index(&mut self, _symbol_bound: usize) -> bool {
        self.table.shrink_to_fit();
        true
    }

    /// The templates of predicate/complex rule `id` as a uniform
    /// [`TemplateRef`] (flat rules surface empty expression fields). Only
    /// meaningful for ids yielded by
    /// [`AlignmentStore::predicate_candidates`]; reads the flat template
    /// pools.
    #[inline]
    pub(crate) fn template(&self, id: u32) -> TemplateRef<'_> {
        let id = id as usize;
        let row = |off: &[u32]| off[id] as usize..off[id + 1] as usize;
        TemplateRef {
            lhs: self.tmpl_lhs[id],
            triples: &self.rhs_pool[row(&self.tmpl_rhs_off)],
            exprs: &self.expr_pool[row(&self.tmpl_expr_off)],
            guard: self.tmpl_guard[id],
            filters: &self.filter_pool[row(&self.tmpl_filter_off)],
        }
    }

    /// Number of rules added, of all three kinds.
    pub fn len(&self) -> usize {
        self.tmpl_lhs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tmpl_lhs.is_empty()
    }

    /// The replacement for `t`, if any entity rule rewrites it: a tag check
    /// plus one array load. A symbol no rule is keyed on, or minted after
    /// the last rule, is vacant or outside the table.
    #[inline]
    pub(crate) fn entity_target(&self, t: Term) -> Option<Term> {
        let raw = t.raw();
        // The common case: most subject/object positions are variables.
        if raw >= CONCRETE_TAG_CEIL {
            return None;
        }
        // slot = (symbol << 2) | tag, always an entity lane (tag ≤ 2).
        let slot = ((raw & SYM_MASK) as usize) << 2 | (raw >> TAG_SHIFT) as usize;
        match self.table.get(slot) {
            Some(&to) if to != VACANT => Some(Term::from_raw(to)),
            _ => None,
        }
    }

    /// Load, before the rewrite walk over `triples` starts, what that walk
    /// will read from the tables, in two batches of independent plain
    /// loads: first the dispatch record of every concrete term, then the
    /// template row of every predicate that has exactly one rule. The walk
    /// takes its misses one at a time, each behind the last; a batch lets
    /// the CPU overlap them. The values are folded into one `black_box`ed
    /// word so the loads are kept. Computes nothing the rewrite uses.
    pub(crate) fn warm(&self, triples: &[TriplePattern]) {
        let mut fold = 0u32;
        for tp in triples {
            for t in tp.terms() {
                fold ^= self.entity_target(t).map_or(0, Term::raw);
            }
        }
        for tp in triples {
            // The walk dispatches on the entity-substituted predicate.
            let p = self.entity_target(tp.p).unwrap_or(tp.p);
            if let &[id] = self.predicate_candidates(p) {
                let id = id as usize;
                let lhs = self.tmpl_lhs[id];
                fold = fold.wrapping_add(
                    lhs.s.raw()
                        ^ lhs.p.raw()
                        ^ lhs.o.raw()
                        ^ self.tmpl_rhs_off[id]
                        ^ self.tmpl_guard[id]
                        ^ self.tmpl_expr_off[id]
                        ^ self.tmpl_filter_off[id],
                );
            }
        }
        std::hint::black_box(fold);
    }

    /// Predicate-rule candidates for a pattern whose predicate is `p`, in
    /// rule-id order: one lane load, plus a side-list load only when the
    /// predicate has several templates.
    #[inline]
    pub(crate) fn predicate_candidates(&self, p: Term) -> &[u32] {
        // A variable predicate never matches a template (their predicates
        // are concrete), and a fresh one carries a counter that must never
        // alias a real predicate symbol. One compare covers both.
        if p.raw() >= CONCRETE_TAG_CEIL {
            return &[];
        }
        match self.table.get(p.symbol().index() << 2 | 3) {
            None | Some(&VACANT) => &[],
            Some(only) if *only < SPILL => std::slice::from_ref(only),
            Some(&list) => self.postings[(list & !SPILL) as usize].as_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn iri(i: &mut Interner, s: &str) -> Term {
        Term::iri(i.intern(s))
    }

    fn var(i: &mut Interner, s: &str) -> Term {
        Term::var(i.intern(s))
    }

    #[test]
    fn entity_index_first_rule_wins() {
        let mut it = Interner::new();
        let a = iri(&mut it, "http://a");
        let b = iri(&mut it, "http://b");
        let c = iri(&mut it, "http://c");
        let mut store = AlignmentStore::new();
        store.add_entity(a, b).unwrap();
        store.add_entity(a, c).unwrap();
        assert_eq!(store.entity_target(a), Some(b));
        assert_eq!(store.entity_target(b), None);
    }

    #[test]
    fn rejects_malformed_rules() {
        let mut it = Interner::new();
        let v = var(&mut it, "x");
        let p = iri(&mut it, "http://p");
        let mut store = AlignmentStore::new();
        assert_eq!(store.add_entity(v, p), Err(AlignError::VariableEntity));
        let lhs_varpred = TriplePattern::new(v, v, v);
        assert_eq!(
            store.add_predicate(lhs_varpred, vec![lhs_varpred]),
            Err(AlignError::VariablePredicate)
        );
        let lhs = TriplePattern::new(v, p, v);
        assert_eq!(
            store.add_predicate(lhs, vec![]),
            Err(AlignError::EmptyTemplate)
        );
        // A rejected rule leaves the store unchanged.
        assert!(store.is_empty());
    }

    #[test]
    fn complex_builder_validation() {
        use crate::pattern::CmpOp;

        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let y = var(&mut it, "y");
        let z = var(&mut it, "z"); // bound nowhere
        let p = iri(&mut it, "http://p");
        let q = iri(&mut it, "http://q");
        let c = iri(&mut it, "http://c");
        let lhs = TriplePattern::new(x, p, y);
        let mut store = AlignmentStore::new();
        let eq = |t: &mut RuleTemplate, a: Term, b: Term| {
            let l = t.push_expr(ExprNode::Term(a));
            let r = t.push_expr(ExprNode::Term(b));
            t.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r))
        };

        // Guard naming a variable the lhs does not bind.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        let g = eq(&mut t, z, c);
        t.set_guard(g);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::GuardVariableUnbound)
        );

        // Filter naming a variable that is neither lhs-bound nor in the
        // template body.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        let f = eq(&mut t, z, c);
        t.push_filter(f);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::TemplateVariableUnbound)
        );

        // Expression pool not topologically ordered: child at its own index.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        t.push_expr(ExprNode::Not(0));
        t.set_guard(0);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::MalformedTemplateExpr)
        );

        // Guard / filter roots out of bounds.
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        t.set_guard(7);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::MalformedTemplateExpr)
        );
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        t.push_filter(7);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::MalformedTemplateExpr)
        );

        // Flat-rule checks still apply: empty body, fresh terms (including
        // in expression leaves), variable predicate.
        assert_eq!(
            store.add_complex_predicate(lhs, RuleTemplate::default()),
            Err(AlignError::EmptyTemplate)
        );
        let mut t = RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)]);
        let f = eq(&mut t, y, Term::fresh(2));
        t.push_filter(f);
        assert_eq!(
            store.add_complex_predicate(lhs, t),
            Err(AlignError::FreshTerm)
        );
        assert_eq!(
            store.add_complex_predicate(
                TriplePattern::new(x, x, y),
                RuleTemplate::from_triples(vec![TriplePattern::new(x, q, y)])
            ),
            Err(AlignError::VariablePredicate)
        );
        assert!(store.is_empty(), "rejected rules must not be stored");

        // Display coverage for the new variants.
        for (err, needle) in [
            (AlignError::RequestLocalTerm, "request-local"),
            (AlignError::MalformedTemplateExpr, "topologically"),
            (AlignError::GuardVariableUnbound, "guard"),
            (AlignError::TemplateVariableUnbound, "filter"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }

        // And the happy path: guard over lhs vars, filter over an
        // existential chain variable.
        let w = var(&mut it, "w");
        let mut t = RuleTemplate::from_triples(vec![
            TriplePattern::new(x, q, w),
            TriplePattern::new(w, q, y),
        ]);
        let g = eq(&mut t, y, c);
        t.set_guard(g);
        let f = eq(&mut t, w, c);
        t.push_filter(f);
        let id = store.add_complex_predicate(lhs, t.clone()).unwrap();
        assert_eq!(template_in_pools(&store, id), (lhs, t));
    }

    #[test]
    fn rules_parsed_on_a_serve_handle_are_rejected() {
        // A serve handle gives a term the base lacks a request-local
        // symbol: as a rule key it would size the dense table past 2^30.
        let mut it = Interner::new();
        let known = crate::parse_bgp("<http://a> <http://p> ?o", &mut it)
            .unwrap()
            .patterns[0];
        let novel = crate::parse_bgp("<http://b> <http://q> ?o", &mut it.clone())
            .unwrap()
            .patterns[0];
        assert!(novel.s.symbol().is_local() && novel.p.symbol().is_local());
        let mut store = AlignmentStore::new();
        let local = Err(AlignError::RequestLocalTerm);
        assert_eq!(store.add_entity(known.s, novel.s), local);
        assert_eq!(store.add_predicate(novel, vec![known]), local);
        assert_eq!(store.add_predicate(known, vec![novel]), local);
        let tmpl = RuleTemplate::from_triples(vec![novel]);
        assert_eq!(store.add_complex_predicate(known, tmpl), local);
        assert!(store.is_empty() && store.table.is_empty());
    }

    /// A test's own record of one rule it added: the reference the store's
    /// tables and pools are checked against.
    enum Added {
        Entity(Term, Term),
        Template(TriplePattern, RuleTemplate),
    }

    /// A store plus the record of every rule added to it, in id order.
    #[derive(Default)]
    struct Recorded {
        store: AlignmentStore,
        added: Vec<Added>,
    }

    impl Recorded {
        fn entity(&mut self, from: Term, to: Term) -> u32 {
            self.added.push(Added::Entity(from, to));
            self.store.add_entity(from, to).unwrap()
        }

        fn predicate(&mut self, lhs: TriplePattern, rhs: Vec<TriplePattern>) -> u32 {
            let tmpl = RuleTemplate::from_triples(rhs.clone());
            self.added.push(Added::Template(lhs, tmpl));
            self.store.add_predicate(lhs, rhs).unwrap()
        }

        fn complex(&mut self, lhs: TriplePattern, tmpl: RuleTemplate) -> u32 {
            self.added.push(Added::Template(lhs, tmpl.clone()));
            self.store.add_complex_predicate(lhs, tmpl).unwrap()
        }
    }

    /// What `template(id)` must read back, taken from the record.
    fn template_added(added: &[Added], id: u32) -> (TriplePattern, RuleTemplate) {
        match &added[id as usize] {
            Added::Template(lhs, tmpl) => (*lhs, tmpl.clone()),
            Added::Entity(..) => panic!("rule {id} is not a predicate rule"),
        }
    }

    fn template_in_pools(store: &AlignmentStore, id: u32) -> (TriplePattern, RuleTemplate) {
        let t = store.template(id);
        let tmpl = RuleTemplate {
            triples: t.triples.to_vec(),
            exprs: t.exprs.to_vec(),
            guard: t.guard,
            filters: t.filters.to_vec(),
        };
        (t.lhs, tmpl)
    }

    /// `lhs ⇒ ?x q ?w . ?w q ?y` guarded on `?y = c`, filtered on `?w != c`.
    fn guarded_chain(it: &mut Interner, lhs: TriplePattern, q: Term, c: Term) -> RuleTemplate {
        use crate::pattern::CmpOp;

        let w = var(it, "w");
        let mut t = RuleTemplate::from_triples(vec![
            TriplePattern::new(lhs.s, q, w),
            TriplePattern::new(w, q, lhs.o),
        ]);
        let l = t.push_expr(ExprNode::Term(lhs.o));
        let r = t.push_expr(ExprNode::Term(c));
        let g = t.push_expr(ExprNode::Cmp(CmpOp::Eq, l, r));
        t.set_guard(g);
        let fl = t.push_expr(ExprNode::Term(w));
        let fr = t.push_expr(ExprNode::Term(c));
        let f = t.push_expr(ExprNode::Cmp(CmpOp::Ne, fl, fr));
        t.push_filter(f);
        t
    }

    #[test]
    fn templates_read_back_as_added() {
        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let y = var(&mut it, "y");
        let c = iri(&mut it, "http://c");
        let mut rec = Recorded::default();
        // Interleave flat, complex, and entity rules so the CSR pools carry
        // non-trivial offsets.
        for i in 0..12 {
            let p = iri(&mut it, &format!("http://src/p{i}"));
            let q = iri(&mut it, &format!("http://tgt/p{i}"));
            let lhs = TriplePattern::new(x, p, y);
            let id = match i % 3 {
                0 => rec.predicate(lhs, vec![TriplePattern::new(x, q, y)]),
                1 => rec.complex(lhs, guarded_chain(&mut it, lhs, q, c)),
                _ => rec.entity(p, q),
            };
            // Every template so far, not just the newest: appending a row
            // must not disturb the ones before it.
            for id in (0..=id).filter(|id| id % 3 != 2) {
                assert_eq!(
                    template_in_pools(&rec.store, id),
                    template_added(&rec.added, id),
                    "rule {id}"
                );
            }
        }
    }

    #[test]
    fn lookups_agree_with_a_linear_scan_after_every_add() {
        use crate::federate::mix64;

        // The oracle: scans of the test's own record. First entity rule
        // wins; predicate candidates are every predicate rule keyed on the
        // term's *symbol* (whole-term matching is the rewriter's
        // `lhs_matches`), in id order.
        fn check(rec: &Recorded, probes: &[Term]) {
            for &t in probes {
                let entity = rec.added.iter().find_map(|r| match r {
                    Added::Entity(from, to) if *from == t => Some(*to),
                    _ => None,
                });
                assert_eq!(rec.store.entity_target(t), entity, "term {t:?}");
                let concrete = !t.is_var() && !t.is_fresh();
                let candidates: Vec<u32> = (0..rec.added.len() as u32)
                    .filter(|&id| match &rec.added[id as usize] {
                        Added::Template(lhs, _) => concrete && lhs.p.symbol() == t.symbol(),
                        Added::Entity(..) => false,
                    })
                    .collect();
                assert_eq!(rec.store.predicate_candidates(t), candidates, "term {t:?}");
                for id in candidates {
                    assert_eq!(
                        template_in_pools(&rec.store, id),
                        template_added(&rec.added, id),
                        "rule {id}"
                    );
                }
            }
        }

        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let y = var(&mut it, "y");
        let vocab: Vec<Term> = (0..24)
            .map(|i| iri(&mut it, &format!("http://src/t{i}")))
            .collect();
        // Probes: every term a rule can mention in every concrete kind (so
        // a literal sharing an IRI's symbol is among them), a variable, a
        // fresh term, and symbols above every rule symbol.
        let above = Symbol(it.symbol_bound() as u32 + 1000);
        let mut probes = vec![x, Term::fresh(3), Term::iri(above), Term::blank(above)];
        for &t in &vocab {
            let sym = t.symbol();
            probes.extend([Term::iri(sym), Term::literal(sym), Term::blank(sym)]);
        }

        let mut rec = Recorded::default();
        check(&rec, &probes);
        let hot = vocab[0];
        let mut hot_lens = Vec::new();
        for step in 0..160u64 {
            let r = mix64(0x5eed ^ step);
            let pick = |salt: u64| vocab[(mix64(r ^ salt) % vocab.len() as u64) as usize];
            // Every fourth add lands on one predicate, taking its posting
            // list from the lane (1) to the side list (2) and past the side
            // list's inline capacity (6 and up).
            let p = if step % 4 == 0 { hot } else { pick(1) };
            let lhs = TriplePattern::new(x, p, y);
            match (step % 4, r % 3) {
                (0, _) | (_, 0) => {
                    let rhs = vec![TriplePattern::new(y, pick(2), x)];
                    rec.predicate(lhs, rhs);
                }
                (_, 1) => {
                    let tmpl = guarded_chain(&mut it, lhs, pick(2), pick(3));
                    rec.complex(lhs, tmpl);
                }
                _ => {
                    // Any concrete kind as the source; duplicates arise and
                    // must lose to the first rule.
                    let from = Term::new(
                        [TermKind::Iri, TermKind::Literal, TermKind::Blank][(r >> 8) as usize % 3],
                        p.symbol(),
                    );
                    rec.entity(from, pick(2));
                }
            }
            check(&rec, &probes);
            // A rejected rule must leave every table as it was.
            assert!(rec.store.add_entity(x, hot).is_err());
            assert!(rec.store.add_predicate(lhs, vec![]).is_err());
            check(&rec, &probes);
            hot_lens.push(rec.store.predicate_candidates(hot).len());
        }
        for len in [1, 2, 6] {
            assert!(
                hot_lens.contains(&len),
                "hot predicate never had {len} templates"
            );
        }
        assert_eq!(rec.store.len(), 160);
    }

    #[test]
    fn tables_are_sized_by_rule_symbols_not_the_dictionary() {
        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let a = iri(&mut it, "http://a");
        let b = iri(&mut it, "http://b");
        let p = iri(&mut it, "http://p");
        let mut store = AlignmentStore::new();
        store.add_entity(a, b).unwrap();
        let lhs = TriplePattern::new(x, p, x);
        let id = store.add_predicate(lhs, vec![lhs]).unwrap();
        // One dispatch record per symbol up to the largest a rule is keyed
        // on (`p`), however many symbols the dictionary goes on to hold.
        let records = p.symbol().index() + 1;
        assert_eq!(store.table.len(), 4 * records);
        let late: Vec<Term> = (0..100_000)
            .map(|i| iri(&mut it, &format!("http://late/{i}")))
            .collect();
        assert_eq!(store.table.len(), 4 * records);
        assert_eq!(store.entity_target(a), Some(b));
        assert_eq!(store.predicate_candidates(p), &[id]);
        // Symbols minted after the last rule resolve to no rule.
        for t in late {
            assert_eq!(store.entity_target(t), None);
            assert_eq!(store.predicate_candidates(t), &[] as &[u32]);
        }
    }

    #[test]
    fn warm_returns_on_every_edge() {
        let mut it = Interner::new();
        let x = var(&mut it, "x");
        let a = iri(&mut it, "http://a");
        let p = iri(&mut it, "http://p");
        let q = iri(&mut it, "http://q");
        let mut store = AlignmentStore::new();
        // `a` rewrites to `q`, which has one template; `p` has two.
        store.add_entity(a, q).unwrap();
        let lhs = TriplePattern::new(x, p, x);
        store.add_predicate(lhs, vec![lhs]).unwrap();
        store.add_predicate(lhs, vec![lhs]).unwrap();
        let lhs_q = TriplePattern::new(x, q, x);
        store.add_predicate(lhs_q, vec![lhs_q]).unwrap();
        assert!(store.table[p.symbol().index() << 2 | 3] & SPILL != 0);
        // A request-local symbol, which a serve handle gives an IRI the
        // rules lack, lies past the table.
        let q = "SELECT * WHERE { ?s <http://request/only> ?o }";
        let late = crate::parse_query(q, &mut it.clone())
            .unwrap()
            .pattern
            .triples[0]
            .p;
        assert!(late.symbol().is_local());
        assert!(late.symbol().index() << 2 >= store.table.len());
        for triples in [
            vec![],
            vec![TriplePattern::new(late, late, late)],
            vec![lhs, TriplePattern::new(a, a, a)],
            vec![
                TriplePattern::new(x, x, x),
                TriplePattern::new(Term::fresh(0), Term::fresh(Symbol::MAX), Term::fresh(3)),
            ],
        ] {
            store.warm(&triples);
            AlignmentStore::new().warm(&triples);
        }
    }

    #[test]
    fn dense_entity_kinds_do_not_alias() {
        // An IRI and a literal sharing one interner symbol must stay
        // distinct keys in the kind-major table.
        let mut it = Interner::new();
        let sym = it.intern("shared-spelling");
        let as_iri = Term::iri(sym);
        let as_lit = Term::literal(sym);
        let tgt = iri(&mut it, "http://tgt");
        let mut store = AlignmentStore::new();
        store.add_entity(as_iri, tgt).unwrap();
        assert_eq!(store.entity_target(as_iri), Some(tgt));
        assert_eq!(store.entity_target(as_lit), None);
    }

    #[test]
    fn predicate_candidates_in_id_order() {
        let mut it = Interner::new();
        let v = var(&mut it, "x");
        let p = iri(&mut it, "http://p");
        let q = iri(&mut it, "http://q");
        let mut store = AlignmentStore::new();
        let lhs = TriplePattern::new(v, p, v);
        let id0 = store.add_predicate(lhs, vec![lhs]).unwrap();
        store.add_entity(p, q).unwrap();
        let id2 = store.add_predicate(lhs, vec![lhs]).unwrap();
        assert_eq!(store.predicate_candidates(p), &[id0, id2]);
        assert_eq!(store.predicate_candidates(q), &[] as &[u32]);
        assert_eq!(store.predicate_candidates(v), &[] as &[u32]);
    }
}
