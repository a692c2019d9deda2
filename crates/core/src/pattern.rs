//! Triple patterns, basic graph patterns, group graph patterns, and queries
//! — plus `Display` rendering back to valid SPARQL text.
//!
//! A query's `WHERE` clause is a [`GroupPattern`]: a *flattened,
//! index-linked* tree of [`PatternNode`]s covering basic graph patterns,
//! nested groups, `OPTIONAL`, `UNION`, and `FILTER`. There is no per-node
//! boxing: nodes, sibling links, triple patterns, and filter-expression
//! nodes live in four flat `Vec`s of `Copy` values, so a
//! [`crate::rewriter::RewriteScratch`] can hold a whole rewritten tree in
//! reusable buffers and steady-state rewriting stays allocation-free.
//!
//! Parsed terms are interner symbols, so rendering needs the
//! [`Interner`] that minted them (or a clone of it);
//! `display(&interner)` pairs a value with its interner and the pair
//! implements [`std::fmt::Display`].
//!
//! # Fresh-variable rendering
//!
//! [`TermKind::Fresh`] terms carry a counter, not a string; their `g{n}`
//! names are materialized here, lazily. To keep the rendered text
//! capture-free even though the *structural* guarantee (fresh ≠ any parsed
//! var) does not survive textual round-trips, the display adapters scan the
//! value being rendered for parsed variables already named `g{k}` and offset
//! every fresh counter past the largest such `k`. Distinct counters map to
//! distinct names and no name collides with a query variable, so rendered
//! output re-parses to a query with identical solutions.

use std::fmt::{self, Write as _};

use crate::interner::Interner;
use crate::term::{Term, TermKind};

/// One SPARQL triple pattern. 12 bytes, `Copy`: equality and hashing are
/// three integer comparisons, and a BGP is a cache-friendly flat `Vec`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TriplePattern {
    pub s: Term,
    pub p: Term,
    pub o: Term,
}

impl TriplePattern {
    #[inline]
    pub fn new(s: Term, p: Term, o: Term) -> TriplePattern {
        TriplePattern { s, p, o }
    }

    #[inline]
    pub fn terms(&self) -> [Term; 3] {
        [self.s, self.p, self.o]
    }

    /// Render this triple in isolation.
    ///
    /// Fresh-term naming is computed from *this triple's* terms only: the
    /// same `Fresh` counter may render under different `g{n}` names in
    /// different triples of one BGP, and may collide with `g`-named
    /// variables that appear only in *other* triples. To render part of a
    /// rewritten pattern with consistent, capture-free existential names,
    /// use [`Bgp::display`] / [`GroupPattern::display`] /
    /// [`Query::display`] on the whole value instead.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayTriple<'a> {
        let mut fresh_base = String::new();
        fresh_render_base_into(self.terms().into_iter(), interner, &mut fresh_base);
        DisplayTriple {
            tp: self,
            interner,
            fresh_base,
        }
    }
}

/// A basic graph pattern: a conjunction of triple patterns. Used for
/// alignment-rule templates (which are flat by construction) and as the
/// seed for [`GroupPattern::from_bgp`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Bgp {
    pub patterns: Vec<TriplePattern>,
}

impl Bgp {
    pub fn new(patterns: Vec<TriplePattern>) -> Bgp {
        Bgp { patterns }
    }

    /// Render this BGP in isolation.
    ///
    /// Fresh-term naming is computed from the BGP's terms only. A `g`-named
    /// variable that exists solely in a surrounding context (e.g. a
    /// projection variable absent from the BGP) is not seen here, so
    /// splicing this rendering into other query text can capture an
    /// existential. To render a rewritten query with its projection taken
    /// into account, use [`Query::display`] instead.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayBgp<'a> {
        let mut fresh_base = String::new();
        fresh_render_base_into(
            self.patterns.iter().flat_map(|tp| tp.terms()),
            interner,
            &mut fresh_base,
        );
        DisplayBgp {
            bgp: self,
            interner,
            fresh_base,
        }
    }
}

/// Sentinel "no node" index for [`GroupPattern`] links.
pub const NO_NODE: u32 = u32::MAX;

/// Comparison operators of FILTER expressions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One node of a flattened FILTER expression tree. Children are indices
/// into the owning [`GroupPattern::exprs`] buffer, so the whole tree is
/// `Copy` values in one flat `Vec`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExprNode {
    /// A variable, IRI, or literal operand.
    Term(Term),
    /// `lhs op rhs` comparison.
    Cmp(CmpOp, u32, u32),
    /// `lhs && rhs`.
    And(u32, u32),
    /// `lhs || rhs`.
    Or(u32, u32),
    /// `!child`.
    Not(u32),
}

/// One node of a flattened group-graph-pattern tree. Child lists are
/// singly linked through [`GroupPattern::next`]; triple runs are ranges
/// into [`GroupPattern::triples`]; filter expressions are roots into
/// [`GroupPattern::exprs`]. Every variant is a few integers — no boxing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PatternNode {
    /// A run of triple patterns: `triples[start .. start + len]`.
    Triples { start: u32, len: u32 },
    /// `{ ... }` — children chained from `first` (or [`NO_NODE`] if empty).
    Group { first: u32 },
    /// `OPTIONAL { ... }` — the inner group's children chained from `first`.
    Optional { first: u32 },
    /// `{...} UNION {...} [UNION {...}]*` — two or more branches chained
    /// from `first`; every branch is a [`PatternNode::Group`].
    Union { first: u32 },
    /// `FILTER( expr )` — `expr` is the root index into `exprs`.
    Filter { expr: u32 },
    /// `SERVICE <endpoint> { ... }` — a federated subquery dispatched to
    /// `endpoint` (an IRI or a variable), children chained from `first`.
    Service { endpoint: Term, first: u32 },
}

/// A group graph pattern as a flattened, index-linked tree.
///
/// # Representation
///
/// * `nodes[i]` is a tree node; `next[i]` is its next sibling (or
///   [`NO_NODE`]). The two vectors always have equal length.
/// * `root` indexes the top-level [`PatternNode::Group`]; [`NO_NODE`]
///   denotes the empty group `{ }` (the state of a cleared scratch).
/// * Triple patterns and expression nodes are pooled in `triples` /
///   `exprs`; nodes reference them by range / index. A [`PatternNode::
///   Triples`] run is always a contiguous range, and `triples` holds the
///   runs in rendering order, so `triples` doubles as "all triple patterns
///   of the query, in order".
///
/// Equality is **structural**: two patterns are equal when their trees
/// (walked from `root`) match node for node, regardless of how the nodes
/// are laid out in the buffers. Note that structure distinguishes two
/// adjacent [`PatternNode::Triples`] runs from one merged run even though
/// they denote the same conjunction; the parser and the rewriter both emit
/// maximal runs, so values produced by them compare as expected.
#[derive(Clone, Debug)]
pub struct GroupPattern {
    pub nodes: Vec<PatternNode>,
    /// `next[i]` = index of the next sibling of `nodes[i]`, or [`NO_NODE`].
    pub next: Vec<u32>,
    pub triples: Vec<TriplePattern>,
    pub exprs: Vec<ExprNode>,
    /// Index of the root [`PatternNode::Group`], or [`NO_NODE`] when empty.
    pub root: u32,
}

impl Default for GroupPattern {
    fn default() -> GroupPattern {
        GroupPattern {
            nodes: Vec::new(),
            next: Vec::new(),
            triples: Vec::new(),
            exprs: Vec::new(),
            root: NO_NODE,
        }
    }
}

impl GroupPattern {
    pub fn new() -> GroupPattern {
        GroupPattern::default()
    }

    /// Wrap a flat BGP as a group pattern: one triples run under the root
    /// group (or an empty root group for an empty BGP).
    pub fn from_bgp(bgp: &Bgp) -> GroupPattern {
        let mut p = GroupPattern::new();
        let first = if bgp.patterns.is_empty() {
            NO_NODE
        } else {
            p.triples.extend_from_slice(&bgp.patterns);
            p.push_node(PatternNode::Triples {
                start: 0,
                len: bgp.patterns.len() as u32,
            })
        };
        p.root = p.push_node(PatternNode::Group { first });
        p
    }

    /// Append a node with no sibling yet; returns its index. Link it into a
    /// child chain afterwards via [`ChainBuilder`] (or by writing `next`).
    #[inline]
    pub fn push_node(&mut self, node: PatternNode) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.next.push(NO_NODE);
        idx
    }

    /// Append an expression node; returns its index.
    #[inline]
    pub fn push_expr(&mut self, node: ExprNode) -> u32 {
        let idx = self.exprs.len() as u32;
        self.exprs.push(node);
        idx
    }

    /// Append a self-contained expression pool (child indices relative to
    /// `exprs` itself), rebasing every child index onto this pattern's
    /// buffer and mapping each leaf term through `map`. Returns the base
    /// index of the copied block: node `i` of the source pool lands at
    /// `base + i`. This is how rule templates instantiate their guard and
    /// FILTER-constraint trees in place — one pass, no intermediate tree.
    pub fn import_exprs(&mut self, exprs: &[ExprNode], mut map: impl FnMut(Term) -> Term) -> u32 {
        let base = self.exprs.len() as u32;
        for &e in exprs {
            self.exprs.push(match e {
                ExprNode::Term(t) => ExprNode::Term(map(t)),
                ExprNode::Cmp(op, l, r) => ExprNode::Cmp(op, base + l, base + r),
                ExprNode::And(l, r) => ExprNode::And(base + l, base + r),
                ExprNode::Or(l, r) => ExprNode::Or(base + l, base + r),
                ExprNode::Not(c) => ExprNode::Not(base + c),
            });
        }
        base
    }

    /// Clear all buffers (capacity retained) back to the empty group.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.next.clear();
        self.triples.clear();
        self.exprs.clear();
        self.root = NO_NODE;
    }

    /// Iterate a sibling chain starting at `first`.
    #[inline]
    pub fn children_from(&self, first: u32) -> Children<'_> {
        Children {
            next: &self.next,
            cur: first,
        }
    }

    /// Head of the root group's child chain ([`NO_NODE`] when empty).
    #[inline]
    fn root_first(&self) -> u32 {
        match self.root {
            NO_NODE => NO_NODE,
            r => match self.nodes[r as usize] {
                PatternNode::Group { first } => first,
                _ => unreachable!("root must be a Group node"),
            },
        }
    }

    /// The root group's child chain (empty for an empty pattern).
    #[inline]
    pub fn root_children(&self) -> Children<'_> {
        self.children_from(self.root_first())
    }

    /// The triple patterns of the run node at `idx`.
    #[inline]
    pub fn run(&self, idx: u32) -> &[TriplePattern] {
        match self.nodes[idx as usize] {
            PatternNode::Triples { start, len } => {
                &self.triples[start as usize..(start + len) as usize]
            }
            _ => &[],
        }
    }

    /// True when the pattern is a single flat BGP: root-group children are
    /// triples runs only (the pre-group-pattern query shape).
    pub fn is_flat(&self) -> bool {
        self.root_children()
            .all(|c| matches!(self.nodes[c as usize], PatternNode::Triples { .. }))
    }

    /// Every [`Term`] the pattern mentions: triple terms, FILTER
    /// expression operands, and SERVICE endpoint terms.
    pub fn terms(&self) -> impl Iterator<Item = Term> + '_ {
        self.triples
            .iter()
            .flat_map(|tp| tp.terms())
            .chain(self.exprs.iter().filter_map(|e| match e {
                ExprNode::Term(t) => Some(*t),
                _ => None,
            }))
            .chain(self.nodes.iter().filter_map(|n| match n {
                PatternNode::Service { endpoint, .. } => Some(*endpoint),
                _ => None,
            }))
    }

    /// Render as `{ ... }` SPARQL text. Fresh-term naming is computed from
    /// this pattern's terms only; see [`Query::display`] for the caveat
    /// about projection variables.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayPattern<'a> {
        let mut fresh_base = String::new();
        fresh_render_base_into(self.terms(), interner, &mut fresh_base);
        DisplayPattern {
            pattern: self,
            interner,
            fresh_base,
        }
    }

    fn node_eq(&self, a: u32, other: &GroupPattern, b: u32) -> bool {
        match (self.nodes[a as usize], other.nodes[b as usize]) {
            (PatternNode::Triples { .. }, PatternNode::Triples { .. }) => {
                self.run(a) == other.run(b)
            }
            (PatternNode::Group { first: fa }, PatternNode::Group { first: fb })
            | (PatternNode::Optional { first: fa }, PatternNode::Optional { first: fb })
            | (PatternNode::Union { first: fa }, PatternNode::Union { first: fb }) => {
                self.chain_eq(fa, other, fb)
            }
            (PatternNode::Filter { expr: ea }, PatternNode::Filter { expr: eb }) => {
                self.expr_eq(ea, other, eb)
            }
            (
                PatternNode::Service {
                    endpoint: ea,
                    first: fa,
                },
                PatternNode::Service {
                    endpoint: eb,
                    first: fb,
                },
            ) => ea == eb && self.chain_eq(fa, other, fb),
            _ => false,
        }
    }

    fn chain_eq(&self, a_first: u32, other: &GroupPattern, b_first: u32) -> bool {
        let mut a_it = self.children_from(a_first);
        let mut b_it = other.children_from(b_first);
        loop {
            match (a_it.next(), b_it.next()) {
                (None, None) => return true,
                (Some(a), Some(b)) if self.node_eq(a, other, b) => {}
                _ => return false,
            }
        }
    }

    fn expr_eq(&self, a: u32, other: &GroupPattern, b: u32) -> bool {
        match (self.exprs[a as usize], other.exprs[b as usize]) {
            (ExprNode::Term(x), ExprNode::Term(y)) => x == y,
            (ExprNode::Cmp(opa, la, ra), ExprNode::Cmp(opb, lb, rb)) => {
                opa == opb && self.expr_eq(la, other, lb) && self.expr_eq(ra, other, rb)
            }
            (ExprNode::And(la, ra), ExprNode::And(lb, rb))
            | (ExprNode::Or(la, ra), ExprNode::Or(lb, rb)) => {
                self.expr_eq(la, other, lb) && self.expr_eq(ra, other, rb)
            }
            (ExprNode::Not(ca), ExprNode::Not(cb)) => self.expr_eq(ca, other, cb),
            _ => false,
        }
    }
}

/// Structural equality: trees walked from the roots must match; buffer
/// layout is irrelevant.
impl PartialEq for GroupPattern {
    fn eq(&self, other: &GroupPattern) -> bool {
        self.chain_eq(self.root_first(), other, other.root_first())
    }
}

impl Eq for GroupPattern {}

/// Iterator over a sibling chain of a [`GroupPattern`].
pub struct Children<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Children<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == NO_NODE {
            return None;
        }
        let idx = self.cur;
        self.cur = self.next[idx as usize];
        Some(idx)
    }
}

/// Incrementally links nodes into a sibling chain.
#[derive(Copy, Clone)]
pub struct ChainBuilder {
    first: u32,
    last: u32,
}

impl ChainBuilder {
    pub fn new() -> ChainBuilder {
        ChainBuilder {
            first: NO_NODE,
            last: NO_NODE,
        }
    }

    /// Append `idx` (a node already pushed into `p`) to the chain.
    pub fn push(&mut self, p: &mut GroupPattern, idx: u32) {
        if self.first == NO_NODE {
            self.first = idx;
        } else {
            p.next[self.last as usize] = idx;
        }
        self.last = idx;
    }

    /// Head of the chain ([`NO_NODE`] if nothing was pushed).
    pub fn first(&self) -> u32 {
        self.first
    }
}

impl Default for ChainBuilder {
    fn default() -> ChainBuilder {
        ChainBuilder::new()
    }
}

/// Projection of a SELECT query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SelectList {
    /// `SELECT *`
    Star,
    /// `SELECT ?a ?b …` — terms are guaranteed to be variables by the parser.
    Vars(Vec<Term>),
}

/// A parsed SELECT query: projection plus one group graph pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    pub select: SelectList,
    pub pattern: GroupPattern,
}

impl Query {
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayQuery<'a> {
        let q = self.as_ref();
        let mut fresh_base = String::new();
        fresh_render_base_into(q.terms(), interner, &mut fresh_base);
        DisplayQuery {
            query: self,
            interner,
            fresh_base,
        }
    }

    /// Borrowed view of this query; the shape the scratch-based serve
    /// pipeline passes between stages.
    #[inline]
    pub fn as_ref(&self) -> QueryRef<'_> {
        QueryRef {
            select: match &self.select {
                SelectList::Star => None,
                SelectList::Vars(vars) => Some(vars),
            },
            pattern: &self.pattern,
        }
    }
}

/// A borrowed SELECT query: projection (`None` = `SELECT *`) plus pattern.
///
/// The serve pipeline's stages each own their buffers (a
/// [`crate::parser::ParseScratch`], a [`crate::rewriter::RewriteScratch`]),
/// so handing a query from one stage to the next must not require
/// assembling an owned [`Query`]. `QueryRef` is that hand-off: `Copy`,
/// borrowing both halves from whichever scratch produced them.
#[derive(Copy, Clone)]
pub struct QueryRef<'a> {
    /// Projected variables, or `None` for `SELECT *`.
    pub select: Option<&'a [Term]>,
    pub pattern: &'a GroupPattern,
}

impl<'a> QueryRef<'a> {
    /// Every term the query mentions: pattern terms plus the projection.
    fn terms(&self) -> impl Iterator<Item = Term> + 'a {
        let select = self.select.unwrap_or(&[]);
        self.pattern.terms().chain(select.iter().copied())
    }
}

/// Render `query` as SPARQL text into `out` (cleared first), reusing
/// `fresh_base` as the fresh-name offset buffer. This is the zero-alloc
/// render path: with both buffers warm (capacity from a previous call) a
/// call performs no heap allocations unless the query uses `g{k}` variable
/// names with more than 19 digits (the arbitrary-precision fallback).
pub fn render_query_into(
    query: QueryRef<'_>,
    interner: &Interner,
    fresh_base: &mut String,
    out: &mut String,
) {
    fresh_render_base_into(query.terms(), interner, fresh_base);
    out.clear();
    write_query(out, query, interner, fresh_base).expect("writing to String cannot fail");
}

/// Is `s` a canonical decimal numeral (no sign, no leading zero except "0"
/// itself)? Rendered fresh names are always canonical, so only canonical
/// parsed `g{k}` names can ever collide with them; non-canonical ones
/// (`g007`, `gx`) are textually unreachable and ignored.
fn is_canonical_decimal(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) && (s.len() == 1 || !s.starts_with('0'))
}

/// Arbitrary-precision `digits + n` over a canonical decimal numeral.
/// Fresh-name arithmetic runs on decimal strings rather than a fixed-width
/// integer so there is no width at which the offset scheme can overflow or
/// saturate into a collision, no matter how large a `g{k}` variable name the
/// query uses.
fn decimal_add(digits: &str, n: u32) -> String {
    let mut out: Vec<u8> = digits.bytes().rev().collect();
    let mut carry = n as u64;
    for b in out.iter_mut() {
        if carry == 0 {
            break;
        }
        let sum = (*b - b'0') as u64 + carry;
        *b = b'0' + (sum % 10) as u8;
        carry = sum / 10;
    }
    while carry > 0 {
        out.push(b'0' + (carry % 10) as u8);
        carry /= 10;
    }
    out.reverse();
    String::from_utf8(out).expect("decimal digits are valid UTF-8")
}

/// Compute the smallest counter offset (as a canonical decimal string, into
/// `out`, cleared first) such that no rendered fresh name `g{base + n}`
/// collides with a parsed variable of the rendered value: one past the
/// largest `k` of any variable literally named `g{k}`. Canonical decimals
/// compare numerically by (length, lexicographic). Allocation-free once
/// `out` has capacity, except for the >19-digit arbitrary-precision
/// fallback.
fn fresh_render_base_into(
    terms: impl Iterator<Item = Term>,
    interner: &Interner,
    out: &mut String,
) {
    let mut max: Option<&str> = None;
    for t in terms {
        if t.kind() != TermKind::Var {
            continue;
        }
        let name = interner.resolve(t.symbol());
        if let Some(digits) = name.strip_prefix('g') {
            if is_canonical_decimal(digits)
                && max.is_none_or(|m| (digits.len(), digits) > (m.len(), m))
            {
                max = Some(digits);
            }
        }
    }
    out.clear();
    match max {
        None => out.push('0'),
        // ≤19 decimal digits always fits u64; +1 in u128 cannot overflow.
        Some(m) if m.len() <= 19 => {
            let n: u64 = m.parse().expect("canonical decimal fits u64");
            let _ = write!(out, "{}", n as u128 + 1);
        }
        Some(m) => out.push_str(&decimal_add(m, 1)),
    }
}

fn write_term<W: fmt::Write + ?Sized>(
    f: &mut W,
    t: Term,
    interner: &Interner,
    fresh_base: &str,
) -> fmt::Result {
    if t.kind() == TermKind::Fresh {
        // Fast path: a base of ≤19 digits fits u64, so the offset is plain
        // integer arithmetic — no allocation. The decimal-string fallback
        // only triggers for queries using `g{k}` names past 19 digits.
        return if fresh_base.len() <= 19 {
            let base: u64 = fresh_base.parse().expect("canonical decimal fits u64");
            write!(f, "?g{}", base as u128 + t.fresh_index() as u128)
        } else {
            write!(f, "?g{}", decimal_add(fresh_base, t.fresh_index()))
        };
    }
    let text = interner.resolve(t.symbol());
    match t.kind() {
        TermKind::Iri => write!(f, "<{text}>"),
        // Literals are interned with their full surface form (quotes,
        // @lang / ^^datatype suffix) so they render verbatim.
        TermKind::Literal => f.write_str(text),
        TermKind::Blank => write!(f, "_:{text}"),
        TermKind::Var => write!(f, "?{text}"),
        TermKind::Fresh => unreachable!("handled above"),
    }
}

pub struct DisplayTriple<'a> {
    tp: &'a TriplePattern,
    interner: &'a Interner,
    fresh_base: String,
}

impl fmt::Display for DisplayTriple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_triple(f, self.tp, self.interner, &self.fresh_base)
    }
}

fn write_triple<W: fmt::Write + ?Sized>(
    f: &mut W,
    tp: &TriplePattern,
    interner: &Interner,
    fresh_base: &str,
) -> fmt::Result {
    write_term(f, tp.s, interner, fresh_base)?;
    f.write_str(" ")?;
    write_term(f, tp.p, interner, fresh_base)?;
    f.write_str(" ")?;
    write_term(f, tp.o, interner, fresh_base)?;
    f.write_str(" .")
}

pub struct DisplayBgp<'a> {
    bgp: &'a Bgp,
    interner: &'a Interner,
    fresh_base: String,
}

impl fmt::Display for DisplayBgp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_bgp(f, self.bgp, self.interner, &self.fresh_base)
    }
}

fn write_bgp<W: fmt::Write + ?Sized>(
    f: &mut W,
    bgp: &Bgp,
    interner: &Interner,
    fresh_base: &str,
) -> fmt::Result {
    f.write_str("{\n")?;
    for tp in &bgp.patterns {
        f.write_str("  ")?;
        write_triple(f, tp, interner, fresh_base)?;
        f.write_str("\n")?;
    }
    f.write_str("}")
}

fn write_indent<W: fmt::Write + ?Sized>(f: &mut W, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        f.write_str("  ")?;
    }
    Ok(())
}

/// Render a filter expression. Non-leaf operands are parenthesized
/// unconditionally, which keeps rendering deterministic and makes
/// `render → parse → render` a fixpoint (parentheses do not create nodes).
fn write_expr<W: fmt::Write + ?Sized>(
    f: &mut W,
    p: &GroupPattern,
    e: u32,
    interner: &Interner,
    fresh_base: &str,
) -> fmt::Result {
    let operand = |f: &mut W, c: u32| -> fmt::Result {
        if let ExprNode::Term(t) = p.exprs[c as usize] {
            write_term(f, t, interner, fresh_base)
        } else {
            f.write_str("(")?;
            write_expr(f, p, c, interner, fresh_base)?;
            f.write_str(")")
        }
    };
    match p.exprs[e as usize] {
        ExprNode::Term(t) => write_term(f, t, interner, fresh_base),
        ExprNode::Cmp(op, l, r) => {
            operand(f, l)?;
            write!(f, " {} ", op.as_str())?;
            operand(f, r)
        }
        ExprNode::And(l, r) => {
            operand(f, l)?;
            f.write_str(" && ")?;
            operand(f, r)
        }
        ExprNode::Or(l, r) => {
            operand(f, l)?;
            f.write_str(" || ")?;
            operand(f, r)
        }
        ExprNode::Not(c) => {
            f.write_str("!")?;
            operand(f, c)
        }
    }
}

/// Render one pattern node (and its subtree) at `depth`, each line
/// indented and newline-terminated.
fn write_node<W: fmt::Write + ?Sized>(
    f: &mut W,
    p: &GroupPattern,
    idx: u32,
    interner: &Interner,
    fresh_base: &str,
    depth: usize,
) -> fmt::Result {
    match p.nodes[idx as usize] {
        PatternNode::Triples { .. } => {
            for tp in p.run(idx) {
                write_indent(f, depth)?;
                write_triple(f, tp, interner, fresh_base)?;
                f.write_str("\n")?;
            }
            Ok(())
        }
        PatternNode::Group { first } => {
            write_indent(f, depth)?;
            f.write_str("{\n")?;
            for c in p.children_from(first) {
                write_node(f, p, c, interner, fresh_base, depth + 1)?;
            }
            write_indent(f, depth)?;
            f.write_str("}\n")
        }
        PatternNode::Optional { first } => {
            write_indent(f, depth)?;
            f.write_str("OPTIONAL {\n")?;
            for c in p.children_from(first) {
                write_node(f, p, c, interner, fresh_base, depth + 1)?;
            }
            write_indent(f, depth)?;
            f.write_str("}\n")
        }
        PatternNode::Union { first } => {
            for (i, branch) in p.children_from(first).enumerate() {
                if i > 0 {
                    write_indent(f, depth)?;
                    f.write_str("UNION\n")?;
                }
                write_node(f, p, branch, interner, fresh_base, depth)?;
            }
            Ok(())
        }
        PatternNode::Filter { expr } => {
            write_indent(f, depth)?;
            f.write_str("FILTER(")?;
            write_expr(f, p, expr, interner, fresh_base)?;
            f.write_str(")\n")
        }
        PatternNode::Service { endpoint, first } => {
            write_indent(f, depth)?;
            f.write_str("SERVICE ")?;
            write_term(f, endpoint, interner, fresh_base)?;
            f.write_str(" {\n")?;
            for c in p.children_from(first) {
                write_node(f, p, c, interner, fresh_base, depth + 1)?;
            }
            write_indent(f, depth)?;
            f.write_str("}\n")
        }
    }
}

/// Render the whole pattern as `{ ... }` (no trailing newline).
fn write_pattern<W: fmt::Write + ?Sized>(
    f: &mut W,
    p: &GroupPattern,
    interner: &Interner,
    fresh_base: &str,
) -> fmt::Result {
    f.write_str("{\n")?;
    for c in p.root_children() {
        write_node(f, p, c, interner, fresh_base, 1)?;
    }
    f.write_str("}")
}

pub struct DisplayPattern<'a> {
    pattern: &'a GroupPattern,
    interner: &'a Interner,
    fresh_base: String,
}

impl fmt::Display for DisplayPattern<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_pattern(f, self.pattern, self.interner, &self.fresh_base)
    }
}

pub struct DisplayQuery<'a> {
    query: &'a Query,
    interner: &'a Interner,
    fresh_base: String,
}

impl fmt::Display for DisplayQuery<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_query(f, self.query.as_ref(), self.interner, &self.fresh_base)
    }
}

/// Render a full query (projection + pattern) to any writer.
fn write_query<W: fmt::Write + ?Sized>(
    f: &mut W,
    q: QueryRef<'_>,
    interner: &Interner,
    fresh_base: &str,
) -> fmt::Result {
    f.write_str("SELECT")?;
    match q.select {
        None => f.write_str(" *")?,
        Some(vars) => {
            for v in vars {
                f.write_str(" ")?;
                write_term(f, *v, interner, fresh_base)?;
            }
        }
    }
    f.write_str(" WHERE ")?;
    write_pattern(f, q.pattern, interner, fresh_base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_pattern_is_twelve_bytes_and_copy() {
        assert_eq!(std::mem::size_of::<TriplePattern>(), 12);
        fn assert_copy<T: Copy>() {}
        assert_copy::<TriplePattern>();
        assert_copy::<PatternNode>();
        assert_copy::<ExprNode>();
    }

    #[test]
    fn renders_all_term_kinds() {
        let mut i = Interner::new();
        let tp = TriplePattern::new(
            Term::var(i.intern("s")),
            Term::iri(i.intern("http://ex.org/p")),
            Term::literal(i.intern("\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>")),
        );
        assert_eq!(
            tp.display(&i).to_string(),
            "?s <http://ex.org/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> ."
        );
        let tp2 = TriplePattern::new(
            Term::blank(i.intern("b0")),
            Term::iri(i.intern("http://ex.org/p")),
            Term::literal(i.intern("\"hi\"@en")),
        );
        assert_eq!(
            tp2.display(&i).to_string(),
            "_:b0 <http://ex.org/p> \"hi\"@en ."
        );
    }

    #[test]
    fn renders_fresh_terms_with_lazy_names() {
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let tp = TriplePattern::new(Term::fresh(0), p, Term::fresh(1));
        assert_eq!(tp.display(&i).to_string(), "?g0 <http://ex.org/p> ?g1 .");
    }

    #[test]
    fn fresh_rendering_dodges_query_g_vars() {
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let g0 = Term::var(i.intern("g0"));
        let g3 = Term::var(i.intern("g3"));
        // Query uses parsed ?g0 and ?g3; fresh 0 and 1 must render past g3.
        let bgp = Bgp::new(vec![
            TriplePattern::new(g0, p, g3),
            TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
        ]);
        let text = bgp.display(&i).to_string();
        assert!(text.contains("?g0 <http://ex.org/p> ?g3"), "{text}");
        assert!(text.contains("?g4 <http://ex.org/p> ?g5"), "{text}");
    }

    #[test]
    fn fresh_rendering_ignores_non_canonical_g_names() {
        // "gx" and "g1x" are not canonical g{digits} names.
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let gx = Term::var(i.intern("gx"));
        let g1x = Term::var(i.intern("g1x"));
        let bgp = Bgp::new(vec![
            TriplePattern::new(gx, p, g1x),
            TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
        ]);
        let text = bgp.display(&i).to_string();
        assert!(text.contains("?g0 <http://ex.org/p> ?g1"), "{text}");
    }

    #[test]
    fn fresh_rendering_survives_u32_max_g_var() {
        // A parsed variable named g4294967295 (k = u32::MAX) must push the
        // base past u32 entirely — no collision, no overflow.
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let gmax = Term::var(i.intern("g4294967295"));
        let bgp = Bgp::new(vec![
            TriplePattern::new(gmax, p, gmax),
            TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
        ]);
        let text = bgp.display(&i).to_string();
        assert!(
            text.contains("?g4294967296 <http://ex.org/p> ?g4294967297"),
            "{text}"
        );
    }

    #[test]
    fn fresh_rendering_survives_u64_max_g_var() {
        // Decimal-string arithmetic: no integer width to overflow.
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let gmax = Term::var(i.intern("g18446744073709551615"));
        let bgp = Bgp::new(vec![
            TriplePattern::new(gmax, p, Term::fresh(0)),
            TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
        ]);
        let text = bgp.display(&i).to_string();
        assert!(text.contains("?g18446744073709551616"), "{text}");
        assert!(text.contains("?g18446744073709551617"), "{text}");
        assert!(!text.contains("?g18446744073709551615 <http://ex.org/p> ?g18446744073709551615"));
    }

    #[test]
    fn fresh_rendering_survives_u128_max_g_var() {
        // The former fixed-width worst case: a variable named g{u128::MAX}.
        // String arithmetic carries into a 40th digit; no panic, no wrap,
        // no collision.
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let gmax = Term::var(i.intern("g340282366920938463463374607431768211455"));
        let bgp = Bgp::new(vec![
            TriplePattern::new(gmax, p, Term::fresh(0)),
            TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
        ]);
        let text = bgp.display(&i).to_string();
        assert!(
            text.contains("?g340282366920938463463374607431768211456"),
            "{text}"
        );
        assert!(
            text.contains("?g340282366920938463463374607431768211457"),
            "{text}"
        );
    }

    #[test]
    fn decimal_add_carries_correctly() {
        assert_eq!(decimal_add("0", 0), "0");
        assert_eq!(decimal_add("0", 7), "7");
        assert_eq!(decimal_add("9", 1), "10");
        assert_eq!(decimal_add("99", 1), "100");
        assert_eq!(decimal_add("123", 877), "1000");
        assert_eq!(
            decimal_add("18446744073709551615", u32::MAX),
            "18446744078004518910"
        );
    }

    #[test]
    fn renders_through_a_worker_clone() {
        let mut i = Interner::new();
        let tp = TriplePattern::new(
            Term::var(i.intern("s")),
            Term::iri(i.intern("http://ex.org/p")),
            Term::fresh(2),
        );
        let mut worker = i.clone();
        let o = Term::var(worker.intern("o"));
        assert_eq!(
            tp.display(&worker).to_string(),
            "?s <http://ex.org/p> ?g2 ."
        );
        let tp2 = TriplePattern::new(tp.s, tp.p, o);
        assert_eq!(
            tp2.display(&worker).to_string(),
            "?s <http://ex.org/p> ?o ."
        );
    }

    fn sample_triple(i: &mut Interner, n: usize) -> TriplePattern {
        TriplePattern::new(
            Term::var(i.intern(&format!("s{n}"))),
            Term::iri(i.intern(&format!("http://ex.org/p{n}"))),
            Term::var(i.intern(&format!("o{n}"))),
        )
    }

    /// Build `{ t0 . OPTIONAL { t1 } { t2 } UNION { t3 } FILTER(?s0 < lit) }`.
    fn sample_group(i: &mut Interner) -> GroupPattern {
        let mut p = GroupPattern::new();
        let mut chain = ChainBuilder::new();
        let t = [
            sample_triple(i, 0),
            sample_triple(i, 1),
            sample_triple(i, 2),
            sample_triple(i, 3),
        ];
        p.triples.push(t[0]);
        let run0 = p.push_node(PatternNode::Triples { start: 0, len: 1 });
        chain.push(&mut p, run0);

        p.triples.push(t[1]);
        let run1 = p.push_node(PatternNode::Triples { start: 1, len: 1 });
        let opt = p.push_node(PatternNode::Optional { first: run1 });
        chain.push(&mut p, opt);

        let mut branches = ChainBuilder::new();
        for (k, tp) in t.iter().enumerate().skip(2) {
            p.triples.push(*tp);
            let run = p.push_node(PatternNode::Triples {
                start: k as u32,
                len: 1,
            });
            let g = p.push_node(PatternNode::Group { first: run });
            branches.push(&mut p, g);
        }
        let union = p.push_node(PatternNode::Union {
            first: branches.first(),
        });
        chain.push(&mut p, union);

        let lhs = p.push_expr(ExprNode::Term(Term::var(i.intern("s0"))));
        let rhs = p.push_expr(ExprNode::Term(Term::literal(
            i.intern("\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>"),
        )));
        let cmp = p.push_expr(ExprNode::Cmp(CmpOp::Lt, lhs, rhs));
        let filter = p.push_node(PatternNode::Filter { expr: cmp });
        chain.push(&mut p, filter);

        p.root = p.push_node(PatternNode::Group {
            first: chain.first(),
        });
        p
    }

    #[test]
    fn group_pattern_renders_all_shapes() {
        let mut i = Interner::new();
        let p = sample_group(&mut i);
        let text = p.display(&i).to_string();
        assert_eq!(
            text,
            "{\n  ?s0 <http://ex.org/p0> ?o0 .\n  OPTIONAL {\n    ?s1 <http://ex.org/p1> ?o1 .\n  }\n  \
             {\n    ?s2 <http://ex.org/p2> ?o2 .\n  }\n  UNION\n  {\n    ?s3 <http://ex.org/p3> ?o3 .\n  }\n  \
             FILTER(?s0 < \"3\"^^<http://www.w3.org/2001/XMLSchema#integer>)\n}"
        );
    }

    #[test]
    fn service_node_renders_and_compares_structurally() {
        let mut i = Interner::new();
        let build = |i: &mut Interner, ep: Term| {
            let mut p = GroupPattern::new();
            let t = sample_triple(i, 0);
            p.triples.push(t);
            let run = p.push_node(PatternNode::Triples { start: 0, len: 1 });
            let svc = p.push_node(PatternNode::Service {
                endpoint: ep,
                first: run,
            });
            p.root = p.push_node(PatternNode::Group { first: svc });
            p
        };
        let ep = Term::iri(i.intern("http://fed.example.org/sparql"));
        let p = build(&mut i, ep);
        assert_eq!(
            p.display(&i).to_string(),
            "{\n  SERVICE <http://fed.example.org/sparql> {\n    ?s0 <http://ex.org/p0> ?o0 .\n  }\n}"
        );
        // Same tree, same endpoint: equal. Different endpoint: unequal.
        assert_eq!(p, build(&mut i, ep));
        let other = Term::iri(i.intern("http://fed.example.org/other"));
        assert_ne!(p, build(&mut i, other));
        // Endpoint terms participate in fresh-base computation: a service
        // endpoint variable named g5 pushes fresh names past it.
        let gvar = Term::var(i.intern("g5"));
        let mut q = build(&mut i, gvar);
        q.triples.push(TriplePattern::new(
            Term::fresh(0),
            Term::iri(i.intern("http://ex.org/p")),
            Term::fresh(1),
        ));
        let run = q.push_node(PatternNode::Triples { start: 1, len: 1 });
        let PatternNode::Group { first } = q.nodes[q.root as usize] else {
            unreachable!()
        };
        q.next[first as usize] = run;
        let text = q.display(&i).to_string();
        assert!(text.contains("SERVICE ?g5 {"), "{text}");
        assert!(text.contains("?g6 <http://ex.org/p> ?g7 ."), "{text}");
    }

    #[test]
    fn structural_equality_ignores_buffer_layout() {
        let mut i = Interner::new();
        let a = sample_group(&mut i);
        // Same tree, different layout: build in a different node order by
        // round-tripping through a second build that prepends junk triples
        // to the pool (referenced by no run) and re-creates the tree.
        let mut b = sample_group(&mut i);
        b.triples.push(sample_triple(&mut i, 9)); // unreachable from any run
        assert_eq!(a, b, "unreachable pool entries must not affect equality");

        // A genuinely different tree is unequal.
        let mut c = sample_group(&mut i);
        let extra = c.triples.len() as u32;
        c.triples.push(sample_triple(&mut i, 5));
        let run = c.push_node(PatternNode::Triples {
            start: extra,
            len: 1,
        });
        let root = c.root;
        // Append the run to the root group's chain.
        let PatternNode::Group { first } = c.nodes[root as usize] else {
            unreachable!()
        };
        let mut last = first;
        while c.next[last as usize] != NO_NODE {
            last = c.next[last as usize];
        }
        c.next[last as usize] = run;
        assert_ne!(a, c);
    }

    #[test]
    fn from_bgp_is_flat_and_empty_pattern_renders() {
        let mut i = Interner::new();
        let bgp = Bgp::new(vec![sample_triple(&mut i, 0)]);
        let p = GroupPattern::from_bgp(&bgp);
        assert!(p.is_flat());
        assert_eq!(p.triples, bgp.patterns);
        let empty = GroupPattern::new();
        assert_eq!(empty.display(&i).to_string(), "{\n}");
        assert_eq!(empty, GroupPattern::from_bgp(&Bgp::default()));
    }
}
