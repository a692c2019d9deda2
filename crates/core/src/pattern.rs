//! Triple patterns, basic graph patterns, group graph patterns, and queries
//! — plus rendering a query back to valid SPARQL text.
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
//! [`Interner`] that minted them (or a clone of it). A whole query is the
//! only unit that renders: [`render_query_into`] writes it into a reusable
//! buffer, and [`Query::to_sparql`] returns it as a new `String`.
//!
//! # Fresh-variable rendering
//!
//! [`TermKind::Fresh`] terms carry a counter, not a string; their `g{n}`
//! names are materialized here, lazily. To keep the rendered text
//! capture-free even though the *structural* guarantee (fresh ≠ any parsed
//! var) does not survive textual round-trips, the renderer scans the whole
//! query (pattern and projection) for parsed variables already named `g{k}`
//! and offsets every fresh counter past the largest such `k`. Distinct
//! counters map to distinct names and no name collides with a query
//! variable, so rendered output re-parses to a query with identical
//! solutions.

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
        p.set_bgp(&bgp.patterns);
        p
    }

    /// Make this pattern the flat BGP `triples`, as [`GroupPattern::from_bgp`]
    /// builds it, keeping the buffers' capacity.
    pub(crate) fn set_bgp(&mut self, triples: &[TriplePattern]) {
        self.clear();
        let first = if triples.is_empty() {
            NO_NODE
        } else {
            self.triples.extend_from_slice(triples);
            self.push_node(PatternNode::Triples {
                start: 0,
                len: triples.len() as u32,
            })
        };
        self.root = self.push_node(PatternNode::Group { first });
    }

    /// Append a node with no sibling yet; returns its index. Link it into a
    /// child chain afterwards via [`ChainBuilder`] (or by writing `next`).
    #[inline]
    pub(crate) fn push_node(&mut self, node: PatternNode) -> u32 {
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
    pub(crate) fn root_first(&self) -> u32 {
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

    /// Replace every term [`GroupPattern::terms`] yields with `f` of it.
    pub(crate) fn map_terms(&mut self, mut f: impl FnMut(Term) -> Term) {
        for tp in &mut self.triples {
            *tp = TriplePattern::new(f(tp.s), f(tp.p), f(tp.o));
        }
        for e in &mut self.exprs {
            if let ExprNode::Term(t) = e {
                *t = f(*t);
            }
        }
        for n in &mut self.nodes {
            if let PatternNode::Service { endpoint, .. } = n {
                *endpoint = f(*endpoint);
            }
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
pub(crate) struct ChainBuilder {
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

/// A parsed SELECT query: projection plus one group graph pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// Projected variables, or `None` for `SELECT *`; the parser guarantees
    /// every term is a variable.
    pub select: Option<Vec<Term>>,
    pub pattern: GroupPattern,
}

impl Query {
    /// Borrowed view of this query; the shape the scratch-based serve
    /// pipeline passes between stages.
    #[inline]
    pub fn as_ref(&self) -> QueryRef<'_> {
        QueryRef {
            select: self.select.as_deref(),
            pattern: &self.pattern,
        }
    }

    /// Render as SPARQL text: [`render_query_into`] into a new `String`.
    pub fn to_sparql(&self, interner: &Interner) -> String {
        let (mut fresh_base, mut out) = (String::new(), String::new());
        render_query_into(self.as_ref(), interner, &mut fresh_base, &mut out);
        out
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

/// Render `query` as SPARQL text into `out` (cleared first). This is the
/// zero-alloc render path: with `out` warm (capacity from a previous call) a
/// call performs no heap allocations unless the query uses `g{k}` variable
/// names with more than 19 digits. Only then is `fresh_base` used: it holds
/// the fresh-name offset as a decimal string (the arbitrary-precision
/// fallback). Below that the offset is a `u64`, and every byte is appended
/// with `String::push_str` / `push`, never through `core::fmt`.
pub fn render_query_into(
    query: QueryRef<'_>,
    interner: &Interner,
    fresh_base: &mut String,
    out: &mut String,
) {
    let fresh_base = fresh_render_base_into(query.terms(), interner, fresh_base);
    out.clear();
    write_query(out, query, interner, fresh_base);
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

/// The offset a rendering adds to every fresh counter.
#[derive(Copy, Clone)]
enum FreshBase<'a> {
    /// At most 10^19, so `base + index` never leaves `u64`.
    Int(u64),
    /// Past 19 digits: a canonical decimal numeral.
    Digits(&'a str),
}

/// Compute the smallest counter offset such that no rendered fresh name
/// `g{base + n}` collides with a parsed variable of the rendered value: one
/// past the largest `k` of any variable literally named `g{k}`. Canonical
/// decimals compare numerically by (length, lexicographic). A `k` of up to
/// 19 digits gives an integer base; a longer one, the arbitrary-precision
/// fallback, writes the base into `digits` (cleared first) and allocates.
fn fresh_render_base_into<'d>(
    terms: impl Iterator<Item = Term>,
    interner: &Interner,
    digits: &'d mut String,
) -> FreshBase<'d> {
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
    digits.clear();
    match max {
        None => FreshBase::Int(0),
        // ≤19 decimal digits: below 10^19, so the base is at most 10^19 and
        // adding a fresh index (< 2^29) stays below u64::MAX.
        Some(m) if m.len() <= 19 => {
            FreshBase::Int(m.parse::<u64>().expect("canonical decimal fits u64") + 1)
        }
        Some(m) => {
            digits.push_str(&decimal_add(m, 1));
            FreshBase::Digits(digits)
        }
    }
}

/// Write `n` in decimal, digits filled from the right of a 20-byte buffer
/// (`u64::MAX` has 20).
fn write_decimal(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

fn write_term(out: &mut String, t: Term, interner: &Interner, fresh_base: FreshBase<'_>) {
    if t.kind() == TermKind::Fresh {
        out.push_str("?g");
        // The decimal-string fallback only triggers for queries using
        // `g{k}` names past 19 digits, and allocates.
        match fresh_base {
            FreshBase::Int(base) => write_decimal(out, base + t.fresh_index() as u64),
            FreshBase::Digits(digits) => out.push_str(&decimal_add(digits, t.fresh_index())),
        }
        return;
    }
    let text = interner.resolve(t.symbol());
    match t.kind() {
        TermKind::Iri => {
            out.push('<');
            out.push_str(text);
            out.push('>');
        }
        // Literals are interned with their full surface form (quotes,
        // @lang / ^^datatype suffix) so they render verbatim.
        TermKind::Literal => out.push_str(text),
        TermKind::Blank => {
            out.push_str("_:");
            out.push_str(text);
        }
        TermKind::Var => {
            out.push('?');
            out.push_str(text);
        }
        TermKind::Fresh => unreachable!("handled above"),
    }
}

fn write_triple(
    out: &mut String,
    tp: &TriplePattern,
    interner: &Interner,
    fresh_base: FreshBase<'_>,
) {
    write_term(out, tp.s, interner, fresh_base);
    out.push(' ');
    write_term(out, tp.p, interner, fresh_base);
    out.push(' ');
    write_term(out, tp.o, interner, fresh_base);
    out.push_str(" .");
}

fn write_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Render a filter expression. Non-leaf operands are parenthesized
/// unconditionally, which keeps rendering deterministic and makes
/// `render → parse → render` a fixpoint (parentheses do not create nodes).
fn write_expr(
    out: &mut String,
    p: &GroupPattern,
    e: u32,
    interner: &Interner,
    fresh_base: FreshBase<'_>,
) {
    let operand = |out: &mut String, c: u32| {
        if let ExprNode::Term(t) = p.exprs[c as usize] {
            write_term(out, t, interner, fresh_base);
        } else {
            out.push('(');
            write_expr(out, p, c, interner, fresh_base);
            out.push(')');
        }
    };
    match p.exprs[e as usize] {
        ExprNode::Term(t) => write_term(out, t, interner, fresh_base),
        ExprNode::Cmp(op, l, r) => {
            operand(out, l);
            out.push(' ');
            out.push_str(op.as_str());
            out.push(' ');
            operand(out, r);
        }
        ExprNode::And(l, r) => {
            operand(out, l);
            out.push_str(" && ");
            operand(out, r);
        }
        ExprNode::Or(l, r) => {
            operand(out, l);
            out.push_str(" || ");
            operand(out, r);
        }
        ExprNode::Not(c) => {
            out.push('!');
            operand(out, c);
        }
    }
}

/// Render one pattern node (and its subtree) at `depth`, each line
/// indented and newline-terminated.
fn write_node(
    out: &mut String,
    p: &GroupPattern,
    idx: u32,
    interner: &Interner,
    fresh_base: FreshBase<'_>,
    depth: usize,
) {
    match p.nodes[idx as usize] {
        PatternNode::Triples { .. } => {
            for tp in p.run(idx) {
                write_indent(out, depth);
                write_triple(out, tp, interner, fresh_base);
                out.push('\n');
            }
        }
        PatternNode::Group { first } => {
            write_indent(out, depth);
            out.push_str("{\n");
            for c in p.children_from(first) {
                write_node(out, p, c, interner, fresh_base, depth + 1);
            }
            write_indent(out, depth);
            out.push_str("}\n");
        }
        PatternNode::Optional { first } => {
            write_indent(out, depth);
            out.push_str("OPTIONAL {\n");
            for c in p.children_from(first) {
                write_node(out, p, c, interner, fresh_base, depth + 1);
            }
            write_indent(out, depth);
            out.push_str("}\n");
        }
        PatternNode::Union { first } => {
            for (i, branch) in p.children_from(first).enumerate() {
                if i > 0 {
                    write_indent(out, depth);
                    out.push_str("UNION\n");
                }
                write_node(out, p, branch, interner, fresh_base, depth);
            }
        }
        PatternNode::Filter { expr } => {
            write_indent(out, depth);
            out.push_str("FILTER(");
            write_expr(out, p, expr, interner, fresh_base);
            out.push_str(")\n");
        }
        PatternNode::Service { endpoint, first } => {
            write_indent(out, depth);
            out.push_str("SERVICE ");
            write_term(out, endpoint, interner, fresh_base);
            out.push_str(" {\n");
            for c in p.children_from(first) {
                write_node(out, p, c, interner, fresh_base, depth + 1);
            }
            write_indent(out, depth);
            out.push_str("}\n");
        }
    }
}

/// Render a full query: projection, then the pattern as `{ ... }` (no
/// trailing newline).
fn write_query(out: &mut String, q: QueryRef<'_>, interner: &Interner, fresh_base: FreshBase<'_>) {
    out.push_str("SELECT");
    match q.select {
        None => out.push_str(" *"),
        Some(vars) => {
            for &v in vars {
                out.push(' ');
                write_term(out, v, interner, fresh_base);
            }
        }
    }
    out.push_str(" WHERE {\n");
    for c in q.pattern.root_children() {
        write_node(out, q.pattern, c, interner, fresh_base, 1);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Render `pattern` as the whole query `SELECT * WHERE { ... }`.
    fn render(pattern: GroupPattern, i: &Interner) -> String {
        Query {
            select: None,
            pattern,
        }
        .to_sparql(i)
    }

    fn render_bgp(triples: &[TriplePattern], i: &Interner) -> String {
        render(GroupPattern::from_bgp(&Bgp::new(triples.to_vec())), i)
    }

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
        let tp2 = TriplePattern::new(
            Term::blank(i.intern("b0")),
            Term::iri(i.intern("http://ex.org/p")),
            Term::literal(i.intern("\"hi\"@en")),
        );
        assert_eq!(
            render_bgp(&[tp, tp2], &i),
            "SELECT * WHERE {\n  \
             ?s <http://ex.org/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n  \
             _:b0 <http://ex.org/p> \"hi\"@en .\n}"
        );
    }

    #[test]
    fn renders_fresh_terms_with_lazy_names() {
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let tp = TriplePattern::new(Term::fresh(0), p, Term::fresh(1));
        assert_eq!(
            render_bgp(&[tp], &i),
            "SELECT * WHERE {\n  ?g0 <http://ex.org/p> ?g1 .\n}"
        );
    }

    #[test]
    fn fresh_rendering_dodges_query_g_vars() {
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let g0 = Term::var(i.intern("g0"));
        let g3 = Term::var(i.intern("g3"));
        // Query uses parsed ?g0 and ?g3; fresh 0 and 1 must render past g3.
        let text = render_bgp(
            &[
                TriplePattern::new(g0, p, g3),
                TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
            ],
            &i,
        );
        assert!(text.contains("?g0 <http://ex.org/p> ?g3"), "{text}");
        assert!(text.contains("?g4 <http://ex.org/p> ?g5"), "{text}");
    }

    #[test]
    fn fresh_rendering_ignores_non_canonical_g_names() {
        // "gx", "g1x" and "g007" are not canonical g{digits} names.
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let gx = Term::var(i.intern("gx"));
        let g1x = Term::var(i.intern("g1x"));
        let g007 = Term::var(i.intern("g007"));
        let text = render_bgp(
            &[
                TriplePattern::new(gx, p, g1x),
                TriplePattern::new(g007, p, g007),
                TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
            ],
            &i,
        );
        assert!(text.contains("?g0 <http://ex.org/p> ?g1"), "{text}");
    }

    #[test]
    fn fresh_rendering_survives_u32_max_g_var() {
        // A parsed variable named g4294967295 (k = u32::MAX) must push the
        // base past u32 entirely — no collision, no overflow.
        let mut i = Interner::new();
        let p = Term::iri(i.intern("http://ex.org/p"));
        let gmax = Term::var(i.intern("g4294967295"));
        let text = render_bgp(
            &[
                TriplePattern::new(gmax, p, gmax),
                TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
            ],
            &i,
        );
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
        let text = render_bgp(
            &[
                TriplePattern::new(gmax, p, Term::fresh(0)),
                TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
            ],
            &i,
        );
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
        let text = render_bgp(
            &[
                TriplePattern::new(gmax, p, Term::fresh(0)),
                TriplePattern::new(Term::fresh(0), p, Term::fresh(1)),
            ],
            &i,
        );
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
    fn write_decimal_matches_display() {
        for n in [0, 7, 9, 10, 99, 100, 10u64.pow(19), u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            write_decimal(&mut out, n);
            assert_eq!(out, n.to_string());
        }
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
        // A serve handle's own term: request-local, rendered from its table.
        let parsed = crate::parse_query("SELECT * WHERE { ?s ?s ?o }", &mut worker).unwrap();
        let o = parsed.pattern.triples[0].o;
        let tp2 = TriplePattern::new(tp.s, tp.p, o);
        assert_eq!(
            render_bgp(&[tp, tp2], &worker),
            "SELECT * WHERE {\n  ?s <http://ex.org/p> ?g2 .\n  ?s <http://ex.org/p> ?o .\n}"
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
        assert_eq!(
            render(p, &i),
            "SELECT * WHERE {\n  ?s0 <http://ex.org/p0> ?o0 .\n  OPTIONAL {\n    ?s1 <http://ex.org/p1> ?o1 .\n  }\n  \
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
            render(p.clone(), &i),
            "SELECT * WHERE {\n  SERVICE <http://fed.example.org/sparql> {\n    ?s0 <http://ex.org/p0> ?o0 .\n  }\n}"
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
        let text = render(q, &i);
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

    /// Every node kind (nested group, OPTIONAL, 3-way UNION, SERVICE on an
    /// IRI and on a variable, a FILTER with all six comparisons, `&&`, `||`
    /// and nested `!`) and every term kind. `?fresh{n}` variables in the
    /// text are replaced by `Term::fresh(n)` after parsing; `extra` is one
    /// more projected variable, which sets the fresh-name base.
    fn pin_query(i: &mut Interner, extra: &str) -> Query {
        let text = format!(
            "PREFIX ex: <http://ex.org/>
             SELECT ?s ?o {extra} WHERE {{
               ?s ex:p ?o . ?s ex:name \"plain\" . ?s ex:label \"chat\"@fr .
               ?s ex:age \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .
               _:b0 ex:knows ?fresh0 .
               {{ ?s ex:q ?fresh1 . {{ ?fresh1 ex:r ?fresh9 }} }}
               OPTIONAL {{ ?s ex:opt ?fresh10 }}
               {{ ?s ex:u1 ?a }} UNION {{ ?s ex:u2 ?fresh536870911 }} UNION {{ ?s ex:u3 ?c }}
               SERVICE <http://fed.example.org/sparql> {{ ?s ex:remote ?d }}
               SERVICE ?ep {{ ?s ex:remote2 ?fresh2 }}
               FILTER(((?o = 1) || (?o != \"x\")) && !(!((?a < 2) && (?a <= 3.5)
                      || (?c > true) && (?c >= ?fresh1))))
             }}"
        );
        let mut q = crate::parser::parse_query(&text, i).unwrap();
        let fresh = |t: Term| match i.resolve(t.symbol()).strip_prefix("fresh") {
            Some(n) if t.kind() == TermKind::Var => Term::fresh(n.parse().unwrap()),
            _ => t,
        };
        for tp in &mut q.pattern.triples {
            *tp = TriplePattern::new(fresh(tp.s), fresh(tp.p), fresh(tp.o));
        }
        for e in &mut q.pattern.exprs {
            if let ExprNode::Term(t) = e {
                *t = fresh(*t);
            }
        }
        q
    }

    /// [`pin_query`]'s rendering, recorded before the writer stopped using
    /// `core::fmt`. `{G}` is the extra projected variable and `{fN}` the
    /// rendered name of `Term::fresh(N)` (`{fM}`: N = 536870911, the
    /// largest fresh counter).
    const PINNED: &str = "SELECT ?s ?o{G} WHERE {\n  ?s <http://ex.org/p> ?o .\n  \
        ?s <http://ex.org/name> \"plain\" .\n  ?s <http://ex.org/label> \"chat\"@fr .\n  \
        ?s <http://ex.org/age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n  \
        _:b0 <http://ex.org/knows> ?{f0} .\n  {\n    ?s <http://ex.org/q> ?{f1} .\n    {\n      \
        ?{f1} <http://ex.org/r> ?{f9} .\n    }\n  }\n  OPTIONAL {\n    \
        ?s <http://ex.org/opt> ?{f10} .\n  }\n  {\n    ?s <http://ex.org/u1> ?a .\n  }\n  \
        UNION\n  {\n    ?s <http://ex.org/u2> ?{fM} .\n  }\n  UNION\n  {\n    \
        ?s <http://ex.org/u3> ?c .\n  }\n  SERVICE <http://fed.example.org/sparql> {\n    \
        ?s <http://ex.org/remote> ?d .\n  }\n  SERVICE ?ep {\n    \
        ?s <http://ex.org/remote2> ?{f2} .\n  }\n  \
        FILTER(((?o = \"1\"^^<http://www.w3.org/2001/XMLSchema#integer>) || (?o != \"x\")) && \
        (!(!(((?a < \"2\"^^<http://www.w3.org/2001/XMLSchema#integer>) && \
        (?a <= \"3.5\"^^<http://www.w3.org/2001/XMLSchema#decimal>)) || \
        ((?c > \"true\"^^<http://www.w3.org/2001/XMLSchema#boolean>) && (?c >= ?{f1}))))))\n}";

    #[test]
    fn render_pins_every_node_and_term_kind() {
        // (extra projected variable, names of fresh 0, 1, 2, 9, 10, M). The
        // bases are 0, 10^19 (the largest on the integer path), u64::MAX + 1
        // and u128::MAX + 1 (both past 19 digits).
        let cases: [(&str, [&str; 6]); 4] = [
            ("", ["g0", "g1", "g2", "g9", "g10", "g536870911"]),
            (
                " ?g9999999999999999999",
                [
                    "g10000000000000000000",
                    "g10000000000000000001",
                    "g10000000000000000002",
                    "g10000000000000000009",
                    "g10000000000000000010",
                    "g10000000000536870911",
                ],
            ),
            (
                " ?g18446744073709551615",
                [
                    "g18446744073709551616",
                    "g18446744073709551617",
                    "g18446744073709551618",
                    "g18446744073709551625",
                    "g18446744073709551626",
                    "g18446744074246422527",
                ],
            ),
            (
                " ?g340282366920938463463374607431768211455",
                [
                    "g340282366920938463463374607431768211456",
                    "g340282366920938463463374607431768211457",
                    "g340282366920938463463374607431768211458",
                    "g340282366920938463463374607431768211465",
                    "g340282366920938463463374607431768211466",
                    "g340282366920938463463374607432305082367",
                ],
            ),
        ];
        let mut i = Interner::new();
        let (mut fresh_base, mut out) = (String::new(), String::new());
        for (extra, names) in cases {
            let mut expected = PINNED.replace("{G}", extra);
            for (slot, name) in ["{f0}", "{f1}", "{f2}", "{f9}", "{f10}", "{fM}"]
                .into_iter()
                .zip(names)
            {
                expected = expected.replace(slot, name);
            }
            let q = pin_query(&mut i, extra);
            render_query_into(q.as_ref(), &i, &mut fresh_base, &mut out);
            assert_eq!(out, expected);
            assert_eq!(q.to_sparql(&i), expected);
        }
    }

    #[test]
    fn from_bgp_is_flat_and_empty_pattern_renders() {
        let mut i = Interner::new();
        let bgp = Bgp::new(vec![sample_triple(&mut i, 0)]);
        let p = GroupPattern::from_bgp(&bgp);
        assert!(p.is_flat());
        assert_eq!(p.triples, bgp.patterns);
        let empty = GroupPattern::new();
        assert_eq!(empty, GroupPattern::from_bgp(&Bgp::default()));
        assert_eq!(render(empty, &i), "SELECT * WHERE {\n}");
    }
}
