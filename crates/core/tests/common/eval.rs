//! The answer oracle: evaluates a query over a dataset, and applies an
//! alignment rule set to a dataset, so a test can compare what a query
//! returns over the source data with what its rewrite returns over the
//! aligned data.
//!
//! It reads only the public AST and never calls into the rewriter (no
//! guard evaluation, no lhs matching), so it cannot share the rewriter's
//! bugs. Scope: BGPs, nested groups, UNION, and FILTER over `=`, `!=`,
//! `&&`, `||` and `!`. OPTIONAL and SERVICE are not evaluated yet.

use std::collections::{BTreeMap, BTreeSet};

use sparql_rewrite_core::{
    CmpOp, ExprNode, GroupPattern, Interner, PatternNode, Query, SelectList, Term, TermKind,
    TriplePattern, NO_NODE,
};

/// One solution mapping: variable → the term it is bound to.
pub type Solution = BTreeMap<Term, Term>;

/// The rules a test added to its store, kept by the test itself: `apply`
/// works from this list, never from the store.
#[derive(Default)]
pub struct Rules {
    /// `from ≡ to`, in the order added.
    pub entities: Vec<(Term, Term)>,
    /// `lhs ⇒ rhs` predicate templates, in the order added.
    pub templates: Vec<(TriplePattern, Vec<TriplePattern>)>,
}

impl Rules {
    /// What the entity rules map `t` to: the first rule for `t` wins, and a
    /// term no rule names maps to itself.
    pub fn entity(&self, t: Term) -> Term {
        self.entities
            .iter()
            .find(|&&(from, _)| from == t)
            .map_or(t, |&(_, to)| to)
    }
}

/// The aligned dataset. Every term of `data` is mapped through the entity
/// rules. Then each triple whose predicate has templates is replaced by
/// the templates that publish it, each instantiated with the triple's
/// subject and object for the lhs variables and one fresh blank node per
/// (triple, template, existential). `publish(i, j)` says whether triple `i`
/// is published under the `j`-th template (in rule order) of its
/// predicate. Every other triple passes through unchanged.
pub fn apply(
    rules: &Rules,
    data: &[TriplePattern],
    publish: impl Fn(usize, usize) -> bool,
    it: &mut Interner,
) -> Vec<TriplePattern> {
    let mut out = Vec::new();
    let mut blanks = 0;
    for (i, t) in data.iter().enumerate() {
        let [s, p, o] = t.terms().map(|t| rules.entity(t));
        let mut templates = rules
            .templates
            .iter()
            .filter(|(lhs, _)| lhs.p == p)
            .peekable();
        if templates.peek().is_none() {
            out.push(TriplePattern::new(s, p, o));
            continue;
        }
        for (j, (lhs, rhs)) in templates.enumerate() {
            if !publish(i, j) {
                continue;
            }
            let mut existentials: Vec<(Term, Term)> = Vec::new();
            let mut instantiate = |term: Term| {
                if term == lhs.s {
                    return s;
                }
                if term == lhs.o {
                    return o;
                }
                if !is_var(term) {
                    return term;
                }
                if let Some(&(_, b)) = existentials.iter().find(|&&(e, _)| e == term) {
                    return b;
                }
                let b = Term::blank(it.intern(&format!("apply{blanks}")));
                blanks += 1;
                existentials.push((term, b));
                b
            };
            for tp in rhs {
                let [s, p, o] = tp.terms().map(&mut instantiate);
                out.push(TriplePattern::new(s, p, o));
            }
        }
    }
    out
}

/// The variables an answer is projected onto: the SELECT list, or for
/// `SELECT *` every variable of the query's triple patterns.
pub fn variables(query: &Query) -> BTreeSet<Term> {
    match &query.select {
        SelectList::Vars(vars) => vars.iter().copied().collect(),
        SelectList::Star => query
            .pattern
            .triples
            .iter()
            .flat_map(|tp| tp.terms())
            .filter(|t| t.is_var())
            .collect(),
    }
}

/// The answers of `pattern` over `data`, each projected onto `vars`, as a
/// set.
pub fn answers(
    pattern: &GroupPattern,
    data: &[TriplePattern],
    vars: &BTreeSet<Term>,
) -> BTreeSet<Solution> {
    let rows = if pattern.root == NO_NODE {
        vec![Solution::new()]
    } else {
        eval_node(pattern, pattern.root, data)
    };
    rows.into_iter()
        .map(|mut row| {
            row.retain(|v, _| vars.contains(v));
            row
        })
        .collect()
}

/// A pattern position that binds: parsed and rewriter-minted variables, and
/// blank nodes, which a BGP treats as non-distinguished variables.
fn is_var(t: Term) -> bool {
    matches!(t.kind(), TermKind::Var | TermKind::Fresh | TermKind::Blank)
}

fn eval_node(p: &GroupPattern, idx: u32, data: &[TriplePattern]) -> Vec<Solution> {
    match p.nodes[idx as usize] {
        PatternNode::Triples { .. } => eval_bgp(p.run(idx), data),
        PatternNode::Group { first } => eval_group(p, first, data),
        PatternNode::Union { first } => p
            .children_from(first)
            .flat_map(|branch| eval_node(p, branch, data))
            .collect(),
        PatternNode::Filter { .. } => unreachable!("a FILTER is evaluated by its group"),
        PatternNode::Optional { .. } | PatternNode::Service { .. } => {
            panic!("the oracle does not evaluate OPTIONAL or SERVICE")
        }
    }
}

/// A group joins its children, then keeps the rows on which every FILTER
/// of the group is true: a FILTER constrains its whole group, wherever it
/// stands in it.
fn eval_group(p: &GroupPattern, first: u32, data: &[TriplePattern]) -> Vec<Solution> {
    let mut rows = vec![Solution::new()];
    let mut filters = Vec::new();
    for child in p.children_from(first) {
        match p.nodes[child as usize] {
            PatternNode::Filter { expr } => filters.push(expr),
            _ => rows = join(&rows, &eval_node(p, child, data)),
        }
    }
    rows.retain(|row| {
        filters
            .iter()
            .all(|&e| eval_expr(&p.exprs, e, row) == Some(true))
    });
    rows
}

/// Nested-loop join of a BGP's triple patterns against every data triple.
fn eval_bgp(patterns: &[TriplePattern], data: &[TriplePattern]) -> Vec<Solution> {
    let mut rows = vec![Solution::new()];
    for tp in patterns {
        rows = rows
            .iter()
            .flat_map(|row| data.iter().filter_map(move |t| extend(row, tp, t)))
            .collect();
    }
    rows
}

/// `row` extended so that `tp` matches the data triple `t`, if it can be.
fn extend(row: &Solution, tp: &TriplePattern, t: &TriplePattern) -> Option<Solution> {
    let mut row = row.clone();
    for (pt, dt) in tp.terms().into_iter().zip(t.terms()) {
        if !is_var(pt) {
            if pt != dt {
                return None;
            }
        } else if *row.entry(pt).or_insert(dt) != dt {
            return None;
        }
    }
    Some(row)
}

fn join(left: &[Solution], right: &[Solution]) -> Vec<Solution> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if r.iter().all(|(v, t)| l.get(v).is_none_or(|b| b == t)) {
                let mut row = l.clone();
                row.extend(r.iter().map(|(&v, &t)| (v, t)));
                out.push(row);
            }
        }
    }
    out
}

/// Three-valued FILTER evaluation: `Some(true)`, `Some(false)`, or `None`
/// for an error (an unbound variable), which drops the row like false but
/// survives `!`. Equality is term identity.
fn eval_expr(exprs: &[ExprNode], e: u32, row: &Solution) -> Option<bool> {
    match exprs[e as usize] {
        ExprNode::Cmp(op, l, r) => {
            let (a, b) = (operand(exprs, l, row)?, operand(exprs, r, row)?);
            match op {
                CmpOp::Eq => Some(a == b),
                CmpOp::Ne => Some(a != b),
                _ => panic!("the oracle compares by term identity only: = and !="),
            }
        }
        ExprNode::And(l, r) => match (eval_expr(exprs, l, row), eval_expr(exprs, r, row)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        ExprNode::Or(l, r) => match (eval_expr(exprs, l, row), eval_expr(exprs, r, row)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        ExprNode::Not(c) => eval_expr(exprs, c, row).map(|b| !b),
        ExprNode::Term(_) => panic!("the oracle takes no effective boolean value of a term"),
    }
}

/// A comparison operand's value: the term itself, or a variable's binding
/// (`None` when it is unbound).
fn operand(exprs: &[ExprNode], e: u32, row: &Solution) -> Option<Term> {
    match exprs[e as usize] {
        ExprNode::Term(t) if is_var(t) => row.get(&t).copied(),
        ExprNode::Term(t) => Some(t),
        _ => panic!("the oracle compares terms, not expressions"),
    }
}

/// `t` as SPARQL text, for failure messages.
pub fn show(t: Term, it: &Interner) -> String {
    match t.kind() {
        TermKind::Iri => format!("<{}>", it.resolve(t.symbol())),
        TermKind::Literal => it.resolve(t.symbol()).to_string(),
        TermKind::Blank => format!("_:{}", it.resolve(t.symbol())),
        TermKind::Var => format!("?{}", it.resolve(t.symbol())),
        TermKind::Fresh => format!("?fresh{}", t.fresh_index()),
    }
}
