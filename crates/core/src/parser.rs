//! Zero-copy tokenizer and parser for the SELECT/WHERE group-graph-pattern
//! fragment of SPARQL.
//!
//! The tokenizer yields `&str` slices borrowing from the input; nothing is
//! allocated until a term's final text is known (after PREFIX expansion for
//! QNames), at which point it is interned once. Supported syntax:
//!
//! ```sparql
//! PREFIX foaf: <http://xmlns.com/foaf/0.1/>
//! SELECT ?name ?mbox
//! WHERE {
//!   ?x foaf:name ?name ; foaf:mbox ?mbox .
//!   ?x a foaf:Person .
//!   OPTIONAL { ?x foaf:age ?age }
//!   { ?x foaf:nick ?n } UNION { ?x foaf:givenName ?n }
//!   FILTER(?age >= 18 && ?name != "Nobody")
//! }
//! ```
//!
//! Triple blocks support `;` (predicate-object lists) and `,` (object
//! lists); `a` expands to `rdf:type`. Group graph patterns support nesting,
//! `OPTIONAL`, n-ary `UNION`, and `FILTER` with comparison (`=`, `!=`, `<`,
//! `<=`, `>`, `>=`) and logical (`&&`, `||`, `!`) expressions over
//! variables, IRIs, and literals. Bare numeric (`42`, `3.14`, `-7`) and
//! boolean (`true` / `false`) tokens are sugar for xsd-typed literals.
//! `SERVICE <endpoint> { ... }` (endpoint an IRI or a variable) parses to a
//! [`PatternNode::Service`] group for the federation layer. GRAPH/MINUS
//! remain out of scope and produce a parse error. Nesting — groups and
//! parenthesised or negated FILTER expressions together — is capped at
//! 128 levels, so no query can recurse the parser (or anything downstream
//! of it) off a worker's stack.
//!
//! Parse errors carry the byte offset of the **start** of the offending
//! token (not wherever the tokenizer cursor happens to sit after
//! lookahead), so editors can point at the right spot.
//!
//! The tokenizer is the crate's only SPARQL lexer. The serve cache keys
//! on raw request bytes and never lexes; `canonicalize` builds a canonical
//! token stream from the tokenizer for the benchmark's canonical
//! fingerprint layer only.

use std::fmt;

use crate::interner::Interner;
use crate::pattern::{
    Bgp, ChainBuilder, CmpOp, ExprNode, GroupPattern, PatternNode, Query, QueryRef, TriplePattern,
};
use crate::smallvec::SmallVec;
use crate::term::Term;

pub(crate) const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
pub(crate) const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
pub(crate) const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
pub(crate) const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

/// Deepest nesting a query may have. Two depths are held to it:
///
/// - the parser's own: group-pattern levels (`{`, including the `WHERE`
///   group and `OPTIONAL` / `UNION` / `SERVICE` bodies) plus the `(` open
///   inside a FILTER;
/// - the tree's: the groups around a FILTER plus the height of its
///   expression tree, where every operator (`||`, `&&`, a comparison, `!`)
///   is one level. `?a && ?b && ...` parses in a loop but builds a
///   left-deep tree, one level per operator.
///
/// The rewriter and the renderer recurse once per tree level, so this
/// bounds the stack the whole pipeline needs: at the cap it is under 1 MiB
/// in a debug build, half of a server worker's default 2 MiB. One level
/// more is a [`ParseError`] at the token that crosses it: an opener, or the
/// operator that makes the tree too tall (for a run of `!`, its first `!`).
const MAX_NESTING: u32 = 128;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    /// Byte offset into the input where the error was detected — the start
    /// of the offending token for parser-level errors, the exact byte for
    /// tokenizer-level ones.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Tokens borrow from the query string — the tokenizer allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    /// `<...>` with brackets stripped.
    IriRef(&'a str),
    /// `prefix:local` (either part may be empty).
    QName(&'a str),
    /// `?x` / `$x` with the sigil stripped.
    Var(&'a str),
    /// Full literal surface form including quotes and any @lang/^^ suffix.
    Literal(&'a str),
    /// Bare numeric literal (`42`, `-3.14`); `decimal` is true when it
    /// contains a fraction dot.
    Numeric {
        text: &'a str,
        decimal: bool,
    },
    /// `_:label` with the `_:` stripped.
    Blank(&'a str),
    /// A bare word: SELECT, WHERE, PREFIX, `a`, `*`, `true`, …
    Word(&'a str),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Semicolon,
    Comma,
    /// `!` (standalone, not `!=`).
    Bang,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `=`, `!=`, `<`, `<=`, `>`, `>=`.
    Cmp(CmpOp),
}

struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// Byte offset where the most recently returned token started (== `pos`
    /// when the last call returned `None`). This — not the post-token
    /// cursor — is what parser-level errors report.
    last_start: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            input,
            pos: 0,
            last_start: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_trivia(&mut self) {
        let b = self.bytes();
        while self.pos < b.len() {
            match b[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'#' => {
                    while self.pos < b.len() && b[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// Byte span of `s` within the input. `s` must be a subslice of the
    /// input (every token text is).
    #[inline]
    fn span_of(&self, s: &str) -> (u32, u32) {
        let start = s.as_ptr() as usize - self.input.as_ptr() as usize;
        (start as u32, (start + s.len()) as u32)
    }

    /// Read the PREFIX prologue, handing each `PREFIX name: <iri>`
    /// declaration to `record` in order, and return the first token after
    /// it. Errors point at the start of the offending token.
    fn prologue(
        &mut self,
        record: &mut impl FnMut(PrefixSpan),
    ) -> Result<Option<Token<'a>>, ParseError> {
        loop {
            match self.next()? {
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("PREFIX") => {}
                other => return Ok(other),
            }
            let at_token = |t: &Self, message: &str| ParseError {
                message: message.into(),
                offset: t.last_start,
            };
            let Some(Token::QName(q)) = self.next()? else {
                return Err(at_token(self, "expected 'name:' after PREFIX"));
            };
            let Some(name) = q.strip_suffix(':') else {
                return Err(at_token(self, "prefix declaration must end with ':'"));
            };
            let Some(Token::IriRef(iri)) = self.next()? else {
                return Err(at_token(self, "expected <IRI> after prefix name"));
            };
            let ((name_start, name_end), (iri_start, iri_end)) =
                (self.span_of(name), self.span_of(iri));
            record(PrefixSpan {
                name_start,
                name_end,
                iri_start,
                iri_end,
            });
        }
    }

    /// Scan a literal starting at the opening quote; returns the full
    /// surface form (quotes, escapes, and any `@lang` / `^^iri-or-qname`
    /// suffix included) as one borrowed slice.
    fn scan_literal(&mut self) -> Result<Token<'a>, ParseError> {
        let b = self.bytes();
        let start = self.pos;
        debug_assert_eq!(b[self.pos], b'"');
        self.pos += 1;
        loop {
            match b.get(self.pos) {
                None => return Err(self.err("unterminated string literal")),
                Some(b'\\') => {
                    if self.pos + 1 >= b.len() {
                        return Err(self.err("dangling escape in literal"));
                    }
                    self.pos += 2;
                }
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
            }
        }
        // Optional @lang
        if b.get(self.pos) == Some(&b'@') {
            self.pos += 1;
            let tag_start = self.pos;
            while self
                .bytes()
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'-')
            {
                self.pos += 1;
            }
            if self.pos == tag_start {
                return Err(self.err("empty language tag"));
            }
        } else if b.get(self.pos) == Some(&b'^') && b.get(self.pos + 1) == Some(&b'^') {
            self.pos += 2;
            if b.get(self.pos) == Some(&b'<') {
                while self.pos < b.len() && b[self.pos] != b'>' {
                    self.pos += 1;
                }
                if b.get(self.pos) != Some(&b'>') {
                    return Err(self.err("unterminated datatype IRI"));
                }
                self.pos += 1;
            } else {
                let dt_start = self.pos;
                while self
                    .bytes()
                    .get(self.pos)
                    .is_some_and(|c| is_name_byte(*c) || *c == b':')
                {
                    self.pos += 1;
                }
                if self.pos == dt_start {
                    return Err(self.err("empty datatype after '^^'"));
                }
            }
        }
        Ok(Token::Literal(&self.input[start..self.pos]))
    }

    /// Scan a bare numeric literal (`42`, `3.14`, optionally signed). The
    /// fraction dot is consumed only when a digit follows, so `3 .` and the
    /// triple-terminating `3.` still tokenize as integer-then-Dot.
    fn scan_numeric(&mut self) -> Result<Token<'a>, ParseError> {
        let b = self.bytes();
        let start = self.pos;
        if b[self.pos] == b'+' || b[self.pos] == b'-' {
            self.pos += 1;
        }
        while b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let mut decimal = false;
        if b.get(self.pos) == Some(&b'.') && b.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
            decimal = true;
            self.pos += 1;
            while b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
        }
        // `3abc` / `1e5` would otherwise split into number + word and
        // silently corrupt the triple block — reject at the digit boundary.
        if b.get(self.pos).is_some_and(|c| is_name_byte(*c)) {
            return Err(self.err("malformed numeric literal"));
        }
        Ok(Token::Numeric {
            text: &self.input[start..self.pos],
            decimal,
        })
    }

    /// At a `<`: an IRI reference if a legal IRIREF body terminated by `>`
    /// follows, otherwise the `<` / `<=` comparison operator. (SPARQL
    /// IRIREF bodies exclude whitespace, quotes, braces, and `<`, so
    /// `FILTER(?x < ?y)` is unambiguous, while `<=x>` stays the IRI "=x" —
    /// the IRI interpretation wins whenever one exists.)
    fn scan_angle(&mut self) -> Token<'a> {
        let b = self.bytes();
        debug_assert_eq!(b[self.pos], b'<');
        let mut end = self.pos + 1;
        while end < b.len() && is_iri_byte(b[end]) {
            end += 1;
        }
        if b.get(end) == Some(&b'>') {
            let start = self.pos + 1;
            self.pos = end + 1;
            Token::IriRef(&self.input[start..end])
        } else if b.get(self.pos + 1) == Some(&b'=') {
            self.pos += 2;
            Token::Cmp(CmpOp::Le)
        } else {
            self.pos += 1;
            Token::Cmp(CmpOp::Lt)
        }
    }

    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.skip_trivia();
        self.last_start = self.pos;
        let b = self.bytes();
        let Some(&c) = b.get(self.pos) else {
            return Ok(None);
        };
        let tok = match c {
            b'{' => {
                self.pos += 1;
                Token::LBrace
            }
            b'}' => {
                self.pos += 1;
                Token::RBrace
            }
            b'(' => {
                self.pos += 1;
                Token::LParen
            }
            b')' => {
                self.pos += 1;
                Token::RParen
            }
            b'.' => {
                self.pos += 1;
                Token::Dot
            }
            b';' => {
                self.pos += 1;
                Token::Semicolon
            }
            b',' => {
                self.pos += 1;
                Token::Comma
            }
            b'*' => {
                self.pos += 1;
                Token::Word("*")
            }
            b'=' => {
                self.pos += 1;
                Token::Cmp(CmpOp::Eq)
            }
            b'!' => {
                if b.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Token::Cmp(CmpOp::Ne)
                } else {
                    self.pos += 1;
                    Token::Bang
                }
            }
            b'>' => {
                if b.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Token::Cmp(CmpOp::Ge)
                } else {
                    self.pos += 1;
                    Token::Cmp(CmpOp::Gt)
                }
            }
            b'&' => {
                if b.get(self.pos + 1) == Some(&b'&') {
                    self.pos += 2;
                    Token::AndAnd
                } else {
                    return Err(self.err("expected '&&'"));
                }
            }
            b'|' => {
                if b.get(self.pos + 1) == Some(&b'|') {
                    self.pos += 2;
                    Token::OrOr
                } else {
                    return Err(self.err("expected '||'"));
                }
            }
            b'<' => self.scan_angle(),
            b'?' | b'$' => {
                let start = self.pos + 1;
                let mut end = start;
                while end < b.len() && is_name_byte(b[end]) {
                    end += 1;
                }
                if end == start {
                    return Err(self.err("empty variable name"));
                }
                self.pos = end;
                Token::Var(&self.input[start..end])
            }
            b'"' => self.scan_literal()?,
            b'_' if b.get(self.pos + 1) == Some(&b':') => {
                let start = self.pos + 2;
                let mut end = start;
                while end < b.len() && is_name_byte(b[end]) {
                    end += 1;
                }
                if end == start {
                    return Err(self.err("empty blank node label"));
                }
                self.pos = end;
                Token::Blank(&self.input[start..end])
            }
            c if c.is_ascii_digit() => self.scan_numeric()?,
            b'+' | b'-' if b.get(self.pos + 1).is_some_and(u8::is_ascii_digit) => {
                self.scan_numeric()?
            }
            c if is_name_byte(c) || c == b':' => {
                let start = self.pos;
                let mut end = start;
                let mut has_colon = false;
                while end < b.len() && (is_name_byte(b[end]) || (b[end] == b':' && !has_colon)) {
                    if b[end] == b':' {
                        has_colon = true;
                    }
                    end += 1;
                }
                self.pos = end;
                let text = &self.input[start..end];
                if has_colon {
                    Token::QName(text)
                } else {
                    Token::Word(text)
                }
            }
            other => return Err(self.err(format!("unexpected byte 0x{other:02x}"))),
        };
        Ok(Some(tok))
    }
}

const NAME_BYTE: u8 = 1;
const IRI_BYTE: u8 = 2;

/// Byte classes of the tokenizer's scan loops, one table load per byte.
static BYTE_CLASS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let c = i as u8;
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || !c.is_ascii() {
            t[i] |= NAME_BYTE;
        }
        // IRIREF bodies exclude control/space and `<ESC>`-class
        // punctuation per the grammar.
        if !(c <= 0x20
            || matches!(
                c,
                b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
            ))
        {
            t[i] |= IRI_BYTE;
        }
        i += 1;
    }
    t
};

/// Bytes of variable names, blank labels, words and QName parts.
#[inline]
fn is_name_byte(c: u8) -> bool {
    BYTE_CLASS[c as usize] & NAME_BYTE != 0
}

/// Bytes legal inside a SPARQL IRIREF body (`<...>`).
#[inline]
fn is_iri_byte(c: u8) -> bool {
    BYTE_CLASS[c as usize] & IRI_BYTE != 0
}

/// One `PREFIX name: <iri>` declaration as byte spans into the input. The
/// parser keeps its table in a caller-owned [`ParseScratch`] so re-parsing
/// reuses its capacity, `canonicalize` keeps its own on the stack; spans
/// (not borrowed `&str`s) keep the scratch free of the input's lifetime.
#[derive(Copy, Clone, Debug, Default)]
struct PrefixSpan {
    name_start: u32,
    name_end: u32,
    iri_start: u32,
    iri_end: u32,
}

/// Split a QName at its first colon and resolve the prefix against
/// `prefixes` (spans into `input`; later declarations shadow earlier ones,
/// matching SPARQL prologue semantics). Returns `(base, local)`, whose
/// concatenation is the QName's IRI.
///
/// The tokenizer only emits QNames containing a colon, but a serve worker
/// must never be one refactor away from a panic on user-supplied query
/// text, so the invariant degrades to an error instead of an `expect`.
fn expand_qname<'a>(
    input: &'a str,
    prefixes: &[PrefixSpan],
    qname: &'a str,
) -> Result<(&'a str, &'a str), String> {
    let colon = qname.find(':').ok_or("malformed QName: missing ':'")?;
    let prefix = &qname[..colon];
    let base = prefixes
        .iter()
        .rev()
        .find_map(|p| {
            let name = &input[p.name_start as usize..p.name_end as usize];
            (name == prefix).then(|| &input[p.iri_start as usize..p.iri_end as usize])
        })
        .ok_or_else(|| format!("undeclared prefix '{prefix}:'"))?;
    Ok((base, &qname[colon + 1..]))
}

/// Feed the canonical spelling of literal token `lit` to `out`, in pieces:
/// the quoted body verbatim, a language tag lowercased (RDF lang tags are
/// case-insensitive, so `"x"@EN` and `"x"@en` are one term), a `^^<iri>`
/// datatype verbatim, and a `^^prefix:local` datatype expanded to
/// `^^<iri>` (so rendered output needs no PREFIX declaration and the QName
/// and full-IRI spellings of one literal are one term).
fn spell_literal<'a>(
    input: &'a str,
    prefixes: &[PrefixSpan],
    lit: &'a str,
    out: &mut impl FnMut(&str),
) -> Result<(), String> {
    // Tokenizer invariant (closing quote present) downgraded to an error
    // rather than a panic — same rationale as `expand_qname`.
    let close = lit
        .rfind('"')
        .ok_or("malformed literal: missing closing '\"'")?;
    let (quoted, suffix) = lit.split_at(close + 1);
    if let Some(tag) = suffix.strip_prefix('@') {
        out(quoted);
        out("@");
        for c in tag.chars() {
            out(c.to_ascii_lowercase().encode_utf8(&mut [0; 4]));
        }
    } else if let Some(dtype) = suffix.strip_prefix("^^").filter(|d| !d.starts_with('<')) {
        let (base, local) = expand_qname(input, prefixes, dtype)?;
        for s in [quoted, "^^<", base, local, ">"] {
            out(s);
        }
    } else {
        out(lit);
    }
    Ok(())
}

/// Feed the canonical spelling of query text `input` to `sink`: every
/// token after the PREFIX prologue, with one `b' '` between tokens. Texts
/// with equal canonical bytes parse to one query, or all fail to parse,
/// and the canonical bytes are themselves a spelling of that query — the
/// rewrite cache's canonical key hashes them.
///
/// Spellings: `$x` becomes `?x`; a QName (also as a `^^` datatype) becomes
/// `<base+local>` through the text's own prologue, which itself feeds
/// nothing; a language tag is lowercased (the parser's own term rules,
/// shared). A bare word is fed ASCII-uppercased, except `a`, `true`,
/// `false` and `*`, fed verbatim — sound only while the parser matches
/// every bare word case-insensitively or rejects it, except those four.
/// Every other token is fed as its source text.
///
/// Returns `None` where the tokenizer, the prologue or a QName expansion
/// fails, which `parse_query` rejects too. Allocation-free for up to 8
/// PREFIX declarations on text that canonicalizes.
pub(crate) fn canonicalize(input: &str, sink: &mut impl FnMut(&[u8])) -> Option<()> {
    let mut tok = Tokenizer::new(input);
    let mut prefixes = SmallVec::<PrefixSpan, 8>::new();
    let mut next = tok.prologue(&mut |p| prefixes.push(p)).ok()?;
    let mut sep: &[u8] = b"";
    while let Some(t) = next {
        sink(sep);
        sep = b" ";
        match t {
            Token::QName(q) => {
                let (base, local) = expand_qname(input, prefixes.as_slice(), q).ok()?;
                for s in ["<", base, local, ">"] {
                    sink(s.as_bytes());
                }
            }
            Token::Var(v) => {
                sink(b"?");
                sink(v.as_bytes());
            }
            Token::Literal(l) => {
                spell_literal(input, prefixes.as_slice(), l, &mut |s| sink(s.as_bytes())).ok()?
            }
            Token::Word(w) if !matches!(w, "a" | "true" | "false" | "*") => {
                for b in w.bytes() {
                    sink(&[b.to_ascii_uppercase()]);
                }
            }
            _ => sink(&input.as_bytes()[tok.last_start..tok.pos]),
        }
        next = tok.next().ok()?;
    }
    Some(())
}

/// Caller-owned scratch for allocation-free parsing.
///
/// Holds every buffer the parser needs per query — the output group-pattern
/// tree, the projection, the PREFIX table, and the QName-expansion string —
/// so a warm [`parse_query_into`] call performs **zero heap allocations**
/// provided every string in the query has been interned before (the
/// steady-state of a serve loop, where the first pass over a workload warms
/// both the scratch and the interner).
#[derive(Default, Debug)]
pub struct ParseScratch {
    pattern: GroupPattern,
    select: Vec<Term>,
    select_star: bool,
    prefixes: Vec<PrefixSpan>,
    expand_buf: String,
}

impl ParseScratch {
    pub fn new() -> ParseScratch {
        ParseScratch::default()
    }

    /// The group pattern of the last [`parse_query_into`] call. Only
    /// meaningful when that call returned `Ok`: a failed parse leaves the
    /// buffers cleared or partially written, never the previous query.
    #[inline]
    pub fn pattern(&self) -> &GroupPattern {
        &self.pattern
    }

    /// Projection of the last parse: `None` for `SELECT *`, otherwise the
    /// projected variables. Like [`ParseScratch::pattern`], only meaningful
    /// after an `Ok` parse.
    #[inline]
    pub fn select(&self) -> Option<&[Term]> {
        if self.select_star {
            None
        } else {
            Some(&self.select)
        }
    }

    /// Borrowed query view over the last parse — hand this to
    /// [`crate::rewriter::Rewriter::rewrite_ref_into`] without assembling an
    /// owned [`Query`].
    #[inline]
    pub fn query_ref(&self) -> QueryRef<'_> {
        QueryRef {
            select: self.select(),
            pattern: &self.pattern,
        }
    }

    /// Move the last parse out as an owned [`Query`], leaving empty (but
    /// deallocated) buffers behind. Build-phase convenience; the serve loop
    /// uses [`ParseScratch::query_ref`] instead.
    fn into_query(self) -> Query {
        Query {
            select: (!self.select_star).then_some(self.select),
            pattern: self.pattern,
        }
    }
}

/// A parsed FILTER sub-expression: its node in `exprs` and the height of
/// the tree under it (a bare term is 0).
#[derive(Copy, Clone)]
struct SubExpr {
    node: u32,
    height: u32,
}

/// Parser state: a tokenizer with one token of lookahead, plus the
/// scratch-owned PREFIX table and QName-expansion buffer, and the interner
/// terms are minted into.
struct Parser<'a, 'i, 'p> {
    tok: Tokenizer<'a>,
    /// One token of lookahead plus the byte offset it started at.
    peeked: Option<(Token<'a>, usize)>,
    /// Start offset of the most recently observed token (consumed *or*
    /// peeked) — the position parser-level errors report.
    err_off: usize,
    prefixes: &'p mut Vec<PrefixSpan>,
    interner: &'i mut Interner,
    /// Nesting levels currently open; see [`MAX_NESTING`].
    depth: u32,
    /// Height the current FILTER's expression tree may reach: the levels
    /// its enclosing groups leave under [`MAX_NESTING`].
    expr_room: u32,
    // Scratch buffer reused for every QName expansion to avoid a fresh
    // allocation per term.
    expand_buf: &'p mut String,
}

impl<'a, 'i, 'p> Parser<'a, 'i, 'p> {
    fn new(
        input: &'a str,
        interner: &'i mut Interner,
        prefixes: &'p mut Vec<PrefixSpan>,
        expand_buf: &'p mut String,
    ) -> Parser<'a, 'i, 'p> {
        prefixes.clear();
        Parser {
            tok: Tokenizer::new(input),
            peeked: None,
            err_off: 0,
            prefixes,
            interner,
            depth: 0,
            expr_room: 0,
            expand_buf,
        }
    }

    fn next_token(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        if let Some((t, off)) = self.peeked.take() {
            self.err_off = off;
            return Ok(Some(t));
        }
        let t = self.tok.next()?;
        self.err_off = self.tok.last_start;
        Ok(t)
    }

    fn peek(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        if self.peeked.is_none() {
            self.peeked = self.tok.next()?.map(|t| (t, self.tok.last_start));
        }
        // An error raised while looking at the peeked token should point at
        // it, not at wherever the cursor stopped after scanning it.
        self.err_off = self
            .peeked
            .map(|(_, off)| off)
            .unwrap_or(self.tok.last_start);
        Ok(self.peeked.map(|(t, _)| t))
    }

    fn expect(&mut self, what: &str) -> Result<Token<'a>, ParseError> {
        self.next_token()?
            .ok_or_else(|| self.err(format!("unexpected end of input, expected {what}")))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.err_off,
        }
    }

    /// Open one nesting level for the token just consumed; past
    /// [`MAX_NESTING`] the parse fails at that token. The caller closes the
    /// level on success (an error ends the parse, so it never needs to).
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Push expression operator `node` over children at most `below` tall.
    /// A tree taller than `expr_room` fails at the operator's
    /// token, which started at byte `at`.
    fn push_op(
        &self,
        out: &mut GroupPattern,
        node: ExprNode,
        below: u32,
        at: usize,
    ) -> Result<SubExpr, ParseError> {
        let height = below + 1;
        if height > self.expr_room {
            return Err(ParseError {
                message: format!("nesting deeper than {MAX_NESTING} levels"),
                offset: at,
            });
        }
        Ok(SubExpr {
            node: out.push_expr(node),
            height,
        })
    }

    /// Expand a QName against the PREFIX table and intern the result.
    fn intern_qname(&mut self, qname: &'a str) -> Result<Term, ParseError> {
        let (base, local) =
            expand_qname(self.tok.input, self.prefixes, qname).map_err(|m| self.err(m))?;
        self.expand_buf.clear();
        self.expand_buf.push_str(base);
        self.expand_buf.push_str(local);
        Ok(Term::iri(self.interner.intern(self.expand_buf)))
    }

    /// Intern a literal in its canonical spelling ([`spell_literal`]).
    fn intern_literal(&mut self, lit: &'a str) -> Result<Term, ParseError> {
        self.expand_buf.clear();
        let buf = &mut *self.expand_buf;
        spell_literal(self.tok.input, self.prefixes, lit, &mut |s| buf.push_str(s))
            .map_err(|m| self.err(m))?;
        Ok(Term::literal(self.interner.intern(self.expand_buf)))
    }

    /// Intern a bare literal token (`42`, `3.14`, `true`) as its xsd-typed
    /// quoted form, so the sugar and the explicit `"42"^^<xsd:integer>`
    /// spelling share a symbol and render identically.
    fn intern_typed(&mut self, text: &str, datatype: &str) -> Term {
        self.expand_buf.clear();
        self.expand_buf.push('"');
        self.expand_buf.push_str(text);
        self.expand_buf.push_str("\"^^<");
        self.expand_buf.push_str(datatype);
        self.expand_buf.push('>');
        Term::literal(self.interner.intern(self.expand_buf))
    }

    fn parse_term(&mut self, tok: Token<'a>, position: &str) -> Result<Term, ParseError> {
        match tok {
            Token::IriRef(iri) => Ok(Term::iri(self.interner.intern(iri))),
            Token::QName(q) => self.intern_qname(q),
            Token::Var(v) => Ok(Term::var(self.interner.intern(v))),
            Token::Literal(l) => self.intern_literal(l),
            // Bare-literal sugar is legal only where a literal is: object
            // position and FILTER expressions, never as subject or verb.
            Token::Numeric { text, decimal } if matches!(position, "object" | "expression") => {
                Ok(self.intern_typed(text, if decimal { XSD_DECIMAL } else { XSD_INTEGER }))
            }
            Token::Blank(b) => Ok(Term::blank(self.interner.intern(b))),
            Token::Word("a") if position == "predicate" => {
                Ok(Term::iri(self.interner.intern(RDF_TYPE)))
            }
            Token::Word(w @ ("true" | "false")) if matches!(position, "object" | "expression") => {
                Ok(self.intern_typed(w, XSD_BOOLEAN))
            }
            other => Err(self.err(format!("expected {position} term, found {other:?}"))),
        }
    }

    /// Read the prologue into the PREFIX table; must run before any token
    /// is peeked. The first token after it becomes the lookahead.
    fn parse_prologue(&mut self) -> Result<(), ParseError> {
        let prefixes = &mut *self.prefixes;
        let first = self.tok.prologue(&mut |p| prefixes.push(p))?;
        self.peeked = first.map(|t| (t, self.tok.last_start));
        Ok(())
    }

    /// Parse the projection into `vars` (cleared first); returns `true` for
    /// `SELECT *`.
    fn parse_select(&mut self, vars: &mut Vec<Term>) -> Result<bool, ParseError> {
        vars.clear();
        match self.expect("SELECT")? {
            Token::Word(w) if w.eq_ignore_ascii_case("SELECT") => {}
            other => return Err(self.err(format!("expected SELECT, found {other:?}"))),
        }
        match self.peek()? {
            Some(Token::Word("*")) => {
                self.next_token()?;
                Ok(true)
            }
            _ => {
                while let Some(Token::Var(v)) = self.peek()? {
                    self.next_token()?;
                    vars.push(Term::var(self.interner.intern(v)));
                }
                if vars.is_empty() {
                    return Err(self.err("SELECT needs '*' or at least one variable"));
                }
                Ok(false)
            }
        }
    }

    /// Parse `{ GroupGraphPattern }` into `out`, returning the index of the
    /// created [`PatternNode::Group`]. The leading `{` is consumed here.
    fn parse_group(&mut self, out: &mut GroupPattern) -> Result<u32, ParseError> {
        match self.expect("'{'")? {
            Token::LBrace => {}
            other => return Err(self.err(format!("expected '{{', found {other:?}"))),
        }
        let first = self.parse_group_body(out)?;
        Ok(out.push_node(PatternNode::Group { first }))
    }

    /// Parse group contents up to and including the closing `}`, returning
    /// the head of the child chain. The opening `{` must already be
    /// consumed. Triple blocks accumulate into maximal [`PatternNode::
    /// Triples`] runs; OPTIONAL / UNION / FILTER / nested groups close the
    /// current run and become siblings.
    fn parse_group_body(&mut self, out: &mut GroupPattern) -> Result<u32, ParseError> {
        self.descend()?;
        let mut chain = ChainBuilder::new();
        let mut run_start = out.triples.len();
        macro_rules! flush_run {
            () => {
                if out.triples.len() > run_start {
                    let node = out.push_node(PatternNode::Triples {
                        start: run_start as u32,
                        len: (out.triples.len() - run_start) as u32,
                    });
                    chain.push(out, node);
                }
            };
        }
        loop {
            match self.peek()? {
                Some(Token::RBrace) => {
                    self.next_token()?;
                    flush_run!();
                    break;
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    flush_run!();
                    self.next_token()?;
                    match self.expect("'{' after OPTIONAL")? {
                        Token::LBrace => {}
                        other => {
                            return Err(
                                self.err(format!("expected '{{' after OPTIONAL, found {other:?}"))
                            )
                        }
                    }
                    let inner = self.parse_group_body(out)?;
                    let node = out.push_node(PatternNode::Optional { first: inner });
                    chain.push(out, node);
                    self.skip_optional_dot()?;
                    run_start = out.triples.len();
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    flush_run!();
                    self.next_token()?;
                    match self.expect("'(' after FILTER")? {
                        Token::LParen => {}
                        other => {
                            return Err(
                                self.err(format!("expected '(' after FILTER, found {other:?}"))
                            )
                        }
                    }
                    self.expr_room = MAX_NESTING - self.depth;
                    let expr = self.parse_expr(out)?.node;
                    match self.expect("')' closing FILTER")? {
                        Token::RParen => {}
                        other => {
                            return Err(
                                self.err(format!("expected ')' closing FILTER, found {other:?}"))
                            )
                        }
                    }
                    let node = out.push_node(PatternNode::Filter { expr });
                    chain.push(out, node);
                    self.skip_optional_dot()?;
                    run_start = out.triples.len();
                }
                Some(Token::LBrace) => {
                    flush_run!();
                    // GroupOrUnion: `{...}` optionally followed by one or
                    // more `UNION {...}`.
                    self.next_token()?;
                    let inner = self.parse_group_body(out)?;
                    let group = out.push_node(PatternNode::Group { first: inner });
                    let mut branches = ChainBuilder::new();
                    branches.push(out, group);
                    let mut n_branches = 1u32;
                    while let Some(Token::Word(w)) = self.peek()? {
                        if !w.eq_ignore_ascii_case("UNION") {
                            break;
                        }
                        self.next_token()?;
                        match self.expect("'{' after UNION")? {
                            Token::LBrace => {}
                            other => {
                                return Err(
                                    self.err(format!("expected '{{' after UNION, found {other:?}"))
                                )
                            }
                        }
                        let inner = self.parse_group_body(out)?;
                        let b = out.push_node(PatternNode::Group { first: inner });
                        branches.push(out, b);
                        n_branches += 1;
                    }
                    let node = if n_branches == 1 {
                        group
                    } else {
                        out.push_node(PatternNode::Union {
                            first: branches.first(),
                        })
                    };
                    chain.push(out, node);
                    self.skip_optional_dot()?;
                    run_start = out.triples.len();
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("SERVICE") => {
                    flush_run!();
                    self.next_token()?;
                    let tok = self.expect("endpoint after SERVICE")?;
                    let endpoint = match tok {
                        Token::IriRef(iri) => Term::iri(self.interner.intern(iri)),
                        Token::QName(q) => self.intern_qname(q)?,
                        Token::Var(v) => Term::var(self.interner.intern(v)),
                        other => {
                            return Err(self.err(format!(
                                "SERVICE endpoint must be an IRI or a variable, found {other:?}"
                            )))
                        }
                    };
                    match self.expect("'{' after SERVICE endpoint")? {
                        Token::LBrace => {}
                        other => {
                            return Err(self.err(format!(
                                "expected '{{' after SERVICE endpoint, found {other:?}"
                            )))
                        }
                    }
                    let inner = self.parse_group_body(out)?;
                    let node = out.push_node(PatternNode::Service {
                        endpoint,
                        first: inner,
                    });
                    chain.push(out, node);
                    self.skip_optional_dot()?;
                    run_start = out.triples.len();
                }
                Some(Token::Word(w))
                    if ["GRAPH", "MINUS"]
                        .iter()
                        .any(|kw| w.eq_ignore_ascii_case(kw)) =>
                {
                    return Err(self.err(format!(
                        "{w} is not supported by the rewriter (see ROADMAP: federation/SERVICE)"
                    )));
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("UNION") => {
                    return Err(self.err("UNION must follow a '{...}' group"));
                }
                Some(_) => {
                    self.parse_triple_block(&mut out.triples)?;
                    // Optional '.' between blocks.
                    if self.peek()? == Some(Token::Dot) {
                        self.next_token()?;
                    }
                }
                None => return Err(self.err("unexpected end of input inside group pattern")),
            }
        }
        self.depth -= 1;
        Ok(chain.first())
    }

    /// Consume one optional `.` (legal after any group-pattern element).
    fn skip_optional_dot(&mut self) -> Result<(), ParseError> {
        if self.peek()? == Some(Token::Dot) {
            self.next_token()?;
        }
        Ok(())
    }

    // ---- FILTER expressions -------------------------------------------
    //
    // Precedence climbing: `||` < `&&` < comparison < unary `!` / primary.
    // Expression nodes are appended to `out.exprs`; functions return the
    // node index and the tree's height, which `push_op` caps.

    fn parse_expr(&mut self, out: &mut GroupPattern) -> Result<SubExpr, ParseError> {
        let mut lhs = self.parse_expr_and(out)?;
        while self.peek()? == Some(Token::OrOr) {
            self.next_token()?;
            let at = self.err_off;
            let rhs = self.parse_expr_and(out)?;
            let node = ExprNode::Or(lhs.node, rhs.node);
            lhs = self.push_op(out, node, lhs.height.max(rhs.height), at)?;
        }
        Ok(lhs)
    }

    fn parse_expr_and(&mut self, out: &mut GroupPattern) -> Result<SubExpr, ParseError> {
        let mut lhs = self.parse_expr_rel(out)?;
        while self.peek()? == Some(Token::AndAnd) {
            self.next_token()?;
            let at = self.err_off;
            let rhs = self.parse_expr_rel(out)?;
            let node = ExprNode::And(lhs.node, rhs.node);
            lhs = self.push_op(out, node, lhs.height.max(rhs.height), at)?;
        }
        Ok(lhs)
    }

    fn parse_expr_rel(&mut self, out: &mut GroupPattern) -> Result<SubExpr, ParseError> {
        let lhs = self.parse_expr_primary(out)?;
        if let Some(Token::Cmp(op)) = self.peek()? {
            self.next_token()?;
            let at = self.err_off;
            let rhs = self.parse_expr_primary(out)?;
            let node = ExprNode::Cmp(op, lhs.node, rhs.node);
            return self.push_op(out, node, lhs.height.max(rhs.height), at);
        }
        Ok(lhs)
    }

    fn parse_expr_primary(&mut self, out: &mut GroupPattern) -> Result<SubExpr, ParseError> {
        match self.expect("expression")? {
            Token::LParen => {
                self.descend()?;
                let e = self.parse_expr(out)?;
                self.depth -= 1;
                match self.expect("')'")? {
                    Token::RParen => Ok(e),
                    other => Err(self.err(format!("expected ')', found {other:?}"))),
                }
            }
            // A run of `!` is read in a loop, so it costs no parser depth,
            // only tree height: the renderer writes `!(…)`, and charging
            // both the `!` and its `(` would refuse our own rewrites.
            Token::Bang => {
                let at = self.err_off;
                let mut bangs = 1;
                while self.peek()? == Some(Token::Bang) {
                    self.next_token()?;
                    bangs += 1;
                }
                let mut e = self.parse_expr_primary(out)?;
                for _ in 0..bangs {
                    e = self.push_op(out, ExprNode::Not(e.node), e.height, at)?;
                }
                Ok(e)
            }
            tok => {
                let t = self.parse_term(tok, "expression")?;
                Ok(SubExpr {
                    node: out.push_expr(ExprNode::Term(t)),
                    height: 0,
                })
            }
        }
    }

    fn parse_triple_block(&mut self, patterns: &mut Vec<TriplePattern>) -> Result<(), ParseError> {
        let tok = self.expect("subject term")?;
        let subject = self.parse_term(tok, "subject")?;
        loop {
            let tok = self.expect("predicate term")?;
            let predicate = self.parse_term(tok, "predicate")?;
            loop {
                let tok = self.expect("object term")?;
                let object = self.parse_term(tok, "object")?;
                patterns.push(TriplePattern::new(subject, predicate, object));
                if self.peek()? == Some(Token::Comma) {
                    self.next_token()?;
                } else {
                    break;
                }
            }
            if self.peek()? == Some(Token::Semicolon) {
                self.next_token()?;
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Full-query grammar, writing the projection into `select` (star flag
    /// returned) and the pattern into `pattern`.
    fn parse_query_body(
        &mut self,
        select: &mut Vec<Term>,
        pattern: &mut GroupPattern,
    ) -> Result<bool, ParseError> {
        self.parse_prologue()?;
        let star = self.parse_select(select)?;
        match self.expect("WHERE")? {
            Token::Word(w) if w.eq_ignore_ascii_case("WHERE") => {}
            // Bare `{ ... }` without the WHERE keyword is legal SPARQL.
            Token::LBrace => {
                self.peeked = Some((Token::LBrace, self.err_off));
            }
            other => return Err(self.err(format!("expected WHERE, found {other:?}"))),
        }
        pattern.root = self.parse_group(pattern)?;
        if let Some(tok) = self.next_token()? {
            return Err(self.err(format!("trailing input after query: {tok:?}")));
        }
        Ok(star)
    }
}

/// Parse a full SELECT query into caller-owned scratch buffers. The parsed
/// query is readable via [`ParseScratch::query_ref`] (or copied out with
/// owned types via [`parse_query`]). With a warm scratch and a warm
/// interner — every string already seen — a call performs **zero heap
/// allocations**; this is the parse stage of the zero-alloc serve pipeline.
pub fn parse_query_into(
    input: &str,
    interner: &mut Interner,
    scratch: &mut ParseScratch,
) -> Result<(), ParseError> {
    scratch.pattern.clear();
    scratch.select_star = false;
    let ParseScratch {
        pattern,
        select,
        select_star,
        prefixes,
        expand_buf,
    } = scratch;
    let mut parser = Parser::new(input, interner, prefixes, expand_buf);
    *select_star = parser.parse_query_body(select, pattern)?;
    Ok(())
}

/// Parse a full SELECT query, interning all terms into `interner`.
/// Convenience wrapper over [`parse_query_into`] that allocates a fresh
/// [`ParseScratch`] and returns an owned [`Query`].
pub fn parse_query(input: &str, interner: &mut Interner) -> Result<Query, ParseError> {
    let mut scratch = ParseScratch::new();
    parse_query_into(input, interner, &mut scratch)?;
    Ok(scratch.into_query())
}

/// Parse a bare BGP — a brace-less triple-pattern list, with an optional
/// PREFIX prologue and optional surrounding `{ }`. Used for rule templates,
/// which are flat by design: OPTIONAL/UNION/FILTER in a template is a parse
/// error here.
pub fn parse_bgp(input: &str, interner: &mut Interner) -> Result<Bgp, ParseError> {
    let mut prefixes = Vec::new();
    let mut expand_buf = String::new();
    Parser::new(input, interner, &mut prefixes, &mut expand_buf).parse_bgp_entry()
}

impl Parser<'_, '_, '_> {
    fn parse_bgp_entry(mut self) -> Result<Bgp, ParseError> {
        self.parse_prologue()?;
        let mut patterns = Vec::new();
        if self.peek()? == Some(Token::LBrace) {
            self.next_token()?;
            self.parse_flat_bgp_body(&mut patterns)?;
            if let Some(tok) = self.next_token()? {
                return Err(self.err(format!("trailing input after '}}': {tok:?}")));
            }
            return Ok(Bgp::new(patterns));
        }
        while self.peek()?.is_some() {
            self.parse_triple_block(&mut patterns)?;
            if self.peek()? == Some(Token::Dot) {
                self.next_token()?;
            }
        }
        Ok(Bgp::new(patterns))
    }

    /// `{ triples }` with no group-pattern constructs — the rule-template
    /// fragment.
    fn parse_flat_bgp_body(&mut self, patterns: &mut Vec<TriplePattern>) -> Result<(), ParseError> {
        loop {
            match self.peek()? {
                Some(Token::RBrace) => {
                    self.next_token()?;
                    return Ok(());
                }
                Some(Token::Word(w))
                    if ["OPTIONAL", "UNION", "FILTER", "GRAPH", "SERVICE", "MINUS"]
                        .iter()
                        .any(|kw| w.eq_ignore_ascii_case(kw)) =>
                {
                    return Err(self.err(format!("{w} is not allowed in a rule template BGP")));
                }
                Some(_) => {
                    self.parse_triple_block(patterns)?;
                    if self.peek()? == Some(Token::Dot) {
                        self.next_token()?;
                    }
                }
                None => return Err(self.err("unexpected end of input inside group pattern")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermKind;

    fn parse(q: &str) -> (Query, Interner) {
        let mut it = Interner::new();
        let query = parse_query(q, &mut it).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
        (query, it)
    }

    #[test]
    fn parses_nested_group_shapes() {
        let (q, _it) = parse(
            "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?r } \
             { ?a <http://b> ?c } UNION { ?d <http://e> ?f } UNION { ?g <http://h> ?i } \
             FILTER(?o > 3) }",
        );
        let kinds: Vec<_> = q
            .pattern
            .root_children()
            .map(|c| q.pattern.nodes[c as usize])
            .collect();
        assert!(matches!(kinds[0], PatternNode::Triples { len: 1, .. }));
        assert!(matches!(kinds[1], PatternNode::Optional { .. }));
        assert!(matches!(kinds[2], PatternNode::Union { .. }));
        assert!(matches!(kinds[3], PatternNode::Filter { .. }));
        assert_eq!(kinds.len(), 4);
        // Union has three branches.
        let PatternNode::Union { first } = kinds[2] else {
            unreachable!()
        };
        assert_eq!(q.pattern.children_from(first).count(), 3);
    }

    #[test]
    fn parses_service_groups() {
        let (q, it) = parse(
            "PREFIX fed: <http://fed.example.org/> SELECT * WHERE { \
             ?s <http://p> ?o . \
             SERVICE fed:sparql { ?s <http://q> ?r . OPTIONAL { ?r <http://t> ?u } } \
             SERVICE ?ep { ?a <http://b> ?c } }",
        );
        let kinds: Vec<_> = q
            .pattern
            .root_children()
            .map(|c| q.pattern.nodes[c as usize])
            .collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(kinds[0], PatternNode::Triples { len: 1, .. }));
        let PatternNode::Service { endpoint, first } = kinds[1] else {
            panic!("expected Service, got {:?}", kinds[1]);
        };
        assert_eq!(endpoint.kind(), TermKind::Iri);
        assert_eq!(
            it.resolve(endpoint.symbol()),
            "http://fed.example.org/sparql"
        );
        assert_eq!(q.pattern.children_from(first).count(), 2);
        let PatternNode::Service { endpoint, .. } = kinds[2] else {
            panic!("expected Service, got {:?}", kinds[2]);
        };
        assert!(endpoint.is_var());
        assert_eq!(it.resolve(endpoint.symbol()), "ep");
    }

    #[test]
    fn single_braced_group_is_not_a_union() {
        let (q, _) = parse("SELECT * WHERE { { ?s <http://p> ?o } }");
        let kinds: Vec<_> = q
            .pattern
            .root_children()
            .map(|c| q.pattern.nodes[c as usize])
            .collect();
        assert_eq!(kinds.len(), 1);
        assert!(matches!(kinds[0], PatternNode::Group { .. }));
    }

    #[test]
    fn numeric_and_boolean_literals_parse_as_typed_literals() {
        let (q, it) = parse(
            "SELECT * WHERE { ?s <http://p> 42 . ?s <http://q> 3.14 . \
             ?s <http://r> true . ?s <http://t> -7 }",
        );
        let o = |n: usize| -> String {
            let t = q.pattern.triples[n].o;
            it.resolve(t.symbol()).to_string()
        };
        assert_eq!(o(0), format!("\"42\"^^<{XSD_INTEGER}>"));
        assert_eq!(o(1), format!("\"3.14\"^^<{XSD_DECIMAL}>"));
        assert_eq!(o(2), format!("\"true\"^^<{XSD_BOOLEAN}>"));
        assert_eq!(o(3), format!("\"-7\"^^<{XSD_INTEGER}>"));
        // Bare and quoted spellings share one symbol.
        let (q2, _) = {
            let mut it2 = Interner::new();
            let a = parse_query("SELECT * WHERE { ?s <http://p> 42 }", &mut it2).unwrap();
            let b = parse_query(
                &format!("SELECT * WHERE {{ ?s <http://p> \"42\"^^<{XSD_INTEGER}> }}"),
                &mut it2,
            )
            .unwrap();
            assert_eq!(a.pattern.triples[0].o, b.pattern.triples[0].o);
            (a, it2)
        };
        assert!(q2.pattern.is_flat());
    }

    #[test]
    fn integer_then_dot_terminates_triple_block() {
        // `3 .` and `3.` both mean integer-3 then end-of-block — the dot is
        // part of the literal only when a digit follows.
        for q in [
            "SELECT * WHERE { ?s <http://p> 3 . ?s <http://q> ?o }",
            "SELECT * WHERE { ?s <http://p> 3. ?s <http://q> ?o }",
        ] {
            let (parsed, it) = parse(q);
            assert_eq!(parsed.pattern.triples.len(), 2, "{q}");
            assert_eq!(
                it.resolve(parsed.pattern.triples[0].o.symbol()),
                format!("\"3\"^^<{XSD_INTEGER}>")
            );
        }
    }

    #[test]
    fn malformed_numeric_is_rejected() {
        let mut it = Interner::new();
        for q in [
            "SELECT * WHERE { ?s <http://p> 3abc }",
            "SELECT * WHERE { ?s <http://p> 1e5 }",
        ] {
            assert!(parse_query(q, &mut it).is_err(), "accepted {q}");
        }
    }

    #[test]
    fn bare_literals_only_legal_in_object_and_expression_position() {
        let mut it = Interner::new();
        // A literal can never be the subject or the verb of a triple.
        for q in [
            "SELECT * WHERE { ?s 42 ?o }",
            "SELECT * WHERE { 42 <http://p> ?o }",
            "SELECT * WHERE { ?s true ?o }",
            "SELECT * WHERE { true <http://p> ?o }",
        ] {
            assert!(parse_query(q, &mut it).is_err(), "accepted {q}");
        }
    }

    #[test]
    fn iri_bodies_starting_with_equals_are_still_iris() {
        // `<=` must only lex as the Le operator when no `>`-terminated
        // IRIREF follows: `<=x>` is the (odd but legal) IRI "=x".
        let (q, it) = parse("SELECT * WHERE { ?s ?p <=x> FILTER(?s <= 3) }");
        let o = q.pattern.triples[0].o;
        assert_eq!(o.kind(), TermKind::Iri);
        assert_eq!(it.resolve(o.symbol()), "=x");
        let filter = q
            .pattern
            .root_children()
            .find_map(|c| match q.pattern.nodes[c as usize] {
                PatternNode::Filter { expr } => Some(expr),
                _ => None,
            })
            .unwrap();
        assert!(matches!(
            q.pattern.exprs[filter as usize],
            ExprNode::Cmp(CmpOp::Le, _, _)
        ));
    }

    #[test]
    fn language_tags_are_case_normalized() {
        let mut it = Interner::new();
        let a = parse_query("SELECT * WHERE { ?s <http://p> \"x\"@EN }", &mut it).unwrap();
        let b = parse_query("SELECT * WHERE { ?s <http://p> \"x\"@en }", &mut it).unwrap();
        let c = parse_query("SELECT * WHERE { ?s <http://p> \"x\"@en-GB }", &mut it).unwrap();
        assert_eq!(a.pattern.triples[0].o, b.pattern.triples[0].o);
        assert_eq!(it.resolve(a.pattern.triples[0].o.symbol()), "\"x\"@en");
        assert_eq!(it.resolve(c.pattern.triples[0].o.symbol()), "\"x\"@en-gb");
    }

    #[test]
    fn filter_expression_precedence() {
        // `a || b && c` parses as `a || (b && c)`; comparison binds tighter.
        let (q, _) = parse("SELECT * WHERE { ?s <http://p> ?o FILTER(?a = 1 || ?b < 2 && ?c) }");
        let filter = q
            .pattern
            .root_children()
            .find_map(|c| match q.pattern.nodes[c as usize] {
                PatternNode::Filter { expr } => Some(expr),
                _ => None,
            })
            .expect("filter node");
        let ExprNode::Or(l, r) = q.pattern.exprs[filter as usize] else {
            panic!(
                "expected Or at root: {:?}",
                q.pattern.exprs[filter as usize]
            );
        };
        assert!(matches!(
            q.pattern.exprs[l as usize],
            ExprNode::Cmp(CmpOp::Eq, _, _)
        ));
        assert!(matches!(q.pattern.exprs[r as usize], ExprNode::And(_, _)));
    }

    #[test]
    fn filter_lt_vs_iri_disambiguation() {
        let (q, it) = parse("SELECT * WHERE { ?s <http://p> ?o FILTER(?o < <http://x> && ?o<3) }");
        let filter = q
            .pattern
            .root_children()
            .find_map(|c| match q.pattern.nodes[c as usize] {
                PatternNode::Filter { expr } => Some(expr),
                _ => None,
            })
            .unwrap();
        let ExprNode::And(l, r) = q.pattern.exprs[filter as usize] else {
            panic!("expected And");
        };
        let ExprNode::Cmp(CmpOp::Lt, _, iri) = q.pattern.exprs[l as usize] else {
            panic!("expected Lt");
        };
        let ExprNode::Term(t) = q.pattern.exprs[iri as usize] else {
            panic!()
        };
        assert_eq!(t.kind(), TermKind::Iri);
        assert_eq!(it.resolve(t.symbol()), "http://x");
        assert!(matches!(
            q.pattern.exprs[r as usize],
            ExprNode::Cmp(CmpOp::Lt, _, _)
        ));
    }

    #[test]
    fn error_offset_points_at_offending_token() {
        let mut it = Interner::new();
        // Wrong keyword after the projection: offset must be the start of
        // `FROM`, not the cursor position after peeking past it.
        let input = "SELECT ?x FROM <http://g> WHERE { ?x <http://p> ?o }";
        let err = parse_query(input, &mut it).unwrap_err();
        assert_eq!(err.offset, input.find("FROM").unwrap(), "{err}");

        // Peeked-keyword error: offset of GRAPH itself.
        let input = "SELECT * WHERE { ?s <http://p> ?o . GRAPH <http://g> { ?a <http://b> ?c } }";
        let err = parse_query(input, &mut it).unwrap_err();
        assert_eq!(err.offset, input.find("GRAPH").unwrap(), "{err}");

        // Bad term mid-triple: offset of the offending token, not the
        // token after it.
        let input = "SELECT * WHERE { ?s ?p ; ?o }";
        let err = parse_query(input, &mut it).unwrap_err();
        assert_eq!(err.offset, input.find(';').unwrap(), "{err}");

        // Illegal SERVICE endpoint: offset of the endpoint token itself.
        let input = "SELECT * WHERE { SERVICE \"lit\" { ?s <http://p> ?o } }";
        let err = parse_query(input, &mut it).unwrap_err();
        assert_eq!(err.offset, input.find('"').unwrap(), "{err}");
    }

    #[test]
    fn empty_group_and_nested_empty_groups_parse() {
        let (q, _) = parse("SELECT * WHERE { }");
        assert_eq!(q.pattern.root_children().count(), 0);
        let (q, _) = parse("SELECT * WHERE { { } OPTIONAL { } }");
        assert_eq!(q.pattern.root_children().count(), 2);
    }

    #[test]
    fn rule_templates_stay_flat() {
        let mut it = Interner::new();
        assert!(parse_bgp("?s <http://p> ?o . ?o <http://q> ?r", &mut it).is_ok());
        assert!(parse_bgp("{ ?s <http://p> ?o }", &mut it).is_ok());
        assert!(parse_bgp("{ OPTIONAL { ?s <http://p> ?o } }", &mut it).is_err());
        assert!(parse_bgp("{ ?s <http://p> ?o FILTER(?o > 3) }", &mut it).is_err());
    }

    /// Unwrap-site audit regression net: every malformed input a serve
    /// worker could receive must come back as `Err(ParseError)` — never a
    /// panic. The battery covers each tokenizer/parser invariant that is
    /// (or once was) backed by an `expect`: QName colon handling, literal
    /// quote/suffix scanning, numeric boundaries, operator pairs, and
    /// truncation at every structural position.
    #[test]
    fn malformed_user_input_errors_instead_of_panicking() {
        let mut it = Interner::new();
        let cases: &[&str] = &[
            "",
            " ",
            "SELECT",
            "SELECT *",
            "SELECT * WHERE",
            "SELECT * WHERE {",
            "SELECT * WHERE { ?s ?p ?o",
            "SELECT * WHERE { ?s ?p }",
            "SELECT ?",
            "SELECT * WHERE { ? <http://p> ?o }",
            // PREFIX prologue truncations and malformations.
            "PREFIX",
            "PREFIX x",
            "PREFIX x:",
            "PREFIX x: y",
            "PREFIX x:y <http://p>",
            "PREFIX : SELECT * WHERE { ?s ?p ?o }",
            // QName expansion paths (the former expect sites).
            "SELECT * WHERE { ?s und:declared ?o }",
            "PREFIX p: <http://x/> SELECT * WHERE { ?s q:zzz ?o }",
            // Literal scanning: unterminated bodies, dangling escapes,
            // empty/malformed suffixes.
            "SELECT * WHERE { ?s <http://p> \"unterminated }",
            "SELECT * WHERE { ?s <http://p> \"dangling\\",
            "SELECT * WHERE { ?s <http://p> \"x\"@ }",
            "SELECT * WHERE { ?s <http://p> \"x\"^^ }",
            "SELECT * WHERE { ?s <http://p> \"x\"^^nocolon }",
            "SELECT * WHERE { ?s <http://p> \"x\"^^und:decl }",
            "SELECT * WHERE { ?s <http://p> \"x\"^^<unterminated }",
            // Numerics and blanks.
            "SELECT * WHERE { ?s <http://p> 3abc }",
            "SELECT * WHERE { ?s <http://p> 1e5 }",
            "SELECT * WHERE { _: <http://p> ?o }",
            // Operator fragments.
            "SELECT * WHERE { ?s <http://p> ?o FILTER(?o & 1) }",
            "SELECT * WHERE { ?s <http://p> ?o FILTER(?o | 1) }",
            "SELECT * WHERE { ?s <http://p> ?o FILTER( }",
            "SELECT * WHERE { ?s <http://p> ?o FILTER(?o > ) }",
            // Structure errors.
            "SELECT * WHERE { } }",
            "SELECT * WHERE { UNION { ?s ?p ?o } }",
            "SELECT * WHERE { OPTIONAL ?s }",
            "SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o } }",
            "SELECT * WHERE { ?s ?p ?o } trailing",
            // SERVICE truncations and malformed endpoints.
            "SELECT * WHERE { SERVICE",
            "SELECT * WHERE { SERVICE }",
            "SELECT * WHERE { SERVICE <http://e>",
            "SELECT * WHERE { SERVICE <http://e> }",
            "SELECT * WHERE { SERVICE <http://e> { ?s ?p ?o }",
            "SELECT * WHERE { SERVICE \"lit\" { ?s ?p ?o } }",
            "SELECT * WHERE { SERVICE _:b { ?s ?p ?o } }",
            "SELECT * WHERE { SERVICE 42 { ?s ?p ?o } }",
            "SELECT * WHERE { SERVICE und:decl { ?s ?p ?o } }",
        ];
        for q in cases {
            assert!(parse_query(q, &mut it).is_err(), "accepted {q:?}");
        }
    }

    /// Deterministic mutation fuzz: random single-byte corruptions and
    /// truncations of valid queries must parse to `Ok` or `Err`, never
    /// panic (a panic fails the test run). Seeds are fixed so failures
    /// reproduce.
    #[test]
    fn mutated_queries_never_panic() {
        let valid: &[&str] = &[
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?x foaf:name ?n ; a foaf:Person }",
            "SELECT * WHERE { ?s <http://p> \"x\"@en-GB . OPTIONAL { ?s <http://q> 3.14 } \
             { ?a <http://b> true } UNION { ?d <http://e> \"y\"^^<http://t> } FILTER(?s <= 3 && !(?a = ?d)) }",
            "SELECT ?s WHERE { ?s <http://p> ?o . SERVICE <http://fed.example.org/sparql> \
             { ?o <http://q> ?r } SERVICE ?ep { ?r <http://t> ?u } }",
        ];
        // xorshift64* so the mutation stream is seed-stable.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut it = Interner::new();
        for base in valid {
            for _ in 0..500 {
                let mut bytes = base.as_bytes().to_vec();
                // 1–3 mutations: overwrite with a printable ASCII byte
                // (inputs are ASCII, so UTF-8 validity is preserved).
                for _ in 0..(1 + next() % 3) {
                    let pos = (next() % bytes.len() as u64) as usize;
                    bytes[pos] = 0x20 + (next() % 0x5f) as u8;
                }
                if next() % 4 == 0 {
                    bytes.truncate((next() % (bytes.len() as u64 + 1)) as usize);
                }
                let text = String::from_utf8(bytes).expect("ASCII mutations stay UTF-8");
                let _ = parse_query(&text, &mut it);
            }
        }
    }

    /// Every way to add a nesting level, each as a query `n` levels deep
    /// (the `WHERE` group is level 1, a comparison is one more) around one
    /// source-vocabulary triple or comparison.
    const SHAPES: [&str; 8] = [
        "group", "optional", "union", "service", "paren", "bang", "and", "or",
    ];

    fn nested(shape: &str, n: usize) -> String {
        let tp = "?s <http://src/p> ?o";
        let cmp = "?o = <http://src/e>";
        let inner = n - 1;
        match shape {
            "group" => format!("SELECT * WHERE {}{tp} {}", "{ ".repeat(n), "} ".repeat(n)),
            "optional" => format!(
                "SELECT * WHERE {{ {}{tp} {}}}",
                "OPTIONAL { ".repeat(inner),
                "} ".repeat(inner)
            ),
            "union" => format!(
                "SELECT * WHERE {{ {}{tp}{} }}",
                format!("{{ {tp} }} UNION {{ ").repeat(inner),
                " }".repeat(inner)
            ),
            "service" => format!(
                "SELECT * WHERE {{ {}{tp} {}}}",
                "SERVICE <http://ep> { ".repeat(inner),
                "} ".repeat(inner)
            ),
            "paren" => format!(
                "SELECT * WHERE {{ {tp} FILTER({}{cmp}{}) }}",
                "(".repeat(inner),
                ")".repeat(inner)
            ),
            "bang" => format!(
                "SELECT * WHERE {{ {tp} FILTER({}({cmp})) }}",
                "!".repeat(inner - 1)
            ),
            "and" | "or" => {
                let op = if shape == "and" { "&&" } else { "||" };
                format!(
                    "SELECT * WHERE {{ {tp} FILTER({cmp}{}) }}",
                    format!(" {op} {cmp}").repeat(inner - 1)
                )
            }
            _ => unreachable!("unknown shape {shape}"),
        }
    }

    /// Run `f` on a thread with a server worker's default 2 MiB stack.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("worker thread panicked")
    }

    #[test]
    fn depth_cap_plus_one_is_an_error_at_the_offending_token() {
        let mut it = Interner::new();
        for shape in SHAPES {
            let at_cap = nested(shape, MAX_NESTING as usize);
            if let Err(e) = parse_query(&at_cap, &mut it) {
                panic!("{shape} at the cap: {e}");
            }
            let past = nested(shape, MAX_NESTING as usize + 1);
            let e = parse_query(&past, &mut it).expect_err(shape);
            assert!(e.message.contains("nesting deeper than"), "{shape}: {e}");
            assert!(
                b"{(!&|".contains(&past.as_bytes()[e.offset]),
                "{shape}: offset {} is not at an opener or operator",
                e.offset
            );
        }
        let e = parse_query(&nested("group", MAX_NESTING as usize + 1), &mut it).unwrap_err();
        assert_eq!(
            e.offset,
            "SELECT * WHERE ".len() + 2 * MAX_NESTING as usize,
            "the error names the first '{{' past the cap"
        );
    }

    /// At the cap, parse → rewrite → render → re-parse and federation
    /// planning all fit a worker's stack, with rules firing at the innermost
    /// level (a two-template UNION expansion and an entity substitution).
    #[test]
    fn depth_cap_pipeline_fits_a_worker_stack() {
        use crate::align::AlignmentStore;
        use crate::federate::FederationPlanner;
        use crate::pattern::render_query_into;
        use crate::rewriter::{RewriteLimits, RewriteScratch, Rewriter};
        use std::sync::Arc;

        on_worker_stack(|| {
            let mut it = Interner::new();
            let mut store = AlignmentStore::new();
            let iri = |it: &mut Interner, s: &str| Term::iri(it.intern(s));
            store
                .add_entity(iri(&mut it, "http://src/e"), iri(&mut it, "http://tgt/e"))
                .unwrap();
            let lhs = parse_bgp("?a <http://src/p> ?b", &mut it).unwrap().patterns[0];
            for rhs in [
                "?a <http://tgt/p1> ?b",
                "?a <http://tgt/p2> ?m . ?m <http://tgt/q> ?b",
            ] {
                let rhs = parse_bgp(rhs, &mut it).unwrap().patterns;
                store.add_predicate(lhs, rhs).unwrap();
            }
            let store = Arc::new(store);
            let mut planner = FederationPlanner::new();
            planner.add_endpoint(iri(&mut it, "http://ep"), Arc::clone(&store));
            let (mut scratch, mut fresh, mut out) =
                (RewriteScratch::new(), String::new(), String::new());
            for shape in SHAPES {
                let q = parse_query(&nested(shape, MAX_NESTING as usize), &mut it).unwrap();
                store.rewrite_ref_into(q.as_ref(), &mut scratch);
                let rewritten = QueryRef {
                    select: scratch.select(),
                    pattern: scratch.pattern(),
                };
                render_query_into(rewritten, &it, &mut fresh, &mut out);
                assert!(out.contains("<http://tgt/q>"), "{shape}: {out}");
                if matches!(shape, "paren" | "bang" | "and" | "or") {
                    assert!(out.contains("<http://tgt/e>"), "{shape}: {out}");
                }
                assert_eq!(scratch.to_query().to_sparql(&it), out);
                // The rendered `!(…)` spends a `(` per `!`, so a `!` must
                // cost the parser no depth of its own. A UNION expansion
                // puts its branches one group below the pattern it
                // replaces, so a group shape's rewrite is one level past
                // the cap, which the parser refuses (ROADMAP item 3).
                let reparsed = parse_query(&out, &mut it);
                if matches!(shape, "group" | "optional" | "union" | "service") {
                    let e = reparsed.expect_err(shape);
                    assert!(e.message.contains("nesting deeper than"), "{shape}: {e}");
                } else if let Err(e) = reparsed {
                    panic!("{shape}: the rewrite does not re-parse: {e}");
                }
                planner
                    .plan_for_dispatch(q.as_ref(), &it, RewriteLimits::default())
                    .unwrap_or_else(|e| panic!("{shape}: {e:?}"));
            }
        });
    }

    /// Far past the cap — the hostile request that used to overflow a
    /// worker's stack and abort the process — is an ordinary error. The
    /// last case nests short `&&` chains in parentheses, each inside the
    /// cap on its own, into one tree about 10,000 levels tall.
    #[test]
    fn depth_cap_exceeded_far_is_an_error_not_a_stack_overflow() {
        on_worker_stack(|| {
            let mut it = Interner::new();
            let chain = " && ?o = ?o".repeat(99);
            let chains_in_parens = format!(
                "SELECT * WHERE {{ ?s ?p ?o FILTER({}?o = ?o{}) }}",
                "(".repeat(100),
                format!("{chain})").repeat(100)
            );
            for (name, q) in SHAPES
                .iter()
                .map(|&shape| (shape, nested(shape, 50_000)))
                .chain([("chains_in_parens", chains_in_parens)])
            {
                let e = parse_query(&q, &mut it).expect_err(name);
                assert!(e.message.contains("nesting deeper than"), "{name}: {e}");
            }
        });
    }
}
