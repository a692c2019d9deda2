//! Zero-copy tokenizer and parser for the SELECT/WHERE group-graph-pattern
//! fragment of SPARQL.
//!
//! The tokenizer yields byte spans of the input, and the parser slices a
//! token's text out of the input only when it needs it. Once a term's
//! final text is known (after PREFIX expansion for QNames), it goes to the
//! parse's [`TermSink`] once: an [`crate::Interner`] interns it, a
//! [`crate::RequestTerms`] pushes it onto its request table. When the
//! whole query has parsed, one pass resolves that table and the parser
//! gives every term its resolved symbol (see [`crate::interner`]).
//! Supported syntax:
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
//! The parser is the crate's only reader of SPARQL text, and its
//! tokenizer the only lexer: the serve cache keys on raw request bytes and
//! never lexes.

use std::fmt;

use crate::interner::TermSink;
use crate::pattern::{
    Bgp, ChainBuilder, CmpOp, ExprNode, GroupPattern, PatternNode, Query, QueryRef, TriplePattern,
};
use crate::term::{Term, TermKind};

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

/// What every fallible step inside the parser returns. The error is boxed
/// so that a success stays register-sized: `Parsed<Term>` is 16 bytes and
/// `Parsed<()>` 8, where a by-value 32-byte `ParseError` made every step
/// of a parse return through memory. The public entry points unbox it.
type Parsed<T> = Result<T, Box<ParseError>>;

/// Build the error of a failing parse. Cold and out of line, so the
/// branches that call it stay off the hot path.
#[cold]
#[inline(never)]
fn error_at(offset: usize, message: String) -> Box<ParseError> {
    Box::new(ParseError { message, offset })
}

/// What a token is. One byte: `Cmp`'s operator fits the tag's spare values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `<...>`; the text excludes the brackets.
    IriRef,
    /// `prefix:local` (either part may be empty).
    QName,
    /// `?x` / `$x`; the text excludes the sigil.
    Var,
    /// Full literal surface form including quotes and any @lang/^^ suffix.
    Literal,
    /// Bare numeric literal without a fraction dot (`42`, `-7`).
    Integer,
    /// Bare numeric literal with one (`3.14`).
    Decimal,
    /// `_:label`; the text excludes the `_:`.
    Blank,
    /// A bare word: SELECT, WHERE, PREFIX, `a`, `*`, `true`, …
    Word,
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

/// A token: its kind and the byte span of its text in the input (see
/// [`Kind`] for what the text excludes). Twelve bytes, so the tokenizer's
/// `Parsed<Option<Token>>` is 16 and returns in registers; the tokenizer
/// allocates nothing and the parser slices the text when it needs it.
#[derive(Clone, Copy)]
struct Token {
    kind: Kind,
    start: u32,
    end: u32,
}

impl Token {
    /// `start..end` lie in an input of at most `u32::MAX` bytes, which
    /// [`Tokenizer::prologue`] checks before the first token.
    #[inline]
    fn new(kind: Kind, start: usize, end: usize) -> Token {
        Token {
            kind,
            start: start as u32,
            end: end as u32,
        }
    }

    #[inline]
    fn text(self, input: &str) -> &str {
        &input[self.start as usize..self.end as usize]
    }
}

/// A token as error messages spell it: `Var("x")`, `LBrace`, `Cmp(Lt)`,
/// `Numeric { text: "42", decimal: false }`.
struct Spelled<'a>(Token, &'a str);

impl fmt::Debug for Spelled<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Spelled(t, input) = *self;
        let text = t.text(input);
        match t.kind {
            Kind::Integer | Kind::Decimal => f
                .debug_struct("Numeric")
                .field("text", &text)
                .field("decimal", &(t.kind == Kind::Decimal))
                .finish(),
            Kind::IriRef | Kind::QName | Kind::Var | Kind::Literal | Kind::Blank | Kind::Word => {
                write!(f, "{:?}({text:?})", t.kind)
            }
            kind => write!(f, "{kind:?}"),
        }
    }
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

    #[cold]
    fn err(&self, message: impl Into<String>) -> Box<ParseError> {
        error_at(self.pos, message.into())
    }

    /// Read the PREFIX prologue, pushing each `PREFIX name: <iri>`
    /// declaration onto `prefixes` in order, and return the first token
    /// after it. Errors point at the start of the offending token.
    fn prologue(&mut self, prefixes: &mut Vec<PrefixSpan>) -> Parsed<Option<Token>> {
        if u32::try_from(self.input.len()).is_err() {
            return Err(self.err("input longer than 4 GiB"));
        }
        loop {
            match self.next()? {
                Some(t)
                    if t.kind == Kind::Word
                        && t.text(self.input).eq_ignore_ascii_case("PREFIX") => {}
                other => return Ok(other),
            }
            let at_token = |t: &Self, message: &str| error_at(t.last_start, message.into());
            let name = match self.next()? {
                Some(t) if t.kind == Kind::QName => t,
                _ => return Err(at_token(self, "expected 'name:' after PREFIX")),
            };
            if !name.text(self.input).ends_with(':') {
                return Err(at_token(self, "prefix declaration must end with ':'"));
            }
            let iri = match self.next()? {
                Some(t) if t.kind == Kind::IriRef => t,
                _ => return Err(at_token(self, "expected <IRI> after prefix name")),
            };
            prefixes.push(PrefixSpan {
                name_start: name.start,
                name_end: name.end - 1,
                iri_start: iri.start,
                iri_end: iri.end,
            });
        }
    }

    /// Scan a literal starting at the opening quote; its text is the full
    /// surface form (quotes, escapes, and any `@lang` / `^^iri-or-qname`
    /// suffix included).
    fn scan_literal(&mut self) -> Parsed<Token> {
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
        Ok(Token::new(Kind::Literal, start, self.pos))
    }

    /// Scan a bare numeric literal (`42`, `3.14`, optionally signed). The
    /// fraction dot is consumed only when a digit follows, so `3 .` and the
    /// triple-terminating `3.` still tokenize as integer-then-Dot.
    fn scan_numeric(&mut self) -> Parsed<Token> {
        let b = self.bytes();
        let start = self.pos;
        if b[self.pos] == b'+' || b[self.pos] == b'-' {
            self.pos += 1;
        }
        while b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let mut kind = Kind::Integer;
        if b.get(self.pos) == Some(&b'.') && b.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
            kind = Kind::Decimal;
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
        Ok(Token::new(kind, start, self.pos))
    }

    /// At a `<`: an IRI reference if a legal IRIREF body terminated by `>`
    /// follows, otherwise the `<` / `<=` comparison operator. (SPARQL
    /// IRIREF bodies exclude whitespace, quotes, braces, and `<`, so
    /// `FILTER(?x < ?y)` is unambiguous, while `<=x>` stays the IRI "=x" —
    /// the IRI interpretation wins whenever one exists.)
    fn scan_angle(&mut self) -> Token {
        let b = self.bytes();
        let at = self.pos;
        debug_assert_eq!(b[at], b'<');
        let mut end = at + 1;
        while end < b.len() && is_iri_byte(b[end]) {
            end += 1;
        }
        if b.get(end) == Some(&b'>') {
            self.pos = end + 1;
            Token::new(Kind::IriRef, at + 1, end)
        } else if b.get(at + 1) == Some(&b'=') {
            self.pos += 2;
            Token::new(Kind::Cmp(CmpOp::Le), at, self.pos)
        } else {
            self.pos += 1;
            Token::new(Kind::Cmp(CmpOp::Lt), at, self.pos)
        }
    }

    /// Scan a run of name bytes from `start`, returning where it ends.
    #[inline]
    fn name_end(&self, start: usize) -> usize {
        let b = self.bytes();
        let mut end = start;
        while end < b.len() && is_name_byte(b[end]) {
            end += 1;
        }
        end
    }

    fn next(&mut self) -> Parsed<Option<Token>> {
        self.skip_trivia();
        let start = self.pos;
        self.last_start = start;
        let b = self.bytes();
        let Some(&c) = b.get(start) else {
            return Ok(None);
        };
        let second = b.get(start + 1).copied();
        let (kind, len) = match c {
            b'{' => (Kind::LBrace, 1),
            b'}' => (Kind::RBrace, 1),
            b'(' => (Kind::LParen, 1),
            b')' => (Kind::RParen, 1),
            b'.' => (Kind::Dot, 1),
            b';' => (Kind::Semicolon, 1),
            b',' => (Kind::Comma, 1),
            b'*' => (Kind::Word, 1),
            b'=' => (Kind::Cmp(CmpOp::Eq), 1),
            b'!' if second == Some(b'=') => (Kind::Cmp(CmpOp::Ne), 2),
            b'!' => (Kind::Bang, 1),
            b'>' if second == Some(b'=') => (Kind::Cmp(CmpOp::Ge), 2),
            b'>' => (Kind::Cmp(CmpOp::Gt), 1),
            b'&' if second == Some(b'&') => (Kind::AndAnd, 2),
            b'&' => return Err(self.err("expected '&&'")),
            b'|' if second == Some(b'|') => (Kind::OrOr, 2),
            b'|' => return Err(self.err("expected '||'")),
            b'<' => return Ok(Some(self.scan_angle())),
            b'?' | b'$' => {
                let end = self.name_end(start + 1);
                if end == start + 1 {
                    return Err(self.err("empty variable name"));
                }
                self.pos = end;
                return Ok(Some(Token::new(Kind::Var, start + 1, end)));
            }
            b'"' => return self.scan_literal().map(Some),
            b'_' if second == Some(b':') => {
                let end = self.name_end(start + 2);
                if end == start + 2 {
                    return Err(self.err("empty blank node label"));
                }
                self.pos = end;
                return Ok(Some(Token::new(Kind::Blank, start + 2, end)));
            }
            c if c.is_ascii_digit() => return self.scan_numeric().map(Some),
            b'+' | b'-' if second.is_some_and(|d| d.is_ascii_digit()) => {
                return self.scan_numeric().map(Some)
            }
            c if is_name_byte(c) || c == b':' => {
                let mut end = start;
                let mut has_colon = false;
                while end < b.len() && (is_name_byte(b[end]) || (b[end] == b':' && !has_colon)) {
                    if b[end] == b':' {
                        has_colon = true;
                    }
                    end += 1;
                }
                (
                    if has_colon { Kind::QName } else { Kind::Word },
                    end - start,
                )
            }
            other => return Err(self.err(format!("unexpected byte 0x{other:02x}"))),
        };
        self.pos = start + len;
        Ok(Some(Token::new(kind, start, self.pos)))
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
/// reuses its capacity; spans (not borrowed `&str`s) keep the scratch free
/// of the input's lifetime.
#[derive(Copy, Clone, Debug)]
struct PrefixSpan {
    name_start: u32,
    name_end: u32,
    iri_start: u32,
    iri_end: u32,
}

/// Caller-owned scratch for allocation-free parsing.
///
/// Holds every buffer the parser needs per query — the output group-pattern
/// tree, the projection, the PREFIX table, and the QName-expansion string —
/// so a warm [`parse_query_into`] call performs **zero heap allocations**:
/// into a [`crate::RequestTerms`] once this scratch and its request table
/// have grown to the request's size, whatever strings it holds; into an
/// [`crate::Interner`] once this scratch has grown and every string in the
/// query has been interned.
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
/// scratch-owned PREFIX table and QName-expansion buffer, and the term
/// sink every term is pushed to.
///
/// Parser-level errors report the tokenizer's `last_start`: the lookahead
/// is the last token the tokenizer read, so whether the offending token was
/// consumed or only peeked, that is where it starts.
struct Parser<'a, 'i, 'p, S: TermSink> {
    tok: Tokenizer<'a>,
    /// One token of lookahead.
    peeked: Option<Token>,
    prefixes: &'p mut Vec<PrefixSpan>,
    sink: &'i mut S,
    /// Nesting levels currently open; see [`MAX_NESTING`].
    depth: u32,
    /// Height the current FILTER's expression tree may reach: the levels
    /// its enclosing groups leave under [`MAX_NESTING`].
    expr_room: u32,
    // Scratch buffer reused for every QName expansion to avoid a fresh
    // allocation per term.
    expand_buf: &'p mut String,
}

impl<'a, 'i, 'p, S: TermSink> Parser<'a, 'i, 'p, S> {
    fn new(
        input: &'a str,
        sink: &'i mut S,
        prefixes: &'p mut Vec<PrefixSpan>,
        expand_buf: &'p mut String,
    ) -> Parser<'a, 'i, 'p, S> {
        prefixes.clear();
        sink.begin();
        Parser {
            tok: Tokenizer::new(input),
            peeked: None,
            prefixes,
            sink,
            depth: 0,
            expr_room: 0,
            expand_buf,
        }
    }

    #[inline]
    fn next_token(&mut self) -> Parsed<Option<Token>> {
        match self.peeked.take() {
            Some(t) => Ok(Some(t)),
            None => self.tok.next(),
        }
    }

    #[inline]
    fn peek(&mut self) -> Parsed<Option<Token>> {
        if self.peeked.is_none() {
            self.peeked = self.tok.next()?;
        }
        Ok(self.peeked)
    }

    /// Consume the next token if it is a `kind`; returns whether it was.
    #[inline]
    fn eat(&mut self, kind: Kind) -> Parsed<bool> {
        let hit = self.peek()?.is_some_and(|t| t.kind == kind);
        if hit {
            self.peeked = None;
        }
        Ok(hit)
    }

    #[inline]
    fn expect(&mut self, what: &str) -> Parsed<Token> {
        match self.next_token()? {
            Some(t) => Ok(t),
            None => Err(self.err(format!("unexpected end of input, expected {what}"))),
        }
    }

    /// Consume the next token, which must be a `kind`, spelled `what` in
    /// the error otherwise.
    #[inline]
    fn expect_kind(&mut self, kind: Kind, what: &str) -> Parsed<()> {
        let t = self.expect(what)?;
        if t.kind != kind {
            return Err(self.unexpected(what, t));
        }
        Ok(())
    }

    #[inline]
    fn text(&self, t: Token) -> &'a str {
        t.text(self.tok.input)
    }

    /// Whether `t` is the keyword `kw`, in any case.
    #[inline]
    fn is_keyword(&self, t: Token, kw: &str) -> bool {
        t.kind == Kind::Word && self.text(t).eq_ignore_ascii_case(kw)
    }

    /// An error at the start of the token last read.
    #[cold]
    fn err(&self, message: impl Into<String>) -> Box<ParseError> {
        error_at(self.tok.last_start, message.into())
    }

    /// `expected {what}, found {t:?}`, at the start of `t`.
    #[cold]
    fn unexpected(&self, what: &str, t: Token) -> Box<ParseError> {
        self.err(format!("expected {what}, found {:?}", self.spelled(t)))
    }

    fn spelled(&self, t: Token) -> Spelled<'a> {
        Spelled(t, self.tok.input)
    }

    /// Open one nesting level for the token just consumed; past
    /// [`MAX_NESTING`] the parse fails at that token. The caller closes the
    /// level on success (an error ends the parse, so it never needs to).
    fn descend(&mut self) -> Parsed<()> {
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
    ) -> Parsed<SubExpr> {
        let height = below + 1;
        if height > self.expr_room {
            return Err(error_at(
                at,
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        Ok(SubExpr {
            node: out.push_expr(node),
            height,
        })
    }

    /// Split a QName at its first colon and resolve the prefix against the
    /// PREFIX table (later declarations shadow earlier ones, matching
    /// SPARQL prologue semantics). Returns `(base, local)`, whose
    /// concatenation is the QName's IRI.
    ///
    /// The tokenizer only emits QNames containing a colon, but a serve
    /// worker must never be one refactor away from a panic on user-supplied
    /// query text, so the invariant degrades to an error instead of an
    /// `expect`.
    fn expand_qname(&self, qname: &'a str) -> Parsed<(&'a str, &'a str)> {
        let input = self.tok.input;
        let Some(colon) = qname.find(':') else {
            return Err(self.err("malformed QName: missing ':'"));
        };
        let prefix = &qname[..colon];
        let base = self.prefixes.iter().rev().find_map(|p| {
            let name = &input[p.name_start as usize..p.name_end as usize];
            (name == prefix).then(|| &input[p.iri_start as usize..p.iri_end as usize])
        });
        match base {
            Some(base) => Ok((base, &qname[colon + 1..])),
            None => Err(self.err(format!("undeclared prefix '{prefix}:'"))),
        }
    }

    /// Push one occurrence of a `kind` term with canonical text `text` to
    /// the term sink; every term the parser reads goes through here or
    /// [`Parser::push_expanded`].
    #[inline]
    fn push(&mut self, kind: TermKind, text: &str) -> Parsed<Term> {
        self.sink.push(kind, text).ok_or_else(|| self.table_full())
    }

    /// [`Parser::push`] for the text in the expansion buffer.
    #[inline]
    fn push_expanded(&mut self, kind: TermKind) -> Parsed<Term> {
        self.sink
            .push(kind, self.expand_buf)
            .ok_or_else(|| self.table_full())
    }

    #[cold]
    fn table_full(&self) -> Box<ParseError> {
        self.err("more terms than one request can hold")
    }

    /// Expand a QName against the PREFIX table and push the result.
    fn push_qname(&mut self, qname: &'a str) -> Parsed<Term> {
        let (base, local) = self.expand_qname(qname)?;
        self.expand_buf.clear();
        self.expand_buf.push_str(base);
        self.expand_buf.push_str(local);
        self.push_expanded(TermKind::Iri)
    }

    /// Push literal token `lit` in its canonical spelling: the quoted
    /// body verbatim, a language tag lowercased (RDF lang tags are
    /// case-insensitive, so `"x"@EN` and `"x"@en` are one term), a
    /// `^^<iri>` datatype verbatim, and a `^^prefix:local` datatype
    /// expanded to `^^<iri>` (so rendered output needs no PREFIX
    /// declaration and the QName and full-IRI spellings of one literal are
    /// one term).
    fn push_literal(&mut self, lit: &'a str) -> Parsed<Term> {
        // Tokenizer invariant (closing quote present) downgraded to an
        // error rather than a panic — same rationale as `expand_qname`.
        let Some(close) = lit.rfind('"') else {
            return Err(self.err("malformed literal: missing closing '\"'"));
        };
        let (quoted, suffix) = lit.split_at(close + 1);
        let qname_datatype = suffix.strip_prefix("^^").filter(|d| !d.starts_with('<'));
        let datatype = qname_datatype.map(|d| self.expand_qname(d)).transpose()?;
        let out = &mut *self.expand_buf;
        out.clear();
        if let Some(tag) = suffix.strip_prefix('@') {
            out.push_str(quoted);
            out.push('@');
            out.extend(tag.chars().map(|c| c.to_ascii_lowercase()));
        } else if let Some((base, local)) = datatype {
            for s in [quoted, "^^<", base, local, ">"] {
                out.push_str(s);
            }
        } else {
            out.push_str(lit);
        }
        self.push_expanded(TermKind::Literal)
    }

    /// Push a bare literal token (`42`, `3.14`, `true`) as its xsd-typed
    /// quoted form, so the sugar and the explicit `"42"^^<xsd:integer>`
    /// spelling share a symbol and render identically.
    fn push_typed(&mut self, text: &str, datatype: &str) -> Parsed<Term> {
        self.expand_buf.clear();
        self.expand_buf.push('"');
        self.expand_buf.push_str(text);
        self.expand_buf.push_str("\"^^<");
        self.expand_buf.push_str(datatype);
        self.expand_buf.push('>');
        self.push_expanded(TermKind::Literal)
    }

    fn parse_term(&mut self, tok: Token, position: &str) -> Parsed<Term> {
        let text = self.text(tok);
        // Bare-literal sugar is legal only where a literal is: object
        // position and FILTER expressions, never as subject or verb.
        let literal_ok = matches!(position, "object" | "expression");
        match tok.kind {
            Kind::IriRef => self.push(TermKind::Iri, text),
            Kind::QName => self.push_qname(text),
            Kind::Var => self.push(TermKind::Var, text),
            Kind::Literal => self.push_literal(text),
            Kind::Integer if literal_ok => self.push_typed(text, XSD_INTEGER),
            Kind::Decimal if literal_ok => self.push_typed(text, XSD_DECIMAL),
            Kind::Blank => self.push(TermKind::Blank, text),
            Kind::Word if text == "a" && position == "predicate" => {
                self.push(TermKind::Iri, RDF_TYPE)
            }
            Kind::Word if matches!(text, "true" | "false") && literal_ok => {
                self.push_typed(text, XSD_BOOLEAN)
            }
            _ => Err(self.unexpected(&format!("{position} term"), tok)),
        }
    }

    /// Read the prologue into the PREFIX table; must run before any token
    /// is peeked. The first token after it becomes the lookahead.
    fn parse_prologue(&mut self) -> Parsed<()> {
        self.peeked = self.tok.prologue(self.prefixes)?;
        Ok(())
    }

    /// Parse the projection into `vars` (cleared first); returns `true` for
    /// `SELECT *`.
    fn parse_select(&mut self, vars: &mut Vec<Term>) -> Parsed<bool> {
        vars.clear();
        let t = self.expect("SELECT")?;
        if !self.is_keyword(t, "SELECT") {
            return Err(self.unexpected("SELECT", t));
        }
        if self.peek()?.is_some_and(|t| self.is_keyword(t, "*")) {
            self.peeked = None;
            return Ok(true);
        }
        while let Some(t) = self.peek()? {
            if t.kind != Kind::Var {
                break;
            }
            self.peeked = None;
            vars.push(self.push(TermKind::Var, self.text(t))?);
        }
        if vars.is_empty() {
            return Err(self.err("SELECT needs '*' or at least one variable"));
        }
        Ok(false)
    }

    /// Parse `{ GroupGraphPattern }` into `out`, returning the index of the
    /// created [`PatternNode::Group`]. The leading `{` is consumed here.
    fn parse_group(&mut self, out: &mut GroupPattern) -> Parsed<u32> {
        self.expect_kind(Kind::LBrace, "'{'")?;
        let first = self.parse_group_body(out)?;
        Ok(out.push_node(PatternNode::Group { first }))
    }

    /// Parse group contents up to and including the closing `}`, returning
    /// the head of the child chain. The opening `{` must already be
    /// consumed. Triple blocks accumulate into maximal [`PatternNode::
    /// Triples`] runs; OPTIONAL / UNION / FILTER / nested groups close the
    /// current run and become siblings.
    fn parse_group_body(&mut self, out: &mut GroupPattern) -> Parsed<u32> {
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
            let Some(t) = self.peek()? else {
                return Err(self.err("unexpected end of input inside group pattern"));
            };
            // Every element but a triple block is one node of the chain.
            let node = if t.kind == Kind::RBrace {
                self.peeked = None;
                flush_run!();
                break;
            } else if self.is_keyword(t, "OPTIONAL") {
                flush_run!();
                self.peeked = None;
                self.expect_kind(Kind::LBrace, "'{' after OPTIONAL")?;
                let inner = self.parse_group_body(out)?;
                out.push_node(PatternNode::Optional { first: inner })
            } else if self.is_keyword(t, "FILTER") {
                flush_run!();
                self.peeked = None;
                self.expect_kind(Kind::LParen, "'(' after FILTER")?;
                self.expr_room = MAX_NESTING - self.depth;
                let expr = self.parse_expr(out)?.node;
                self.expect_kind(Kind::RParen, "')' closing FILTER")?;
                out.push_node(PatternNode::Filter { expr })
            } else if t.kind == Kind::LBrace {
                flush_run!();
                // GroupOrUnion: `{...}` optionally followed by one or
                // more `UNION {...}`.
                self.peeked = None;
                let inner = self.parse_group_body(out)?;
                let group = out.push_node(PatternNode::Group { first: inner });
                let mut branches = ChainBuilder::new();
                branches.push(out, group);
                let mut n_branches = 1u32;
                while self.peek()?.is_some_and(|t| self.is_keyword(t, "UNION")) {
                    self.peeked = None;
                    self.expect_kind(Kind::LBrace, "'{' after UNION")?;
                    let inner = self.parse_group_body(out)?;
                    let b = out.push_node(PatternNode::Group { first: inner });
                    branches.push(out, b);
                    n_branches += 1;
                }
                if n_branches == 1 {
                    group
                } else {
                    out.push_node(PatternNode::Union {
                        first: branches.first(),
                    })
                }
            } else if self.is_keyword(t, "SERVICE") {
                flush_run!();
                self.peeked = None;
                let tok = self.expect("endpoint after SERVICE")?;
                let text = self.text(tok);
                let endpoint = match tok.kind {
                    Kind::IriRef => self.push(TermKind::Iri, text)?,
                    Kind::QName => self.push_qname(text)?,
                    Kind::Var => self.push(TermKind::Var, text)?,
                    _ => {
                        return Err(self.err(format!(
                            "SERVICE endpoint must be an IRI or a variable, found {:?}",
                            self.spelled(tok)
                        )))
                    }
                };
                self.expect_kind(Kind::LBrace, "'{' after SERVICE endpoint")?;
                let inner = self.parse_group_body(out)?;
                out.push_node(PatternNode::Service {
                    endpoint,
                    first: inner,
                })
            } else if self.is_keyword(t, "GRAPH") || self.is_keyword(t, "MINUS") {
                return Err(self.err(format!(
                    "{} is not supported by the rewriter (see ROADMAP: federation/SERVICE)",
                    self.text(t)
                )));
            } else if self.is_keyword(t, "UNION") {
                return Err(self.err("UNION must follow a '{...}' group"));
            } else {
                self.parse_triple_block(&mut out.triples)?;
                // Optional '.' between blocks.
                self.eat(Kind::Dot)?;
                continue;
            };
            chain.push(out, node);
            // An optional '.' after any other element.
            self.eat(Kind::Dot)?;
            run_start = out.triples.len();
        }
        self.depth -= 1;
        Ok(chain.first())
    }

    // ---- FILTER expressions -------------------------------------------
    //
    // Precedence climbing: `||` < `&&` < comparison < unary `!` / primary.
    // Expression nodes are appended to `out.exprs`; functions return the
    // node index and the tree's height, which `push_op` caps.

    fn parse_expr(&mut self, out: &mut GroupPattern) -> Parsed<SubExpr> {
        let mut lhs = self.parse_expr_and(out)?;
        while self.eat(Kind::OrOr)? {
            let at = self.tok.last_start;
            let rhs = self.parse_expr_and(out)?;
            let node = ExprNode::Or(lhs.node, rhs.node);
            lhs = self.push_op(out, node, lhs.height.max(rhs.height), at)?;
        }
        Ok(lhs)
    }

    fn parse_expr_and(&mut self, out: &mut GroupPattern) -> Parsed<SubExpr> {
        let mut lhs = self.parse_expr_rel(out)?;
        while self.eat(Kind::AndAnd)? {
            let at = self.tok.last_start;
            let rhs = self.parse_expr_rel(out)?;
            let node = ExprNode::And(lhs.node, rhs.node);
            lhs = self.push_op(out, node, lhs.height.max(rhs.height), at)?;
        }
        Ok(lhs)
    }

    fn parse_expr_rel(&mut self, out: &mut GroupPattern) -> Parsed<SubExpr> {
        let lhs = self.parse_expr_primary(out)?;
        if let Some(Token {
            kind: Kind::Cmp(op),
            ..
        }) = self.peek()?
        {
            self.peeked = None;
            let at = self.tok.last_start;
            let rhs = self.parse_expr_primary(out)?;
            let node = ExprNode::Cmp(op, lhs.node, rhs.node);
            return self.push_op(out, node, lhs.height.max(rhs.height), at);
        }
        Ok(lhs)
    }

    fn parse_expr_primary(&mut self, out: &mut GroupPattern) -> Parsed<SubExpr> {
        let tok = self.expect("expression")?;
        match tok.kind {
            Kind::LParen => {
                self.descend()?;
                let e = self.parse_expr(out)?;
                self.depth -= 1;
                self.expect_kind(Kind::RParen, "')'")?;
                Ok(e)
            }
            // A run of `!` is read in a loop, so it costs no parser depth,
            // only tree height: the renderer writes `!(…)`, and charging
            // both the `!` and its `(` would refuse our own rewrites.
            Kind::Bang => {
                let at = self.tok.last_start;
                let mut bangs = 1;
                while self.eat(Kind::Bang)? {
                    bangs += 1;
                }
                let mut e = self.parse_expr_primary(out)?;
                for _ in 0..bangs {
                    e = self.push_op(out, ExprNode::Not(e.node), e.height, at)?;
                }
                Ok(e)
            }
            _ => {
                let t = self.parse_term(tok, "expression")?;
                Ok(SubExpr {
                    node: out.push_expr(ExprNode::Term(t)),
                    height: 0,
                })
            }
        }
    }

    fn parse_triple_block(&mut self, patterns: &mut Vec<TriplePattern>) -> Parsed<()> {
        let tok = self.expect("subject term")?;
        let subject = self.parse_term(tok, "subject")?;
        loop {
            let tok = self.expect("predicate term")?;
            let predicate = self.parse_term(tok, "predicate")?;
            loop {
                let tok = self.expect("object term")?;
                let object = self.parse_term(tok, "object")?;
                patterns.push(TriplePattern::new(subject, predicate, object));
                if !self.eat(Kind::Comma)? {
                    break;
                }
            }
            if !self.eat(Kind::Semicolon)? {
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
    ) -> Parsed<bool> {
        self.parse_prologue()?;
        let star = self.parse_select(select)?;
        let t = self.expect("WHERE")?;
        // Bare `{ ... }` without the WHERE keyword is legal SPARQL.
        if t.kind == Kind::LBrace {
            self.peeked = Some(t);
        } else if !self.is_keyword(t, "WHERE") {
            return Err(self.unexpected("WHERE", t));
        }
        pattern.root = self.parse_group(pattern)?;
        if let Some(t) = self.next_token()? {
            return Err(self.err(format!("trailing input after query: {:?}", self.spelled(t))));
        }
        Ok(star)
    }
}

/// Parse a full SELECT query into caller-owned scratch buffers. The parsed
/// query is readable via [`ParseScratch::query_ref`] (or copied out with
/// owned types via [`parse_query`]). With a warm scratch (see
/// [`ParseScratch`]) a call performs **zero heap allocations**; this is the
/// parse stage of the zero-alloc serve pipeline.
///
/// On a [`crate::RequestTerms`] the parse clears the request table first:
/// terms of an earlier parse that kept a request-local symbol are invalid
/// from here on.
pub fn parse_query_into<S: TermSink>(
    input: &str,
    sink: &mut S,
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
    let mut parser = Parser::new(input, sink, prefixes, expand_buf);
    *select_star = parser.parse_query_body(select, pattern).map_err(|e| *e)?;
    if sink.finish() {
        pattern.map_terms(|t| sink.settle(t));
        for t in select {
            *t = sink.settle(*t);
        }
    }
    Ok(())
}

/// Parse a full SELECT query into `sink` (an [`crate::Interner`] interns
/// its terms). Convenience wrapper over [`parse_query_into`] that allocates
/// a fresh [`ParseScratch`] and returns an owned [`Query`].
pub fn parse_query<S: TermSink>(input: &str, sink: &mut S) -> Result<Query, ParseError> {
    let mut scratch = ParseScratch::new();
    parse_query_into(input, sink, &mut scratch)?;
    Ok(scratch.into_query())
}

/// Parse a bare BGP — a brace-less triple-pattern list, with an optional
/// PREFIX prologue and optional surrounding `{ }`. Used for rule templates,
/// which are flat by design: OPTIONAL/UNION/FILTER in a template is a parse
/// error here.
pub fn parse_bgp<S: TermSink>(input: &str, sink: &mut S) -> Result<Bgp, ParseError> {
    let mut prefixes = Vec::new();
    let mut expand_buf = String::new();
    let mut bgp = Parser::new(input, sink, &mut prefixes, &mut expand_buf)
        .parse_bgp_entry()
        .map_err(|e| *e)?;
    if sink.finish() {
        for tp in &mut bgp.patterns {
            let settle = |t| sink.settle(t);
            *tp = TriplePattern::new(settle(tp.s), settle(tp.p), settle(tp.o));
        }
    }
    Ok(bgp)
}

impl<S: TermSink> Parser<'_, '_, '_, S> {
    fn parse_bgp_entry(mut self) -> Parsed<Bgp> {
        self.parse_prologue()?;
        let mut patterns = Vec::new();
        if self.eat(Kind::LBrace)? {
            self.parse_flat_bgp_body(&mut patterns)?;
            if let Some(t) = self.next_token()? {
                return Err(self.err(format!("trailing input after '}}': {:?}", self.spelled(t))));
            }
            return Ok(Bgp::new(patterns));
        }
        while self.peek()?.is_some() {
            self.parse_triple_block(&mut patterns)?;
            self.eat(Kind::Dot)?;
        }
        Ok(Bgp::new(patterns))
    }

    /// `{ triples }` with no group-pattern constructs — the rule-template
    /// fragment.
    fn parse_flat_bgp_body(&mut self, patterns: &mut Vec<TriplePattern>) -> Parsed<()> {
        loop {
            let Some(t) = self.peek()? else {
                return Err(self.err("unexpected end of input inside group pattern"));
            };
            if self.eat(Kind::RBrace)? {
                return Ok(());
            }
            if ["OPTIONAL", "UNION", "FILTER", "GRAPH", "SERVICE", "MINUS"]
                .iter()
                .any(|kw| self.is_keyword(t, kw))
            {
                return Err(self.err(format!(
                    "{} is not allowed in a rule template BGP",
                    self.text(t)
                )));
            }
            self.parse_triple_block(patterns)?;
            self.eat(Kind::Dot)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
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

    /// The error contract: the exact `(offset, message)` each malformed
    /// input gives, recorded before errors were boxed and tokens became
    /// spans. It covers every `expected …, found {token:?}` site (so every
    /// token's `Debug` spelling), the tokenizer and PREFIX-prologue errors,
    /// undeclared prefixes, premature ends, trailing input and the nesting
    /// cap. A change to the parser's control flow must leave it as it is.
    #[test]
    fn error_offsets_and_messages_are_stable() {
        let queries: &[(&str, usize, &str)] = &[
            ("", 0, "unexpected end of input, expected SELECT"),
            ("ASK { ?s ?p ?o }", 0, "expected SELECT, found Word(\"ASK\")"),
            ("SELECT", 6, "SELECT needs '*' or at least one variable"),
            ("SELECT *", 8, "unexpected end of input, expected WHERE"),
            ("SELECT * WHERE", 14, "unexpected end of input, expected '{'"),
            ("SELECT ?x FROM <http://g> WHERE { }", 10, "expected WHERE, found Word(\"FROM\")"),
            ("SELECT * WHERE ?s", 15, "expected '{', found Var(\"s\")"),
            ("SELECT * { ?s ?p ?o } .", 22, "trailing input after query: Dot"),
            ("SELECT * WHERE { ?s ?p ?o } }", 28, "trailing input after query: RBrace"),
            ("SELECT * WHERE { ?s ?p ?o } LIMIT", 28, "trailing input after query: Word(\"LIMIT\")"),
            ("PREFIX e: <http://e/> SELECT * WHERE { ?s ?p ?o } e:x", 50, "trailing input after query: QName(\"e:x\")"),
            ("SELECT * WHERE { ?s ?p ?o } \"x\"@en", 28, "trailing input after query: Literal(\"\\\"x\\\"@en\")"),
            ("SELECT * WHERE { ?s ?p ?o } \"a\\\"b\"", 28, "trailing input after query: Literal(\"\\\"a\\\\\\\"b\\\"\")"),
            ("SELECT * WHERE { ?s ?p ?o } <http://x>", 28, "trailing input after query: IriRef(\"http://x\")"),
            ("SELECT * WHERE { ?s ?p ?o } _:b", 28, "trailing input after query: Blank(\"b\")"),
            ("SELECT * WHERE { 42 <http://p> ?o }", 17, "expected subject term, found Numeric { text: \"42\", decimal: false }"),
            ("SELECT * WHERE { ?s -3.5 ?o }", 20, "expected predicate term, found Numeric { text: \"-3.5\", decimal: true }"),
            ("SELECT * WHERE { true ?p ?o }", 17, "expected subject term, found Word(\"true\")"),
            ("SELECT * WHERE { * ?p ?o }", 17, "expected subject term, found Word(\"*\")"),
            ("SELECT * WHERE { ?s ?p ; }", 23, "expected object term, found Semicolon"),
            ("SELECT * WHERE { ?s ?p ?o , }", 28, "expected object term, found RBrace"),
            ("SELECT * WHERE { ?s ?p ?o FILTER(?o = ) }", 38, "expected expression term, found RParen"),
            ("SELECT * WHERE { ?s a ?o FILTER(a) }", 32, "expected expression term, found Word(\"a\")"),
            ("SELECT * WHERE { ?s ?p ?o FILTER(! . ) }", 35, "expected expression term, found Dot"),
            ("SELECT * WHERE { ?s ?p ?o FILTER(?o = ,) }", 38, "expected expression term, found Comma"),
            ("SELECT * WHERE { FILTER(?o) && }", 28, "expected subject term, found AndAnd"),
            ("SELECT * WHERE { || }", 17, "expected subject term, found OrOr"),
            ("SELECT * WHERE { ( }", 17, "expected subject term, found LParen"),
            ("SELECT * WHERE { <= ?p ?o }", 17, "expected subject term, found Cmp(Le)"),
            ("SELECT * WHERE { != ?p ?o }", 17, "expected subject term, found Cmp(Ne)"),
            ("SELECT * WHERE { >= ?p ?o }", 17, "expected subject term, found Cmp(Ge)"),
            ("SELECT * WHERE { > ?p ?o }", 17, "expected subject term, found Cmp(Gt)"),
            ("SELECT * WHERE { = ?p ?o }", 17, "expected subject term, found Cmp(Eq)"),
            ("SELECT * WHERE { ?s ?p ?o FILTER(?o ! ?p) }", 36, "expected ')' closing FILTER, found Bang"),
            ("SELECT * WHERE { OPTIONAL ?s }", 26, "expected '{' after OPTIONAL, found Var(\"s\")"),
            ("SELECT * WHERE { FILTER ?o }", 24, "expected '(' after FILTER, found Var(\"o\")"),
            ("SELECT * WHERE { FILTER(?o ?p) }", 27, "expected ')' closing FILTER, found Var(\"p\")"),
            ("SELECT * WHERE { {} UNION ?s }", 26, "expected '{' after UNION, found Var(\"s\")"),
            ("SELECT * WHERE { SERVICE \"lit\" { } }", 25, "SERVICE endpoint must be an IRI or a variable, found Literal(\"\\\"lit\\\"\")"),
            ("SELECT * WHERE { SERVICE _:b { } }", 25, "SERVICE endpoint must be an IRI or a variable, found Blank(\"b\")"),
            ("SELECT * WHERE { SERVICE 7 { } }", 25, "SERVICE endpoint must be an IRI or a variable, found Numeric { text: \"7\", decimal: false }"),
            ("SELECT * WHERE { SERVICE <http://e> <http://f> }", 36, "expected '{' after SERVICE endpoint, found IriRef(\"http://f\")"),
            ("SELECT * WHERE { FILTER((?o = 1 ?p)) }", 32, "expected ')', found Var(\"p\")"),
            ("SELECT * WHERE { ex:s ?p ?o }", 17, "undeclared prefix 'ex:'"),
            ("PREFIX ex: <http://ex/> SELECT * WHERE { ?s ?p \"x\"^^xsd:int }", 47, "undeclared prefix 'xsd:'"),
            ("SELECT * WHERE { SERVICE und:ep { } }", 25, "undeclared prefix 'und:'"),
            ("SELECT * WHERE { ?s ?p \"abc }", 29, "unterminated string literal"),
            ("SELECT * WHERE { ?s ?p \"a\\", 25, "dangling escape in literal"),
            ("SELECT * WHERE { ?s ?p \"x\"@ }", 27, "empty language tag"),
            ("SELECT * WHERE { ?s ?p \"x\"^^<http://t }", 39, "unterminated datatype IRI"),
            ("SELECT * WHERE { ?s ?p \"x\"^^ }", 28, "empty datatype after '^^'"),
            ("SELECT * WHERE { ?s ?p 3abc }", 24, "malformed numeric literal"),
            ("SELECT * WHERE { FILTER(?o & ?p) }", 27, "expected '&&'"),
            ("SELECT * WHERE { FILTER(?o | ?p) }", 27, "expected '||'"),
            ("SELECT ? WHERE", 7, "empty variable name"),
            ("SELECT * WHERE { _: ?p ?o }", 17, "empty blank node label"),
            ("SELECT * WHERE { ?s ?p ?o } @", 28, "unexpected byte 0x40"),
            ("SELECT * WHERE { ?s ?p ?o . ^ }", 28, "unexpected byte 0x5e"),
            ("PREFIX", 6, "expected 'name:' after PREFIX"),
            ("PREFIX x:y <http://p> SELECT", 7, "prefix declaration must end with ':'"),
            ("PREFIX x: y", 10, "expected <IRI> after prefix name"),
            ("PREFIX x: <http://x/> PREFIX", 28, "expected 'name:' after PREFIX"),
            ("SELECT * WHERE { GRAPH <g> { } }", 17, "GRAPH is not supported by the rewriter (see ROADMAP: federation/SERVICE)"),
            ("SELECT * WHERE { minus { } }", 17, "minus is not supported by the rewriter (see ROADMAP: federation/SERVICE)"),
            ("SELECT * WHERE { UNION { } }", 17, "UNION must follow a '{...}' group"),
            ("SELECT * WHERE { ?s ?p ?o", 25, "unexpected end of input inside group pattern"),
            ("SELECT * WHERE { ?s ?p", 22, "unexpected end of input, expected object term"),
            ("SELECT * WHERE { ?s", 19, "unexpected end of input, expected predicate term"),
            ("SELECT * WHERE { OPTIONAL", 25, "unexpected end of input, expected '{' after OPTIONAL"),
            ("SELECT * WHERE { FILTER", 23, "unexpected end of input, expected '(' after FILTER"),
            ("SELECT * WHERE { FILTER(?o", 26, "unexpected end of input, expected ')' closing FILTER"),
            ("SELECT * WHERE { FILTER((?o)", 28, "unexpected end of input, expected ')' closing FILTER"),
            ("SELECT * WHERE { {} UNION", 25, "unexpected end of input, expected '{' after UNION"),
            ("SELECT * WHERE { SERVICE", 24, "unexpected end of input, expected endpoint after SERVICE"),
            ("SELECT * WHERE { SERVICE ?e", 27, "unexpected end of input, expected '{' after SERVICE endpoint"),
        ];
        let bgps: &[(&str, usize, &str)] = &[
            (
                "{ ?s ?p ?o } ?x",
                13,
                "trailing input after '}': Var(\"x\")",
            ),
            (
                "{ OPTIONAL { } }",
                2,
                "OPTIONAL is not allowed in a rule template BGP",
            ),
            (
                "{ Filter(?o) }",
                2,
                "Filter is not allowed in a rule template BGP",
            ),
            (
                "{ ?s ?p ?o",
                10,
                "unexpected end of input inside group pattern",
            ),
            ("?s ?p", 5, "unexpected end of input, expected object term"),
            ("?s ?p ?o }", 9, "expected subject term, found RBrace"),
            (
                "PREFIX p: <http://p/> q:s ?p ?o",
                22,
                "undeclared prefix 'q:'",
            ),
        ];
        let mut it = Interner::new();
        let got = |r: Result<(), ParseError>| r.map_err(|e| (e.offset, e.message));
        for &(input, offset, message) in queries {
            let want = Err((offset, message.to_string()));
            assert_eq!(
                got(parse_query(input, &mut it).map(drop)),
                want,
                "{input:?}"
            );
        }
        for &(input, offset, message) in bgps {
            let want = Err((offset, message.to_string()));
            assert_eq!(got(parse_bgp(input, &mut it).map(drop)), want, "{input:?}");
        }
        for (shape, offset) in [("group", 271), ("and", 2963), ("bang", 45), ("paren", 172)] {
            let e = parse_query(&nested(shape, MAX_NESTING as usize + 1), &mut it).unwrap_err();
            assert_eq!(
                (e.offset, e.message.as_str()),
                (offset, "nesting deeper than 128 levels"),
                "{shape}"
            );
        }
    }

    /// A parse makes ≈54 token steps per `lib_cold` query, each returning
    /// one of these. At 16 bytes or less they return in registers; with a
    /// by-value 32-byte `ParseError` they all returned through memory, and
    /// boxing the error raised `lib_cold` throughput by ≈15 % (CHANGES.md
    /// has the paired runs). This fails before a by-value error comes back.
    #[test]
    fn hot_path_results_are_register_sized() {
        use std::mem::size_of;
        for (what, size) in [
            (
                "Tokenizer::next's result",
                size_of::<Parsed<Option<Token>>>(),
            ),
            ("Parsed<Term>", size_of::<Parsed<Term>>()),
            ("Parsed<SubExpr>", size_of::<Parsed<SubExpr>>()),
            ("Parsed<()>", size_of::<Parsed<()>>()),
        ] {
            assert!(
                size <= 16,
                "{what} is {size} bytes: over 16 it returns through memory, \
                 which cost ≈15 % of lib_cold throughput when last measured"
            );
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
