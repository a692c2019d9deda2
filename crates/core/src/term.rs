//! Interned RDF terms.
//!
//! A [`Term`] packs a 3-bit kind tag and a 29-bit payload into a single
//! `u32`, so a [`crate::pattern::TriplePattern`] is a 12-byte `Copy` struct
//! and term equality/hashing are integer ops. For parsed kinds the payload
//! is an interner symbol and the textual form lives in the
//! [`crate::interner::Interner`]; for [`TermKind::Fresh`] the payload is a
//! per-rewrite counter and no string exists until render time.
//!
//! A symbol is one of two things, told apart by payload bit 28
//! ([`Symbol::LOCAL`]): an id of the [`crate::interner::Interner`] (bit
//! clear, at most [`Symbol::MAX`]), or an index into the
//! [`crate::interner::RequestTerms`] that parsed it (bit set). The kind
//! tag is untouched by it, so a request-local `?x` is still a
//! [`TermKind::Var`] to the rewriter, and a request-local IRI lies past
//! every rule table, which reads it as "no rule".

use std::fmt;

/// Index into an [`crate::interner::Interner`], or with [`Symbol::LOCAL`]
/// set into a [`crate::interner::RequestTerms`]. The top three bits of a
/// [`Term`] hold the kind, so the payload has 29 bits.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Largest interner id: the interner mints ids below 2^28, leaving the
    /// payload's bit 28 to [`Symbol::LOCAL`].
    pub const MAX: u32 = (1 << 28) - 1;

    /// The payload bit of a request-local symbol: the text of such a
    /// symbol is in the [`crate::interner::RequestTerms`] that parsed it,
    /// not in the shared vocabulary, and it is valid until that table's
    /// next parse.
    pub const LOCAL: u32 = 1 << 28;

    /// The symbol's payload: an interner id, or [`Symbol::LOCAL`] plus an
    /// index into a request table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether the symbol is request-local (see [`Symbol::LOCAL`]).
    #[inline]
    pub fn is_local(self) -> bool {
        self.0 & Symbol::LOCAL != 0
    }
}

/// The syntactic category of an RDF term in a triple pattern.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum TermKind {
    /// An IRI; the symbol resolves to the absolute IRI without angle brackets.
    Iri = 0,
    /// A literal; the symbol resolves to the full surface form, quotes and
    /// any `@lang` / `^^<datatype>` suffix included.
    Literal = 1,
    /// A blank node; the symbol resolves to the label without `_:`.
    Blank = 2,
    /// A variable; the symbol resolves to the name without `?`/`$`.
    Var = 3,
    /// A rewriter-introduced existential variable. The payload is a counter
    /// minted per rewrite call, **not** an interner symbol: no string is ever
    /// interned for a fresh variable, and a `Fresh` term can never compare
    /// equal to a parsed [`TermKind::Var`], so capture avoidance is
    /// structural rather than name-based. Rendering materializes a `g{n}`
    /// name lazily (see `crate::pattern`).
    Fresh = 4,
}

/// A tagged, interned RDF term: 4 bytes, `Copy`, integer compare/hash.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term(u32);

/// Bit position of the 3-bit kind tag; the symbol/counter payload sits
/// below. `pub(crate)` so the dense alignment index can decode raw terms
/// without duplicating the packing.
pub(crate) const TAG_SHIFT: u32 = 29;
pub(crate) const SYM_MASK: u32 = (1 << TAG_SHIFT) - 1;

impl Term {
    #[inline]
    pub fn new(kind: TermKind, sym: Symbol) -> Term {
        debug_assert!(sym.0 <= SYM_MASK);
        Term(((kind as u32) << TAG_SHIFT) | (sym.0 & SYM_MASK))
    }

    #[inline]
    pub fn iri(sym: Symbol) -> Term {
        Term::new(TermKind::Iri, sym)
    }

    #[inline]
    pub fn literal(sym: Symbol) -> Term {
        Term::new(TermKind::Literal, sym)
    }

    #[inline]
    pub fn blank(sym: Symbol) -> Term {
        Term::new(TermKind::Blank, sym)
    }

    #[inline]
    pub fn var(sym: Symbol) -> Term {
        Term::new(TermKind::Var, sym)
    }

    /// Fresh existential variable `n` of one rewrite call. The counter
    /// occupies all 29 payload bits but is not an interner index. Hard
    /// assert (mirroring the interner's symbol-space check): wrapping in
    /// release builds would make two distinct existentials compare equal
    /// and silently join unrelated solutions.
    #[inline]
    pub fn fresh(n: u32) -> Term {
        assert!(n <= SYM_MASK, "fresh counter exceeded 2^29");
        Term(((TermKind::Fresh as u32) << TAG_SHIFT) | n)
    }

    #[inline]
    pub fn kind(self) -> TermKind {
        match self.0 >> TAG_SHIFT {
            0 => TermKind::Iri,
            1 => TermKind::Literal,
            2 => TermKind::Blank,
            3 => TermKind::Var,
            _ => TermKind::Fresh,
        }
    }

    /// Interner symbol for parsed kinds. Meaningless for [`TermKind::Fresh`]
    /// terms — use [`Term::fresh_index`] for those.
    #[inline]
    pub fn symbol(self) -> Symbol {
        Symbol(self.0 & SYM_MASK)
    }

    /// The per-rewrite counter of a [`TermKind::Fresh`] term.
    #[inline]
    pub fn fresh_index(self) -> u32 {
        debug_assert!(self.is_fresh());
        self.0 & SYM_MASK
    }

    /// True for parsed (`?x`) variables only; fresh existentials are a
    /// distinct kind, see [`Term::is_fresh`].
    #[inline]
    pub fn is_var(self) -> bool {
        self.kind() == TermKind::Var
    }

    #[inline]
    pub fn is_fresh(self) -> bool {
        self.kind() == TermKind::Fresh
    }

    /// Raw packed representation; stable within one process, useful as a
    /// compact hash key.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstruct a term from its [`Term::raw`] packing. Only meaningful
    /// for values previously produced by `raw()` in the same process (the
    /// dense alignment index stores rule targets this way).
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Term {
        Term(raw)
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fresh() {
            write!(f, "Term(Fresh, g{})", self.fresh_index())
        } else {
            write!(f, "Term({:?}, #{})", self.kind(), self.symbol().0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Term>(), 4);
    }

    #[test]
    fn tag_round_trip() {
        for kind in [
            TermKind::Iri,
            TermKind::Literal,
            TermKind::Blank,
            TermKind::Var,
        ] {
            let t = Term::new(kind, Symbol(12345));
            assert_eq!(t.kind(), kind);
            assert_eq!(t.symbol(), Symbol(12345));
        }
        let t = Term::new(TermKind::Var, Symbol(Symbol::MAX));
        assert_eq!(t.kind(), TermKind::Var);
        assert_eq!(t.symbol(), Symbol(Symbol::MAX));
        // The local bit is payload: it keeps the kind and never aliases the
        // base id with the same low bits.
        let local = Term::new(TermKind::Var, Symbol(Symbol::LOCAL | 7));
        assert_eq!(local.kind(), TermKind::Var);
        assert!(local.symbol().is_local() && !Symbol(Symbol::MAX).is_local());
        assert_ne!(local, Term::var(Symbol(7)));
    }

    #[test]
    fn fresh_round_trip_and_never_equals_var() {
        let f = Term::fresh(7);
        assert_eq!(f.kind(), TermKind::Fresh);
        assert!(f.is_fresh() && !f.is_var());
        assert_eq!(f.fresh_index(), 7);
        // Even with identical payload bits, a fresh term differs from every
        // parsed kind — the structural capture-avoidance guarantee.
        assert_ne!(f, Term::var(Symbol(7)));
        assert_ne!(f, Term::iri(Symbol(7)));
        assert_ne!(f, Term::blank(Symbol(7)));
        let max = Term::fresh(Symbol::MAX);
        assert_eq!(max.fresh_index(), Symbol::MAX);
        assert_eq!(max.kind(), TermKind::Fresh);
    }
}
