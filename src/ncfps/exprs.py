"""Small expression language over noncommutative words.

The grammar covers sums and differences, concatenation with ``.``, the two
commutative products as infix keywords ``shuffle`` and ``stuffle``, scalar
prefixes ``c*``, and a postfix Kleene star.  An expression compiles either to a
:class:`~ncfps.series.TruncatedSeries` (for bounded expansion) or to a
:class:`~ncfps.automata.LinearRepresentation` (for exact, star-closed work).

Precedence, loosest to tightest::

    expr   := ['+' | '-'] mul (('+' | '-') mul)*
    mul    := cat (('shuffle' | 'stuffle') cat)*
    cat    := scaled ('.' scaled)*
    scaled := [COEFF '*'] post
    post   := atom ('*')*
    atom   := LETTER | COEFF | '(' expr ')'

A name token is a letter when it matches ``[xy]<digits>``; any other name is
handed to the coefficient ring's parser, so ``2/3`` or ``t^2`` are single
tokens.  ``1`` therefore denotes the empty word.  The ``*`` after a
coefficient token reads as scalar multiplication exactly when an atom
follows, so ``2*x0*`` is 2 times the star of x0 while ``x0*`` stars the
letter.  ``x0*x1`` is a syntax error: concatenation is always spelled ``.``.
"""

import operator
import re

from .rings import QQ, ring_named
from .series import NCPolynomial, TruncatedSeries
from .words import _LETTER_RE, Alphabet

__all__ = [
    "ExprSyntaxError",
    "parse_expression",
    "expression_letters",
    "infer_alphabet",
    "to_series",
    "to_representation",
    "series_of",
    "representation_of",
]


class ExprSyntaxError(ValueError):
    """Raised when an expression cannot be tokenized, parsed, or compiled."""


_NAME_RE = re.compile(r"[0-9A-Za-z^/]+")
_OPS = frozenset("()+-.*")
_KEYWORDS = frozenset(("shuffle", "stuffle"))


def _lex(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append(("OP", ch, i))
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if not m:
            raise ExprSyntaxError(f"unexpected character {ch!r} at position {i}")
        toks.append(("NAME", m.group(), i))
        i = m.end()
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _lex(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _fail(self, msg, tok):
        where = f"at position {tok[2]}" if tok is not None else "at end of expression"
        raise ExprSyntaxError(f"{msg} {where}")

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            self._fail(f"unexpected {tok[1]!r}", tok)
        return node

    def _take(self, kind, texts):
        """The next token, consumed, if it has this kind and one of these texts; else None."""
        tok = self._peek()
        if tok is None or tok[0] != kind or tok[1] not in texts:
            return None
        self.i += 1
        return tok

    def _term(self, sign):
        # a sign before a term, optional before the first; - is the scalar prefix -1
        node = self.mul()
        return ("scale", "-1", sign[2], node) if sign and sign[1] == "-" else node

    def expr(self):
        node = self._term(self._take("OP", "+-"))
        while sign := self._take("OP", "+-"):
            node = ("add", node, self._term(sign))
        return node

    def mul(self):
        node = self.cat()
        while op := self._take("NAME", _KEYWORDS):
            node = (op[1], node, self.cat())
        return node

    def cat(self):
        node = self.scaled()
        while self._take("OP", "."):
            node = ("cat", node, self.scaled())
        return node

    def _starts_atom(self, i):
        if i >= len(self.toks):
            return False
        kind, text, _ = self.toks[i]
        if kind == "OP":
            return text == "("
        return text not in _KEYWORDS

    def _scalar_prefix_next(self):
        # `c * <atom...>` is scalar multiplication only when c is a
        # non-letter name and an atom follows; otherwise `*` is postfix.
        tok = self._peek()
        return (
            tok is not None
            and tok[0] == "NAME"
            and tok[1] not in _KEYWORDS
            and not _LETTER_RE.match(tok[1])
            and self.i + 1 < len(self.toks)
            and self.toks[self.i + 1][:2] == ("OP", "*")
            and self._starts_atom(self.i + 2)
        )

    def scaled(self):
        coeffs = []
        while self._scalar_prefix_next():
            coeffs.append(self._next())
            self._next()
        node = self.post()
        for _, text, pos in reversed(coeffs):
            node = ("scale", text, pos, node)
        return node

    def post(self):
        node = self.atom()
        while self._take("OP", "*"):
            node = ("star", node)
        return node

    def atom(self):
        tok = self._next()
        if tok is None:
            self._fail("unexpected end", tok)
        kind, text, pos = tok
        if kind == "OP":
            if text == "(":
                node = self.expr()
                if not self._take("OP", ")"):
                    self._fail("expected ')'", self._peek())
                return node
            self._fail(f"unexpected {text!r}", tok)
        if text in _KEYWORDS:
            self._fail(f"{text!r} needs a left operand", tok)
        if _LETTER_RE.match(text):
            return ("word", text)
        return ("num", text, pos)


def parse_expression(text):
    """Parse an expression into a node tree without compiling it."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression")
    return _Parser(text).parse()


def expression_letters(node):
    """The set of letters appearing in a parsed expression."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n[0] == "word":
            out.add(n[1])
        elif n[0] == "scale":
            stack.append(n[3])
        elif n[0] != "num":
            stack.extend(n[1:])
    return out


def infer_alphabet(node):
    """Choose an alphabet from the letters used: finite x's, or the graded y's."""
    letters = expression_letters(node)
    if not letters:
        return Alphabet.x(1)
    kinds = {s[0] for s in letters}
    if kinds == {"y"}:
        return Alphabet.y()
    if kinds == {"x"}:
        return Alphabet.from_letters(sorted(letters, key=lambda s: int(s[1:])))
    raise ExprSyntaxError("expression mixes x letters with y letters")


def _coefficient(ring, text, pos):
    try:
        return ring.parse(text)
    except (ValueError, TypeError):
        raise ExprSyntaxError(
            f"cannot read {text!r} at position {pos} as an element of {ring.name}"
        ) from None


def _compile(node, ring, const, letter, star, ops):
    """Fold a parsed expression bottom-up: ``const`` builds a constant from
    a ring element, ``letter`` a letter from its name, ``star`` stars a built
    value, ``ops`` maps each binary node kind to its operation, and a scalar
    prefix calls the built value's ``scale``.  A sign's -1 is coerced, not
    parsed: no name token holds a ``-``, so only a sign writes it."""
    kind, tables = node[0], (ring, const, letter, star, ops)
    if kind == "num":
        return const(_coefficient(ring, node[1], node[2]))
    if kind == "word":
        return letter(node[1])
    if kind == "scale":
        c = ring.coerce(-1) if node[1] == "-1" else _coefficient(ring, node[1], node[2])
        return _compile(node[3], *tables).scale(c)
    if kind == "star":
        return star(_compile(node[1], *tables))
    return ops[kind](_compile(node[1], *tables), _compile(node[2], *tables))


_SERIES_OPS = {
    "add": operator.add,
    "cat": operator.mul,
    "shuffle": lambda a, b: a.shuffle(b),
    "stuffle": lambda a, b: a.stuffle(b),
}


def to_series(node, alphabet, ring, bound):
    """Compile a parsed expression to a series truncated at the given grade."""

    def term(w, c):
        return TruncatedSeries(NCPolynomial(alphabet, ring, {w: c}), bound)

    def star(s):
        try:
            return s.star()
        except ZeroDivisionError:
            raise ValueError("cannot star a series whose constant term is 1") from None

    return _compile(node, ring, lambda c: term((), c), lambda x: term((x,), ring.one), star, _SERIES_OPS)


def to_representation(node, alphabet, ring):
    """Compile a parsed expression to a linear representation.

    The automaton constructors load here, on first use, so that expansion
    runs without them.
    """
    from .automata import rep_conc, rep_polynomial, rep_shuffle, rep_star, rep_stuffle, rep_sum, rep_word

    def const(c):
        return rep_polynomial(NCPolynomial(alphabet, ring, {(): c}))

    ops = {"add": rep_sum, "cat": rep_conc, "shuffle": rep_shuffle, "stuffle": rep_stuffle}
    return _compile(node, ring, const, lambda x: rep_word(alphabet, ring, (x,)), rep_star, ops)


def _resolve(text, ring, alphabet):
    node = parse_expression(text)
    if isinstance(ring, str):
        ring = ring_named(ring)
    if ring is None:
        ring = QQ
    if alphabet is None:
        alphabet = infer_alphabet(node)
    return node, ring, alphabet


def series_of(text, bound, ring=None, alphabet=None):
    """Parse and expand an expression up to the given grade bound."""
    node, ring, alphabet = _resolve(text, ring, alphabet)
    return to_series(node, alphabet, ring, bound)


def representation_of(text, ring=None, alphabet=None):
    """Parse an expression and compile it to a linear representation."""
    node, ring, alphabet = _resolve(text, ring, alphabet)
    return to_representation(node, alphabet, ring)
