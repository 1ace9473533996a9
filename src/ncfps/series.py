"""Noncommutative polynomials and truncated series over a word algebra.

The same underlying data (a finite word-to-coefficient map) supports three
associative products:

* concatenation, written with ``*``;
* the shuffle product (interleavings preserving letter order);
* the quasi-shuffle product on Y-type words, where besides interleaving two
  leading letters may merge, adding their grades: the grade-i and grade-j
  letters contribute a grade-(i+j) letter.

Coproducts returning :class:`TensorPoly` are duals of these products under
the coefficient pairing: ``deconcat`` is adjoint to concatenation,
``unshuffle`` to the shuffle, ``unstuffle`` to the quasi-shuffle.

:class:`TruncatedSeries` tracks a grade bound alongside the coefficients and
propagates it through arithmetic, which is what makes fixed-point
constructions (star, exp, log) terminate.  exp and log run Horner's rule,
each product truncated at the grade the remaining steps still need.

Products and coproducts go through the ring's ``lift``/``lower`` pair: over
Q each operand becomes integer numerators over one common denominator, the
kernel loop sums integer products, and each output coefficient becomes one
``Fraction`` at the end, one gcd per coefficient instead of one per product
and sum.  For Q[t], Q(z) and floats the pair leaves coefficients as they are.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .words import parse_word, word_text

__all__ = [
    "NCPolynomial",
    "TruncatedSeries",
    "TensorPoly",
    "shuffle_words",
    "stuffle_words",
    "conc_words",
    "deconcat",
    "unshuffle",
    "unstuffle",
    "series_text",
    "parse_series_text",
    "y_poly_to_x",
    "x_poly_to_y",
]


# ---------------------------------------------------------------------------
# integer word-product kernels, alphabet-agnostic and cached
#
# Cached values are tuples of (word, multiplicity) pairs; callers must not
# assume any particular order.


@lru_cache(maxsize=None)
def shuffle_words(u, v):
    """All interleavings of u and v with multiplicities."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, c in shuffle_words(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in shuffle_words(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return tuple(out.items())


@lru_cache(maxsize=None)
def _stuffle_idx(u, v):
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, c in _stuffle_idx(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in _stuffle_idx(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in _stuffle_idx(u[1:], v[1:]):
        key = (u[0] + v[0],) + w
        out[key] = out.get(key, 0) + c
    return tuple(out.items())


def _y_idx(word):
    return tuple(int(c[1:]) for c in word)


def _idx_y(idx):
    return tuple(f"y{k}" for k in idx)


def stuffle_words(u, v):
    """Quasi-shuffle of two Y-type words: interleavings plus letter merges."""
    for c in u + v:
        if c[0] != "y":
            raise ValueError(f"quasi-shuffle needs Y-type letters, got {c!r}")
    return tuple((_idx_y(w), c) for w, c in _stuffle_idx(_y_idx(u), _y_idx(v)))


def conc_words(u, v):
    return ((u + v, 1),)


# ---------------------------------------------------------------------------
# shared by the polynomial and tensor classes


def _built(cls, alphabet, ring, terms):
    """Instance over words and ring elements that arithmetic on valid operands
    produced: drops zero coefficients, skips word validation and coercion."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "alphabet", alphabet)
    object.__setattr__(obj, "ring", ring)
    object.__setattr__(obj, "terms", {k: c for k, c in terms.items() if c})
    return obj


def _by_grade(terms, grade):
    """Items of a term dict bucketed by grade, in ascending grade order."""
    buckets = {}
    for k, c in terms.items():
        buckets.setdefault(grade(k), []).append((k, c))
    return sorted(buckets.items())


def _bucket_pairs(left, right, grade, bound):
    """(left items, right items) for every pair of grade buckets whose grades
    sum to at most the bound; one pair of all items when there is no bound."""
    if bound is None:
        return [(left.items(), right.items())]
    rb = _by_grade(right, grade)
    out = []
    for i, a in _by_grade(left, grade):
        for j, b in rb:
            if i + j > bound:
                break
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------


class NCPolynomial:
    """Finite linear combination of words with coefficients in a ring."""

    __slots__ = ("alphabet", "ring", "terms")

    def __init__(self, alphabet, ring, terms):
        clean = {}
        for w, c in terms.items():
            c = ring.coerce(c)
            if c != ring.zero:
                alphabet.validate_word(w)
                clean[w] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCPolynomial is immutable")

    @classmethod
    def zero(cls, alphabet, ring):
        return cls(alphabet, ring, {})

    @classmethod
    def one(cls, alphabet, ring):
        return cls(alphabet, ring, {(): ring.one})

    @classmethod
    def word(cls, alphabet, ring, w, coeff=None):
        return cls(alphabet, ring, {tuple(w): ring.one if coeff is None else coeff})

    def coeff(self, w):
        return self.terms.get(tuple(w), self.ring.zero)

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.coeff(())

    def support(self):
        return sorted(self.terms, key=self.alphabet.word_key)

    def max_grade(self):
        if not self.terms:
            return 0
        return max(self.alphabet.word_grade(w) for w in self.terms)

    def _check_compatible(self, other):
        if not isinstance(other, NCPolynomial):
            raise TypeError(f"expected NCPolynomial, got {other!r}")
        if other.alphabet != self.alphabet or other.ring != self.ring:
            raise ValueError("operands live over different alphabets or rings")
        return other

    def _built(self, terms):
        return _built(NCPolynomial, self.alphabet, self.ring, terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or type(other).__name__ in ("Poly", "RatFun"):
            other = NCPolynomial(self.alphabet, self.ring, {(): other})
        o = self._check_compatible(other)
        out = dict(self.terms)
        for w, c in o.terms.items():
            out[w] = out.get(w, self.ring.zero) + c
        return self._built(out)

    __radd__ = __add__

    def __neg__(self):
        return self._built({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPolynomial):
            other = NCPolynomial(self.alphabet, self.ring, {(): other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._built({w: c * cw for w, cw in self.terms.items()})

    def _word_product(self, other, kernel, bound=None):
        o = self._check_compatible(other)
        ring = self.ring
        da, a = ring.lift(self.terms)
        db, b = ring.lift(o.terms)
        out = {}
        # all three word products are grade-additive, so only grade buckets
        # whose grades sum to at most the bound can contribute below it
        for left, right in _bucket_pairs(a, b, self.alphabet.word_grade, bound):
            for u, cu in left:
                for v, cv in right:
                    c = cu * cv
                    for w, m in kernel(u, v):
                        inc = c if m == 1 else c * m
                        prev = out.get(w)
                        out[w] = inc if prev is None else prev + inc
        return self._built(ring.lower(out, da * db))

    def __mul__(self, other):
        """Concatenation product, or scalar scaling."""
        if isinstance(other, NCPolynomial):
            return self._word_product(other, conc_words)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything; word products never reach here
        return self.scale(other)

    def shuffle(self, other):
        return self._word_product(other, shuffle_words)

    def stuffle(self, other):
        if self.alphabet.kind != "Y":
            raise ValueError("quasi-shuffle is defined on the graded Y alphabet")
        return self._word_product(other, stuffle_words)

    def truncate(self, bound):
        g = self.alphabet.word_grade
        return self._built({w: c for w, c in self.terms.items() if g(w) <= bound})

    def homogeneous_component(self, grade):
        g = self.alphabet.word_grade
        return self._built({w: c for w, c in self.terms.items() if g(w) == grade})

    def pair(self, other):
        """Coefficient pairing: sum over words of the product of coefficients."""
        o = self._check_compatible(other)
        a, b = (self.terms, o.terms) if len(self.terms) <= len(o.terms) else (o.terms, self.terms)
        acc = self.ring.zero
        for w, c in a.items():
            d = b.get(w)
            if d is not None:
                acc = acc + c * d
        return acc

    def left_quotient(self, u):
        """Series with coefficient of w equal to this one's coefficient of u.w."""
        u = tuple(u)
        n = len(u)
        return self._built({w[n:]: c for w, c in self.terms.items() if w[:n] == u})

    def right_quotient(self, u):
        """Series with coefficient of w equal to this one's coefficient of w.u."""
        u = tuple(u)
        n = len(u)
        if n == 0:
            return self
        return self._built({w[:-n]: c for w, c in self.terms.items() if w[-n:] == u})

    def map_ring(self, ring, f=None):
        conv = f if f is not None else ring.coerce
        return NCPolynomial(self.alphabet, ring, {w: conv(c) for w, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"NCPolynomial({series_text(self)!r})"


# ---------------------------------------------------------------------------


class TensorPoly:
    """Finite combination of word pairs u (x) v over a common alphabet."""

    __slots__ = ("alphabet", "ring", "terms")

    def __init__(self, alphabet, ring, terms):
        clean = {}
        for (u, v), c in terms.items():
            c = ring.coerce(c)
            if c != ring.zero:
                clean[(u, v)] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPoly is immutable")

    @classmethod
    def zero(cls, alphabet, ring):
        return cls(alphabet, ring, {})

    @classmethod
    def of(cls, p, q):
        """Tensor of two polynomials, componentwise products of coefficients."""
        p._check_compatible(q)
        terms = {}
        for u, cu in p.terms.items():
            for v, cv in q.terms.items():
                terms[(u, v)] = cu * cv
        return _built(cls, p.alphabet, p.ring, terms)

    def _built(self, terms):
        return _built(TensorPoly, self.alphabet, self.ring, terms)

    def coeff(self, u, v):
        return self.terms.get((tuple(u), tuple(v)), self.ring.zero)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, self.ring.zero) + c
        return self._built(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, self.ring.zero) - c
        return self._built(out)

    def __neg__(self):
        return self._built({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._built({k: c * cw for k, cw in self.terms.items()})

    def mul(self, other, left_kernel=conc_words, right_kernel=conc_words, bound=None):
        """Componentwise product; each side may use its own word product.

        With a bound, only pairs of terms whose left words' grades sum to at
        most the bound are formed.  The result is then the full product less
        every term whose left word lies above the bound, provided the left
        kernel is grade-additive: each word it returns has the grade of its
        two arguments together, as concatenation, the shuffle and the
        quasi-shuffle do.
        """
        g = self.alphabet.word_grade
        ring = self.ring
        da, a = ring.lift(self.terms)
        db, b = ring.lift(other.terms)
        out = {}
        for left, right in _bucket_pairs(a, b, lambda k: g(k[0]), bound):
            for (u1, v1), c1 in left:
                for (u2, v2), c2 in right:
                    c = c1 * c2
                    for wu, mu in left_kernel(u1, u2):
                        for wv, mv in right_kernel(v1, v2):
                            key = (wu, wv)
                            m = mu * mv
                            inc = c if m == 1 else c * m
                            prev = out.get(key)
                            out[key] = inc if prev is None else prev + inc
        return self._built(ring.lower(out, da * db))

    def pair(self, p, q):
        """Pair against p (x) q: sum of coeff * p[u] * q[v]."""
        acc = self.ring.zero
        for (u, v), c in self.terms.items():
            pu = p.terms.get(u)
            if pu is None:
                continue
            qv = q.terms.get(v)
            if qv is None:
                continue
            acc = acc + c * pu * qv
        return acc

    def truncate(self, bound):
        g = self.alphabet.word_grade
        return self._built({k: c for k, c in self.terms.items() if g(k[0]) + g(k[1]) <= bound})

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self):
        bits = []
        for (u, v), c in sorted(
            self.terms.items(), key=lambda kv: (self.alphabet.word_key(kv[0][0]), self.alphabet.word_key(kv[0][1]))
        ):
            bits.append(f"{self.ring.format(c)}*{word_text(u)}(x){word_text(v)}")
        return "TensorPoly(" + (" + ".join(bits) if bits else "0") + ")"


# Coproduct kernels of one word.  The recursive two keep the coproducts of
# the suffixes they meet in `memo`, a dict that lives for one coproduct call,
# so that the words of one polynomial share their suffixes and nothing
# outlives the call.


def _deconcat_word(w, memo=None):
    """Every split of w into prefix (x) suffix; nothing to memoise."""
    return tuple(((w[:i], w[i:]), 1) for i in range(len(w) + 1))


def _unshuffle_word(w, memo=None):
    """Sum over all splittings of w into a pair of complementary subwords."""
    if not w:
        return ((((), ()), 1),)
    memo = {} if memo is None else memo
    got = memo.get(w)
    if got is None:
        a = w[0]
        out = {}
        for (u, v), c in _unshuffle_word(w[1:], memo):
            k1 = ((a,) + u, v)
            out[k1] = out.get(k1, 0) + c
            k2 = (u, (a,) + v)
            out[k2] = out.get(k2, 0) + c
        got = memo[w] = tuple(out.items())
    return got


def _unstuffle_word(w, memo=None):
    """Product over letters of the factors yk -> yk(x)1 + 1(x)yk + sum yi(x)yj."""
    if not w:
        return ((((), ()), 1),)
    memo = {} if memo is None else memo
    got = memo.get(w)
    if got is None:
        k = int(w[0][1:])
        factor = [(((w[0],), ()), 1), (((), (w[0],)), 1)]
        for i in range(1, k):
            factor.append((((f"y{i}",), (f"y{k - i}",)), 1))
        tail = _unstuffle_word(w[1:], memo)
        out = {}
        for (u1, v1), c1 in factor:
            for (u2, v2), c2 in tail:
                key = (u1 + u2, v1 + v2)
                out[key] = out.get(key, 0) + c1 * c2
        got = memo[w] = tuple(out.items())
    return got


def _coproduct(p, word_kernel):
    ring = p.ring
    d, terms = ring.lift(p.terms)
    memo = {}
    out = {}
    for w, c in terms.items():
        for key, m in word_kernel(w, memo):
            prev = out.get(key)
            inc = c * m
            out[key] = inc if prev is None else prev + inc
    return _built(TensorPoly, p.alphabet, ring, ring.lower(out, d))


def deconcat(p):
    """Coproduct adjoint to concatenation: w -> sum of prefix (x) suffix."""
    return _coproduct(p, _deconcat_word)


def unshuffle(p):
    """Coproduct adjoint to the shuffle: letters are primitive, extended
    multiplicatively over concatenation."""
    return _coproduct(p, _unshuffle_word)


def unstuffle(p):
    """Coproduct adjoint to the quasi-shuffle on Y-type words."""
    if p.alphabet.kind != "Y":
        raise ValueError("unstuffle is defined on the graded Y alphabet")
    return _coproduct(p, _unstuffle_word)


# ---------------------------------------------------------------------------


class TruncatedSeries:
    """A series known exactly on all words of grade <= bound."""

    __slots__ = ("poly", "bound")

    def __init__(self, poly, bound):
        if bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        object.__setattr__(self, "poly", poly.truncate(bound))
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def alphabet(self):
        return self.poly.alphabet

    @property
    def ring(self):
        return self.poly.ring

    def coeff(self, w):
        w = tuple(w)
        if self.alphabet.word_grade(w) > self.bound:
            raise ValueError(f"word {word_text(w)!r} lies beyond the truncation bound {self.bound}")
        return self.poly.coeff(w)

    def _join(self, other):
        if isinstance(other, TruncatedSeries):
            return other.poly, min(self.bound, other.bound)
        if isinstance(other, NCPolynomial):
            return other, self.bound
        raise TypeError(f"cannot combine TruncatedSeries with {other!r}")

    def __add__(self, other):
        o, b = self._join(other)
        return TruncatedSeries(self.poly + o, b)

    def __sub__(self, other):
        o, b = self._join(other)
        return TruncatedSeries(self.poly - o, b)

    def __neg__(self):
        return TruncatedSeries(-self.poly, self.bound)

    def scale(self, c):
        return TruncatedSeries(self.poly.scale(c), self.bound)

    def __mul__(self, other):
        if isinstance(other, (TruncatedSeries, NCPolynomial)):
            o, b = self._join(other)
            return TruncatedSeries(self.poly._word_product(o, conc_words, b), b)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def shuffle(self, other):
        o, b = self._join(other)
        return TruncatedSeries(self.poly._word_product(o, shuffle_words, b), b)

    def stuffle(self, other):
        o, b = self._join(other)
        if self.alphabet.kind != "Y":
            raise ValueError("quasi-shuffle is defined on the graded Y alphabet")
        return TruncatedSeries(self.poly._word_product(o, stuffle_words, b), b)

    def star(self):
        """Concatenation star: the unique T with T = 1 + self * T.

        Needs 1 - (constant term) invertible in the coefficient ring.
        """
        ring = self.ring
        a = self.poly.constant_term()
        inv = ring.invert(ring.one - a)  # raises when not a unit
        comps = [(i, si) for i, si in _by_grade(self.poly.terms, self.alphabet.word_grade) if i]
        out = {(): inv}
        t_by_grade = {0: {(): inv}}
        for g in range(1, self.bound + 1):
            acc = {}
            for i, si in comps:
                if i > g:
                    break
                tj = t_by_grade.get(g - i)
                if not tj:
                    continue
                for u, cu in si:
                    for v, cv in tj.items():
                        w = u + v
                        prev = acc.get(w)
                        inc = cu * cv
                        acc[w] = inc if prev is None else prev + inc
            comp = {w: inv * c for w, c in acc.items() if c}
            if comp:
                t_by_grade[g] = comp
                out.update(comp)
        return TruncatedSeries(self.poly._built(out), self.bound)

    def exp(self):
        """Concatenation exponential; requires zero constant term.

        Horner's rule on the n = bound terms: G_n = 1 and
        G_(k-1) = 1 + (S/k).G_k, so exp(S) = G_0.  Since S has no constant
        term, G_k is needed only to grade n - k, and each product is
        truncated there.
        """
        if self.poly.constant_term() != self.ring.zero:
            raise ValueError("exp needs a series with zero constant term")
        s, n = self.poly, self.bound
        g = NCPolynomial.one(self.alphabet, self.ring)
        for k in range(n, 0, -1):
            g = s.scale(Fraction(1, k))._word_product(g, conc_words, n - k + 1) + 1
        return TruncatedSeries(g, n)

    def log(self):
        """Concatenation logarithm; requires constant term one.

        Horner's rule on log(1 + D) = sum of c_k D^k, c_k = (-1)^(k-1)/k:
        H_n = c_n, H_k = c_k + D.H_(k+1) and log = D.H_1, with H_k truncated
        at grade n - k.
        """
        if self.poly.constant_term() != self.ring.one:
            raise ValueError("log needs a series with constant term one")
        d, n = self.poly - 1, self.bound
        h = NCPolynomial.zero(self.alphabet, self.ring)
        for k in range(n, 0, -1):
            h = d._word_product(h, conc_words, n - k) + Fraction((-1) ** (k - 1), k)
        return TruncatedSeries(d._word_product(h, conc_words, n), n)

    def left_quotient(self, u):
        u = tuple(u)
        b = self.bound - self.alphabet.word_grade(u)
        if b < 0:
            raise ValueError("insufficient truncation bound for the quotient")
        return TruncatedSeries(self.poly.left_quotient(u), b)

    def right_quotient(self, u):
        u = tuple(u)
        b = self.bound - self.alphabet.word_grade(u)
        if b < 0:
            raise ValueError("insufficient truncation bound for the quotient")
        return TruncatedSeries(self.poly.right_quotient(u), b)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.bound == other.bound and self.poly == other.poly

    def __repr__(self):
        return f"TruncatedSeries({series_text(self.poly)!r}, bound={self.bound})"


# ---------------------------------------------------------------------------
# letterwise substitution between the two alphabet families


def y_poly_to_x(p, target_alphabet):
    """Linear extension of yk -> x0^(k-1) x1; target must contain x0 and x1."""
    from .words import y_word_to_x

    terms = {}
    for w, c in p.terms.items():
        xw = y_word_to_x(w)
        terms[xw] = terms.get(xw, p.ring.zero) + c
    return NCPolynomial(target_alphabet, p.ring, terms)


def x_poly_to_y(p, target_alphabet):
    """Linear extension of the inverse substitution; words ending in x0 map to zero."""
    from .words import x_word_to_y

    terms = {}
    for w, c in p.terms.items():
        yw = x_word_to_y(w)
        if yw is None:
            continue
        terms[yw] = terms.get(yw, p.ring.zero) + c
    return NCPolynomial(target_alphabet, p.ring, terms)


# ---------------------------------------------------------------------------
# text form
#
# Series print as sign-separated terms in grade-then-lex word order, each
# term "coeff*word" with the coefficient always explicit, e.g.
# "1*x0.x1 - 1/2*x1.x0 + 2".  The empty word is the bare coefficient.


def series_text(p):
    if not p.terms:
        return "0"
    ring = p.ring
    pieces = []
    for w in p.support():
        c = ring.format(p.terms[w])
        body = c if not w else f"{c}*{word_text(w)}"
        if not pieces:
            pieces.append(body)
        elif body.startswith("-"):
            pieces.append("- " + body[1:])
        else:
            pieces.append("+ " + body)
    return " ".join(pieces)


_NUM_RE = re.compile(r"[0-9]+(?:/[0-9]+)?")
_WORD_RE = re.compile(r"[xy][0-9]+(?:\.[xy][0-9]+)*")


def _lex_series(s):
    toks = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            depth, j = 1, i + 1
            while j < n and depth:
                if s[j] == "(":
                    depth += 1
                elif s[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ValueError("unbalanced parenthesis in series text")
            toks.append(("group", s[i + 1 : j - 1]))
            i = j
            continue
        if ch in "xy":
            m = _WORD_RE.match(s, i)
            if not m:
                raise ValueError(f"bad word near {s[i:]!r}")
            toks.append(("word", m.group()))
            i = m.end()
            continue
        if ch.isdigit():
            m = _NUM_RE.match(s, i)
            toks.append(("num", m.group()))
            i = m.end()
            continue
        if ch in "+-*/":
            toks.append(("op", ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in series text")
    return toks


def parse_series_text(text, alphabet, ring):
    """Parse the series text form produced by :func:`series_text`."""
    toks = _lex_series(text)
    if not toks:
        raise ValueError("empty series text")
    terms = {}
    i = 0
    while i < len(toks):
        sign = 1
        while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(toks):
            raise ValueError("dangling sign in series text")
        coeff = None
        word = None
        kind, val = toks[i]
        if kind == "num":
            coeff_text = val
            i += 1
            if i + 1 < len(toks) and toks[i] == ("op", "/") and toks[i + 1][0] == "group":
                raise ValueError("rational-function coefficients need parenthesized numerators")
            coeff = ring.parse(coeff_text)
        elif kind == "group":
            coeff_text = f"({val})"
            i += 1
            if i + 1 < len(toks) and toks[i] == ("op", "/") and toks[i + 1][0] == "group":
                coeff_text += f"/({toks[i + 1][1]})"
                i += 2
            coeff = ring.parse(coeff_text)
        elif kind == "word":
            word = parse_word(val)
            i += 1
        else:
            raise ValueError(f"unexpected token {val!r} in series text")
        if coeff is not None and i < len(toks) and toks[i] == ("op", "*"):
            i += 1
            if i >= len(toks):
                raise ValueError("dangling * in series text")
            kind, val = toks[i]
            if kind == "word":
                word = parse_word(val)
            elif kind == "num" and val == "1":
                word = ()
            else:
                raise ValueError(f"expected a word after *, got {val!r}")
            i += 1
        if coeff is None:
            coeff = ring.one
        if word is None:
            word = ()
        alphabet.validate_word(word)
        c = coeff if sign == 1 else -coeff
        terms[word] = terms.get(word, ring.zero) + c
        if i < len(toks) and not (toks[i][0] == "op" and toks[i][1] in "+-"):
            raise ValueError(f"expected + or - before {toks[i][1]!r}")
    return NCPolynomial(alphabet, ring, terms)
