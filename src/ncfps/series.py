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

:class:`NCPolynomial` (keyed by words) and :class:`TensorPoly` (keyed by
word pairs) are two key types of one term map, ``_TermMap``, which holds
their construction, linear arithmetic, truncation and the one product loop;
``_word_product`` and ``TensorPoly.mul`` hand it a kernel on keys.

:class:`TruncatedSeries` tracks a grade bound alongside the coefficients and
propagates it through arithmetic, which is what makes fixed-point
constructions (star, exp, log) terminate.  exp and log run Horner's rule,
each product truncated at the grade the remaining steps still need.

Products, coproducts, star, exp and log run on the ring's lifted form (see
:class:`ncfps.rings.CoefficientRing`) and lower once at the end.  Over Q
each operand becomes integer numerators over one common denominator; over
Q[t] each coefficient also becomes one int by Kronecker substitution, at a
slot width bounded before the loop starts.  The kernel loops then multiply
and add plain ints, and each output coefficient takes its gcds once, when it
is lowered.  star, exp and log lift their operand once and keep the whole
recursion on numerators.  For Q(z) and floats the same loops run on ring
elements, adding in the order that float results have always been rounded
in.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from functools import lru_cache

from .rings import _Immutable
from .words import _as_word, parse_word, split_outside_parens, word_text, x_word_to_y, y_word_to_x

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
# assume any particular order.  The caches are bounded so that a long-running
# process meeting ever new words does not grow without limit.

CACHE_SIZE = 2**16

# one tuple per distinct word across the cached results: they repeat a few
# thousand words tens of thousands of times; without the sharing, the peak RSS
# of perfbench's `algebra` workload rose from 29 to 33 MB (Python 3.11, 2 CPUs)
_WORD_CACHE = {}


def _shared(out):
    """The items of a kernel's word-to-multiplicity dict, words shared."""
    if len(_WORD_CACHE) + len(out) > CACHE_SIZE:
        _WORD_CACHE.clear()
    return tuple((_WORD_CACHE.setdefault(w, w), c) for w, c in out.items())


@lru_cache(maxsize=CACHE_SIZE)
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
    return _shared(out)


@lru_cache(maxsize=CACHE_SIZE)
def stuffle_words(u, v):
    """Quasi-shuffle of two Y-type words: interleavings plus letter merges.

    Merged letters are interned, so the cached words share one string per
    letter."""
    for c in u + v:
        if c[0] != "y":
            raise ValueError(f"quasi-shuffle needs Y-type letters, got {c!r}")
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, c in stuffle_words(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    merged = sys.intern(f"y{int(u[0][1:]) + int(v[0][1:])}")
    for w, c in stuffle_words(u[1:], v[1:]):
        key = (merged,) + w
        out[key] = out.get(key, 0) + c
    return _shared(out)


def conc_words(u, v):
    return ((u + v, 1),)


# ---------------------------------------------------------------------------
# shared by the polynomial and tensor classes


def _built(cls, alphabet, ring, terms):
    """Instance over words and ring elements that arithmetic on valid operands
    produced, with no zero coefficient: skips word validation, coercion and
    zero tests.  ``ring.lower`` drops zeros itself; a sum, a difference or a
    scaling may cancel, and passes its terms through ``_nonzero`` first."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "alphabet", alphabet)
    object.__setattr__(obj, "ring", ring)
    object.__setattr__(obj, "terms", terms)
    return obj


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def _lifted(ring, operands, grade):
    """Lifted (d, values) of the term dicts that enter one kernel loop, and
    the width to lower the loop's sums with (None unless the ring packs).

    A kernel whose arguments have grades adding up to g sums multiplicities
    of at most 3^g into any output: 1 for concatenation, a binomial for the
    shuffle, a Delannoy number for the quasi-shuffle, at most 2^g for a
    coproduct of one word, and the product of two such for a tensor.  So
    no integer coefficient of a sum exceeds the product over the operands of
    their size times 3^(their largest grade).
    """
    lifted = [ring.lift(terms) for terms in operands]
    if not ring.packs:
        return lifted, None
    bound = 1
    for _, nums in lifted:
        bound *= ring.size(nums) * 3 ** max(map(grade, nums), default=0)
    return _packed(ring, lifted, bound)


def _packed(ring, lifted, bound):
    """Lifted operands packed at the width that holds integers of absolute
    value up to the bound, and that width."""
    width = bound.bit_length() + 1
    return [(d, ring.pack(nums, width)) for d, nums in lifted], width


def _conc_into(out, left, right):
    """Add the concatenation products of two lists of (word, value) items."""
    for u, cu in left:
        for v, cv in right:
            w = u + v
            c = cu * cv
            prev = out.get(w)
            out[w] = c if prev is None else prev + c


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


class _TermMap(_Immutable):
    """Immutable finite map from keys to nonzero ring elements, each key
    holding one or more words over a common alphabet.

    A subclass states which words a key holds (``_words``) and the key whose
    words are all empty (``_unit``); word validation and the grade of a key,
    the sum of its words' grades, follow from that.  A scalar operand of
    ``+`` or ``-`` stands for itself times the unit key.
    """

    __slots__ = ("alphabet", "ring", "terms")

    def __init__(self, alphabet, ring, terms):
        clean = {}
        for k, c in terms.items():
            c = ring.coerce(c)
            if c != ring.zero:
                for w in self._words(k):
                    alphabet.validate_word(w)
                clean[k] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, alphabet, ring):
        return cls(alphabet, ring, {})

    def _built(self, terms):
        return _built(type(self), self.alphabet, self.ring, terms)

    def _grade(self):
        """The function that gives the grade of a key."""
        g, words = self.alphabet.word_grade, self._words
        return lambda k: sum(map(g, words(k)))

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {other!r}")
        # tuples compare identical items without calling their __eq__
        if (other.alphabet, other.ring) != (self.alphabet, self.ring):
            raise ValueError("operands live over different alphabets or rings")
        return other

    def _operand(self, other):
        if isinstance(other, _TermMap):
            return self._check_compatible(other)
        return type(self)(self.alphabet, self.ring, {self._unit: other})

    def _combined(self, other, op):
        out = dict(self.terms)
        zero = self.ring.zero
        for k, c in self._operand(other).terms.items():
            out[k] = op(out.get(k, zero), c)
        return self._built(_nonzero(out))

    def __add__(self, other):
        return self._combined(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combined(other, operator.sub)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._built({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._built(_nonzero({k: c * ck for k, ck in self.terms.items()}))

    def truncate(self, bound):
        grade = self._grade()
        return self._built({k: c for k, c in self.terms.items() if grade(k) <= bound})

    def _product(self, other, kernel, bound, grade):
        """Bilinear product: kernel(k1, k2) gives the (key, multiplicity)
        pairs of the product of two keys.  With a bound, only pairs of terms
        whose grade(key) values sum to at most it are formed: for a kernel
        that adds those grades, the full product less its terms above the
        bound."""
        o = self._check_compatible(other)
        ring = self.ring
        ((da, a), (db, b)), width = _lifted(ring, (self.terms, o.terms), self._grade())
        out = {}
        for left, right in _bucket_pairs(a, b, grade, bound):
            for k1, c1 in left:
                for k2, c2 in right:
                    c = c1 * c2
                    for k, m in kernel(k1, k2):
                        inc = c if m == 1 else c * m
                        prev = out.get(k)
                        out[k] = inc if prev is None else prev + inc
        return self._built(ring.lower(out, da * db, width))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.ring == other.ring
            and self.terms == other.terms
        )


# ---------------------------------------------------------------------------


class NCPolynomial(_TermMap):
    """Finite linear combination of words with coefficients in a ring."""

    __slots__ = ()
    _unit = ()

    @staticmethod
    def _words(w):
        return (w,)

    def _grade(self):
        # the same function as the base's, without a sum over one word
        return self.alphabet.word_grade

    @classmethod
    def one(cls, alphabet, ring):
        return cls(alphabet, ring, {(): ring.one})

    @classmethod
    def word(cls, alphabet, ring, w, coeff=None):
        return cls(alphabet, ring, {_as_word(w): ring.one if coeff is None else coeff})

    def coeff(self, w):
        return self.terms.get(_as_word(w), self.ring.zero)

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

    def _word_product(self, other, kernel, bound=None):
        if kernel is stuffle_words and self.alphabet.kind != "Y":
            raise ValueError("quasi-shuffle is defined on the graded Y alphabet")
        return self._product(other, kernel, bound, self.alphabet.word_grade)

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
        return self._word_product(other, stuffle_words)

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
        u = _as_word(u)
        n = len(u)
        return self._built({w[n:]: c for w, c in self.terms.items() if w[:n] == u})

    def right_quotient(self, u):
        """Series with coefficient of w equal to this one's coefficient of w.u."""
        u = _as_word(u)
        n = len(u)
        if n == 0:
            return self
        return self._built({w[:-n]: c for w, c in self.terms.items() if w[-n:] == u})

    def __hash__(self):
        return hash((self.alphabet, self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"NCPolynomial({series_text(self)!r})"


# ---------------------------------------------------------------------------


class TensorPoly(_TermMap):
    """Finite combination of word pairs u (x) v over a common alphabet."""

    __slots__ = ()
    _unit = ((), ())

    @staticmethod
    def _words(key):
        return key

    @classmethod
    def of(cls, p, q):
        """Tensor of two polynomials, componentwise products of coefficients."""
        p._check_compatible(q)
        terms = {}
        for u, cu in p.terms.items():
            for v, cv in q.terms.items():
                terms[(u, v)] = cu * cv
        return _built(cls, p.alphabet, p.ring, _nonzero(terms))

    def coeff(self, u, v):
        return self.terms.get((_as_word(u), _as_word(v)), self.ring.zero)

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

        # a plain loop, not a comprehension: CPython 3.11 gives each
        # comprehension its own frame, a measurable cost per pair of terms
        def kernel(k1, k2):
            right = right_kernel(k1[1], k2[1])
            out = []
            for u, mu in left_kernel(k1[0], k2[0]):
                for v, mv in right:
                    out.append(((u, v), mu * mv))
            return out

        return self._product(other, kernel, bound, lambda k: g(k[0]))

    def __repr__(self):
        bits = []
        for (u, v), c in sorted(
            self.terms.items(), key=lambda kv: (self.alphabet.word_key(kv[0][0]), self.alphabet.word_key(kv[0][1]))
        ):
            bits.append(f"{self.ring.format(c)}*{word_text(u)}(x){word_text(v)}")
        return "TensorPoly(" + (" + ".join(bits) if bits else "0") + ")"


# Coproduct kernels of one word.  The two letter-multiplicative ones keep
# the coproducts of the suffixes they meet in `memo`, a dict that lives for
# one coproduct call, so that the words of one polynomial share their
# suffixes and nothing outlives the call.


def _deconcat_word(w, memo=None):
    """Every split of w into prefix (x) suffix; nothing to memoise."""
    return tuple(((w[:i], w[i:]), 1) for i in range(len(w) + 1))


def _letter_coproduct(w, splits, memo=None):
    """Product over the letters a of w of a(x)1 + 1(x)a + splits(a)."""
    if not w:
        return ((((), ()), 1),)
    memo = {} if memo is None else memo
    got = memo.get(w)
    if got is None:
        a = w[0]
        tail = _letter_coproduct(w[1:], splits, memo)
        out = {}
        for u1, v1 in (((a,), ()), ((), (a,))) + splits(a):
            for (u2, v2), c in tail:
                key = (u1 + u2, v1 + v2)
                out[key] = out.get(key, 0) + c
        got = memo[w] = tuple(out.items())
    return got


def _unshuffle_word(w, memo=None):
    """Sum over all splittings of w into a pair of complementary subwords."""
    return _letter_coproduct(w, lambda a: (), memo)


def _y_splits(a):
    k = int(a[1:])
    return tuple(((f"y{i}",), (f"y{k - i}",)) for i in range(1, k))


def _unstuffle_word(w, memo=None):
    """Product over letters of the factors yk -> yk(x)1 + 1(x)yk + sum yi(x)yj."""
    return _letter_coproduct(w, _y_splits, memo)


def _coproduct(p, word_kernel):
    ring = p.ring
    ((d, terms),), width = _lifted(ring, (p.terms,), p.alphabet.word_grade)
    memo = {}
    out = {}
    for w, c in terms.items():
        for key, m in word_kernel(w, memo):
            prev = out.get(key)
            inc = c * m
            out[key] = inc if prev is None else prev + inc
    return _built(TensorPoly, p.alphabet, ring, ring.lower(out, d, width))


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


class TruncatedSeries(_Immutable):
    """A series known exactly on all words of grade <= bound."""

    __slots__ = ("poly", "bound")

    def __init__(self, poly, bound):
        if bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        object.__setattr__(self, "poly", poly.truncate(bound))
        object.__setattr__(self, "bound", bound)

    @property
    def alphabet(self):
        return self.poly.alphabet

    @property
    def ring(self):
        return self.poly.ring

    def coeff(self, w):
        w = _as_word(w)
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
        return _within(-self.poly, self.bound)

    def scale(self, c):
        return _within(self.poly.scale(c), self.bound)

    def __mul__(self, other):
        if isinstance(other, (TruncatedSeries, NCPolynomial)):
            return _truncated_product(self, other, conc_words)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def shuffle(self, other):
        return _truncated_product(self, other, shuffle_words)

    def stuffle(self, other):
        return _truncated_product(self, other, stuffle_words)

    def star(self):
        """Concatenation star: the unique T with T = 1 + self * T.

        Needs 1 - (constant term) invertible in the coefficient ring.  With
        inv that inverse and S the rest of the series, T_0 = inv and
        T_g = inv.sum_i S_i.T_(g-i) grade by grade.  On numerators,
        inv = n_inv/d_inv and S = n(S)/d_S: T_g = N_g/(d_inv^(g+1) d_S^g)
        with N_0 = n_inv and N_g = n_inv.sum_i n(S_i).N_(g-i).q^(i-1),
        q = d_inv d_S.
        """
        ring, n = self.ring, self.bound
        inv = ring.invert(ring.one - self.poly.constant_term())  # raises when not a unit
        lifted = [ring.lift({(): inv}), ring.lift({w: c for w, c in self.poly.terms.items() if w})]
        (di, ni), (ds, ns) = lifted
        q, width = di * ds, None
        if ring.packs:
            # |N_g| <= v M^g with M = max(q, v s), by induction on g
            v = ring.size(ni)
            ((di, ni), (ds, ns)), width = _packed(ring, lifted, v * max(q, v * ring.size(ns)) ** n)
        n_inv = ni[()]
        comps = [
            (i, [(u, c * q ** (i - 1)) for u, c in si] if i > 1 and q != 1 else si)
            for i, si in _by_grade(ns, self.alphabet.word_grade)
        ]
        t_by_grade = {0: [((), n_inv)]}
        out = ring.lower({(): n_inv}, di, width)
        for g in range(1, n + 1):
            acc = {}
            for i, si in comps:
                if i > g:
                    break
                _conc_into(acc, si, t_by_grade.get(g - i, ()))
            comp = {w: n_inv * c for w, c in acc.items() if c}
            if comp:
                t_by_grade[g] = list(comp.items())
                out.update(ring.lower(comp, di ** (g + 1) * ds**g, width))
        return _within(self.poly._built(out), n)

    def exp(self):
        """Concatenation exponential; requires zero constant term.

        Horner's rule on the n = bound terms: G_n = 1 and
        G_(k-1) = 1 + (S/k).G_k, so exp(S) = G_0.  Since S has no constant
        term, G_k is needed only to grade n - k, and each product is
        truncated there.  On integer numerators, S = n(S)/d and
        G_k = N_k/D_k: D_(k-1) = k d D_k and N_(k-1) = D_(k-1) + n(S).N_k.
        """
        ring, n = self.ring, self.bound
        if self.poly.constant_term() != ring.zero:
            raise ValueError("exp needs a series with zero constant term")

        def plan(d):
            if not ring.integral:
                steps = [(ring.one, ring.coerce(Fraction(1, k)), n - k + 1) for k in range(n, 0, -1)]
                return [(ring.one, 1, 0)] + steps, 1
            steps, dk = [(1, 1, 0)], 1
            for k in range(n, 0, -1):
                dk *= k * d
                steps.append((dk, 1, n - k + 1))
            return steps, dk

        return _within(_horner(self.poly, plan), n)

    def log(self):
        """Concatenation logarithm; requires constant term one.

        Horner's rule on log(1 + D) = sum of c_k D^k, c_k = (-1)^(k-1)/k:
        H_n = c_n, H_k = c_k + D.H_(k+1) and log = D.H_1, with H_k truncated
        at grade n - k.  On integer numerators, D = n(D)/d and H_k = M_k/E_k
        with E_(n+1) = 1, M_(n+1) = 0: E_k = k d E_(k+1) and
        M_k = (-1)^(k-1) d E_(k+1) + k n(D).M_(k+1).
        """
        ring, n = self.ring, self.bound
        if self.poly.constant_term() != ring.one:
            raise ValueError("log needs a series with constant term one")

        def plan(d):
            if not ring.integral:
                steps = [(ring.coerce(Fraction((-1) ** (k - 1), k)), 1, n - k) for k in range(n, 0, -1)]
                return steps + [(0, 1, n)], 1
            steps, ek = [], 1
            for k in range(n, 0, -1):
                steps.append(((-1) ** (k - 1) * d * ek, k, n - k))
                ek *= k * d
            return steps + [(0, 1, n)], d * ek

        return _within(_horner(self.poly, plan), n)

    def left_quotient(self, u):
        return self._quotient(u, NCPolynomial.left_quotient)

    def right_quotient(self, u):
        return self._quotient(u, NCPolynomial.right_quotient)

    def _quotient(self, u, side):
        u = _as_word(u)
        b = self.bound - self.alphabet.word_grade(u)
        if b < 0:
            raise ValueError("insufficient truncation bound for the quotient")
        return _within(side(self.poly, u), b)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.bound == other.bound and self.poly == other.poly

    def __repr__(self):
        return f"TruncatedSeries({series_text(self.poly)!r}, bound={self.bound})"


def _within(poly, bound):
    """The truncated series of a polynomial whose terms already lie within
    the bound, as products, star, exp, log, quotients, negation and scaling
    make them: unlike the public constructor, it does not filter them again."""
    series = object.__new__(TruncatedSeries)
    object.__setattr__(series, "poly", poly)
    object.__setattr__(series, "bound", bound)
    return series


def _truncated_product(s, other, kernel):
    """Word product of a truncated series with a series or a polynomial,
    truncated at the lower bound.  A private function, not a method, so that
    the span tracer of ``perfbench`` counts its time under the public method
    that calls it."""
    o, b = s._join(other)
    return _within(s.poly._word_product(o, kernel, b), b)


def _horner(poly, plan):
    """Horner's rule on the lifted form of S, the terms of poly other than
    its constant term; lowered once.

    plan(d), for S = n(S)/d, gives steps (alpha, beta, top) and the
    denominator of the result: x starts at 0, each step sets
    x = alpha + (beta n(S)).x truncated at grade top, and the result is x
    over that denominator.  Over Q and Q[t] the plan's scalars are integers;
    over the other rings they are ring elements and the denominator is 1.
    Packed values hold every x the steps reach, since
    |x| <= |alpha| + |beta| |n(S)| |x_before| in the sum-of-absolute-
    coefficients norm.  Each sum adds its products in ascending grade of the
    factor from S, the order in which floats were always rounded.
    """
    ring, grade = poly.ring, poly.alphabet.word_grade
    lifted = [ring.lift({w: c for w, c in poly.terms.items() if w})]
    steps, denominator = plan(lifted[0][0])
    width = None
    if ring.packs:
        size, b, most = ring.size(lifted[0][1]), 0, 0
        for alpha, beta, _ in steps:
            b = abs(alpha) + abs(beta) * size * b
            most = max(most, b)
        lifted, width = _packed(ring, lifted, most)
    sb = _by_grade(lifted[0][1], grade)
    x = {}  # grade -> {word: value}
    for alpha, beta, top in steps:
        out = {}
        for i, si in sb:
            if beta != 1:
                si = [(u, beta * c) for u, c in si]
            for j, xj in sorted(x.items()):
                if i + j > top:
                    break
                _conc_into(out.setdefault(i + j, {}), si, xj.items())
        x = {g: {w: c for w, c in og.items() if c} for g, og in out.items()}
        if alpha:
            x[0] = {(): alpha}
    return poly._built(ring.lower({w: c for xg in x.values() for w, c in xg.items()}, denominator, width))


# ---------------------------------------------------------------------------
# letterwise substitution between the two alphabet families


def _substituted(p, target_alphabet, word_map):
    """The linear extension of `word_map` to p; a word it maps to None maps to zero."""
    terms = {}
    for w, c in p.terms.items():
        if (image := word_map(w)) is not None:
            terms[image] = terms.get(image, p.ring.zero) + c
    return NCPolynomial(target_alphabet, p.ring, terms)


def y_poly_to_x(p, target_alphabet):
    """Linear extension of yk -> x0^(k-1) x1; target must contain x0 and x1."""
    return _substituted(p, target_alphabet, y_word_to_x)


def x_poly_to_y(p, target_alphabet):
    """Linear extension of the inverse substitution; words ending in x0 map to zero."""
    return _substituted(p, target_alphabet, x_word_to_y)


# ---------------------------------------------------------------------------
# text form
#
# Series print as sign-separated terms in grade-then-lex word order, each
# term "coeff*word" with the coefficient always explicit, e.g.
# "1*x0.x1 - 1/2*x1.x0 + 2".  The empty word is the bare coefficient.
#
# Reading cuts the text at the + and - signs outside parentheses; a run of
# signs multiplies out.  Each term is "coeff*word", a bare word or a bare
# coefficient, and the word 1 is the empty word.  The ring's own parser
# reads every coefficient, so "(1)/(z)*x0" and "t*x0" read over Q(z) and
# Q[t] as they would as coefficients alone.


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


def parse_series_text(text, alphabet, ring):
    """Parse the series text form produced by :func:`series_text`."""
    terms = {}
    sign = 1
    for sep, term in split_outside_parens(text, "+-"):
        sign = -sign if sep == "-" else sign
        term = term.strip()
        if term:
            word, coeff = _read_term(term, ring)
            terms[alphabet.validate_word(word)] = terms.get(word, ring.zero) + (coeff if sign == 1 else -coeff)
            sign = 1
    if not term:
        raise ValueError("dangling sign in series text" if text.strip() else "empty series text")
    return NCPolynomial(alphabet, ring, terms)


def _read_term(term, ring):
    """(word, coefficient) of `coeff*word`, a bare word or a bare coefficient."""
    head, star, tail = term.rpartition("*")
    try:
        word = parse_word(tail)
    except ValueError:
        return (), ring.parse(term)
    return word, ring.parse(head) if star else ring.one
