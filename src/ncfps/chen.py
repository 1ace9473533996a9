"""Numeric evaluation of word-indexed iterated integrals along real segments.

Every letter of an X-type alphabet is assigned an integrable scalar control,
and each word w = x_{i_1} ... x_{i_k} denotes the iterated integral of the
corresponding controls over the ordered simplex of the segment.  The family of
all such coefficients is the signature-type evaluation driving the rest of the
toolkit: pairing it against a linear representation sums the series of a
rational generating function, and the same data feeds the group-likeness and
primitivity diagnostics.

A control is a rational function of z (constants, 1/z and 1/(1-z) among
them), exp(z), or a fractional power z^a.  Rational controls keep their exact
view in Q(z): it locates their poles by Sturm counts, feeds the exact ODE
derivation, and bounds their sup exactly for the certified tail of a pairing.

One adaptive driver integrates two linear flows panel by panel, accepting a
panel when one step and two half steps agree and bisecting it otherwise.  The
truncated Chen series solves the universal equation dS = (sum_x u_x x) S, a
nilpotent flow on the words up to the length bound; one step is forward
substitution by word length from the previous panel's end values (Chen's
identity applied in place).  Each running integrand is projected on the
Legendre basis of its values at the panel's Gauss nodes, which gives the panel
antiderivative at the nodes themselves.  The words of one length are the rows
of one array, each the product of its first letter's control and its suffix's
node values, integrated by two matrix products per block of rows; memory holds
two consecutive lengths' node values on one panel.  A word's error estimate
sums its step-doubling defects over the accepted panels.  `chen_series` alone
builds an evaluation, from the checked controls, that layout of the words and
its rows; the values, errors and excluded words are read-only views over the
layout, in grade-lex order: a lookup costs O(|w|) and builds no table of words.
The pairing forms the prefix rows nu mu(w) length by length in the same order.
The flow evaluator sums a rational series without truncation: its state
equation is stepped by 16-stage Gauss collocation under the same driver.  A
flow whose values overflow doubles raises, naming where.

A segment may start at an endpoint where some control blows up, as long as the
integrands stay integrable; the mesh is then graded geometrically toward that
endpoint.  Words whose innermost integral diverges there are excluded from bulk
evaluation and raise when requested individually.  Interior singularities and a
singular far endpoint are rejected outright: no regularization is attempted.

This module holds the controls, the segments, their exact validation and the
exact ODE derivation.  A family of controls is checked on one path once, into
the private `_Controls` that an evaluation keeps as `ev.controls`: the
pairing's tail reads its sup, and `pair_ode` given it on the same path checks
nothing again.  Everything that computes a double (the quadrature tables, the
level kernel, the adaptive driver, the collocation step, the float matrices of
a pairing and control values at doubles) is the private `ncfps._numeric`,
which imports numpy and is imported at the first float computed here; parsing,
validation, every refusal and `derive_scalar_ode` run without numpy.
`ncfps.series` and `ncfps.linalg` are imported only by the diagnostics and the
ODE derivation that use them.
"""

import math
import re
from collections.abc import ItemsView, Mapping, Set, ValuesView
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, compress, count, islice, repeat
from types import MappingProxyType
from typing import NamedTuple

from .rings import QQ, QZ, RR, Poly, PolynomialRing, RatFun, _Immutable, poly_lcm, poly_text
from .words import _LETTER_RE, Alphabet, _as_word, _graded_words, word_text


# ---------------------------------------------------------------------------
# controls


_POW_RE = re.compile(r"pow\(\s*z\s*,\s*([^)]+)\)\Z")


def _exponent(text):
    """The exponent of pow(z, text): exact if Fraction reads it, else a double."""
    for read in (Fraction, float):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot read the power exponent {text!r}")


class InputFunction(_Immutable):
    """One scalar control attached to a letter.

    Three kinds: `rational`, any rational function of z (constants, 1/z and
    1/(1-z) among them); `exp`, exp(z); and `pow`, z^a for a non-integer real
    a.  A rational control exposes its exact view `ratfun`, which the exact
    ODE derivation requires and which locates the poles exactly, irrational
    ones included.  Each kind knows its vanishing order at a rational
    abscissa and an upper bound on its sup on a segment; a rational control's
    bound is `RatFun.sup_bound`, exact, rounded up to a double.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind, value=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    @property
    def ratfun(self):
        """The exact view in Q(z), or None for exp(z) and fractional powers."""
        return self.value if self.kind == "rational" else None

    @classmethod
    def exp(cls):
        return cls("exp")

    @classmethod
    def power(cls, a):
        """z^a; an integer exponent gives a rational control, built by the
        Q(z) parser, which bounds the exponent."""
        if isinstance(a, float) and not math.isfinite(a):
            raise ValueError("power exponent must be finite")
        if not isinstance(a, float) or a.is_integer():
            a = Fraction(a)
        if isinstance(a, Fraction) and a.denominator == 1:
            return cls.rational(f"z^{a}" if a >= 0 else f"1/z^{-a}")
        return cls("pow", a)

    @classmethod
    def rational(cls, f):
        return cls("rational", QZ.parse(f) if isinstance(f, str) else QZ.coerce(f))

    @classmethod
    def from_text(cls, s):
        return _control_of_text(s.strip())

    @classmethod
    def of(cls, obj):
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, str):
            return cls.from_text(obj)
        if isinstance(obj, (int, float, Fraction)):
            return cls.rational(Fraction(obj))
        if isinstance(obj, (Poly, RatFun)):
            return cls.rational(obj)
        raise TypeError(f"cannot interpret {obj!r} as an input function")

    # -- pointwise evaluation

    def evaluate(self, z):
        import numpy as np

        return float(self.eval_array(np.float64(z)))

    def eval_array(self, z):
        from ._numeric import _control_values

        return _control_values(self, z)

    # -- analytic structure

    def vanishing_order_at(self, p):
        """Exponent of the leading behavior c*(z-p)^q near a rational point."""
        p = Fraction(p)
        if self.ratfun is None:
            return float(self.value) if self.kind == "pow" and p == 0 else 0
        if self.ratfun.is_zero():
            return math.inf
        return self.ratfun.vanishing_order_at(p)

    def sup_on(self, lo, hi):
        """Upper bound on sup |u| over the rational segment [lo, hi]; inf if it overflows a double."""
        try:
            if self.kind == "exp":
                return math.exp(hi)
            if self.kind == "pow":
                a = float(self.value)
                if lo == 0 and a < 0:
                    return math.inf
                return max(abs(float(e)) ** a for e in (lo, hi))
            s = self.value.sup_bound(lo, hi)  # exact: round it up to a double
            if s == math.inf or Fraction(float(s)) >= s:
                return float(s)
            return math.nextafter(float(s), math.inf)
        except OverflowError:
            return math.inf

    def validate_on(self, path):
        """Check the control against a segment.

        Returns "regular" or "singular_start"; raises for a pole inside the
        path or at its far endpoint, for a fractional power on a segment
        reaching below 0, and for a rational coefficient outside the double
        range, which the quadrature could not evaluate.  Poles are the roots
        of the exact denominator: endpoints are tested by exact evaluation and
        the interior by a Sturm count, so no pole escapes, rational or not.
        The quadrature runs between the endpoints rounded to doubles, so it
        also raises when one rounds onto a singularity that the exact
        endpoint avoids.
        """
        if self.ratfun is None:
            if self.kind == "pow":
                if path.lo_exact < 0:
                    raise ValueError("fractional powers need a nonnegative segment")
                if self.value < 0 and path.z1_exact == 0:
                    raise ValueError("input singular at the far endpoint 0")
            self._check_rounded_endpoints(path)
            # z^a at 0: a pole, or continuous but not smooth; grade the mesh
            return "singular_start" if self.kind == "pow" and path.z0_exact == 0 else "regular"
        den = self.ratfun.den
        for c in self.ratfun.num.coeffs + den.coeffs:
            try:
                float(c)
            except OverflowError:
                size = math.log10(abs(c.numerator)) - math.log10(c.denominator)
                raise ValueError(f"input coefficient of about 1e{size:.0f} outside the double range") from None
        if den.count_real_roots(path.lo_exact, path.hi_exact):
            raise ValueError(f"input singular between {path.lo_exact} and {path.hi_exact}, inside the path")
        if den(path.z1_exact) == 0:
            raise ValueError(f"input singular at the far endpoint {path.z1_exact}")
        self._check_rounded_endpoints(path)
        return "singular_start" if den(path.z0_exact) == 0 else "regular"

    def _check_rounded_endpoints(self, path):
        """Raise when an endpoint, regular for this control as an exact
        number, rounds to a double at which the control is singular."""
        for which, exact, rounded in (("start", path.z0_exact, path.z0), ("far", path.z1_exact, path.z1)):
            r = Fraction(rounded)
            if r == exact:
                continue
            if self.kind == "rational":
                singular = self.value.den(r) == 0
            else:
                singular = self.kind == "pow" and self.value < 0 and r == 0
            if singular:
                raise ValueError(
                    f"the {which} endpoint rounds to {rounded!r} in double precision, onto a singularity of the input"
                )

    def __repr__(self):
        if self.kind == "exp":
            return "InputFunction('exp')"
        body = QZ.format(self.value) if self.kind == "rational" else repr(self.value)
        return f"InputFunction({self.kind!r}, {body})"


@lru_cache(maxsize=32)
def _control_of_text(s):
    """The control a stripped text denotes.  Cached, as controls are
    immutable: a text repeated across calls is parsed once."""
    if s in ("exp", "exp(z)"):
        return InputFunction.exp()
    m = _POW_RE.match(s)
    if m:
        return InputFunction.power(_exponent(m.group(1).strip()))
    return InputFunction.rational(s)


# ---------------------------------------------------------------------------
# integration segments


def _exact_point(v):
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError("path endpoints must be finite")
    if not isinstance(v, (Fraction, int, str, float)):
        raise TypeError(f"cannot interpret {v!r} as a path endpoint")
    try:
        e = Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read {v!r} as an exact number") from None
    try:
        float(e)
    except OverflowError:
        raise ValueError(f"path endpoint {v!r} is outside the double range") from None
    return e


class SegmentPath(_Immutable):
    """Oriented real segment from z0 to z1.

    Endpoints are kept both as doubles and as exact rationals; the exact
    values drive all singularity placement tests, so that a path touching a
    control's singularity is recognized reliably.
    """

    __slots__ = ("z0", "z1", "z0_exact", "z1_exact")

    def __init__(self, z0, z1):
        e0 = _exact_point(z0)
        e1 = _exact_point(z1)
        if e0 == e1:
            raise ValueError("path endpoints must differ")
        object.__setattr__(self, "z0", float(e0))
        object.__setattr__(self, "z1", float(e1))
        object.__setattr__(self, "z0_exact", e0)
        object.__setattr__(self, "z1_exact", e1)

    @classmethod
    def of(cls, obj):
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, (tuple, list)) and len(obj) == 2:
            return cls(obj[0], obj[1])
        raise TypeError(f"cannot interpret {obj!r} as a path")

    @property
    def length(self):
        return abs(self.z1 - self.z0)

    @property
    def lo_exact(self):
        return min(self.z0_exact, self.z1_exact)

    @property
    def hi_exact(self):
        return max(self.z0_exact, self.z1_exact)

    def __repr__(self):
        return f"SegmentPath({self.z0!r}, {self.z1!r})"


# ---------------------------------------------------------------------------
# evaluations


class _Controls(_Immutable):
    """One family of controls checked on one path, each parsed and validated
    once: the controls by letter, in the order given, their alphabet, the path,
    whether it starts at a singularity, and `sup`, their largest `sup_on` bound."""

    def __init__(self, inputs, path):
        clean = {x: InputFunction.of(f) for x, f in inputs.items()}
        # by letter index, x2 before x10; a key that is no letter sorts first, and the alphabet refuses it
        order = {x: (int(m[2]), x) if (m := _LETTER_RE.match(x)) else (-1, x) for x in clean}
        alphabet = Alphabet.from_letters(sorted(clean, key=order.get))
        singular_start = "singular_start" in [f.validate_on(path) for f in clean.values()]
        vars(self).update(inputs=MappingProxyType(clean), alphabet=alphabet, path=path, singular_start=singular_start)

    @classmethod
    def of(cls, inputs, path, tol=0.0):
        """`inputs` checked on `path` after `tol`, or `inputs` itself if it holds them on the same exact path."""
        if not tol >= 0:
            raise ValueError(f"the tolerance must be a number >= 0, not {tol!r}")
        if isinstance(inputs, cls):
            if (inputs.path.z0_exact, inputs.path.z1_exact) == (path.z0_exact, path.z1_exact):
                return inputs
            inputs = inputs.inputs
        return cls(inputs, path)

    @cached_property
    def sup(self):
        lo, hi = self.path.lo_exact, self.path.hi_exact
        return max(f.sup_on(lo, hi) for f in self.inputs.values())


class _Layout(_Immutable):
    """The rows of the words of length 0 to a bound over X letters, in
    grade-lex order: per length every graded word, or those a mask keeps.  A
    word's row is read off its letter ranks and, at a masked length, the kept
    count before it, so a lookup costs O(|w|) and no table of words is held."""

    __slots__ = ("alphabet", "_kept", "_starts", "dropped")

    def __init__(self, alphabet, masks):
        # per length, None or each graded word's row among the kept ones, -1 if dropped
        kept = [None] + [None if mask is None else mask.cumsum() * mask - 1 for mask in masks]
        graded = [len(alphabet.letters) ** k for k in range(len(kept))]
        rows = [n if index is None else int(index.max(initial=-1)) + 1 for n, index in zip(graded, kept)]
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_kept", kept)
        object.__setattr__(self, "_starts", [0, *accumulate(rows)])
        object.__setattr__(self, "dropped", sum(graded) - sum(rows))

    def row(self, w):
        """The row of a kept word, -1 for a dropped word, and None for
        anything else."""
        if not isinstance(w, tuple) or len(w) >= len(self._kept):
            return None
        r, m, rank = 0, len(self.alphabet.letters), self.alphabet._rank
        for x in w:
            i = rank.get(x)
            if i is None:
                return None
            r = r * m + i
        kept = self._kept[len(w)]
        if kept is not None and (r := int(kept[r])) < 0:
            return -1
        return self._starts[len(w)] + r

    def words(self, kept=True):
        """The kept words, or the dropped ones, in grade-lex order."""
        return chain.from_iterable(
            compress(_graded_words(self.alphabet.letters, k), ((rows >= 0) == kept).tolist())
            if rows is not None
            else _graded_words(self.alphabet.letters, k) if kept else ()
            for k, rows in enumerate(self._kept)
        )

    def marked(self):
        """Every graded word in grade-lex order, each with True if it is kept."""
        return chain.from_iterable(
            zip(_graded_words(self.alphabet.letters, k), repeat(True) if rows is None else (rows >= 0).tolist())
            for k, rows in enumerate(self._kept)
        )


class _WordValues(_Immutable, Mapping):
    """A read-only map of a layout's kept words to doubles, one per row.
    Iteration, `items()` and `values()` read the rows in order without
    lookups; `[]`, `in` and `get` cost O(|w|)."""

    __slots__ = ("layout", "rows")

    def __init__(self, layout, rows):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "rows", rows)

    def __getitem__(self, w):
        i = self.layout.row(w)
        if i is None or i < 0:
            raise KeyError(w)
        return self.rows[i]

    def __iter__(self):
        return self.layout.words()

    def __len__(self):
        return len(self.rows)

    def items(self):
        return _WordItems(self)

    def values(self):
        return _RowValues(self)


class _WordItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping.layout.words(), self._mapping.rows)


class _RowValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.rows)


class _Dropped(_Immutable, Set):
    """The read-only, hashable set of the words a layout drops, in grade-lex order."""

    __slots__ = ("layout",)
    __hash__ = Set._hash

    def __init__(self, layout):
        object.__setattr__(self, "layout", layout)

    def __contains__(self, w):
        return self.layout.row(w) == -1

    def __iter__(self):
        return self.layout.words(kept=False)

    def __len__(self):
        return self.layout.dropped


class ChenEvaluation(_Immutable):
    """All iterated-integral coefficients of one segment up to a length bound.

    `chen_series` builds it from the checked controls, the bound, the
    kernel's layout of the words and the layout's rows of values and error
    estimates, the empty word's row first.  `values` maps each included word
    to a double, `errors` to its a-posteriori quadrature estimate; the empty
    word carries exactly 1.  `excluded` holds the words dropped because their
    innermost integral diverges at a singular start endpoint.  The three are
    read-only views over the layout, in grade-lex order, with O(|w|) lookups.
    `alphabet`, `inputs` and `path` are the controls'.
    """

    __slots__ = ("controls", "bound", "values", "errors", "excluded")
    alphabet = property(lambda self: self.controls.alphabet)
    inputs = property(lambda self: self.controls.inputs)
    path = property(lambda self: self.controls.path)

    def __init__(self, controls, bound, layout, values, errors):
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "values", _WordValues(layout, values))
        object.__setattr__(self, "errors", _WordValues(layout, errors))
        object.__setattr__(self, "excluded", _Dropped(layout))

    def _lookup(self, table, w):
        w = _as_word(w)
        v = table.get(w)
        if v is not None:
            return v
        if w in self.excluded:
            raise ValueError(f"{word_text(w)} diverges at the path endpoint")
        raise KeyError(word_text(w))

    def coeff(self, w):
        return self._lookup(self.values, w)

    def error(self, w):
        return self._lookup(self.errors, w)

    def __repr__(self):
        return (
            f"ChenEvaluation({self.alphabet.name}, {self.path!r}, bound={self.bound}, "
            f"{len(self.values)} words)"
        )


# the largest family `chen_series` evaluates: its words, the empty one included, and their length
_MAX_WORDS = 2**22
_MAX_LENGTH = 4096


def _check_family(m, bound, max_words):
    """Refuse a length bound below 0 or above `_MAX_LENGTH`, or m letters
    whose words up to length `bound`, sum_k m^k over k <= bound with the
    empty one, number more than `max_words`."""
    if bound < 0:
        raise ValueError("the length bound must be nonnegative")
    if bound > _MAX_LENGTH:
        raise ValueError(f"the length bound {bound} is above {_MAX_LENGTH}")
    if ((m ** (bound + 1) - 1) // (m - 1) if m > 1 else m * bound + 1) > max_words:
        raise ValueError(f"{m} letters up to length {bound} give more than {max_words} words")


def chen_series(inputs, path, bound, tol=1e-10):
    """Evaluate all words of length <= bound over the given controls.

    The truncated series solves the universal flow dS = (sum_x u_x x) S, and
    `_adaptive`, the driver `pair_ode` uses too, integrates it panel by
    panel.  A step costs two matmuls per first letter and word length (per
    block of at most 512 rows), with the letter's control folded into the
    quadrature matrices, and memory holds two lengths' node values on one
    panel.  A word's error estimate is the sum of its accepted panels'
    step-doubling defects.  At a singular start endpoint, words with
    divergent innermost integrals are excluded rather than regularized.
    `values`, `errors` and `excluded` are read-only views over the kernel's
    layout of the words, in grade-lex order: a lookup costs O(|w|), and
    iteration reads the alphabet's cached graded words, shared with every
    other evaluation on the same letters.  Control texts are parsed once per
    process.  A family of more than `_MAX_WORDS` words, or a bound above
    `_MAX_LENGTH`, is refused before any array is built.  The controls are
    checked once, into `ev.controls`, which `inputs` may also be.
    """
    path = SegmentPath.of(path)
    controls = _Controls.of(inputs, path, tol)
    _check_family(len(controls.alphabet.letters), bound, _MAX_WORDS)
    from ._numeric import _evaluate, _word_levels

    levels_of = partial(_word_levels, bound=bound)
    masks, vals, errs = _evaluate(controls, tol, levels_of)
    layout = _Layout(controls.alphabet, masks)
    return ChenEvaluation(controls, bound, layout, [1.0] + vals.tolist(), [0.0] + errs.tolist())


def iterated_integral(word, inputs, path, tol=1e-10):
    """One iterated integral, as the family of its suffixes: one row per length."""
    word = _as_word(word)
    controls = _Controls.of(inputs, SegmentPath.of(path), tol)
    controls.alphabet.validate_word(word)
    if not word:
        return 1.0
    from ._numeric import _chain_levels, _evaluate

    levels_of = partial(_chain_levels, indices=[controls.alphabet.rank(x) for x in word])
    kept, vals, _ = _evaluate(controls, tol, levels_of)
    if kept < len(word):
        raise ValueError(f"{word_text(word)} is not integrable at the path endpoint")
    return float(vals[-1])


# ---------------------------------------------------------------------------
# structural diagnostics


def friedrichs_check(ev):
    """Worst multiplicativity defect |<S,u sh v> - <S,u><S,v>|.

    The defect of the exact evaluation vanishes identically; the returned
    maximum over all pairs with |u| + |v| <= bound measures the numerical
    quality of the evaluation.
    """
    from .series import shuffle_words

    vals = dict(ev.values.items())  # many lookups: at dict speed
    words = sorted(vals, key=len)
    worst = 0.0
    for i, u in enumerate(words):
        lu = len(u)
        for v in words[i:]:
            if lu + len(v) > ev.bound:
                continue
            acc = 0.0
            for w, c in shuffle_words(u, v):
                cw = vals.get(w)
                if cw is None:  # possible only for pairs mixing excluded structure
                    break
                acc += c * cw
            else:
                worst = max(worst, abs(acc - vals[u] * vals[v]))
    return worst


def primitive_log_check(ev):
    """Worst primitivity defect of the logarithm of the evaluation.

    The concatenation log of a group-like series is primitive for the
    coproduct dual to the shuffle; the returned maximum is the largest
    coefficient of the reduced coproduct of any homogeneous component of the
    log.  Needs the complete evaluation to length >= 2.
    """
    if ev.bound < 2:
        raise ValueError("the primitivity check needs coefficients to length at least 2")
    if ev.excluded:
        raise ValueError("the primitivity check needs a complete evaluation; choose a path avoiding the singular endpoint")
    from .series import NCPolynomial, TensorPoly, TruncatedSeries, unshuffle

    series = NCPolynomial(ev.alphabet, RR, dict(ev.values.items()))
    logarithm = TruncatedSeries(series, ev.bound).log()
    one = NCPolynomial.one(ev.alphabet, RR)
    worst = 0.0
    for g in range(1, ev.bound + 1):
        h = logarithm.poly.homogeneous_component(g)
        if h.is_zero():
            continue
        defect = unshuffle(h) - TensorPoly.of(h, one) - TensorPoly.of(one, h)
        for c in defect.terms.values():
            worst = max(worst, abs(c))
    return worst


def flow_compose(second, first):
    """Coefficients along the concatenated path, from the two legs.

    `first` evaluates the leg entered first; `second` must start where it
    ends.  The composed coefficient of w sums second[u] * first[v] over all
    splittings w = uv, matching the evaluation along the full path.
    """
    if not isinstance(first, ChenEvaluation) or not isinstance(second, ChenEvaluation):
        raise TypeError("flow composition needs two evaluations")
    if first.alphabet != second.alphabet:
        raise ValueError("the legs use different alphabets")
    if first.path.z1_exact != second.path.z0_exact:
        raise ValueError("the second leg must start where the first ends")
    bound = min(first.bound, second.bound)
    head, tail = dict(second.values.items()), dict(first.values.items())  # many lookups: at dict speed
    out = {}
    for w in first.alphabet.words_up_to(bound):
        acc = 0.0
        for i in range(len(w) + 1):
            cu, cv = head.get(w[:i]), tail.get(w[i:])
            if cu is None or cv is None:
                break
            acc += cu * cv
        else:
            out[w] = acc
    return out


# ---------------------------------------------------------------------------
# pairing with a linear representation


class PairingResult(NamedTuple):
    """Value of a series-evaluation pairing with a certified tail bound."""

    value: float
    tail: float
    certified: bool


def _inf_norm(rows):
    # each row summed in column order, so the float sum does not depend on dict order
    return max(sum(abs(float(row[j])) for j in sorted(row)) for row in rows)


def pair_series(ev, rep):
    """Sum the represented series against the evaluation, with a tail bound.

    The value truncates the pairing at the evaluation's length bound L; the
    tail uses |coefficient of w| <= (sup|u| * |path|)^|w| / |w|! (simplex
    volume) and the multiplicative sup matrix norm, giving
    ||nu||_1 ||eta||_inf c^(L+1)/(L+1)! e^c with c = (#letters) * max||mu(x)||
    * max sup|u_x| * |path|, where sup|u_x| is `InputFunction.sup_on`, an
    exact bound rounded up for rational controls.  The bound is certified
    exactly when it is finite; an unbounded control clears the flag.
    """
    if rep.ring != QQ:
        raise ValueError("the pairing needs a representation with rational coefficients")
    if ev.excluded:
        raise ValueError("the pairing needs a complete evaluation; choose a path avoiding the singular endpoint")
    if rep.dim == 0:
        return PairingResult(0.0, 0.0, True)
    from ._numeric import _series_pairing

    # every word up to the bound, in grade-lex order: the excluded ones were refused above
    value, k = _series_pairing(ev.values.rows, ev.alphabet.letters, ev.bound, rep)
    mu_norm = max((_inf_norm(rep.rows[x]) for x in ev.inputs if x in rep.rows), default=0.0)
    tail = 0.0
    if k > 0.0 and mu_norm > 0.0:
        c = len(ev.inputs) * mu_norm * ev.controls.sup * ev.path.length
        try:
            tail = k * (c ** (ev.bound + 1) / math.factorial(ev.bound + 1)) * math.exp(c)
        except OverflowError:
            tail = math.inf
    return PairingResult(value, tail, math.isfinite(tail))


def _flow_controls(rep, inputs, path, tol):
    """The checked controls of a state flow, which needs a representation
    with rational coefficients and controls regular on the closed segment."""
    if rep.ring != QQ:
        raise ValueError("the pairing needs a representation with rational coefficients")
    controls = _Controls.of(inputs, SegmentPath.of(path), tol)
    if controls.singular_start:
        raise ValueError("the flow evaluator needs controls regular on the closed segment")
    return controls


def pair_ode(rep, inputs, path, tol=1e-10):
    """Sum the represented series by integrating its linear state flow.

    The state q obeys dq/dz = (sum_x u_x(z) mu(x)) q from q(z0) = eta, and the
    value is nu . q(z1); this is the same pairing as `pair_series` without a
    truncation error.  The flow is integrated by 16-node Gauss collocation
    under `_adaptive`, the driver `chen_series` uses too: from its initial
    mesh, a panel is accepted when one step and two half steps agree to the
    panel's share of `tol`, relative to the size of the state, or to
    rounding, and is bisected otherwise.  A panel that cannot be accepted
    raises RuntimeError.  Given an evaluation's
    `ev.controls` on the same path, it checks no control again.
    """
    controls = _flow_controls(rep, inputs, path, tol)
    from ._numeric import _ode_state

    # a list of doubles @ an array is NumPy's matmul, as nu @ q with nu an array
    return float([float(c) for c in rep.nu] @ _ode_state(rep, controls, tol))


# ---------------------------------------------------------------------------
# exact scalar differential equations

_QZ_POLY = PolynomialRing("z")


def _exact_controls(inputs):
    clean = {}
    for x, f in inputs.items():
        f = InputFunction.of(f)
        if f.ratfun is None:
            raise ValueError(f"the control for {x} must be a rational function of z")
        clean[x] = f
    return clean


def _derivative_rows(rep, inputs):
    """Rows r_l = P_l / D^l with d^l (nu . q) = r_l . q for the state equation q' = A q.

    A = sum_x u_x mu(x) over the letters that have both a control and a
    matrix, and D is the lcm of their control denominators, so that B = D A
    is polynomial.  The recursion r_0 = nu, r_l = r_{l-1}' + r_{l-1} A (the
    cyclic-vector step of Barkatou, AAECC 4, 1993) stays in Q[z] as
    P_l = D P_{l-1}' - (l-1) D' P_{l-1} + P_{l-1} B, with B and each P_l
    held as sparse rows, for rational controls.  The generator yields the
    pairs (P_l, D^l), one per order, without end.  r_l is nu . mu(Q_l) for
    the paper's word multipliers Q_0 = 1, Q_l = Q_{l-1} M + Q_{l-1}' with
    M = sum_x u_x x; `tests/test_chen.py` checks the two against each other.
    """
    from .linalg import _add_multiple, vec_rows

    terms = [(f.ratfun, rep.rows[x]) for x, f in inputs.items() if x in rep.rows and f.ratfun]
    d = poly_lcm(_QZ_POLY.one, *(u.den for u, _ in terms))
    b = [{} for _ in range(rep.dim)]  # the sparse rows of B
    for u, m in terms:
        p = u.num * (d // u.den)
        for out, row in zip(b, m):
            _add_multiple(out, p, row)
    dd = d.derivative()
    row, scale = {j: _QZ_POLY.coerce(c) for j, c in enumerate(rep.nu) if c}, _QZ_POLY.one
    for l in count():
        yield row, scale
        step = vec_rows(_QZ_POLY, row, b)
        for j, p in row.items():
            step[j] = step.get(j, _QZ_POLY.zero) + d * p.derivative() - l * dd * p
        row = {j: p for j, p in step.items() if p}
        scale = scale * d


def pair_ode_derivatives(rep, inputs, path, orders, tol=1e-10):
    """Endpoint derivatives d^l y for l = 0..orders, via the state flow.

    The l-th derivative of y = nu . q is r_l . q, with r_0 = nu and
    r_l = r_{l-1}' + r_{l-1} A(z) for A = sum_x u_x mu(x), so one
    integration of the state yields all orders.
    """
    controls = _flow_controls(rep, inputs, path, tol)
    rows = islice(_derivative_rows(rep, _exact_controls(controls.inputs)), orders + 1)
    from ._numeric import _ode_state

    q, z = _ode_state(rep, controls, tol), Fraction(controls.path.z1)
    return [float(sum(float(row[j](z) / scale(z)) * q[j] for j in sorted(row))) for row, scale in rows]


def _normalize_ode(coeffs, order):
    # the primitive part is unique up to sign: make the top-order leading coefficient positive
    coeffs = _QZ_POLY.primitive(coeffs)
    polys = [coeffs.get(l, _QZ_POLY.zero) for l in range(order + 1)]
    if polys[-1].leading() < 0:
        polys = [-p for p in polys]
    return polys


def derive_scalar_ode(rep, inputs):
    """Least-order scalar linear ODE satisfied by the pairing.

    Returns polynomial coefficients a_0..a_N with sum a_l(z) d^l y = 0.  The
    rows r_0 = nu, r_l = r_{l-1}' + r_{l-1} A(z) with A = sum_x u_x mu(x)
    satisfy d^l y = r_l . q, so the ODE is the first linear dependence among
    them over Q(z).  Each polynomial row P_l = D^l r_l goes into one
    fraction-free echelon basis over Q[z], with D^l in an identity column l;
    the first row that reduces to zero there carries the coefficients of the
    dependence in those columns, so no inverse is formed.  N never exceeds
    the representation dimension.  The coefficient list is normalized: common
    polynomial factor removed, integer coefficients made setwise coprime, and
    the leading coefficient of the top-order term positive.
    """
    if rep.ring != QQ:
        raise ValueError("the representation must have rational coefficients")
    from .linalg import EchelonBasis

    n = rep.dim
    basis = EchelonBasis(_QZ_POLY, n)
    for l, (row, scale) in enumerate(_derivative_rows(rep, _exact_controls(inputs))):
        v = basis.reduce({**row, n + l: scale})
        if all(j >= n for j in v):
            return _normalize_ode({j - n: p for j, p in v.items()}, l)
        basis.insert(v)


_ATOM_RE = re.compile(r"-?(\d+(/\d+)?|z(\^\d+)?|\d+(/\d+)?\*z(\^\d+)?)\Z")


def scalar_ode_text(coeffs):
    """Human-readable form of a scalar ODE coefficient list."""
    pieces = []
    for l in range(len(coeffs) - 1, -1, -1):
        p = coeffs[l]
        if p.is_zero():
            continue
        dy = "y" + ("'" * l if l <= 3 else f"^({l})")
        txt = poly_text(p)
        if txt == "1":
            pieces.append(("+", dy))
        elif txt == "-1":
            pieces.append(("-", dy))
        else:
            sign = "+"
            if txt.startswith("-") and _ATOM_RE.match(txt):
                sign, txt = "-", txt[1:]
            if not _ATOM_RE.match(txt):
                txt = f"({txt})"
            pieces.append((sign, f"{txt}*{dy}"))
    if not pieces:
        return "0 = 0"
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {'-' if sign == '-' else '+'} {body}"
    return out + " = 0"
