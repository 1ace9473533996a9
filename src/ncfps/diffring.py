"""Differential polynomials in the letter-indexed input symbols.

Each letter x carries a formal input symbol u_x together with all of its
derivatives.  DiffPolynomial is the commutative Q-algebra they generate,
with the derivation extended by the Leibniz rule.  Noncommutative
polynomials over the alphabet with these coefficients support the
word-multiplier recursion: W_0 = 1 and W_l = W_{l-1} M + d(W_{l-1}) with
M = sum_x u_x x.  Symbols specialize to exact rational functions of z.

`independence_criterion` decides whether a family of rational inputs admits
a nonzero rational linear combination that is an exact derivative in Q(z).
Over the common denominator D the numerators of such derivatives form a
Q-subspace with an explicit spanning set (Horowitz-Ostrogradsky), so the
decision is one echelon span test over Q and needs no roots of D.

The multipliers q_l are the paper's formal recursion, with one term per word
of length at most l.  Scalar ODE derivation does not go through them: it
steps the rows r_l = r_{l-1}' + r_{l-1} A(z) of the state equation instead
(`ncfps.chen`), and the tests check that nu . mu(specialize(q_l)) equals r_l.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import EchelonBasis
from .rings import QQ, QZ, CoefficientRing, Poly, RatFun, poly_gcd, poly_lcm, ring_named
from .series import NCPolynomial

__all__ = [
    "DiffPolynomial",
    "DIFF",
    "derive",
    "input_form",
    "q_l",
    "q_l_explicit",
    "specialize",
    "independence_criterion",
    "parse_input_assignment",
]


def _symbol_text(letter, r):
    if r == 0:
        return f"u_{letter}"
    if r == 1:
        return f"u'_{letter}"
    return f"u^({r})_{letter}"


class DiffPolynomial:
    """Q-linear combination of monomials in the symbols d^r u_x.

    A monomial is a sorted tuple of (letter, order) pairs with repetition;
    multiplication merges multisets, so the algebra is commutative.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c:
                mono = tuple(sorted(mono))
                clean[mono] = clean.get(mono, Fraction(0)) + c
        object.__setattr__(
            self, "terms", {m: c for m, c in clean.items() if c}
        )

    def __setattr__(self, name, value):
        raise AttributeError("DiffPolynomial is immutable")

    @classmethod
    def const(cls, c):
        return cls({(): Fraction(c)})

    @classmethod
    def symbol(cls, letter, order=0):
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return cls({((letter, order),): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(m == () for m in self.terms)

    def const_value(self):
        return self.terms.get((), Fraction(0))

    def __add__(self, other):
        other = _as_diff(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return DiffPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return DiffPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_diff(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_diff(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_diff(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                c = c1 * c2
                out[m] = out.get(m, Fraction(0)) + c
        return DiffPolynomial(out)

    __rmul__ = __mul__

    def derive(self):
        """The derivation: Leibniz over each monomial, order bump per symbol."""
        out = {}
        for mono, c in self.terms.items():
            for i, (letter, r) in enumerate(mono):
                bumped = mono[:i] + ((letter, r + 1),) + mono[i + 1 :]
                bumped = tuple(sorted(bumped))
                out[bumped] = out.get(bumped, Fraction(0)) + c
        return DiffPolynomial(out)

    def specialize(self, assignment):
        """Evaluate with u_x set to a rational function of z, exactly."""
        asg = _normalize_assignment(assignment)
        acc = QZ.zero
        for mono, c in self.terms.items():
            val = QZ.coerce(c)
            for letter, r in mono:
                val = val * _input_derivative(asg, letter, r)
            acc = acc + val
        return acc

    def __eq__(self, other):
        other = _as_diff(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def text(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mono]
            body = "*".join(_symbol_text(x, r) for x, r in mono)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = f"{abs(c)}*{body}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"DiffPolynomial({self.text()})"


def _as_diff(x):
    if isinstance(x, DiffPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return DiffPolynomial.const(x)
    return None


class DiffCoefficientRing(CoefficientRing):
    """Ring descriptor so noncommutative polynomials can carry symbolic
    input coefficients."""

    name = "Q{u}"
    is_field = False

    zero = DiffPolynomial({})
    one = DiffPolynomial.const(1)

    def coerce(self, x):
        v = _as_diff(x)
        if v is None:
            raise TypeError(f"cannot coerce {x!r} into {self.name}")
        return v

    def format(self, x):
        if x.is_const():
            return str(x.const_value())
        if len(x.terms) == 1:
            return x.text()
        return f"({x.text()})"

    def parse(self, s):
        raise ValueError("symbolic input coefficients have no text parser")

    def invert(self, x):
        if not x.is_const() or x.is_zero():
            raise ValueError(f"{x!r} is not a unit in {self.name}")
        return DiffPolynomial.const(Fraction(1) / x.const_value())

    def __eq__(self, other):
        return isinstance(other, DiffCoefficientRing)

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "DiffCoefficientRing()"


DIFF = DiffCoefficientRing()


def derive(p):
    """Derivation on symbolic coefficients; coefficientwise on words."""
    if isinstance(p, DiffPolynomial):
        return p.derive()
    if isinstance(p, NCPolynomial):
        return p.map_ring(DIFF, lambda c: c.derive())
    raise TypeError(f"cannot derive {p!r}")


def input_form(alphabet):
    """The letter form sum_x u_x x."""
    if alphabet.kind != "X":
        raise ValueError("the multiplier recursion needs a finite alphabet")
    terms = {(x,): DiffPolynomial.symbol(x) for x in alphabet.letters}
    return NCPolynomial(alphabet, DIFF, terms)


def q_l(alphabet, l):
    """Word multipliers: q_0 = 1, q_l = q_{l-1} . input_form + derive(q_{l-1})."""
    if l < 0:
        raise ValueError("the multiplier index must be nonnegative")
    val = NCPolynomial.one(alphabet, DIFF)
    for _ in range(l):
        val = val * input_form(alphabet) + derive(val)
    return val


def q_l_explicit(alphabet, l):
    """Closed multinomial form of the word multipliers, kept to l <= 4.

    The sum runs over words x_{i_1}..x_{i_k} and derivative multi-indices
    (r_1,..,r_k) with k + r_1 + .. + r_k = l; each term carries the product
    of binomials C(r_m+..+r_k + k - m, r_m) over positions m, counting how
    many derivation steps of the recursion can land on position m.  The
    recursion is the ground truth; this form is only provided where it has
    been checked against it.
    """
    if alphabet.kind != "X":
        raise ValueError("the multiplier recursion needs a finite alphabet")
    if l < 0:
        raise ValueError("the multiplier index must be nonnegative")
    if l > 4:
        raise ValueError("closed form checked only up to l = 4; use q_l")
    terms = {}
    for k in range(l + 1):
        rest = l - k
        if k == 0:
            if rest == 0:
                terms[()] = terms.get((), DIFF.zero) + DIFF.one
            continue
        for word in alphabet.words_of_grade(k):
            for r in _compositions_with_zeros(rest, k):
                coeff = 1
                suffix = 0
                for m in range(k - 1, -1, -1):
                    suffix += r[m]
                    coeff *= math.comb(suffix + (k - 1 - m), r[m])
                mono = DiffPolynomial(
                    {tuple(sorted((word[j], r[j]) for j in range(k))): Fraction(coeff)}
                )
                terms[word] = terms.get(word, DIFF.zero) + mono
    return NCPolynomial(alphabet, DIFF, terms)


def _compositions_with_zeros(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions_with_zeros(total - first, parts - 1):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# specialization


def _normalize_assignment(assignment):
    out = {}
    for letter, val in assignment.items():
        if isinstance(val, str):
            val = QZ.parse(val)
        out[letter] = QZ.coerce(val)
    return out


def _input_derivative(asg, letter, r):
    try:
        val = asg[letter]
    except KeyError:
        raise ValueError(f"missing assignment for input symbol u_{letter}") from None
    for _ in range(r):
        val = val.derivative()
    return val


def specialize(p, assignment):
    """Symbols become rational functions: d^r u_x is the r-th derivative of
    the assigned function.  Word polynomials specialize coefficientwise."""
    if isinstance(p, DiffPolynomial):
        return p.specialize(assignment)
    if isinstance(p, NCPolynomial):
        asg = _normalize_assignment(assignment)
        return p.map_ring(QZ, lambda c: c.specialize(asg))
    raise TypeError(f"cannot specialize {p!r}")


# ---------------------------------------------------------------------------
# independence of rational inputs


def independence_criterion(inputs, base):
    """Whether no nonzero rational-coefficient combination of the inputs is
    trivial for integration purposes.

    Over the constant base field Q this is plain linear independence over Q.
    Over the rational-function base Q(z) (or its alias Q(t)) no nonzero
    combination may be an exact derivative in Q(z).  With all inputs over
    their lcm denominator D, the exact derivatives whose denominator divides
    D have numerators spanned over Q by (z^j/E)' D for j < deg E, where
    E = gcd(D, D'), and by the z^k D: a derivative g' over D has g = P/E plus
    a polynomial (Horowitz 1971; Bronstein, Symbolic Integration I, 2.2).
    Both bases are one span test: the family is independent exactly when
    each input's numerator adds a new row to the echelon basis of these
    generators (none over Q), so no root of D is ever located.
    """
    if isinstance(base, str):
        base = ring_named(base)
    if base.name not in ("Q", "Q(z)", "Q(t)"):
        raise ValueError(f"unsupported base field {base.name!r}")
    asg = _normalize_assignment(inputs)
    funs = [asg[x] for x in sorted(asg)]
    if not funs:
        return True
    den = funs[0].den
    for f in funs[1:]:
        den = poly_lcm(den, f.den)
    numerators = [f.num * (den // f.den) for f in funs]
    exact = []
    if base.name != "Q":
        e = poly_gcd(den, den.derivative())
        z = Poly.gen(den.var)
        exact = [(RatFun(z**j, e).derivative() * den).num for j in range(e.degree)]
        top = max(n.degree for n in numerators)
        exact += [z**k * den for k in range(top - den.degree + 1)]
    width = max(p.degree for p in exact + numerators) + 1
    rows = [p.coeffs + (Fraction(0),) * (width - len(p.coeffs)) for p in exact + numerators]
    basis = EchelonBasis(QQ, width)
    for row in rows[: len(exact)]:
        basis.insert(row)
    return all(basis.insert(row) is not None for row in rows[len(exact) :])


def parse_input_assignment(text):
    """Comma list `x0=1/z, x1=1/(1-z)` to a letter -> rational map."""
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected letter=expression, got {chunk!r}")
        name, expr = chunk.split("=", 1)
        name = name.strip()
        if not name:
            raise ValueError(f"missing letter name in {chunk!r}")
        out[name] = QZ.parse(expr)
    return out
