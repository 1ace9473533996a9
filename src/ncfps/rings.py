"""Exact scalar arithmetic for series coefficients.

Coefficients live in one of three domains: the rationals Q, univariate
polynomials Q[v], or univariate rational functions Q(v).  Ring descriptor
objects bundle coercion, parsing and formatting so the series and automata
layers can treat scalars uniformly.  A double-precision descriptor serves
the numeric series of the quadrature layer.

Rational functions are kept reduced (coprime numerator/denominator, monic
denominator), which makes equality a plain structural comparison.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "Poly",
    "RatFun",
    "poly_gcd",
    "poly_lcm",
    "poly_text",
    "RationalRing",
    "PolynomialRing",
    "RationalFunctionRing",
    "FloatRing",
    "QQ",
    "QT",
    "QZ",
    "RR",
    "ring_named",
]


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _integral(coeffs):
    """(d, integers n_k) with coeffs[k] = n_k / d, d the lcm of the denominators."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


class _Immutable:
    """Base of the value classes whose constructors set each attribute once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Poly(_Immutable):
    """Dense univariate polynomial over Q, coefficients in ascending degree.

    Immutable once built; trailing zero coefficients are stripped so the
    tuple of coefficients is a canonical form (the zero polynomial has an
    empty tuple).  Their float images are made on the first float evaluation
    and kept, as is the Sturm chain on its first use.
    """

    __slots__ = ("var", "coeffs", "_floats", "_sturm")

    def __init__(self, var, coeffs):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, var, c):
        return cls(var, (c,))

    @classmethod
    def gen(cls, var):
        return cls(var, (0, 1))

    @property
    def degree(self):
        # -1 for the zero polynomial
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_const(self):
        return len(self.coeffs) <= 1

    def const_value(self):
        if not self.is_const():
            raise ValueError(f"{self!r} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.var != self.var:
                raise ValueError(f"mixed variables {self.var!r} and {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.var, _frac(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly(self.var, ())
        # convolve the integer numerators over common denominators: one gcd
        # per output coefficient instead of one per product
        da, a = _integral(self.coeffs)
        db, b = _integral(o.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        d = da * db
        return Poly(self.var, [Fraction(c, d) for c in out])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.var, Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly(self.var, ()), self
        quo = [Fraction(0)] * (dq + 1)
        lead = o.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(o.coeffs) - 1] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(o.coeffs):
                    rem[k + j] -= c * b
        return Poly(self.var, quo), Poly(self.var, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self):
        return Poly(self.var, tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        try:
            floats = self._floats
        except AttributeError:
            floats = tuple(float(c) for c in reversed(self.coeffs))
            object.__setattr__(self, "_floats", floats)
        # Horner from the leading coefficient; 0 * x gives a constant the shape of x
        if len(floats) < 2:
            return 0 * x + floats[0] if floats else 0 * x
        acc = floats[0] * x + floats[1]
        for c in floats[2:]:
            acc = acc * x + c
        return acc

    def shifted(self, a):
        """Substitute var -> var + a (Taylor shift)."""
        a = _frac(a)
        z = Poly(self.var, (a, Fraction(1)))
        acc = Poly(self.var, ())
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(self.var, tuple(c / lead for c in self.coeffs))

    def content(self):
        """Positive rational c with self/c having integer, setwise-coprime coefficients."""
        # gcd of the numerators over lcm of the denominators, each coefficient
        # in lowest terms: the same p-adic valuations as lifting to integers
        cs = self.coeffs
        return Fraction(math.gcd(*[c.numerator for c in cs]), math.lcm(*[c.denominator for c in cs]))

    def root_multiplicity(self, r):
        r = _frac(r)
        lin = Poly(self.var, (-r, Fraction(1)))
        mult = 0
        p = self
        while not p.is_zero():
            q, rem = p.divmod(lin)
            if not rem.is_zero():
                break
            mult += 1
            p = q
        return mult

    def _sturm_chain(self):
        """Sturm chain of the squarefree part p // gcd(p, p'), each remainder
        divided by its content; the first entry is the squarefree part."""
        try:
            return self._sturm
        except AttributeError:
            if self.is_zero():
                raise ValueError("zero polynomial has every root") from None
        p = self // poly_gcd(self, self.derivative())
        object.__setattr__(self, "_sturm", (p, *_remainders(p, p.derivative(), -1)))
        return self._sturm

    def count_real_roots(self, lo, hi):
        """Number of distinct real roots in the open interval (lo, hi).

        Sturm's theorem: the squarefree part has V(lo) - V(hi) roots in
        (lo, hi], where V counts the sign changes along its Sturm chain.
        """
        lo, hi = _frac(lo), _frac(hi)
        if lo >= hi:
            return 0
        chain = self._sturm_chain()
        return _sign_changes(chain, lo) - _sign_changes(chain, hi) - (chain[0](hi) == 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.const_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_const():
            return hash(self.const_value())
        return hash((self.var, self.coeffs))

    def __repr__(self):
        return f"Poly({poly_text(self)!r})"


# relative slack of RatFun.sup_bound over the largest value it attains
_SUP_SLACK = Fraction(1, 2**30)


def _sign_changes(chain, x):
    signs = [v > 0 for v in (p(x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _remainders(a, b, sign):
    """The Euclidean sequence of a and b: b, then each nonzero remainder divided
    by sign times its content, which keeps coefficients small; the last is the gcd."""
    while b:
        yield b
        r = a % b
        a, b = b, r * (sign / r.content()) if r else r


def poly_gcd(a, b):
    """Monic gcd of two polynomials (1 if either is a nonzero constant)."""
    *_, g = a, *_remainders(a, b, 1)
    return g.monic()


def poly_lcm(*ps):
    """Least common multiple of one or more nonzero polynomials."""
    out = ps[0]
    for p in ps[1:]:
        out = (out * p) // poly_gcd(out, p)
    return out


class RatFun(_Immutable):
    """Rational function over Q: coprime numerator/denominator, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            raise TypeError("RatFun numerator must be Poly")
        if den is None:
            den = Poly.const(num.var, Fraction(1))
        if not isinstance(den, Poly) or den.var != num.var:
            raise TypeError("RatFun denominator must be Poly in the same variable")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.const(num.var, Fraction(1))
        elif den.coeffs != (1,):  # a polynomial is already in lowest terms
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.leading()
            if lead != 1:
                inv = Fraction(1) / lead
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def var(self):
        return self.num.var

    @classmethod
    def const(cls, var, c):
        return cls(Poly.const(var, c))

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    def is_polynomial(self):
        return self.den.degree == 0

    def _coerce(self, other):
        if isinstance(other, RatFun):
            if other.var != self.var:
                raise ValueError("mixed variables")
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        if isinstance(other, (int, Fraction)):
            return RatFun.const(self.var, _frac(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a rational function")
        # powers of coprime polynomials stay coprime, and of a monic one monic
        out = object.__new__(RatFun)
        object.__setattr__(out, "num", self.num**n)
        object.__setattr__(out, "den", self.den**n)
        return out

    def derivative(self):
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def sup_bound(self, lo, hi):
        """Exact upper bound on sup |f| over [lo, hi]; math.inf for a pole there.

        The sup is attained at an endpoint or at a root of
        W = num' den - num den' in (lo, hi).  Sturm bisection isolates those
        roots; on an isolating interval of midpoint m and radius r the Taylor
        shifts at m give |f| <= sum |n_k| r^k / (|d_0| - sum_{k>=1} |d_k| r^k).
        An interval is bisected until its enclosure is within _SUP_SLACK,
        relative, of the largest |f| met at an endpoint or a midpoint.
        """
        lo, hi = _frac(lo), _frac(hi)
        num, den = self.num, self.den
        if den(lo) == 0 or den(hi) == 0 or den.count_real_roots(lo, hi):
            return math.inf
        attained = bound = max(abs(self(lo)), abs(self(hi)))
        w = num.derivative() * den - num * den.derivative()
        if w.degree < 1:
            return bound
        chain = w._sturm_chain()
        # (a, b, V(a), V(b)): V(a) - V(b) roots of W in (a, b]
        pending = [(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))]
        while pending:
            a, b, va, vb = pending.pop()
            if va == vb:
                continue
            m, r = (a + b) / 2, (b - a) / 2
            n, d = num.shifted(m).coeffs, den.shifted(m).coeffs
            attained = max(attained, abs(n[0] / d[0]))
            low = abs(d[0]) - sum(abs(c) * r**k for k, c in enumerate(d) if k)
            if low > 0:
                upper = sum(abs(c) * r**k for k, c in enumerate(n)) / low
                if upper <= (1 + _SUP_SLACK) * attained:
                    bound = max(bound, upper)
                    continue
            vm = _sign_changes(chain, m)
            pending += [(a, m, va, vm), (m, b, vm, vb)]
        return max(bound, attained)

    def vanishing_order_at(self, p):
        """Order of vanishing at the rational point p (negative for a pole)."""
        p = _frac(p)
        if self.is_zero():
            raise ValueError("order of the zero function is undefined")
        return self.num.root_multiplicity(p) - self.den.root_multiplicity(p)

    def residue_at(self, p):
        """Exact residue at the rational point p, by shifted Laurent expansion."""
        p = _frac(p)
        k = self.den.root_multiplicity(p)
        if k == 0:
            return Fraction(0)
        n = self.num.shifted(p).coeffs
        d0 = self.den.shifted(p).coeffs[k:]  # den / v^k, nonzero constant term
        # power-series coefficients of num/d0 up to order k-1
        series = []
        for j in range(k):
            acc = n[j] if j < len(n) else Fraction(0)
            for i in range(j):
                acc -= series[i] * (d0[j - i] if j - i < len(d0) else Fraction(0))
            series.append(acc / d0[0])
        return series[k - 1]

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            o = self._coerce(other)
            return self.num == o.num and self.den == o.den
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.var == other.var and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_polynomial():
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFun({poly_text(self.num)!r})"
        return f"RatFun({poly_text(self.num)!r}, {poly_text(self.den)!r})"


# ---------------------------------------------------------------------------
# text forms
#
# Polynomials print with terms in descending degree and no interior spaces,
# e.g. "z^2-1", "3/2*z^3+z-5".  This is the form embedded in coefficient
# strings like "(z^2-1)/(z)".


def poly_text(p):
    if p.is_zero():
        return "0"
    pieces = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
        if not c:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            v = p.var if d == 1 else f"{p.var}^{d}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+" if c > 0 else "-") + body)
    return "".join(pieces)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(\s*/\s*\d+)?$")

_EXPR_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z])|(?P<op>[\^*+\-/()]))"
)


def _rational(text):
    """The Fraction that a literal such as "3/4" or "3 / 4" denotes."""
    try:
        return Fraction(text.replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"division by zero in {text!r}") from None


def _tokenize_expr(s):
    toks = []
    pos = 0
    while pos < len(s):
        m = _EXPR_TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ValueError(f"bad expression near {s[pos:]!r}")
            break
        if m.group("rat"):
            toks.append(("rat", _rational(m.group("rat"))))
        elif m.group("name"):
            toks.append(("name", m.group("name")))
        else:
            toks.append(("op", m.group("op")))
        pos = m.end()
    return toks


# dense polynomials of higher degree, or with larger coefficients, cost too
# much time and memory to build
_MAX_EXPONENT = 1000
_MAX_COEFFICIENT_BITS = 2048


def _height(p):
    """log2 of the common denominator d of p's coefficients plus log2 of the
    sum of their absolute numerators over d.  No coefficient has a numerator
    or a denominator above 2^height, and the height of a product is at most
    the sum of its factors' heights."""
    d, nums = _integral(p.coeffs)
    return math.log2(d) + math.log2(max(1, sum(map(abs, nums))))


def parse_ratfun_expr(s, var):
    """Full arithmetic grammar over Q(var): `1/z`, `1/(1-z)`, `(z^2-1)/(z)`.

    Precedence: unary sign < +,- < *,/ < ^ with an integer exponent from 0
    to _MAX_EXPONENT.  Every value is exact.  No numerator or denominator
    may exceed degree _MAX_EXPONENT, before any cancellation: each operation
    checks the degrees of its result before it builds it.  Each ``^``, ``*``
    and ``/`` also bounds the height (see ``_height``) of the polynomials it
    multiplies out by those of its operands, and refuses a bound above
    _MAX_COEFFICIENT_BITS.
    """
    toks = _tokenize_expr(s)
    if not toks:
        raise ValueError("empty expression")
    pos = [0]

    def capped(num_degree, den_degree, height=0):
        if max(num_degree, den_degree) > _MAX_EXPONENT:
            raise ValueError(f"{s!r} builds a polynomial of degree above {_MAX_EXPONENT}")
        if height > _MAX_COEFFICIENT_BITS:
            raise ValueError(f"{s!r} may build coefficients of more than {_MAX_COEFFICIENT_BITS} bits")

    def heights(a, b):
        return _height(a) + _height(b)

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def atom():
        t = take()
        if t is None:
            raise ValueError(f"truncated expression {s!r}")
        if t[0] == "rat":
            return RatFun.const(var, t[1])
        if t[0] == "name":
            if t[1] != var:
                raise ValueError(f"unexpected variable {t[1]!r}, expected {var!r}")
            return RatFun(Poly.gen(var))
        if t == ("op", "("):
            v = expr()
            if take() != ("op", ")"):
                raise ValueError(f"unbalanced parentheses in {s!r}")
            return v
        raise ValueError(f"unexpected token {t[1]!r} in {s!r}")

    def factor():
        base = atom()
        if peek() == ("op", "^"):
            take()
            e = take()
            if e is None or e[0] != "rat" or e[1].denominator != 1 or not 0 <= e[1] <= _MAX_EXPONENT:
                raise ValueError(f"exponent must be an integer from 0 to {_MAX_EXPONENT}")
            k = int(e[1])
            capped(base.num.degree * k, base.den.degree * k, k * max(_height(base.num), _height(base.den)))
            return base**k
        return base

    def term():
        v = factor()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = factor()
            if op == "*":
                capped(
                    v.num.degree + rhs.num.degree,
                    v.den.degree + rhs.den.degree,
                    max(heights(v.num, rhs.num), heights(v.den, rhs.den)),
                )
                v = v * rhs
            else:
                if rhs.is_zero():
                    raise ValueError("division by zero in expression")
                capped(
                    v.num.degree + rhs.den.degree,
                    v.den.degree + rhs.num.degree,
                    max(heights(v.num, rhs.den), heights(v.den, rhs.num)),
                )
                v = v / rhs
        return v

    def expr():
        sign = 1
        while peek() in (("op", "+"), ("op", "-")):
            if take()[1] == "-":
                sign = -sign
        v = term()
        if sign < 0:
            v = -v
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            num_degree = max(v.num.degree + rhs.den.degree, rhs.num.degree + v.den.degree)
            capped(num_degree, v.den.degree + rhs.den.degree)
            v = v + rhs if op == "+" else v - rhs
        return v

    out = expr()
    if pos[0] != len(toks):
        raise ValueError(f"trailing tokens in expression {s!r}")
    return out


# ---------------------------------------------------------------------------
# ring descriptors


class CoefficientRing:
    """Base of the ring descriptors.

    The kernel loops of word products, coproducts, star, exp and log run on
    a ring's lifted form and lower their sums once at the end.  ``lift``
    turns a coefficient dict into (d, numerators over d); ``pack(nums,
    width)`` makes the numerators values the loops multiply and add;
    ``lower(values, d, width)`` turns sums of products of packed values back
    into coefficients over d, and drops the zeros.  Q lifts to integer
    numerators.  Q[v] lifts to integer coefficient lists, which ``pack``
    turns into one Python int each by Kronecker substitution; the caller
    picks the slot width from ``size`` so that no slot overflows.  ``integral`` marks the rings whose loops see
    only ints, ``packs`` the one that needs a width.  By default all three
    steps leave coefficients as they are: Q(v) and floats run the loops on
    ring elements, and ``lower`` only drops the zeros.

    Two descriptors are equal when their names are, as "Q[t]" or "Q(z)".
    """

    integral = False
    packs = False

    def lift(self, terms):
        return 1, terms

    def pack(self, nums, width):
        return nums

    def lower(self, values, d, width=None):
        return {k: c for k, c in values.items() if c}

    def field(self):
        return self

    def embed(self, x):
        """The image of x in :meth:`field`, which is this ring for a field."""
        return self.coerce(x)

    def __eq__(self, other):
        return isinstance(other, CoefficientRing) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<ring {self.name}>"


class RationalRing(CoefficientRing):
    """Q with exact Fraction values."""

    name = "Q"
    is_field = True
    integral = True

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Poly) and x.is_const():
            return x.const_value()
        if isinstance(x, RatFun) and x.is_const():
            return x.const_value()
        raise TypeError(f"cannot coerce {x!r} into Q")

    def parse(self, s):
        s = s.strip()
        if not _RATIONAL_RE.match(s):
            raise ValueError(f"bad rational literal {s!r}")
        return _rational(s)

    def format(self, x):
        return str(x)

    def lift(self, terms):
        """(d, integer numerators over d) of a dict of coefficients: sums and
        products of numerators take no gcd until :meth:`lower`."""
        d = math.lcm(*[c.denominator for c in terms.values()])
        return d, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}

    def lower(self, values, d, width=None):
        """The nonzero numerators of a dict as coefficients over d."""
        return {k: Fraction(n, d) for k, n in values.items() if n}

    def invert(self, x):
        return Fraction(1) / x


class PolynomialRing(CoefficientRing):
    """Q[var]: univariate polynomials; not a field."""

    is_field = False
    integral = True
    packs = True

    def __init__(self, var):
        self.var = var
        self.name = f"Q[{var}]"
        self.zero = Poly(var, ())
        self.one = Poly.const(var, Fraction(1))

    def gen(self):
        return Poly.gen(self.var)

    def coerce(self, x):
        if isinstance(x, Poly):
            if x.var != self.var:
                raise TypeError(f"polynomial in {x.var!r}, ring uses {self.var!r}")
            return x
        if isinstance(x, (int, Fraction)):
            return Poly.const(self.var, _frac(x))
        if isinstance(x, RatFun) and x.is_polynomial() and x.var == self.var:
            # reduced form has monic denominator, so a polynomial RatFun has den == 1
            return x.num
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def parse(self, s):
        v = parse_ratfun_expr(s, self.var)
        if not v.is_polynomial():
            raise ValueError(f"{s!r} is not a polynomial in {self.var}")
        return v.num

    def format(self, x):
        if x.is_const():
            return str(x.const_value())
        return f"({poly_text(x)})"

    def lift(self, terms):
        """(d, integer coefficient lists over d) of a dict of polynomials."""
        d = math.lcm(*[c.denominator for p in terms.values() for c in p.coeffs])
        return d, {k: [c.numerator * (d // c.denominator) for c in p.coeffs] for k, p in terms.items()}

    @staticmethod
    def size(nums):
        """Sum of the absolute values of all integers in a dict of lists."""
        return sum(abs(n) for num in nums.values() for n in num)

    def pack(self, nums, width):
        """Kronecker substitution v -> 2^width: each integer list n_0, n_1, ...
        becomes the int sum of n_k 2^(k width), negative entries included."""
        out = {}
        for k, num in nums.items():
            value = 0
            for n in reversed(num):
                value = (value << width) + n
            out[k] = value
        return out

    def lower(self, values, d, width):
        """The nonzero packed values of a dict as polynomials over d.

        Packing is a ring map Z[v] -> Z, so a sum of products of packed lists
        is the packed list of the same sum of products of polynomials.  Its
        slots are read back as balanced residues, which is exact when every
        integer coefficient lies strictly between -2^(width-1) and
        2^(width-1).
        """
        full = 1 << width
        mask, half = full - 1, full >> 1
        out = {}
        for k, value in values.items():
            cs = []
            while value:
                r = value & mask
                if r >= half:
                    r -= full
                cs.append(Fraction(r, d))
                value = (value - r) >> width
            if cs:
                out[k] = Poly(self.var, cs)
        return out

    def primitive(self, v):
        """A sparse vector {column: entry} with its entries divided by their
        gcd and by the content of all their coefficients together: setwise
        coprime integer polynomials."""
        g = None
        for p in v.values():
            g = p if g is None else poly_gcd(g, p)
            if g.degree == 0:
                break
        if g is None:
            return dict(v)
        if g.degree > 0:
            v = {j: p // g for j, p in v.items()}
        content = Poly(self.var, [c for p in v.values() for c in p.coeffs]).content()
        if content != 1:
            v = {j: Poly(self.var, [c / content for c in p.coeffs]) for j, p in v.items()}
        return dict(v)

    def invert(self, x):
        # units of Q[v] are the nonzero constants
        if not x.is_const() or x.is_zero():
            raise ValueError(f"{x!r} is not a unit in {self.name}")
        return Poly.const(self.var, Fraction(1) / x.const_value())

    def field(self):
        return RationalFunctionRing(self.var)

    def embed(self, x):
        return RatFun(self.coerce(x))


class RationalFunctionRing(CoefficientRing):
    """Q(var): univariate rational functions; a field."""

    is_field = True

    def __init__(self, var):
        self.var = var
        self.name = f"Q({var})"
        self.zero = RatFun(Poly(var, ()))
        self.one = RatFun(Poly.const(var, Fraction(1)))

    def gen(self):
        return RatFun(Poly.gen(self.var))

    def coerce(self, x):
        if isinstance(x, RatFun):
            if x.var != self.var:
                raise TypeError(f"rational function in {x.var!r}, ring uses {self.var!r}")
            return x
        if isinstance(x, Poly):
            if x.var != self.var:
                raise TypeError(f"polynomial in {x.var!r}, ring uses {self.var!r}")
            return RatFun(x)
        if isinstance(x, (int, Fraction)):
            return RatFun.const(self.var, _frac(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def parse(self, s):
        return parse_ratfun_expr(s, self.var)

    def format(self, x):
        if x.is_polynomial():
            if x.num.is_const():
                return str(x.num.const_value())
            return f"({poly_text(x.num)})"
        return f"({poly_text(x.num)})/({poly_text(x.den)})"

    def invert(self, x):
        if x.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return 1 / x


class FloatRing(CoefficientRing):
    """Double-precision stand-in for the exact coefficient descriptors."""

    name = "R"
    is_field = True

    zero = 0.0
    one = 1.0

    def coerce(self, x):
        if isinstance(x, (float, int, Fraction)):
            return float(x)
        raise TypeError(f"cannot coerce {x!r} into R")

    def parse(self, s):
        return float(s)

    def format(self, x):
        return repr(x)

    def invert(self, x):
        if x == 0.0:
            raise ZeroDivisionError("inverse of zero")
        return 1.0 / x


QQ = RationalRing()
QT = PolynomialRing("t")
QZ = RationalFunctionRing("z")
RR = FloatRing()

_RINGS = {
    "Q": QQ,
    "Q[t]": QT,
    "Q[z]": PolynomialRing("z"),
    "Q(t)": RationalFunctionRing("t"),
    "Q(z)": QZ,
}


def ring_named(name):
    try:
        return _RINGS[name]
    except KeyError:
        raise ValueError(f"unknown coefficient ring {name!r}") from None
