"""Exact scalar layer: polynomials, rational functions, ring descriptors."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfps.rings import (
    QQ,
    QT,
    QZ,
    Poly,
    PolynomialRing,
    RatFun,
    poly_gcd,
    poly_text,
    _SUP_SLACK,
    ring_named,
)


def zpoly(*coeffs):
    return Poly("z", coeffs)


def rand_poly(rng, var="z", max_deg=4):
    deg = rng.randrange(max_deg + 1)
    return Poly(
        var,
        [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(deg + 1)],
    )


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert zpoly(1, 2, 0, 0).coeffs == (1, 2)
        assert zpoly(0, 0).coeffs == ()
        assert zpoly().degree == -1

    def test_arithmetic_matches_pointwise_evaluation(self):
        rng = random.Random(7)
        pts = [Fraction(k, 3) for k in range(-4, 5)]
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            s, d, p = a + b, a - b, a * b
            for x in pts:
                assert s(x) == a(x) + b(x)
                assert d(x) == a(x) - b(x)
                assert p(x) == a(x) * b(x)

    def test_divmod_identity(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_poly(rng)
            b = rand_poly(rng)
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree or r.is_zero()

    def test_pow(self):
        p = zpoly(1, 1)
        assert p**0 == zpoly(1)
        assert p**3 == zpoly(1, 3, 3, 1)

    def test_derivative(self):
        assert zpoly(5, 0, 3).derivative() == zpoly(0, 6)
        assert zpoly(7).derivative().is_zero()

    def test_shifted_is_substitution(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng)
            a = Fraction(rng.randrange(-3, 4))
            q = p.shifted(a)
            for x in [Fraction(0), Fraction(1, 2), Fraction(-2)]:
                assert q(x) == p(x + a)

    def test_content(self):
        assert zpoly(Fraction(2, 3), Fraction(4, 3)).content() == Fraction(2, 3)
        assert zpoly(6, -9).content() == 3
        assert zpoly().content() == 0

    def test_root_multiplicity(self):
        p = zpoly(-1, 1) ** 3 * zpoly(2, 1)
        assert p.root_multiplicity(1) == 3
        assert p.root_multiplicity(-2) == 1
        assert p.root_multiplicity(5) == 0

    def test_count_real_roots_is_distinct_and_open(self):
        p = zpoly(-1, 1) ** 2 * zpoly(-2, 0, 1)  # (z-1)^2 (z^2-2)
        assert p.count_real_roots(-2, 2) == 3
        assert p.count_real_roots(1, 2) == 1
        assert p.count_real_roots(-1, 1) == 0
        assert p.count_real_roots(2, -2) == 0
        assert zpoly(5).count_real_roots(-10, 10) == 0
        with pytest.raises(ValueError):
            zpoly().count_real_roots(0, 1)

    def test_mixed_variable_rejected(self):
        with pytest.raises(ValueError):
            Poly("z", (1, 1)) + Poly("t", (1, 1))


def _non_square(n):
    return math.isqrt(n) ** 2 != n


@st.composite
def _polys_with_known_roots(draw):
    """(c * prod (q_i z - p_i)^m_i * (z^2 + k) [* (z^2 - n)], {p_i/q_i: m_i}, n or None)."""
    factors = draw(
        st.lists(
            st.tuples(st.integers(-30, 30), st.integers(1, 12), st.integers(1, 3)),
            max_size=3,
            unique_by=lambda f: Fraction(f[0], f[1]),
        )
    )
    c = draw(st.fractions(-20, 20, max_denominator=9).filter(bool))
    k = draw(st.fractions(0, 50, max_denominator=9).filter(bool))
    n = draw(st.none() | st.integers(2, 60).filter(_non_square))
    p = zpoly(k, 0, 1) * c
    for num, den, m in factors:
        p = p * zpoly(-num, den) ** m
    if n is not None:
        p = p * zpoly(-n, 0, 1)
    return p, {Fraction(num, den): m for num, den, m in factors}, n


def _known_count(roots, n, lo, hi):
    count = sum(lo < r < hi for r in roots)
    if n is not None:
        # lo < +sqrt(n) < hi and lo < -sqrt(n) < hi, decided on squares
        count += (lo < 0 or lo * lo < n) and (hi > 0 and hi * hi > n)
        count += (lo < 0 and lo * lo > n) and (hi >= 0 or hi * hi < n)
    return count


_ENDPOINT = st.fractions(-40, 40, max_denominator=12)


class TestRealRoots:
    @settings(max_examples=150, deadline=None)
    @given(_polys_with_known_roots(), st.data())
    def test_count_real_roots_matches_the_known_roots(self, case, data):
        p, roots, n = case
        # endpoints often sit on a root, where the open interval excludes it
        endpoint = st.sampled_from(sorted(roots)) | _ENDPOINT if roots else _ENDPOINT
        lo, hi = data.draw(endpoint), data.draw(endpoint)
        assert p.count_real_roots(lo, hi) == _known_count(roots, n, lo, hi)


@st.composite
def _rationals_with_known_critical_points(draw):
    """(f, its critical points): c z/(z^2 + s^2); c (z - a)/((z - b)^2 + k)
    with k = s^2 - (a - b)^2 > 0, whose critical points are a - s and a + s;
    or the polynomial c (z - a)(z - b), whose critical point is (a + b)/2."""
    c = draw(st.fractions(-9, 9, max_denominator=5).filter(bool))
    s = draw(st.fractions(0, 8, max_denominator=6).filter(bool))
    a = draw(st.fractions(-6, 6, max_denominator=4))
    b = draw(st.fractions(-6, 6, max_denominator=4))
    z = QZ.gen()
    family = draw(st.sampled_from(("odd", "shifted", "polynomial")))
    if family == "odd":
        return c * z / (z * z + s * s), (-s, s)
    if family == "polynomial":
        return c * (z - a) * (z - b), ((a + b) / 2,)
    s += abs(a - b)
    return c * (z - a) / ((z - b) * (z - b) + s * s - (a - b) ** 2), (a - s, a + s)


def _float_sample(lo, hi, n=257):
    """Exact values of n doubles spread over [lo, hi]."""
    xs = (float(lo) + (float(hi) - float(lo)) * j / (n - 1) for j in range(n))
    return [min(max(Fraction(x), lo), hi) for x in xs]


class TestSupBound:
    def test_examples(self):
        half = Fraction(1, 2)
        assert QZ.parse("1/(1+z^2)").sup_bound(0, half) == 1
        assert QZ.parse("1/z").sup_bound(Fraction(1, 10), half) == 10
        assert QZ.parse("3/2").sup_bound(-1, 1) == Fraction(3, 2)
        assert QZ.parse("0").sup_bound(-1, 1) == 0
        assert Fraction(1, 2) <= QZ.parse("z/(1+z^2)").sup_bound(0, 2) <= Fraction(1, 2) * (1 + _SUP_SLACK)
        assert QZ.parse("1/z").sup_bound(-1, 1) == math.inf
        assert QZ.parse("1/(z-1)").sup_bound(0, 1) == math.inf
        # a double pole at sqrt(2) with no sign change
        assert QZ.parse("1/(z^4-4*z^2+4)").sup_bound(1, 2) == math.inf

    @settings(max_examples=120, deadline=None)
    @given(_rationals_with_known_critical_points(), _ENDPOINT, _ENDPOINT)
    def test_bound_is_within_the_slack_of_the_sup(self, case, lo, hi):
        f, critical = case
        lo, hi = min(lo, hi), max(lo, hi)
        bound = f.sup_bound(lo, hi)
        true = max(abs(f(x)) for x in (lo, hi, *critical) if lo <= x <= hi)
        assert true <= bound <= (1 + _SUP_SLACK) * true
        assert all(abs(f(x)) <= bound for x in _float_sample(lo, hi))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.fractions(-5, 5, max_denominator=3), min_size=1, max_size=4),
        st.lists(st.fractions(-5, 5, max_denominator=3), min_size=1, max_size=4),
        _ENDPOINT,
        _ENDPOINT,
    )
    def test_bound_covers_every_sample_or_meets_a_pole(self, num, den, lo, hi):
        if not any(den):
            return
        f = RatFun(zpoly(*num), zpoly(*den))
        lo, hi = min(lo, hi), max(lo, hi)
        bound = f.sup_bound(lo, hi)
        pole = f.den(lo) == 0 or f.den(hi) == 0 or f.den.count_real_roots(lo, hi) > 0
        assert (bound == math.inf) == pole
        if not pole:
            assert all(abs(f(x)) <= bound for x in _float_sample(lo, hi))


class TestPolyText:
    def test_format_examples(self):
        assert poly_text(zpoly(-1, 0, 1)) == "z^2-1"
        assert poly_text(zpoly(-5, 1, 0, Fraction(3, 2))) == "3/2*z^3+z-5"
        assert poly_text(zpoly(0, 1)) == "z"
        assert poly_text(zpoly()) == "0"
        assert poly_text(zpoly(0, -1)) == "-z"

    def test_round_trip(self):
        rng = random.Random(19)
        ring = PolynomialRing("z")
        for _ in range(60):
            p = rand_poly(rng)
            assert ring.parse(poly_text(p)) == p

    def test_parse_variants(self):
        ring = PolynomialRing("z")
        assert ring.parse("z^2 - 1") == zpoly(-1, 0, 1)
        assert ring.parse("-z+2") == zpoly(2, -1)
        assert ring.parse("3/2") == zpoly(Fraction(3, 2))
        with pytest.raises(ValueError):
            ring.parse("t+1")


def _euclid_gcd(a, b):
    """The plain Euclidean loop over raw remainders, kept as an oracle."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


_POLY = st.lists(st.fractions(-12, 12, max_denominator=7), max_size=7).map(lambda cs: Poly("z", cs))


class TestGcd:
    def test_gcd_divides_and_is_monic(self):
        rng = random.Random(23)
        for _ in range(30):
            g = rand_poly(rng, max_deg=2)
            a = g * rand_poly(rng, max_deg=2)
            b = g * rand_poly(rng, max_deg=2)
            if a.is_zero() and b.is_zero():
                continue
            d = poly_gcd(a, b)
            assert d.leading() == 1
            if not a.is_zero():
                assert (a % d).is_zero()
            if not b.is_zero():
                assert (b % d).is_zero()
            if not g.is_zero():
                assert (d % g.monic()).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(_POLY, _POLY, _POLY)
    def test_gcd_matches_plain_euclid(self, g, a, b):
        # a common factor g, coprime pairs, a zero and a nonzero constant
        # argument; the Euclidean loop over raw remainders is the oracle
        zero, const = Poly("z", ()), Poly("z", (Fraction(-3, 2),))
        for x, y in [(g * a, g * b), (a, b), (a, zero), (zero, g * b), (const, g * b)]:
            assert poly_gcd(x, y) == _euclid_gcd(x, y)


class TestRatFun:
    def test_reduction_invariant(self):
        f = RatFun(zpoly(0, 2, 2), zpoly(0, 0, 4))  # (2z+2z^2)/(4z^2)
        assert f.num == zpoly(Fraction(1, 2), Fraction(1, 2))
        assert f.den == zpoly(0, 1)
        assert poly_gcd(f.num, f.den).degree == 0
        assert f.den.leading() == 1

    def test_arithmetic_matches_pointwise(self):
        rng = random.Random(31)
        pts = [Fraction(k, 7) for k in range(1, 12)]
        for _ in range(25):
            f = RatFun(rand_poly(rng), zpoly(1, 1) * zpoly(3, 1))
            g = RatFun(rand_poly(rng), zpoly(2, 1))
            for h, op in [
                (f + g, lambda a, b: a + b),
                (f - g, lambda a, b: a - b),
                (f * g, lambda a, b: a * b),
            ]:
                for x in pts:
                    assert h(x) == op(f(x), g(x))
            if not g.is_zero():
                q = f / g
                for x in pts:
                    if g(x) != 0:
                        assert q(x) == f(x) / g(x)

    def test_power_is_the_reduced_repeated_product(self):
        rng = random.Random(37)
        for _ in range(20):
            f = RatFun(rand_poly(rng), zpoly(1, 1) * rand_poly(rng, max_deg=2) + zpoly(2))
            acc = RatFun.const("z", Fraction(1))
            for k in range(5):
                assert f**k == acc  # structural: the power is reduced and monic below
                acc = acc * f

    def test_derivative_quotient_rule(self):
        f = RatFun(zpoly(1), zpoly(-1, 1))  # 1/(z-1)
        df = f.derivative()
        assert df == RatFun(zpoly(-1), zpoly(-1, 1) ** 2)

    def test_vanishing_order(self):
        f = RatFun(zpoly(0, 0, 1), zpoly(-1, 1))  # z^2/(z-1)
        assert f.vanishing_order_at(0) == 2
        assert f.vanishing_order_at(1) == -1
        assert f.vanishing_order_at(2) == 0

    def test_residue_simple_poles(self):
        # 1/(1-z) = -1/(z-1): residue at 1 is -1
        f = RatFun(zpoly(1), zpoly(1, -1))
        assert f.residue_at(1) == -1
        # 1/z: residue 1 at 0
        assert RatFun(zpoly(1), zpoly(0, 1)).residue_at(0) == 1
        # partial fractions oracle: 1/(z(z-1)) = -1/z + 1/(z-1)
        g = RatFun(zpoly(1), zpoly(0, 1) * zpoly(-1, 1))
        assert g.residue_at(0) == -1
        assert g.residue_at(1) == 1
        assert g.residue_at(2) == 0

    def test_residue_higher_order_oracle(self):
        # oracle: for a pole of order k at p, the residue equals the (k-1)-th
        # derivative of (z-p)^k * f evaluated at p, divided by (k-1)!
        rng = random.Random(41)
        for _ in range(20):
            num = rand_poly(rng, max_deg=3)
            if num.is_zero():
                continue
            k = rng.randrange(1, 4)
            p = Fraction(rng.randrange(-2, 3))
            den = zpoly(-p, 1) ** k * zpoly(7, 1)  # extra non-candidate factor
            f = RatFun(num, den)
            kk = k - f.num.root_multiplicity(p)  # reduction may cancel part of the pole
            g = f * RatFun(zpoly(-p, 1) ** k)
            for _ in range(k - 1):
                g = g.derivative()
            fact = 1
            for j in range(2, k):
                fact *= j
            expected = g(p) / fact
            assert f.residue_at(p) == expected, (num, k, p, kk)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(zpoly(1), zpoly())


class TestRings:
    def test_ring_named(self):
        assert ring_named("Q") is QQ
        assert ring_named("Q[t]") == QT
        assert ring_named("Q(z)") == QZ
        with pytest.raises(ValueError):
            ring_named("Z")

    def test_coerce_and_format_rationals(self):
        assert QQ.coerce(3) == Fraction(3)
        assert QQ.format(Fraction(-1, 2)) == "-1/2"
        assert QQ.parse("5/3") == Fraction(5, 3)
        with pytest.raises(ValueError):
            QQ.parse("z")

    def test_polynomial_ring_round_trip(self):
        p = QT.parse("(t^2-1)")
        assert p == Poly("t", (-1, 0, 1))
        assert QT.format(p) == "(t^2-1)"
        assert QT.format(QT.coerce(2)) == "2"
        assert QT.parse("-3/2") == Poly.const("t", Fraction(-3, 2))

    def test_rational_function_ring_round_trip(self):
        f = QZ.parse("(z^2-1)/(z)")
        assert f == RatFun(zpoly(-1, 0, 1), zpoly(0, 1))
        assert QZ.format(f) == "(z^2-1)/(z)"
        assert QZ.format(QZ.coerce(Fraction(1, 2))) == "1/2"
        assert QZ.format(QZ.parse("(z+1)")) == "(z+1)"

    def test_parse_power_by_squaring_is_exact_and_fast(self):
        start = time.perf_counter()
        f = QZ.parse("(z+1)^1000")
        assert time.perf_counter() - start < 1.0
        # coprime powers are not reduced again: no gcd of two degree-1000 polynomials
        g = QZ.parse("((z+1)/(z-2))^1000")
        assert f.num.coeffs == tuple(Fraction(math.comb(1000, k)) for k in range(1001))
        assert g.den == zpoly(-2, 1) ** 1000 and g.num == f.num

    @pytest.mark.parametrize(
        "text", ["(z^1000)^1000", "z^600*z^600", "1/z^600/z^600", "z^1000 + 1/z", "(1/(z+1)^2)^501", "(z^2+1)^501"]
    )
    def test_parse_caps_the_degree_of_every_intermediate_value(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="degree above 1000"):
            QZ.parse(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "text",
        ["(3/7*z^2+1/5*z-2)^500", "(1/3*z+1/7)^200*(1/3*z+1/7)^200", "(1/3*z+1/7)^200/(1/(z+1/7)^200)"],
    )
    def test_parse_caps_the_coefficient_height_of_powers_products_and_quotients(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 2048 bits"):
            QZ.parse(text)
        assert time.perf_counter() - start < 0.5

    def test_parse_keeps_degrees_at_the_cap(self):
        assert QZ.parse("z^1000/(z^999+1)").num.degree == 1000
        assert QZ.parse("(z^10)^100").num.degree == 1000

    def test_primitive_divides_by_gcd_and_content(self):
        ring = PolynomialRing("z")
        a = zpoly(0, Fraction(2, 3)) * zpoly(1, 1)
        b = zpoly(Fraction(4, 5)) * zpoly(1, 1)
        assert ring.primitive([a, ring.zero, b]) == [zpoly(0, 5), ring.zero, zpoly(6)]
        assert ring.primitive([ring.zero, ring.zero]) == [ring.zero, ring.zero]
        assert ring.primitive([zpoly(-3, 6), zpoly(4)]) == [zpoly(-3, 6), zpoly(4)]
        assert ring.primitive([zpoly(-3, 6)]) == [zpoly(1)]

    def test_field_promotion(self):
        assert QT.field().name == "Q(t)"
        assert QT.field().coerce(QT.embed(QT.gen())) == RatFun(Poly.gen("t"))
        assert QQ.field() is QQ
        assert QZ.field() is QZ

    def test_is_field_flags(self):
        assert QQ.is_field and QZ.is_field and not QT.is_field
