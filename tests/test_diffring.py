"""Differential input symbols, the word-multiplier recursion, rational
specialization, and the exactness-based independence test."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfps.diffring import (
    DIFF,
    DiffPolynomial,
    derive,
    independence_criterion,
    input_form,
    parse_input_assignment,
    q_l,
    q_l_explicit,
    specialize,
)
from ncfps.rings import QQ, QZ, Poly, RatFun
from ncfps.series import NCPolynomial
from ncfps.words import Alphabet

X1 = Alphabet.x(1)
X2 = Alphabet.x(2)

U = DiffPolynomial.symbol
z = QZ.gen()


# ---------------------------------------------------------------------------
# the symbol algebra


def test_symbol_arithmetic_is_commutative():
    p = U("x0") * U("x1", 2)
    q = U("x1", 2) * U("x0")
    assert p == q
    assert p + q == 2 * p


def test_monomials_are_canonical_multisets():
    p = U("x1") * U("x0") * U("x1")
    (mono,) = p.terms
    assert mono == (("x0", 0), ("x1", 0), ("x1", 0))
    assert p.terms[mono] == 1


def test_derive_single_symbol():
    assert U("x0").derive() == U("x0", 1)
    assert U("x0", 3).derive() == U("x0", 4)


def test_derive_leibniz():
    p = U("x0") * U("x1")
    assert p.derive() == U("x0", 1) * U("x1") + U("x0") * U("x1", 1)
    # second derivative of u^2 is 2 u'' u + 2 (u')^2
    sq = U("x0") * U("x0")
    dd = sq.derive().derive()
    assert dd == 2 * (U("x0", 2) * U("x0")) + 2 * (U("x0", 1) * U("x0", 1))


def test_derive_constants_vanish():
    assert DiffPolynomial.const(5).derive().is_zero()
    p = 3 * U("x0") - Fraction(1, 2)
    assert p.derive() == 3 * U("x0", 1)


def test_derive_word_polynomial_coefficientwise():
    m = input_form(X2)
    dm = derive(m)
    assert dm.coeff(("x0",)) == U("x0", 1)
    assert dm.coeff(("x1",)) == U("x1", 1)
    assert dm.coeff(()) == DIFF.zero


# ---------------------------------------------------------------------------
# the multiplier recursion


def test_q_low_orders():
    assert q_l(X2, 0) == NCPolynomial.one(X2, DIFF)
    assert q_l(X2, 1) == input_form(X2)
    q2 = q_l(X2, 2)
    # M^2 + dM
    for x in ["x0", "x1"]:
        for y in ["x0", "x1"]:
            assert q2.coeff((x, y)) == U(x) * U(y)
        assert q2.coeff((x,)) == U(x, 1)


def test_q3_single_letter_closed_values():
    q3 = q_l(X1, 3)
    u = U("x0")
    assert q3.coeff(("x0",) * 3) == u * u * u
    assert q3.coeff(("x0",) * 2) == 3 * (U("x0", 1) * u)
    assert q3.coeff(("x0",)) == U("x0", 2)
    assert q3.coeff(()) == DIFF.zero


def test_q_satisfies_defining_identity():
    for alphabet in (X1, X2):
        for l in range(1, 7):
            lhs = q_l(alphabet, l)
            rhs = q_l(alphabet, l - 1) * input_form(alphabet) + derive(
                q_l(alphabet, l - 1)
            )
            assert lhs == rhs


def test_q_weight_homogeneous():
    # every monomial on a length-k word has total weight k + sum of orders = l
    for l in range(5):
        for w, c in q_l(X2, l).terms.items():
            for mono in c.terms:
                assert len(w) + sum(r for _, r in mono) == l


def test_explicit_form_matches_recursion():
    for alphabet in (X1, X2):
        for l in range(5):
            assert q_l_explicit(alphabet, l) == q_l(alphabet, l)


def test_explicit_form_bounded():
    with pytest.raises(ValueError):
        q_l_explicit(X1, 5)
    with pytest.raises(ValueError):
        q_l(X1, -1)


# ---------------------------------------------------------------------------
# specialization


def test_specialize_symbol_derivatives():
    asg = {"x0": 1 / z}
    assert specialize(U("x0"), asg) == 1 / z
    assert specialize(U("x0", 1), asg) == QZ.parse("-1/z^2")
    assert specialize(U("x0", 2), asg) == QZ.parse("2/z^3")


def test_specialize_q2_single_letter():
    got = specialize(q_l(X1, 2), {"x0": 1 / z})
    assert got.coeff(("x0", "x0")) == QZ.parse("1/z^2")
    assert got.coeff(("x0",)) == QZ.parse("-1/z^2")
    assert got.coeff(()) == QZ.zero


def test_specialize_product_of_inputs():
    p = U("x0") * U("x1")
    val = specialize(p, {"x0": "1/z", "x1": "1/(1-z)"})
    assert val == QZ.parse("1/(z*(1-z))")


def test_specialize_missing_assignment():
    with pytest.raises(ValueError):
        specialize(U("x0") * U("x1"), {"x0": 1 / z})


def test_specialize_commutes_with_derivation():
    asg = {"x0": QZ.parse("1/(1-z)"), "x1": QZ.parse("z^2-1/4")}
    samples = [
        U("x0"),
        U("x0") * U("x1"),
        3 * U("x0", 1) * U("x0") - U("x1", 2),
        (U("x0") + U("x1")) * (U("x0") - 2 * U("x1", 1)),
    ]
    for p in samples:
        assert specialize(p.derive(), asg) == specialize(p, asg).derivative()


# ---------------------------------------------------------------------------
# independence


def test_independence_log_pair():
    inputs = {"x0": "1/z", "x1": "1/(1-z)"}
    assert independence_criterion(inputs, "Q(z)")
    assert independence_criterion(inputs, QZ)


def test_independence_constant_input():
    # the constant is exact in Q(z) (it integrates to z) but the family {1}
    # is linearly independent over the bare constants
    assert not independence_criterion({"x0": "1"}, "Q(z)")
    assert independence_criterion({"x0": "1"}, "Q")


def test_independence_dependent_family():
    inputs = {"x0": "1/z", "x1": "2/z"}
    assert not independence_criterion(inputs, "Q(z)")
    assert not independence_criterion(inputs, "Q")


def test_independence_exact_higher_pole():
    # 1/z^2 integrates to -1/z, so alone it fails over Q(z)
    assert not independence_criterion({"x0": "1/z^2"}, "Q(z)")
    assert independence_criterion({"x0": "1/z^2"}, "Q")
    # mixing it with a residue-carrying input keeps only the pair rank 1
    assert not independence_criterion({"x0": "1/z", "x1": "1/z^2"}, "Q(z)")


def test_independence_base_q_distinct_functions():
    assert independence_criterion({"x0": "1/z", "x1": "1/z^2"}, "Q")
    assert independence_criterion({"x0": "1", "x1": "z"}, "Q")
    assert not independence_criterion({"x0": "z", "x1": "2*z"}, "Q")


def test_independence_irrational_poles_decided():
    assert independence_criterion({"x0": "1/(z^2-2)"}, "Q(z)")
    # the second input is -(z/(z^2-2))'
    assert not independence_criterion({"x0": "1/(z^2-2)", "x1": "(z^2+2)/(z^2-2)^2"}, "Q(z)")
    assert independence_criterion({"x0": "1/(z^2+1)"}, "Q(z)")
    assert independence_criterion({"x0": "z/(z^2+1)"}, "Q(z)")


def test_independence_empty_family_checks_base():
    assert independence_criterion({}, "Q(z)")
    for inputs in ({}, {"x0": "1/z"}):
        with pytest.raises(ValueError, match="unsupported base field 'Q\\[t\\]'"):
            independence_criterion(inputs, "Q[t]")


def test_independence_huge_rational_poles_are_fast():
    # the span test never locates the poles +-10^12, so 10^24 is not factored
    start = time.perf_counter()
    assert independence_criterion({"x0": "1/(z^2-1000000000000000000000000)"}, "Q(z)")
    assert time.perf_counter() - start < 1.0


def test_independence_shifted_poles():
    inputs = {"x0": "1/(z-3)", "x1": "1/(z+1/2)"}
    assert independence_criterion(inputs, "Q(z)")


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _residue_oracle(inputs, poles):
    """Independence over Q(z) when every pole is among the rational points
    `poles`: a combination is an exact derivative exactly when all of its
    residues vanish, so the residue vectors must have full rank over Q."""
    return _rank([[f.residue_at(p) for p in poles] for f in inputs.values()]) == len(inputs)


_SMALL = st.integers(-1, 1)


@st.composite
def _rational_pole_families(draw):
    """({letter: f}, poles): 1-3 inputs, each a polynomial of degree <= 2 plus
    sum c/(z-p)^m over up to three known rational poles p and m = 1, 2, 3."""
    poles = draw(st.lists(st.fractions(-3, 3, max_denominator=3), max_size=3, unique=True))
    inputs = {}
    for i in range(draw(st.integers(1, 3))):
        f = RatFun(Poly("z", draw(st.lists(_SMALL, max_size=3))))
        for p in poles:
            for m in (1, 2, 3):
                f = f + RatFun(Poly.const("z", draw(_SMALL)), Poly("z", (-p, 1)) ** m)
        inputs[f"x{i}"] = f
    return inputs, poles


@st.composite
def _irrational_pole_functions(draw):
    """P / prod q_i^e_i with q_i = z^2 - n (n not a square) or z^2 + k and
    e_i in 1..3; P may exceed the denominator's degree by one."""
    shifts = st.integers(2, 12).filter(lambda n: math.isqrt(n) ** 2 != n) | st.integers(-12, -1)
    den = Poly.const("z", 1)
    for n in draw(st.lists(shifts, min_size=1, max_size=2, unique=True)):
        den = den * Poly("z", (-n, 0, 1)) ** draw(st.integers(1, 3))
    num = Poly("z", draw(st.lists(st.integers(-3, 3), max_size=den.degree + 2)))
    return RatFun(num, den)


@settings(max_examples=80, deadline=None)
@given(_rational_pole_families())
def test_independence_matches_residue_oracle_on_rational_poles(case):
    inputs, poles = case
    assert independence_criterion(inputs, "Q(z)") == _residue_oracle(inputs, poles)


@settings(max_examples=60, deadline=None)
@given(_rational_pole_families(), _irrational_pole_functions(), st.data())
def test_independence_unchanged_by_adding_a_derivative(case, g, data):
    inputs, poles = case
    x = data.draw(st.sampled_from(sorted(inputs)))
    shifted = dict(inputs, **{x: inputs[x] + g.derivative()})
    assert independence_criterion(shifted, "Q(z)") == _residue_oracle(inputs, poles)


@settings(max_examples=60, deadline=None)
@given(_rational_pole_families(), _irrational_pole_functions(), st.data())
def test_independence_fails_with_an_exact_combination_appended(case, g, data):
    inputs, _ = case
    combination = g.derivative()
    for f in inputs.values():
        combination = combination + data.draw(st.integers(-2, 2)) * f
    assert not independence_criterion(dict(inputs, x9=combination), "Q(z)")


_SQUAREFREE_FACTORS = [
    Poly("z", c) for c in [(0, 1), (1, 1), (-2, 1), (1, 2), (-2, 0, 1), (-3, 0, 1), (1, 0, 1), (5, 0, 1)]
]


@st.composite
def _proper_squarefree_families(draw):
    """1-3 proper inputs over products of distinct irreducible factors; the
    last may be a combination of the others, so both verdicts occur."""
    inputs = {}
    for i in range(draw(st.integers(1, 3))):
        den = Poly.const("z", 1)
        factors = st.lists(st.sampled_from(_SQUAREFREE_FACTORS), min_size=1, max_size=3, unique=True)
        for q in draw(factors):
            den = den * q
        num = Poly("z", draw(st.lists(st.integers(-2, 2), max_size=den.degree)))
        inputs[f"x{i}"] = RatFun(num, den)
    if draw(st.booleans()):
        inputs["x9"] = sum((draw(st.integers(-2, 2)) * f for f in inputs.values()), QZ.zero)
    return inputs


@settings(max_examples=80, deadline=None)
@given(_proper_squarefree_families())
def test_independence_proper_squarefree_agrees_with_base_q(inputs):
    # no nonzero proper function with a squarefree denominator is exact
    assert independence_criterion(inputs, "Q(z)") == independence_criterion(inputs, "Q")


def test_parse_input_assignment():
    asg = parse_input_assignment("x0=1/z, x1=1/(1-z)")
    assert asg["x0"] == 1 / z
    assert asg["x1"] == QZ.parse("1/(1-z)")
    with pytest.raises(ValueError):
        parse_input_assignment("x0")
