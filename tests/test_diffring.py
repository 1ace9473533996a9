"""The exactness-based independence test for rational inputs."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfps.chen import InputFunction
from ncfps.diffring import independence_criterion
from ncfps.rings import QZ, Poly, RatFun


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


def test_independence_reads_inputs_as_chen_controls():
    # an InputFunction, an integer power and a text agree with their Q(z) forms
    assert not independence_criterion({"x0": InputFunction.from_text("1/z^2")}, "Q(z)")
    assert not independence_criterion({"x0": "pow(z,2)"}, "Q(z)")
    assert independence_criterion({"x0": InputFunction.rational("1/(1-z)"), "x1": "pow(z,-1)"}, "Q(z)")
    for control in ("exp", "pow(z,1/2)"):
        with pytest.raises(ValueError, match="the control for x0 must be a rational function of z"):
            independence_criterion({"x0": control}, "Q(z)")


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

