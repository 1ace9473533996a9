"""Iterated-integral evaluation: the controls, quadrature fixtures with
independent oracles, group-likeness diagnostics, representation pairing, and
exact scalar differential equations."""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import compress, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfps.automata import LinearRepresentation, minimize, rep_star, rep_word, rep_zero
import ncfps._numeric
import ncfps.chen
from ncfps._numeric import (
    _BLOCK,
    _CUM,
    _MAX_BISECTIONS,
    _MIN_PANEL,
    _NODES,
    _ROUNDING,
    _WEIGHTS,
    _chain_levels,
    _float_matrix,
    _initial_mesh,
    _integrands,
    _panel_values,
    _power_param,
    _split_at,
    _word_levels,
)
from ncfps.chen import (
    ChenEvaluation,
    InputFunction,
    SegmentPath,
    _Controls,
    _Dropped,
    _Layout,
    _WordValues,
    _control_of_text,
    _derivative_rows,
    _exact_controls,
    chen_series,
    derive_scalar_ode,
    flow_compose,
    friedrichs_check,
    iterated_integral,
    pair_ode,
    pair_ode_derivatives,
    pair_series,
    primitive_log_check,
    scalar_ode_text,
)
from ncfps.exprs import representation_of
from ncfps.linalg import EchelonBasis, nonzeros, vec_rows
from ncfps.rings import QQ, QT, QZ, Poly, RatFun, poly_gcd, poly_lcm
from ncfps.series import NCPolynomial, TensorPoly, TruncatedSeries
from ncfps.words import _GRADED_WORDS_CACHE, Alphabet, word_text

X1 = Alphabet.x(1)
X2 = Alphabet.x(2)

POLYLOG = {"x0": "1/z", "x1": "1/(1-z)"}
# a fractional power at the start 0 switches on the power substitution
POWER = {"x0": "pow(z, -1/2)", "x1": "1/(1-z)"}


def star_rep(alphabet, word):
    return minimize(rep_star(rep_word(alphabet, QQ, word)))


# ---------------------------------------------------------------------------
# controls


def test_input_from_text_forms():
    for text in ("1/z", "1/(1-z)", "3/2", "pow(z, -2)", "pow(z, 3/1)"):
        assert InputFunction.from_text(text).kind == "rational"
    assert InputFunction.from_text("1/z").ratfun == QZ.parse("1/z")
    assert InputFunction.from_text("exp(z)").kind == "exp"
    assert InputFunction.from_text("exp").kind == "exp"
    p = InputFunction.from_text("pow(z, -1/2)")
    assert p.kind == "pow" and p.value == Fraction(-1, 2)
    r = InputFunction.from_text("(z+1)/(z-2)")
    assert r.kind == "rational"
    with pytest.raises(ValueError):
        InputFunction.from_text("1/(z-z)")


def test_control_texts_are_parsed_once_per_process():
    _control_of_text.cache_clear()
    # surrounding blanks share the entry of the stripped text
    assert InputFunction.from_text(" 1/z ") is InputFunction.from_text("1/z")
    info = _control_of_text.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # a bad text is not cached: it raises the same error on every call
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            InputFunction.from_text("1/(z-z)")
        messages.add(str(exc.value))
    assert len(messages) == 1 and _control_of_text.cache_info().currsize == 1
    # the series, the flow and the exact ODE on the same two texts parse each once
    _control_of_text.cache_clear()
    inputs = {"x0": "1/z", "x1": "1/(1-z)"}
    rep = star_rep(X2, ("x0", "x1"))
    chen_series(inputs, SegmentPath("1/10", "2/5"), 4)
    pair_ode(rep, inputs, SegmentPath("1/10", "2/5"))
    derive_scalar_ode(rep, inputs)
    assert _control_of_text.cache_info().misses == 2


def test_constants_and_integer_powers_are_rational():
    assert InputFunction.rational(QZ.parse("2/(2-2*z)")).ratfun == QZ.parse("1/(1-z)")
    for c in (Fraction(2, 3), 2, 0.5):
        f = InputFunction.of(c)
        assert f.kind == "rational" and f.ratfun == QZ.coerce(Fraction(c))
    assert InputFunction.power(3).ratfun == QZ.parse("z^3")
    assert InputFunction.power(-2).ratfun == QZ.parse("1/z^2")
    assert InputFunction.power(2.0).ratfun == QZ.parse("z^2")
    assert InputFunction.power(0).ratfun == QZ.one
    p = InputFunction.power(0.5)
    assert p.kind == "pow" and p.ratfun is None
    assert InputFunction.exp().ratfun is None
    assert {InputFunction.of(x).kind for x in ("1/z", "exp", "pow(z, 1/3)")} == {"rational", "exp", "pow"}


def test_rational_evaluation_matches_closed_forms_bitwise():
    # the rational path gives the same doubles as the direct formulas
    z = 0.05 + 0.9 * (np.polynomial.legendre.leggauss(16)[0] + 1.0) / 2.0
    assert np.array_equal(InputFunction.from_text("1/z").eval_array(z), 1.0 / z)
    assert np.array_equal(InputFunction.from_text("1/(1-z)").eval_array(z), 1.0 / (1.0 - z))
    assert np.array_equal(InputFunction.from_text("3/7").eval_array(z), np.full_like(z, 3 / 7))


def test_input_evaluation_matches_exact_view():
    for text in ("1/z", "1/(1-z)", "(z^2-1)/(z+2)", "5"):
        f = InputFunction.from_text(text)
        g = QZ.parse(text)
        for z in (0.3, 0.7, 2.5, -1.5):
            assert abs(f.evaluate(z) - float(g(Fraction(z)))) < 1e-12
    arr = np.array([0.25, 0.5, 3.0])
    f = InputFunction.from_text("(z^2-1)/(z+2)")
    vals = f.eval_array(arr)
    for z, v in zip(arr, vals):
        assert abs(v - f.evaluate(float(z))) < 1e-12


def test_sup_bounds_and_exactness():
    half = Fraction(1, 2)
    assert InputFunction.from_text("1/(1-z)").sup_on(0, half) == 2.0
    assert InputFunction.from_text("1/z").sup_on(1, 2) == 1.0
    assert InputFunction.from_text("1/z").sup_on(0, half) == math.inf
    assert InputFunction.from_text("1/z").sup_on(Fraction(1, 10), half) == 10.0
    assert InputFunction.from_text("3/2").sup_on(0, 1) == 1.5
    assert InputFunction.from_text("1/(1+z^2)").sup_on(0, half) == 1.0
    assert abs(InputFunction.exp().sup_on(0, 1) - math.e) < 1e-15
    assert InputFunction.power(0.5).sup_on(0, 4) == 2.0
    assert InputFunction.power(-0.5).sup_on(0, 4) == math.inf
    assert InputFunction.from_text("z^2+1").sup_on(0, 1) == 2.0
    # the maximum 1/2 at the interior critical point z = 1
    s = InputFunction.from_text("z/(1+z^2)").sup_on(0, 2)
    assert 0.5 <= s <= 0.5 * (1 + 2.0**-29)
    # 1/3 has no double: the bound is the double just above it
    s = InputFunction.from_text("1/z").sup_on(3, 4)
    assert Fraction(math.nextafter(s, 0.0)) < Fraction(1, 3) < Fraction(s)


@pytest.mark.parametrize("text, hi", [("exp", 1000), ("10^300*z^2", 10**10), ("pow(z,81/2)", 10**10)])
def test_sup_bound_beyond_the_double_range_is_inf(text, hi):
    # the three routes out of the double range: exp, the exact bound, a fractional power
    assert InputFunction.from_text(text).sup_on(0, hi) == math.inf


def test_pair_series_with_an_unbounded_sup_is_uncertified():
    res = pair_series(chen_series({"x0": "exp"}, SegmentPath(0, 1000), 0), star_rep(X1, ("x0",)))
    assert res == (1.0, math.inf, False)


def test_path_keeps_exact_endpoints():
    path = SegmentPath("1/3", 1)
    assert path.z0_exact == Fraction(1, 3)
    assert abs(path.z0 - 1 / 3) < 1e-16
    assert path.length == pytest.approx(2 / 3)
    assert SegmentPath.of((0, "0.5")).z1_exact == Fraction(1, 2)
    with pytest.raises(ValueError):
        SegmentPath(1, "1")
    with pytest.raises(ValueError):
        SegmentPath(0.0, math.inf)


def test_singularity_placement_is_rejected():
    # strictly interior pole
    with pytest.raises(ValueError):
        chen_series({"x0": "1/z"}, SegmentPath(-1, 1), 2)
    # singular far endpoint
    with pytest.raises(ValueError):
        chen_series({"x1": "1/(1-z)"}, SegmentPath(0, 1), 2)
    # pole at an irrational abscissa
    with pytest.raises(ValueError):
        chen_series({"x0": "1/(z^2-2)"}, SegmentPath(1, 2), 2)
    # a double pole at sqrt(2) gives the denominator no sign change
    with pytest.raises(ValueError, match="inside the path"):
        chen_series({"x0": "1/(z^4-4*z^2+4)"}, SegmentPath(1, 2), 2)
    # fractional powers need a nonnegative segment
    with pytest.raises(ValueError):
        chen_series({"x0": InputFunction.power(0.5)}, SegmentPath(-1, 1), 2)


# ---------------------------------------------------------------------------
# coefficient fixtures with independent oracles


def test_constant_control_gives_monomial_coefficients():
    # with u = 1 the word x^n integrates to z^n/n!
    ev = chen_series({"x0": 1}, SegmentPath(0, "1/2"), 5)
    assert ev.coeff(()) == 1.0
    assert ev.error(()) == 0.0
    for n in range(6):
        want = 0.5**n / math.factorial(n)
        assert abs(ev.coeff(("x0",) * n) - want) < 1e-12
    assert abs(ev.coeff(("x0", "x0")) - 0.125) < 1e-12


def test_reciprocal_control_gives_log_powers():
    # with u = 1/z from 1 to 2 the word x^n integrates to log(2)^n/n!
    ev = chen_series({"x0": "1/z"}, SegmentPath(1, 2), 5)
    for n in range(6):
        want = math.log(2.0) ** n / math.factorial(n)
        assert abs(ev.coeff(("x0",) * n) - want) < 1e-11


def test_exponential_control():
    # d/dz of the n-th coefficient is e^z times the previous one, so the
    # closed form is (e^z - 1)^n / n!
    ev = chen_series({"x0": InputFunction.exp()}, SegmentPath(0, "7/10"), 4)
    for n in range(5):
        want = (math.exp(0.7) - 1.0) ** n / math.factorial(n)
        assert abs(ev.coeff(("x0",) * n) - want) < 1e-11


def test_power_control_irrational_exponent():
    a = math.sqrt(2.0)
    ev = chen_series({"x0": InputFunction.power(a)}, SegmentPath(0, "4/5"), 4)
    base = 0.8 ** (a + 1.0) / (a + 1.0)
    for n in range(5):
        want = base**n / math.factorial(n)
        assert abs(ev.coeff(("x0",) * n) - want) < 1e-10


def test_power_control_negative_exponent():
    # u = z^(-1/2) is unbounded at the start but every word stays integrable
    ev = chen_series({"x0": InputFunction.power(Fraction(-1, 2))}, SegmentPath(0, "1/2"), 6)
    base = 2.0 * math.sqrt(0.5)
    assert not ev.excluded
    for n in range(7):
        want = base**n / math.factorial(n)
        assert abs(ev.coeff(("x0",) * n) - want) < 1e-10


def test_power_control_from_a_singular_start_under_s64():
    # the substitution s^64 underflows z(s) to 0 at the first nodes, where
    # z^(-97/100) dz/ds is evaluated as 64 (1/2)^(3/100) s^(64*3/100 - 1)
    ev = chen_series({"x0": "pow(z,-97/100)"}, SegmentPath(0, "1/2"), 2)
    x0 = 0.5 ** (3 / 100) / (3 / 100)
    assert abs(ev.coeff(("x0",)) - x0) <= 1e-12 * x0
    assert abs(ev.coeff(("x0", "x0")) - x0 * x0 / 2) <= 1e-12 * x0 * x0 / 2


def test_polylogarithm_values():
    # Li_2(1/2) = sum 2^(-n)/n^2 and Li_3(1/2) = sum 2^(-n)/n^3; the partial
    # sums below are accurate to far beyond the quadrature tolerance
    li2 = sum(2.0**-n / n**2 for n in range(1, 120))
    li3 = sum(2.0**-n / n**3 for n in range(1, 120))
    path = SegmentPath(0, "1/2")
    assert abs(iterated_integral("x0.x1", POLYLOG, path) - li2) < 1e-9
    assert abs(iterated_integral("x0.x0.x1", POLYLOG, path) - li3) < 1e-9
    assert abs(iterated_integral((), POLYLOG, path) - 1.0) == 0.0
    ev = chen_series(POLYLOG, path, 3)
    assert _covers(ev, ("x0", "x1"), _polylog(2, 0.5))
    assert _covers(ev, ("x0", "x0", "x1"), _polylog(3, 0.5))


def test_divergent_words_raise_or_are_excluded():
    path = SegmentPath(0, "1/2")
    with pytest.raises(ValueError):
        iterated_integral("x0", POLYLOG, path)
    with pytest.raises(ValueError):
        iterated_integral("x1.x0", POLYLOG, path)
    ev = chen_series(POLYLOG, path, 4)
    # exactly the words whose innermost integral carries the pole diverge
    assert ev.excluded == {
        w for w in ev.alphabet.words_up_to(4, include_empty=False) if w[-1] == "x0"
    }
    with pytest.raises(ValueError):
        ev.coeff(("x0",))
    with pytest.raises(KeyError):
        ev.coeff(("x0",) * 9)


def _word_lookups():
    """Each coefficient lookup that takes a word, as a function of the word."""
    poly = NCPolynomial(X2, QQ, {w: Fraction(i + 1) for i, w in enumerate(X2.words_up_to(3))})
    tensor = TensorPoly.of(poly, poly)
    ev = chen_series(POLYLOG, SegmentPath("1/4", "1/2"), 3)
    return {
        "representation": representation_of("(x0 + 2*x1)* shuffle (x0.x1)*").coeff,
        "polynomial": poly.coeff,
        "truncated": TruncatedSeries(poly, 3).coeff,
        "tensor": lambda w: tensor.coeff(w, w),
        "chen_coeff": ev.coeff,
        "chen_error": ev.error,
        "iterated_integral": lambda w: iterated_integral(w, POLYLOG, ev.path),
    }


@pytest.mark.parametrize(
    "lookup", ["chen_coeff", "chen_error", "iterated_integral", "polynomial", "representation", "tensor", "truncated"]
)
def test_a_word_given_as_text_reads_as_its_letters(lookup):
    get = _word_lookups()[lookup]
    for w in [(), ("x0",), ("x1", "x0"), ("x0", "x1", "x1")]:
        want = get(w)
        assert get(word_text(w)) == want and get(list(w)) == want
        assert want or lookup == "chen_error"  # a zero would not tell text from characters


def test_error_of_a_word_raises_as_its_coefficient_does():
    ev = chen_series(POLYLOG, SegmentPath(0, "1/2"), 3)
    for get in (ev.coeff, ev.error):
        with pytest.raises(ValueError, match="x1.x0 diverges at the path endpoint"):
            get(("x1", "x0"))
        for w in (("x1",) * 4, ("x2",), "x9"):
            with pytest.raises(KeyError):
                get(w)
    assert ev.error(["x0", "x1"]) == ev.errors[("x0", "x1")] > 0.0
    assert ev.error(()) == 0.0 and ev.coeff(()) == 1.0


def test_series_matches_single_word_integrals():
    tol = 1e-10
    path = SegmentPath("1/4", "1/2")
    ev = chen_series(POLYLOG, path, 4, tol=tol)
    for w in ev.values:
        if w:
            single = iterated_integral(w, POLYLOG, path, tol=tol)
            assert abs(ev.values[w] - single) <= 2 * tol
    assert max(ev.errors.values()) <= tol


EPS = 2.0**-52


def _covers(ev, w, want):
    v = ev.values[w]
    return abs(v - want) <= ev.errors[w] + 64 * EPS * max(1.0, abs(v))


def _letter_integral(kind, z0, z1):
    # exact rationals in, so 1/(z+c) and 1/(1-z) lose nothing before the log
    if kind == "1":
        return float(z1 - z0)
    if kind == "1/z":
        return math.log(z1 / z0)
    if kind == "1/(1-z)":
        return math.log((1 - z0) / (1 - z1))
    c = int(kind[len("1/(z+") : -1])
    return math.log((z1 + c) / (z0 + c))


def _polylog(n, z):
    return math.fsum(float(z) ** k / k**n for k in range(1, 400))


@st.composite
def _closed_form_cases(draw):
    bound = draw(st.integers(1, 10))
    if draw(st.booleans()):
        # polylogarithms from 0: x0^(n-1).x1 is Li_n and x1^n is (-log(1-z))^n/n!
        return POLYLOG, SegmentPath(0, Fraction(draw(st.integers(2, 14)), 20)), bound
    kinds = ("1", "1/z", "1/(1-z)", "1/(z+1)", "1/(z+2)", "1/(z+3)")
    inputs = {f"x{i}": draw(st.sampled_from(kinds)) for i in range(draw(st.integers(1, 2)))}
    lo = draw(st.integers(0, 12))
    z0, z1 = Fraction(lo, 20), Fraction(lo + draw(st.integers(1, 14 - lo)), 20)
    if z0 > 0 and draw(st.booleans()):
        z0, z1 = z1, z0
    return inputs, SegmentPath(z0, z1), bound


@settings(max_examples=60, deadline=None)
@given(_closed_form_cases())
def test_error_estimates_cover_closed_forms(case):
    inputs, path, bound = case
    ev = chen_series(inputs, path, bound)
    z0, z1 = path.z0_exact, path.z1_exact
    for x, kind in inputs.items():
        if kind == "1/z" and z0 == 0:
            continue
        integral = _letter_integral(kind, z0, z1)
        for n in range(1, bound + 1):
            assert _covers(ev, (x,) * n, integral**n / math.factorial(n))
    if inputs is POLYLOG:
        for n in range(2, bound + 1):
            assert _covers(ev, ("x0",) * (n - 1) + ("x1",), _polylog(n, z1))


def test_near_pole_matches_closed_forms():
    # the pole at 10001/10000 sits 1e-4 past the far endpoint: the panels
    # next to it are bisected until the step-doubling defect clears
    ev = chen_series({"x0": "1/(z-10001/10000)"}, SegmentPath(0, 1), 2)
    # the control is evaluated with double coefficients, so its pole is the
    # double a nearest 10001/10000, which moves the log by about 1e-13
    a = 10001 / 10000
    log = math.log(abs((1 - a) / a))
    assert _covers(ev, ("x0",), log)
    assert _covers(ev, ("x0", "x0"), log * log / 2)
    # the estimates are the accepted panels' defects: rounding-sized, not zero
    assert all(0.0 < ev.errors[w] <= 1e-10 * max(1.0, abs(ev.values[w])) for w in ev.values if w)


def test_strong_pole_past_the_endpoint_is_refused():
    # an order-8 pole 1e-14 past z = 1/2, where x0 is about 1.43e97: steps
    # that agree only to the rounding of such values are not converged
    with pytest.raises(RuntimeError, match="does not converge"):
        chen_series({"x0": "1/(z-(100000000000002/200000000000000))^8"}, SegmentPath("3/10", "1/2"), 1)


def test_input_keys_order_by_letter_index():
    ev = chen_series({"x10": "z", "x2": "1"}, SegmentPath(0, 1), 1)
    assert ev.alphabet.letters == ("x2", "x10")
    with pytest.raises(ValueError, match="bad X-type letter 'u'"):
        chen_series({"x1": "1", "u": "1"}, SegmentPath(0, 1), 1)


def _recomputing_adaptive(step, q, breaks, tol, path, p=1):
    """The adaptive driver that takes every panel's whole step afresh, also
    on the left half of a bisected panel, whose whole step is the left half
    step of its parent."""
    pending = list(zip(breaks[:-1], breaks[1:]))[::-1]
    err = np.zeros_like(q)
    bisections = 0
    while pending:
        lo, hi = pending.pop()
        mid = (lo + hi) / 2.0
        with np.errstate(all="ignore"):
            whole, norm = step(q, lo, hi)
            left, _ = step(q, lo, mid)
            halves, _ = step(left, mid, hi)
            defect = np.abs(halves - whole)
            share = max(tol * (hi - lo), min(_ROUNDING * (1.0 + norm), tol))
            accept = np.max(defect) <= share * max(1.0, np.max(np.abs(halves)))
        if accept:
            q = halves
            err += defect
            continue
        bisections += 1
        assert hi - lo > _MIN_PANEL and bisections <= _MAX_BISECTIONS
        pending += [(mid, hi), (lo, mid)]
    return q, err


def test_adaptive_reuses_the_left_half_step_of_a_bisected_panel(monkeypatch):
    # the near-pole control bisects the panels next to z = 1; reusing the
    # left half steps leaves every value and error estimate bit-identical
    # and saves one step per rejected panel
    steps = []
    panel_values = ncfps._numeric._panel_values

    def counted(q, lo, hi, **kwargs):
        steps.append((lo, hi))
        return panel_values(q, lo, hi, **kwargs)

    monkeypatch.setattr(ncfps._numeric, "_panel_values", counted)
    runs = []
    for driver in (ncfps._numeric._adaptive, _recomputing_adaptive):
        monkeypatch.setattr(ncfps._numeric, "_adaptive", driver)
        steps.clear()
        ev = chen_series({"x0": "1/(z-10001/10000)", "x1": "1/(1+z)"}, SegmentPath(0, 1), 3)
        runs.append((ev, len(steps)))
    (ev, n), (ref, n_ref) = runs
    assert ev.values == ref.values and ev.errors == ref.errors
    # the reference takes 3 steps per panel tried: the initial panels, and
    # two more tried for each of the R rejected ones
    rejected = (n_ref // 3 - (len(ncfps._numeric._initial_mesh(False)) - 1)) // 2
    assert rejected > 0 and n == n_ref - rejected


def test_smooth_calls_take_three_steps_per_initial_panel(monkeypatch):
    # a regular segment starts as two panels and a singular start as the
    # 7 graded ones; a smooth family accepts each at once, in one step and
    # two half steps
    steps = []
    for name in ("_panel_values", "_collocation_step"):
        step = getattr(ncfps._numeric, name)

        def counted(*args, step=step, **kwargs):
            steps.append(args[1:3])
            return step(*args, **kwargs)

        monkeypatch.setattr(ncfps._numeric, name, counted)
    chen_series(POLYLOG, SegmentPath("1/10", "2/5"), 8)
    assert len(steps) == 6
    steps.clear()
    y = pair_ode(representation_of("(2*x1)*"), {"x1": "1/(1-z)"}, SegmentPath(0, "1/5"))
    assert len(steps) == 6 and abs(y - 1 / 0.64) < 1e-14
    steps.clear()
    chen_series(POLYLOG, SegmentPath(0, "1/2"), 8)
    assert len(steps) == 21


@pytest.mark.parametrize("a, b", [("1/10", "2/5"), ("1/5", "1/2"), ("3/10", "1/2"), ("1/4", "1/3")])
def test_polylogs_by_chen_identity_across_a_regular_segment(a, b):
    # Li_n(b) is the coefficient of x0^(n-1).x1 along 0 -> a -> b: the sum of
    # C(a -> b)[u] C(0 -> a)[v] over the splittings w = uv, so the regular
    # segment's values and estimates enter every word
    first = chen_series(POLYLOG, SegmentPath(0, a), 10)
    second = chen_series(POLYLOG, SegmentPath(a, b), 10)
    for n in range(1, 11):
        w = ("x0",) * (n - 1) + ("x1",)
        splits = [(w[:i], w[i:]) for i in range(n + 1)]
        value = math.fsum(second.coeff(u) * first.coeff(v) for u, v in splits)
        err = math.fsum(
            abs(second.coeff(u)) * first.error(v) + second.error(u) * abs(first.coeff(v)) for u, v in splits
        )
        want = _polylog(n, Fraction(b))
        assert abs(value - want) <= err + 64 * EPS * abs(want)


def test_near_pole_sweep_returns_right_or_raises():
    # poles of order k at 10^-e past z = 1/2: near such a pole the quadrature
    # nodes round by k eps |z| / 10^-e relative, so a call may refuse, but a
    # value it returns matches the exact integral
    z0, z1 = Fraction(3, 10), Fraction(1, 2)
    returned = 0
    for k in (2, 4, 8, 12):
        for e in (3, 6, 9, 12, 14):
            c = z1 + Fraction(1, 10**e)
            exact = ((z1 - c) ** (1 - k) - (z0 - c) ** (1 - k)) / (1 - k)
            try:
                ev = chen_series({"x0": f"1/(z-({c}))^{k}"}, SegmentPath(z0, z1), 1)
            except (ValueError, RuntimeError):
                continue
            returned += 1
            assert abs(ev.coeff(("x0",)) - float(exact)) <= 1e-9 * abs(float(exact))
    assert returned >= 1


def test_bound_14_is_fast():
    chen_series(POLYLOG, SegmentPath("1/5", "1/2"), 3)
    start = time.perf_counter()
    ev = chen_series(POLYLOG, SegmentPath("1/5", "1/2"), 14)
    assert time.perf_counter() - start < 1.0
    assert len(ev.values) == 2**15 - 1


def test_orientation_reversal():
    # reversing a one-letter path flips the sign of the first coefficient
    fwd = chen_series({"x0": 1}, SegmentPath(0, "1/2"), 1)
    bwd = chen_series({"x0": 1}, SegmentPath("1/2", 0), 1)
    assert abs(fwd.coeff(("x0",)) + bwd.coeff(("x0",))) < 1e-14


# ---------------------------------------------------------------------------
# the panel kernel against the per-word loop it replaced


def _mesh(breaks):
    """A composite mesh as the per-word loop reads it: panel half-widths and nodes."""
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    half = (b - a) / 2.0
    return SimpleNamespace(half=half, t=((a + b) / 2.0)[:, None] + half[:, None] * _NODES[None, :])


def _per_word_values(mesh, path, controls, chain, p):
    """The former whole-mesh sweep: one quadrature sweep per word, each word
    reusing the node values of its suffix (`chain` is length-sorted and
    suffix-closed).  `controls` maps each letter to its control's split
    (o, g) at the start."""
    firsts = sorted({w[0] for w in chain})
    u = dict(zip(firsts, _integrands([controls[x] for x in firsts], path, mesh.t, p)))
    vals = {(): np.ones_like(mesh.t)}
    out = {}
    for w in chain:
        g = u[w[0]] * vals[w[1:]]
        per_panel = (g @ _WEIGHTS) * mesh.half
        running = np.cumsum(per_panel)
        before = np.concatenate([[0.0], running[:-1]])
        vals[w] = before[:, None] + mesh.half[:, None] * (g @ _CUM.T)
        out[w] = float(running[-1])
    return out


def _integrable(word, orders):
    # the former per-word walk: each stage's exponent must stay above -1
    acc = 0.0
    for x in reversed(word):
        e = orders[x] + acc
        if not e > -1.0 + 1e-12:
            return False
        acc = e + 1.0
    return True


def _per_row_word_levels(letters, orders, prepend):
    """The former level builder, one row of word tuples per letter and length:
    `prepend[k]` lists the letters put in front of every kept word of length k."""
    words, levels, excluded = [], [], []
    kept, stages, dropped = [()], np.array([-1.0]), []
    emin = math.inf
    for row_letters in prepend:
        rows, row_stages, segments, lost = [], [np.zeros(0)], [], []
        for i in row_letters:
            x = (letters[i],)
            e = orders[i] + (stages + 1.0)
            keep = e > -1.0 + 1e-12
            lost += [x + s for s in dropped] + [x + s for s in compress(kept, (~keep).tolist())]
            rows += [x + s for s in compress(kept, keep.tolist())]
            if keep.any():
                segments.append((i, slice(None) if keep.all() else np.flatnonzero(keep)))
            row_stages.append(e[keep])
        stages = np.concatenate(row_stages)
        emin = min(emin, float(stages.min(initial=math.inf)))
        words += rows
        excluded += lost
        levels.append((len(rows), segments))
        kept, dropped = rows, lost
    return words, levels, excluded, emin


def _masked_words(letters, masks):
    """The kept and the excluded words of `_word_levels`'s masks, grade-lex."""
    kept, excluded = [], []
    for k, mask in enumerate(masks, 1):
        graded = list(product(letters, repeat=k))
        if mask is None:
            kept += graded
        else:
            assert mask.dtype == bool and mask.shape == (len(graded),) and not mask.all()
            kept += compress(graded, mask.tolist())
            excluded += compress(graded, (~mask).tolist())
    return kept, excluded


def _assert_same_levels(got, want):
    assert got[0] == want[0]  # the same words in the same order
    assert len(got[1]) == len(want[1])
    for (size, segments), (want_size, want_segments) in zip(got[1], want[1]):
        assert size == want_size
        assert [i for i, _ in segments] == [i for i, _ in want_segments]
        for (_, index), (_, want_index) in zip(segments, want_segments):
            if isinstance(want_index, slice):
                assert index == slice(None)
            else:
                assert index.dtype == want_index.dtype and np.array_equal(index, want_index)
    assert set(got[2]) == set(want[2]) and len(got[2]) == len(want[2])
    assert got[3] == want[3]


_ORDERS = (0.0, 1.0, 2.0, -1.0, -0.5, -1.5, 1.5, math.inf)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_ORDERS), min_size=1, max_size=3), st.integers(0, 6), st.data())
def test_word_levels_match_the_per_row_oracle(orders, bound, data):
    # a dropped word's extensions stay dropped, whatever the orders of the
    # letters put in front of it, a zero control's inf included
    letters = tuple(f"x{i}" for i in range(len(orders)))
    want = _per_row_word_levels(letters, orders, [range(len(letters))] * bound)
    masks, levels, emin = _word_levels(orders, bound)
    assert len(masks) == bound
    words, excluded = _masked_words(letters, masks)
    _assert_same_levels((words, levels, excluded, emin), want)
    # one word's suffix chain, up to its first divergent suffix, which
    # excludes itself and every longer suffix
    word = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=6)))
    kept, levels, emin = _chain_levels(orders, [letters.index(x) for x in word])
    want = _per_row_word_levels(letters, orders, [[letters.index(x)] for x in reversed(word)])
    words = [word[len(word) - j :] for j in range(1, kept + 1)]
    assert want[1][kept:] == [(0, [])] * (len(word) - kept)
    excluded = [word[j:] for j in range(len(word) - kept - 1, -1, -1)]
    _assert_same_levels((words, levels, excluded, emin), (want[0], want[1][:kept], want[2], want[3]))


_NON_WORDS = ("x0", ["x0"], 0, None, ("x0", 1), ("x9",), ("x0", "x9"), (("x0",),))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_ORDERS), min_size=1, max_size=3), st.integers(0, 8), st.data())
def test_word_views_match_the_dict_oracle(orders, bound, data):
    # the views over the layout against the dicts and the frozenset that
    # the former per-row level builder gave
    letters = tuple(f"x{i}" for i in range(len(orders)))
    words, _, excluded, _ = _per_row_word_levels(letters, orders, [range(len(letters))] * bound)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    vals = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-60, 60) for _ in words]
    errs = [abs(v) / 3 for v in vals]
    want_vals = {(): 1.0}
    want_vals.update(zip(words, vals))
    want_errs = {(): 0.0}
    want_errs.update(zip(words, errs))
    layout = _Layout(Alphabet.from_letters(letters), _word_levels(orders, bound)[0])
    got_vals, got_errs = _WordValues(layout, [1.0, *vals]), _WordValues(layout, [0.0, *errs])
    got_excluded, want_excluded = _Dropped(layout), frozenset(excluded)

    def bits(pairs):
        return [(w, v.hex()) for w, v in pairs]

    for got, want in ((got_vals, want_vals), (got_errs, want_errs)):
        # grade-lex order, bit for bit
        assert bits(got.items()) == bits(want.items())
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        assert list(got) == list(want) == sorted(want, key=lambda w: (len(w), w))
        assert len(got) == len(want) and got == want and want == got
        assert got != {**want, (): 2.0} and got != dict(list(want.items())[:-1])
        for w in want:
            assert w in got and got[w] is got.get(w) and got[w] == want[w]
        for w in [*want_excluded, ("x0",) * (bound + 1), *_NON_WORDS]:
            assert w not in got and got.get(w) is None and got.get(w, 5) == 5
            with pytest.raises(KeyError):
                got[w]
        for name in ("__setitem__", "__delitem__", "pop", "popitem", "clear", "update", "setdefault"):
            assert not hasattr(got, name)
        with pytest.raises(AttributeError):
            got.rows = []
    assert got_excluded == want_excluded and want_excluded == got_excluded
    assert len(got_excluded) == len(want_excluded) and bool(got_excluded) == bool(want_excluded)
    assert hash(got_excluded) == hash(want_excluded)
    assert list(got_excluded) == sorted(want_excluded, key=lambda w: (len(w), w))
    for w in want_excluded:
        assert w in got_excluded
    for w in [*want_vals, ("x0",) * (bound + 1), *_NON_WORDS]:
        assert w not in got_excluded
    for name in ("add", "discard", "remove", "pop", "clear", "update"):
        assert not hasattr(got_excluded, name)


def _assert_kernel_matches_per_word_loop(inputs, path, bound):
    checked = _Controls.of(inputs, path, 1e-10)
    alphabet, singular_start = checked.alphabet, checked.singular_start
    controls = [checked.inputs[x] for x in alphabet.letters]
    orders = [f.vanishing_order_at(path.z0_exact) if singular_start else 0.0 for f in controls]
    masks, levels, emin = _word_levels(orders, bound)
    words, excluded = _masked_words(alphabet.letters, masks)
    by_letter = dict(zip(alphabet.letters, orders))
    chain = [w for w in alphabet.words_up_to(bound, include_empty=False) if _integrable(w, by_letter)]
    assert words == chain
    assert set(excluded) == set(alphabet.words_up_to(bound, include_empty=False)) - set(chain)
    p = _power_param(orders, emin) if singular_start else 1
    controls = [_split_at(f, o, path.z0_exact) for f, o in zip(controls, orders)]
    pairs = list(zip(alphabet.letters, controls))
    zero = np.zeros(len(chain))

    def kernel(q, lo, hi):
        return _panel_values(q, lo, hi, path, pairs, levels, p)[0]

    # one step per panel of the initial mesh, each from the previous panel's
    # end values, is the per-word loop on that mesh
    breaks = _initial_mesh(singular_start)
    q = zero
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        q = kernel(q, lo, hi)
    # the first panel (the graded one at a singular start) as one step and as
    # two half steps: their defect is the per-word loop's change under bisection
    lo, hi = breaks[0], breaks[1]
    mid = (lo + hi) / 2.0
    whole = kernel(zero, lo, hi)
    halves = kernel(kernel(zero, lo, mid), mid, hi)
    chained = _per_word_values(_mesh(breaks), path, dict(pairs), chain, p)
    one = _per_word_values(_mesh([lo, hi]), path, dict(pairs), chain, p)
    two = _per_word_values(_mesh([lo, mid, hi]), path, dict(pairs), chain, p)
    # both start a panel's node values from the sum of the panels before it
    # (the loop's running sum, the kernel's q), but they sum in different
    # orders, so a word is compared at the scale of its largest suffix
    for i, w in enumerate(chain):
        scale = max(abs(v[w[k:]]) for v in (chained, one, two) for k in range(len(w)))
        assert abs(q[i] - chained[w]) <= 8 * np.spacing(scale)
        assert abs(whole[i] - one[w]) <= 4 * np.spacing(scale)
        assert abs(halves[i] - two[w]) <= 8 * np.spacing(scale)
        assert abs(abs(halves[i] - whole[i]) - abs(two[w] - one[w])) <= 8 * np.spacing(scale)
    return levels


_REGULAR_AT_0 = ("0", "1", "-3/2", "1/(1-z)", "exp", "1/(z+1)", "1/(z+3)")
_SINGULAR_AT_0 = ("1/z", "pow(z, -1/2)", "pow(z, 1/3)", "pow(z, -2/3)")


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 3))
    inputs = {f"x{i}": draw(st.sampled_from(_REGULAR_AT_0 + _SINGULAR_AT_0)) for i in range(n)}
    if draw(st.booleans()):
        # a singular start: 0, with at least one control singular there
        inputs[f"x{draw(st.integers(0, n - 1))}"] = draw(st.sampled_from(_SINGULAR_AT_0))
        z0 = Fraction(0)
    else:
        z0 = Fraction(draw(st.integers(0, 8)), 20)
    z1 = z0 + Fraction(draw(st.integers(1, 10)), 20)
    if z0 > 0 and draw(st.booleans()):
        z0, z1 = z1, z0
    return inputs, SegmentPath(z0, z1), draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(_kernel_cases())
def test_level_kernel_matches_the_per_word_loop(case):
    # regular and singular starts (the start 0 makes 1/z and the powers
    # singular; the fractional powers switch on the substitution p > 1)
    _assert_kernel_matches_per_word_loop(*case)


def test_level_kernel_matches_across_a_block_boundary():
    # the rows of one letter at the last length span two blocks: suffixes
    # read as the whole previous length (a slice) at a regular start, and
    # gathered from part of it (an index array) where 1/z^2 drops the
    # suffixes it cannot integrate
    for inputs, path, bound, gathered in (
        (POLYLOG, SegmentPath("1/5", "1/2"), 11, False),
        ({"x0": "1/z^2", "x1": "1/(1-z)", "x2": "1/(z+1)"}, SegmentPath(0, "1/2"), 8, True),
    ):
        levels = _assert_kernel_matches_per_word_loop(inputs, path, bound)
        suffixes = np.arange(levels[-2][0])
        long = [index for _, index in levels[-1][1] if suffixes[index].size > _BLOCK]
        assert any(isinstance(index, np.ndarray) == gathered for index in long)


def _clear_shared_caches():
    _GRADED_WORDS_CACHE.clear()
    _control_of_text.cache_clear()


def test_evaluations_do_not_depend_on_the_cache_state():
    # graded words and parsed texts are shared across calls; an evaluation
    # reads bit for bit the same in every state of them
    def bits(pairs):
        return [(w, v.hex()) for w, v in pairs]

    def evaluations():
        out = []
        for inputs, path, bound in (
            (POLYLOG, SegmentPath("1/10", "2/5"), 8),
            (POLYLOG, SegmentPath(0, "1/2"), 6),
            (POWER, SegmentPath(0, "1/2"), 6),
        ):
            ev = chen_series(inputs, path, bound)
            out.append((bits(ev.values.items()), bits(ev.errors.items()), ev.excluded))
        out.append(iterated_integral("x0.x0.x1", POLYLOG, SegmentPath(0, "1/2")).hex())
        out.append(iterated_integral("x1.x0.x1", POLYLOG, SegmentPath("1/10", "2/5")).hex())
        return out

    _clear_shared_caches()
    cold = evaluations()
    chen_series(POLYLOG, SegmentPath("1/5", "1/2"), 13)
    assert evaluations() == cold
    chen_series(POLYLOG, SegmentPath(0, "1/3"), 9)
    assert evaluations() == cold
    _clear_shared_caches()
    assert evaluations() == cold


def test_each_control_is_split_once_per_evaluation(monkeypatch):
    # each control is split at the start once per evaluation, whatever its
    # panel count: under the power substitution, at a pole of integer order
    # and, as (0, f), on a regular segment
    splits, steps = [], []
    split, step = ncfps._numeric._split_at, ncfps._numeric._panel_values
    monkeypatch.setattr(ncfps._numeric, "_split_at", lambda *args: splits.append(args) or split(*args))
    monkeypatch.setattr(ncfps._numeric, "_panel_values", lambda *args, **kw: steps.append(args) or step(*args, **kw))
    for inputs, start in ((POWER, 0), (POLYLOG, 0), (POLYLOG, "1/10")):
        splits.clear()
        steps.clear()
        chen_series(inputs, SegmentPath(start, "1/2"), 6)
        assert len(splits) == 2 and len(steps) > 2


@pytest.mark.parametrize("z1", ["1/2", "2", "3"])
def test_a_zero_control_beside_a_fractional_power(z1):
    # the zero control has order inf at the start and splits as (0, f): a
    # word with x0 integrates to 0, and x1 = pow(z, -1/2) gives 2 sqrt(z1)
    # and x1.x1 = (2 sqrt(z1))^2 / 2
    ev = chen_series({"x0": "0", "x1": "pow(z,-1/2)"}, SegmentPath(0, z1), 2)
    z = float(Fraction(z1))
    assert not ev.excluded
    for w, v in ev.values.items():
        if "x0" in w:
            assert v == 0.0
    for w, want in ((("x1",), 2 * math.sqrt(z)), (("x1", "x1"), 2 * z)):
        assert abs(ev.coeff(w) - want) <= ev.error(w)


def test_no_finite_kept_stage_leaves_the_power_at_1(monkeypatch):
    # x1 = z^(-3/2) diverges as the innermost letter, and every kept word
    # ends in the zero control x0, whose stage exponent is inf: there is no
    # finite exponent to lift, so no power substitution
    powers = []

    def recorded(orders, emin):
        powers.append(_power_param(orders, emin))
        return powers[-1]

    monkeypatch.setattr(ncfps._numeric, "_power_param", recorded)
    ev = chen_series({"x0": "0", "x1": "pow(z,-3/2)"}, SegmentPath(0, "1/2"), 3)
    assert powers == [1]
    assert sorted(ev.excluded) == sorted(w for w in X2.words_up_to(3) if w and w[-1] == "x1")
    assert len(ev.excluded) == 7 and len(ev.values) == 8
    assert all(v == 0.0 for w, v in ev.values.items() if w)


def test_oversized_families_are_refused_before_any_array(monkeypatch):
    # at most 4096 letters per word, and at most 2^22 words with the empty
    # one: sum_k m^k over k <= bound
    with pytest.raises(ValueError, match="the length bound 4097 is above 4096"):
        chen_series({"x0": "1"}, SegmentPath(0, 1), 4097)
    assert len(chen_series({"x0": "1"}, SegmentPath(0, 1), 4096).values) == 4097
    with pytest.raises(ValueError, match="2 letters up to length 22 give more than 4194304 words"):
        chen_series({"x0": "1", "x1": "1"}, SegmentPath(0, 1), 22)
    # the word count is checked exactly at the bound
    monkeypatch.setattr(ncfps.chen, "_MAX_WORDS", 7)
    assert len(chen_series({"x0": "1", "x1": "1"}, SegmentPath(0, 1), 2).values) == 7
    with pytest.raises(ValueError, match="2 letters up to length 3 give more than 7 words"):
        chen_series({"x0": "1", "x1": "1"}, SegmentPath(0, 1), 3)


def test_gauss_tables_are_the_numpy_rule():
    # the literal half rule, mirrored, is leggauss(16) bit for bit
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(_NODES, x) and np.array_equal(_WEIGHTS, w)


def test_polylogarithms_at_one_half_within_a_few_ulps():
    # x0^(n-1).x1 from 0 to 1/2 is Li_n(1/2) = sum_k 2^-k k^-n, summed
    # exactly to 80 terms (a tail below 2^-80) and rounded once
    ev = chen_series(POLYLOG, SegmentPath(0, "1/2"), 4)
    for n in (2, 3, 4):
        want = float(sum(Fraction(1, 2**k * k**n) for k in range(1, 81)))
        assert abs(ev.coeff(("x0",) * (n - 1) + ("x1",)) - want) <= 4 * np.spacing(want)


def _laurent_values(controls, z0, z1, bound, terms=48):
    """Exact values and slopes d/dz1 at z1, rounded once, of every word up to
    `bound` that is integrable from z0 (the empty word's 1 and 0 included),
    and the set of those that are not, with every word built on one.

    A control is (k, c, d, a, e), f = c (z - z0)^-k + d / (z - a) + e.  A
    word's value is a power series in s = z - z0 with Fraction coefficients,
    from its suffix's: times f (the pole part a shift, d / (s - b) with
    b = a - z0 by the recurrence W_j = (W_(j-1) - d V_j) / b of its geometric
    series), then integrated term by term; a suffix with a nonzero term below
    s^k diverges under a pole of order k.  A stage keeps at most `terms`
    coefficients, one fewer than its suffix under a double pole.
    """
    s1 = z1 - z0
    series = {(): [Fraction(1)] + [Fraction(0)] * (terms - 1)}
    values, divergent = {(): (1.0, 0.0)}, set()
    for n in range(1, bound + 1):
        for w in product(sorted(controls), repeat=n):
            v = series.get(w[1:])
            k, c, d, a, e = controls[w[0]]
            if v is None or c and any(v[:k]):
                divergent.add(w)
                continue
            b, geo, integrand = a - z0, Fraction(0), []
            for j in range(len(v) - k):
                geo = (geo - d * v[j]) / b
                integrand.append(c * v[j + k] + geo + e * v[j])
            series[w] = u = [Fraction(0)] + [x / (j + 1) for j, x in enumerate(integrand[: terms - 1])]
            values[w] = tuple(float(sum(x * s1**j for j, x in enumerate(cs))) for cs in (u, integrand))
    return values, divergent


def _assert_matches_laurent_series(controls, z0, z1, bound, terms=48, strict=False):
    """Every value within its estimate plus 64 eps, and within the estimate
    plus 1e-15 per letter (1e-15 in all if `strict`), relative to
    max(1, |value|), of the exact one.  The quadrature runs over z1 - z0 as
    the difference of the endpoints rounded to doubles, which moves a value
    by its slope times that rounding on top."""
    z = QZ.parse("z")
    inputs = {x: c / (z - z0) ** k + d / (z - a) + e for x, (k, c, d, a, e) in controls.items()}
    path = SegmentPath(z0, z1)
    ev = chen_series(inputs, path, bound)
    want, divergent = _laurent_values(controls, z0, z1, bound, terms)
    assert set(ev.values) == set(want) and set(ev.excluded) == divergent
    rounding = float(abs(Fraction(path.z1 - path.z0) - (z1 - z0)))
    for w, v in ev.values.items():
        exact, slope = want[w]
        off, moved, scale = abs(v - exact), abs(slope) * rounding, max(1.0, abs(v))
        assert off <= ev.error(w) + 64 * EPS * scale + moved, w
        assert off <= (1e-15 * scale + moved if strict else ev.error(w) + len(w) * 1e-15 * scale + moved), w


_STARTS = tuple(map(Fraction, ("0", "1/3", "1", "-1/2")))
_OTHER_POLES = tuple(map(Fraction, ("-1", "-1/2", "0", "1/3", "1", "2")))


@st.composite
def _pole_at_start_cases(draw):
    # rational controls c (z - z0)^-k + d / (z - a) + e, one of them with a
    # pole of order 1 or 2 at z0, on a path in either direction that goes a
    # multiple of 1/64 and at most a quarter of the way to the nearest other
    # pole, so that z1 is a double whenever z0 is
    z0 = draw(st.sampled_from(_STARTS))
    orders = [draw(st.integers(1, 2))] + [draw(st.integers(0, 2)) for _ in range(draw(st.integers(0, 1)))]
    controls = {}
    for i, k in enumerate(draw(st.permutations(orders))):
        c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) if k else 0
        a = draw(st.sampled_from([a for a in _OTHER_POLES if a != z0]))
        controls[f"x{i}"] = (k, c, draw(st.integers(-2, 2)), a, draw(st.integers(-2, 2)))
    reach = min((abs(a - z0) for _, _, d, a, _ in controls.values() if d), default=Fraction(1))
    step = Fraction(draw(st.integers(1, math.floor(16 * reach))), 64)
    return controls, z0, z0 + draw(st.sampled_from((-1, 1))) * step, draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(_pole_at_start_cases())
def test_a_pole_at_the_start_matches_its_laurent_series(case):
    # the pole factor (z - z0)^-k is read off the parameter exactly, not from
    # z - z0 as a difference of doubles next to z0
    _assert_matches_laurent_series(*case)


@pytest.mark.parametrize(
    "controls, z0, z1",
    [
        # {1/z, 1/(1-z)} from the pole of 1/(1-z) at 1 to 1/2
        ({"x0": (0, 0, 1, Fraction(0), 0), "x1": (1, -1, 0, Fraction(2), 0)}, Fraction(1), Fraction(1, 2)),
        # {1/(z-1/3), 1/(z+1)} from 1/3 to 2/3
        ({"x0": (1, 1, 0, Fraction(2), 0), "x1": (0, 0, 1, Fraction(-1), 0)}, Fraction(1, 3), Fraction(2, 3)),
    ],
)
def test_a_pole_at_a_nonzero_start_is_read_off_the_parameter(controls, z0, z1):
    # z - z0 formed as a difference of doubles next to z0 put these 1.8e-11
    # and 7.3e-12 off at bound 9, beyond their estimates
    _assert_matches_laurent_series(controls, z0, z1, 9, terms=64, strict=True)


# ---------------------------------------------------------------------------
# group-likeness diagnostics


def test_friedrichs_defect_is_small_for_true_evaluations():
    ev = chen_series(POLYLOG, SegmentPath(0, "1/2"), 4)
    assert friedrichs_check(ev) < 1e-7
    ev2 = chen_series(POLYLOG, SegmentPath("1/4", "1/2"), 4)
    assert friedrichs_check(ev2) < 1e-7
    ev3 = chen_series({"x0": 1}, SegmentPath(0, 1), 5)
    assert friedrichs_check(ev3) < 1e-10


def _corrupted(ev):
    """The evaluation with its value of x0.x1 raised by 1e-3."""
    vals = list(ev.values.rows)
    vals[ev.values.layout.row(("x0", "x1"))] += 1e-3
    return ChenEvaluation(ev.controls, ev.bound, ev.values.layout, vals, ev.errors.rows)


def test_friedrichs_detects_corruption():
    ev = chen_series(POLYLOG, SegmentPath("1/4", "1/2"), 4)
    bad = _corrupted(ev)
    assert friedrichs_check(bad) > 1e-4


def test_primitive_log_single_letter():
    # with u = 1 over 0 -> 1/2 the log of the evaluation is exactly z * x0
    ev = chen_series({"x0": 1}, SegmentPath(0, "1/2"), 4)
    assert primitive_log_check(ev) < 1e-12


def test_primitive_log_two_letters():
    ev = chen_series(POLYLOG, SegmentPath("1/4", "1/2"), 4)
    assert primitive_log_check(ev) < 1e-6


def test_primitive_log_detects_corruption():
    ev = chen_series(POLYLOG, SegmentPath("1/4", "1/2"), 4)
    bad = _corrupted(ev)
    assert primitive_log_check(bad) > 1e-4


def test_primitive_log_preconditions():
    with pytest.raises(ValueError):
        primitive_log_check(chen_series({"x0": 1}, SegmentPath(0, 1), 1))
    incomplete = chen_series(POLYLOG, SegmentPath(0, "1/2"), 3)
    with pytest.raises(ValueError):
        primitive_log_check(incomplete)


def test_flow_composition_matches_direct_evaluation():
    first = chen_series(POLYLOG, SegmentPath("1/5", "7/20"), 3)
    second = chen_series(POLYLOG, SegmentPath("7/20", "3/5"), 3)
    direct = chen_series(POLYLOG, SegmentPath("1/5", "3/5"), 3)
    composed = flow_compose(second, first)
    assert set(composed) == set(direct.values)
    for w, c in composed.items():
        assert abs(c - direct.values[w]) < 1e-9
    with pytest.raises(ValueError):
        flow_compose(first, second)


def test_flow_composition_compares_exact_endpoints():
    # the double 0.3333333333333333 is within 1e-12 of 1/3, but another point
    first = chen_series(POLYLOG, SegmentPath("1/5", "1/3"), 2)
    second = chen_series(POLYLOG, SegmentPath(0.3333333333333333, "3/5"), 2)
    assert abs(first.path.z1 - second.path.z0) < 1e-12
    with pytest.raises(ValueError, match="must start where the first ends"):
        flow_compose(second, first)


# ---------------------------------------------------------------------------
# pairing against linear representations


def test_pair_exponential_series():
    rep = star_rep(X1, ("x0",))
    ev = chen_series({"x0": 1}, SegmentPath(0, 1), 12)
    res = pair_series(ev, rep)
    assert res.certified
    assert abs(res.value - math.e) <= res.tail + 1e-9
    assert abs(res.value - math.e) < 1e-6
    ode = pair_ode(rep, {"x0": 1}, SegmentPath(0, 1))
    assert abs(ode - math.e) < 1e-8
    assert abs(res.value - ode) <= res.tail + 1e-6


def test_pair_geometric_series():
    # <x1*, x1^n> = 1 and the controls integrate to log(2)^n/n!, so the
    # pairing sums to exp(log 2) = 2
    rep = star_rep(X2, ("x1",))
    ev = chen_series({"x1": "1/(1-z)"}, SegmentPath(0, "1/2"), 14)
    res = pair_series(ev, rep)
    assert res.certified
    assert abs(res.value - 2.0) < 1e-6
    ode = pair_ode(rep, {"x1": "1/(1-z)"}, SegmentPath(0, "1/2"))
    assert abs(ode - 2.0) < 1e-8
    assert abs(res.value - ode) <= res.tail + 1e-6


def test_pair_identity_flow():
    # (x)* against u = 1/z from 1 to 2 sums exp(log z) = z at z = 2
    rep = star_rep(X1, ("x0",))
    ev = chen_series({"x0": "1/z"}, SegmentPath(1, 2), 14)
    res = pair_series(ev, rep)
    assert res.certified
    assert abs(res.value - 2.0) < 1e-6
    ode = pair_ode(rep, {"x0": "1/z"}, SegmentPath(1, 2))
    assert abs(ode - 2.0) < 1e-8
    assert abs(res.value - ode) <= res.tail + 1e-6


def test_pair_half_interval_target():
    rep = star_rep(X1, ("x0",))
    ev = chen_series({"x0": 1}, SegmentPath(0, "1/2"), 12)
    res = pair_series(ev, rep)
    assert abs(res.value - math.exp(0.5)) < 1e-6
    assert abs(pair_ode(rep, {"x0": 1}, SegmentPath(0, "1/2")) - math.exp(0.5)) < 1e-8


def test_pair_zero_and_null_representations():
    ev = chen_series({"x0": 1}, SegmentPath(0, 1), 4)
    empty = LinearRepresentation(X1, QQ, (), {}, ())
    res = pair_series(ev, empty)
    assert (res.value, res.tail, res.certified) == (0.0, 0.0, True)
    assert pair_ode(empty, {"x0": 1}, SegmentPath(0, 1)) == 0.0
    # a vanishing initial row kills both the value and the tail constant
    null = LinearRepresentation(X1, QQ, (0,), {"x0": ((1,),)}, (1,))
    res = pair_series(ev, null)
    assert res.value == 0.0 and res.tail == 0.0 and res.certified


def test_zero_dimensional_flows_check_their_inputs():
    for zero in (LinearRepresentation(X1, QQ, (), {}, ()), LinearRepresentation(X1, QQ, (), {"x0": ()}, ())):
        for flow in (partial(pair_ode, zero), partial(pair_ode_derivatives, zero, orders=2)):
            with pytest.raises(ValueError, match="input singular between 0 and 1, inside the path"):
                flow(inputs={"x0": "1/(z-1/2)"}, path=(0, 1))
            with pytest.raises(ValueError, match="the tolerance must be a number >= 0"):
                flow(inputs={"x0": "1"}, path=(0, 1), tol=-1)
        assert pair_ode(zero, {"x0": "1"}, (0, 1)) == 0.0
        assert pair_ode_derivatives(zero, {"x0": "1"}, (0, 1), 3) == [0.0] * 4


def test_pair_ode_derivatives_refuses_a_non_rational_control_before_the_flow(monkeypatch):
    def no_flow(*args):
        raise AssertionError("the state flow ran")

    monkeypatch.setattr(ncfps._numeric, "_ode_state", no_flow)
    for control in ("exp", "pow(z, 1/2)"):
        with pytest.raises(ValueError, match="the control for x0 must be a rational function of z"):
            pair_ode_derivatives(star_rep(X1, ("x0",)), {"x0": control}, ("1/4", 1), 2)


def test_checked_controls_are_reused_on_the_same_path():
    rep = star_rep(X2, ("x0", "x1"))
    path = SegmentPath("2/5", "3/5")
    ev = chen_series(POLYLOG, path, 4)
    assert ev.alphabet is ev.controls.alphabet and ev.path is path
    with pytest.raises(TypeError):
        ev.inputs["x0"] = "1"
    # the same exact path, given anew: the same object, and the same doubles
    assert _Controls.of(ev.controls, SegmentPath(Fraction(2, 5), "3/5")) is ev.controls
    again = chen_series(ev.controls, ("2/5", "3/5"), 4)
    assert again.controls is ev.controls and list(again.values.rows) == list(ev.values.rows)
    assert pair_ode(rep, ev.controls, ("2/5", "3/5")).hex() == pair_ode(rep, POLYLOG, path).hex()
    # another path checks the same controls afresh; the tolerance is checked first
    other = chen_series(ev.controls, ("1/4", "1/2"), 4)
    assert other.controls is not ev.controls and dict(other.inputs) == dict(ev.inputs)
    assert other.values.rows == chen_series(POLYLOG, ("1/4", "1/2"), 4).values.rows
    with pytest.raises(ValueError, match="input singular at the far endpoint 1"):
        chen_series(ev.controls, ("1/2", 1), 4)
    with pytest.raises(ValueError, match="the tolerance must be a number >= 0"):
        pair_ode(rep, ev.controls, path, tol=-1)
    assert ev.controls.sup == max(f.sup_on(path.lo_exact, path.hi_exact) for f in ev.inputs.values())


def test_each_denominator_builds_its_sturm_chain_once(monkeypatch):
    # a pairing job checks its controls in chen_series and again in pair_ode,
    # and bounds their sup once: three Sturm counts on each denominator, which
    # keeps its chain, and the control texts are cached, so a repeated job
    # builds none; 1/z and 1/(1-z) have constant W = num' den - num den'
    built = []
    remainders = ncfps.rings._remainders

    def counted(a, b, sign):
        if sign < 0:  # a Sturm chain; a gcd runs with sign 1
            built.append(a)
        return remainders(a, b, sign)

    monkeypatch.setattr(ncfps.rings, "_remainders", counted)
    _clear_shared_caches()
    rep = star_rep(X2, ("x0", "x1"))
    path = SegmentPath("2/5", "3/5")

    def job():
        ev = chen_series(POLYLOG, path, 6)
        return ev, pair_series(ev, rep), pair_ode(rep, POLYLOG, path)

    ev, series, ode = job()
    dens = [f.ratfun.den for f in ev.inputs.values()]
    assert len(built) == 2 and set(built) == set(dens)
    assert all(d._sturm_chain() is d._sturm_chain() for d in dens) and len(built) == 2
    built.clear()
    again, *out = job()
    assert out == [series, ode] and again.values.rows == ev.values.rows and not built


def test_pair_preconditions():
    ev = chen_series({"x0": 1}, SegmentPath(0, 1), 3)
    over_t = LinearRepresentation(X1, QT, ((1,)), {}, ((1,)))
    with pytest.raises(ValueError):
        pair_series(ev, over_t)
    incomplete = chen_series(POLYLOG, SegmentPath(0, "1/2"), 3)
    rep = star_rep(X1, ("x0",))
    with pytest.raises(ValueError):
        pair_series(incomplete, rep)
    with pytest.raises(ValueError):
        pair_ode(rep, {"x0": "1/z"}, SegmentPath(0, 1))


def test_pair_certification_flags():
    rep = star_rep(X1, ("x0",))
    # unbounded control: finite value, infinite tail, no certificate
    ev = chen_series({"x0": InputFunction.power(Fraction(-1, 2))}, SegmentPath(0, "1/2"), 10)
    res = pair_series(ev, rep)
    assert res.tail == math.inf and not res.certified
    assert abs(res.value - math.exp(2.0 * math.sqrt(0.5))) < 1e-5
    # rational controls with no closed-form sup: exact bound, certified
    ev2 = chen_series({"x0": "z^2+1"}, SegmentPath(0, 1), 10)
    res2 = pair_series(ev2, rep)
    assert math.isfinite(res2.tail) and res2.certified
    assert abs(res2.value - math.exp(4.0 / 3.0)) < 1e-5
    path = SegmentPath(0, "1/2")
    ev3 = chen_series({"x0": "1/(1+z^2)"}, path, 8)
    res3 = pair_series(ev3, rep)
    assert res3.certified
    assert abs(res3.value - pair_ode(rep, {"x0": "1/(1+z^2)"}, path)) <= res3.tail
    assert abs(res3.value - math.exp(math.atan(0.5))) <= res3.tail + 1e-12


def test_cli_import_leaves_scipy_out():
    code = "import sys, ncfps.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# Each subcommand, run by cli.main in a fresh interpreter: its exit code and
# the modules that must stay unloaded after it.  numpy loads only when chen
# or pair integrates, so never for a refusal (a pole inside the path, a
# missing input), and numpy.polynomial never; automata only for the commands
# that build automata; bases only for `bases`, and diffring never; `chen`
# loads neither series nor linalg.
_NO_FLOAT = {"numpy", "ncfps.bases", "ncfps.diffring"}
_NO_AUTOMATA = {"numpy", "ncfps.automata", "ncfps.bases", "ncfps.diffring"}
_NO_SERIES = {"ncfps.series", "ncfps.linalg"}
_FLOAT = {"numpy.polynomial", "ncfps.bases", "ncfps.diffring"}
_FOOTPRINTS = [
    (["expand", "x0* shuffle x1"], 0, _NO_AUTOMATA),
    (["op", "shuffle", "x0.x1", "x1*"], 0, _NO_AUTOMATA),
    (["star", "x0.x1"], 0, _NO_AUTOMATA),
    (["bases", "--max-length", "3"], 0, {"numpy", "ncfps.automata", "ncfps.diffring"}),
    (["minimize", "(x0.x1)*"], 0, _NO_FLOAT),
    (["classify", "(x0.x1)*"], 0, _NO_FLOAT),
    (["check-identity", "x0* shuffle x1*", "(x0 + x1)*"], 0, _NO_FLOAT),
    (["derive-ode", "(x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)"], 0, _NO_FLOAT),
    (["chen", "--inputs", "x0=1/(z-1/2)", "--z0", "0", "--z", "1"], 2, _NO_FLOAT | _NO_SERIES),
    (["pair", "x0.x1*", "--inputs", "x0=1"], 2, _NO_FLOAT),
    (["chen", "--inputs", "x0=1/z", "--z0", "1", "--z", "2"], 0, _FLOAT | _NO_SERIES),
    (["pair", "x1*", "--inputs", "x1=1/(1-z)", "--z0", "0", "--z", "1/2"], 0, _FLOAT),
]


def test_cli_import_leaves_numpy_and_chen_out():
    code = (
        "import sys, ncfps.cli\n"
        "assert 'numpy' not in sys.modules and 'ncfps.chen' not in sys.modules\n"
        "from ncfps import chen_series\n"
        "assert abs(chen_series({'x0': 1}, (0, 1), 1).coeff(('x0',)) - 1.0) < 1e-12"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
    code = (
        "import contextlib, io, json, sys\n"
        "from ncfps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    for argv, want, absent in _FOOTPRINTS:
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        rc, loaded = json.loads(done.stdout)
        assert rc == want, argv
        assert not absent & set(loaded), (argv, sorted(absent & set(loaded)))


def test_cli_runs_blas_on_one_thread_unless_the_caller_says_otherwise():
    code = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import ncfps.cli\n"
        "assert dict(os.environ) == before"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
    code = (
        "import contextlib, io, json, os, sys\n"
        "from ncfps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "threads = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        "print(json.dumps([code, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), threads]))"
    )
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    integrating = [argv for argv, want, absent in _FOOTPRINTS if "numpy" not in absent]
    assert [argv[0] for argv in integrating] == ["chen", "pair"]
    for argv in integrating:
        for env, want in ((unset, "1"), (dict(unset, OPENBLAS_NUM_THREADS="2"), "2")):
            done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            rc, numpy_loaded, threads_var, threads = json.loads(done.stdout)
            assert (rc, numpy_loaded, threads_var) == (0, True, want), argv
            if want == "1" and sys.platform == "linux":
                assert threads == 1, argv


def test_every_exported_name_resolves():
    # the lazily loaded names included: a stale export breaks `from ncfps import *`
    import ncfps

    namespace = {}
    exec("from ncfps import *", namespace)
    assert all(namespace[name] is getattr(ncfps, name) for name in ncfps.__all__)
    # in a fresh interpreter `import ncfps` loads no submodule, and submodules
    # and their names resolve on first access
    code = (
        "import sys, ncfps\n"
        "assert not [m for m in sys.modules if m.startswith('ncfps.')]\n"
        "assert ncfps.automata.minimize is sys.modules['ncfps.automata'].minimize\n"
        "assert ncfps.chen.chen_series is sys.modules['ncfps.chen'].chen_series\n"
        "try:\n"
        "    ncfps.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('an unknown name resolved')\n"
        "namespace = {}\n"
        "exec('from ncfps import *', namespace)\n"
        "assert set(ncfps.__all__) <= set(namespace)\n"
        "assert all(namespace[name] is getattr(ncfps, name) for name in ncfps.__all__)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_every_submodule_exported_name_resolves():
    # a name deleted from a module but left in its __all__ breaks `from ncfps.<module> import *`
    import importlib
    import pkgutil

    import ncfps

    for info in pkgutil.iter_modules(ncfps.__path__):
        module = importlib.import_module(f"ncfps.{info.name}")
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, (info.name, stale)


def test_pair_ode_near_a_far_end_pole():
    # the panels next to the pole are bisected; the rest of the mesh is not
    rep = star_rep(X2, ("x1",))
    value = pair_ode(rep, {"x1": "1/(1-z)"}, SegmentPath(0, "9999/10000"))
    assert abs(value - 10000.0) < 1e-10 * 10000.0
    rep = star_rep(X2, ("x0", "x1"))
    value = pair_ode(rep, POLYLOG, SegmentPath("1/10", "9999/10000"))
    assert abs(value - 2.8547433900) < 1e-8


def test_pair_ode_with_large_cancelling_entries():
    # the two letters' contributions cancel, so the pairing is exactly 1; each
    # step rounds at 1e-16 * h|mu(x)| and must not be bisected below that
    rep = minimize(representation_of("(1000000*x0.x1 - 1000000*x1.x0)*"))
    assert abs(pair_ode(rep, {"x0": "1", "x1": "1"}, SegmentPath(0, 1)) - 1.0) < 1e-6


def test_pair_ode_fails_fast_on_a_missed_double_pole():
    # 1/(z^2-2)^2 has a double pole at sqrt(2), where the denominator does
    # not change sign; the Sturm count refuses it before any integration
    rep = star_rep(X2, ("x0", "x1"))
    inputs = {"x0": "1/(z^4-4*z^2+4)", "x1": "1"}
    start = time.perf_counter()
    with pytest.raises(ValueError, match="inside the path"):
        pair_ode(rep, inputs, SegmentPath(1, 2))
    assert time.perf_counter() - start < 2.0


_CATALOG = ("1", "1/(1-z)", "exp")
_ENTRY = st.sampled_from((Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)))


@st.composite
def _pairing_cases(draw):
    n = draw(st.integers(1, 3))

    def vector():
        return tuple(draw(st.lists(_ENTRY, min_size=n, max_size=n)))

    mu = {x: tuple(vector() for _ in range(n)) for x in ("x0", "x1")}
    rep = LinearRepresentation(X2, QQ, vector(), mu, vector())
    inputs = {x: draw(st.sampled_from(_CATALOG)) for x in ("x0", "x1")}
    z0 = Fraction(draw(st.integers(0, 8)), 20)
    z1 = z0 + Fraction(draw(st.integers(1, 5)), 20)
    if draw(st.booleans()):
        z0, z1 = z1, z0
    return rep, inputs, SegmentPath(z0, z1)


@settings(max_examples=30, deadline=None)
@given(_pairing_cases())
def test_pair_ode_agrees_with_the_series_within_its_tail(case):
    rep, inputs, path = case
    res = pair_series(chen_series(inputs, path, 10), rep)
    assert abs(pair_ode(rep, inputs, path) - res.value) <= res.tail + 1e-9


def _per_word_pairing(ev, rep, absolute=False):
    """The former pairing: one prefix row nu mu(w) per word, memoized by
    word, summed in the evaluation's order; with `absolute`, the sum of
    |c_w| (|nu| |mu|(w) |eta|) over entrywise absolute matrices."""
    size = np.abs if absolute else (lambda a: a)
    mats = {x: size(_float_matrix(rows, rep.dim)) for x, rows in rep.rows.items()}
    nu = size(np.array([float(c) for c in rep.nu]))
    eta = size(np.array([float(c) for c in rep.eta]))
    prefixes = {(): nu}

    def prefix(w):
        # None stands for a zero row: some letter of w has no matrix
        if w not in prefixes:
            head, m = prefix(w[:-1]), mats.get(w[-1])
            prefixes[w] = None if head is None or m is None else head @ m
        return prefixes[w]

    value = 0.0
    for w, c in ev.values.items():
        v = prefix(w)
        if v is not None:
            value += size(c) * float(v @ eta)
    return value


_PAIR_ENTRY = st.sampled_from(tuple(map(Fraction, ("-2", "-1", "-1/2", "0", "1/3", "1", "3/2"))))


@st.composite
def _level_pairing_cases(draw):
    letters = draw(st.integers(1, 3))
    alphabet = Alphabet.x(letters)
    inputs = {x: draw(st.sampled_from(_CATALOG + ("1/z", "1/(z+2)"))) for x in alphabet.letters}
    z0 = Fraction(draw(st.integers(1, 5)), 10)
    path = SegmentPath(z0, z0 + Fraction(draw(st.integers(1, 4)), 10))
    ev = chen_series(inputs, path, draw(st.integers(0, {1: 10, 2: 8, 3: 5}[letters])))
    n = draw(st.integers(1, 8))

    def vector():
        return draw(st.lists(_PAIR_ENTRY, min_size=n, max_size=n))

    # some letters get no matrix: their words pair to 0
    with_matrix = draw(st.lists(st.booleans(), min_size=letters, max_size=letters))
    mu = {x: [vector() for _ in range(n)] for x, has in zip(alphabet.letters, with_matrix) if has}
    return ev, LinearRepresentation(alphabet, QQ, vector(), mu, vector())


@settings(max_examples=100, deadline=None)
@given(_level_pairing_cases())
def test_level_pairing_matches_the_per_word_pairing(case):
    # prefix rows formed by levels and the former per-word recursion round
    # differently, by a few ulps of each term's absolute size
    ev, rep = case
    value = pair_series(ev, rep).value
    scale = _per_word_pairing(ev, rep, absolute=True)
    assert abs(value - _per_word_pairing(ev, rep)) <= 8 * (ev.bound + 1) * rep.dim * EPS * scale


def test_pairing_prefix_products_are_blocked_bit_for_bit(monkeypatch):
    # 2^11 prefix rows at the last length, as 4 blocks of 512 rows, as blocks
    # of 7 and as one product: the same bits, so BLAS may split none of them
    rep = minimize(representation_of("(x0.x1 + 2*x1.x0.x0 + x1.x1.x0.x1)*").embed_field())
    ev = chen_series({"x0": "1/(z+2)", "x1": "1/(3-z)"}, SegmentPath("1/5", "2/5"), 11)
    values = []
    for block in (_BLOCK, 7, 2**30):
        monkeypatch.setattr(ncfps._numeric, "_BLOCK", block)
        values.append(pair_series(ev, rep).value.hex())
    assert values[0] == values[1] == values[2]


# ---------------------------------------------------------------------------
# exact scalar differential equations


def test_scalar_ode_geometric_flow():
    rep = star_rep(X2, ("x1",))
    coeffs = derive_scalar_ode(rep, {"x1": "1/(1-z)"})
    z = Poly.gen("z")
    assert coeffs == [Poly.const("z", Fraction(1)), z - 1]
    assert scalar_ode_text(coeffs) == "(z-1)*y' + y = 0"


def test_scalar_ode_identity_flow():
    rep = star_rep(X1, ("x0",))
    coeffs = derive_scalar_ode(rep, {"x0": "1/z"})
    z = Poly.gen("z")
    assert coeffs == [Poly.const("z", Fraction(-1)), z]
    assert scalar_ode_text(coeffs) == "z*y' - y = 0"


def test_scalar_ode_dilog_flow():
    rep = star_rep(X2, ("x0", "x1"))
    assert rep.dim == 2
    coeffs = derive_scalar_ode(rep, POLYLOG)
    assert len(coeffs) - 1 == 2
    assert len(coeffs) - 1 <= rep.dim
    # numeric residual: derivatives from the state flow at 20 sample points
    worst = 0.0
    for z in np.linspace(0.15, 0.6, 20):
        ders = pair_ode_derivatives(rep, POLYLOG, SegmentPath("1/10", float(z)), 2, tol=1e-12)
        res = sum(float(p(Fraction(float(z)))) * ders[l] for l, p in enumerate(coeffs))
        worst = max(worst, abs(res))
    assert worst < 1e-6


def test_scalar_ode_state_derivatives_match_finite_differences():
    rep = star_rep(X2, ("x0", "x1"))

    def value_at(z):
        return pair_ode(rep, POLYLOG, SegmentPath("1/10", z), tol=1e-13)

    ders = pair_ode_derivatives(rep, POLYLOG, SegmentPath("1/10", "2/5"), 2, tol=1e-13)
    h = 1e-3
    y0 = value_at(0.4)
    yp = (value_at(0.4 + h) - value_at(0.4 - h)) / (2 * h)
    ypp = (value_at(0.4 + h) - 2 * y0 + value_at(0.4 - h)) / h**2
    assert abs(y0 - ders[0]) < 1e-5 * abs(ders[0])
    assert abs(yp - ders[1]) < 1e-5 * abs(ders[1])
    assert abs(ypp - ders[2]) < 1e-5 * abs(ders[2])


def test_scalar_ode_order_never_exceeds_dimension():
    for word, inputs in ((("x0",), {"x0": "1/z"}), (("x0", "x1"), POLYLOG), (("x1",), {"x1": "1/(1-z)"})):
        rep = star_rep(X2, word)
        coeffs = derive_scalar_ode(rep, inputs)
        assert len(coeffs) - 1 <= rep.dim
    # the zero series of dimension 0 satisfies y = 0
    assert derive_scalar_ode(rep_zero(X2, QQ), POLYLOG) == [Poly.const("z", Fraction(1))]


def test_scalar_ode_preconditions():
    rep = star_rep(X1, ("x0",))
    with pytest.raises(ValueError):
        derive_scalar_ode(rep, {"x0": InputFunction.exp()})
    over_t = LinearRepresentation(X1, QT, ((1,)), {}, ((1,)))
    with pytest.raises(ValueError):
        derive_scalar_ode(over_t, {"x0": "1/z"})


def _word_multiplier(inputs, l):
    """The paper's word multiplier Q_l over Q(z): Q_0 = 1 and
    Q_l = Q_{l-1} M + Q_{l-1}' with M = sum_x u_x x, the derivative taken
    coefficientwise.  Specialising the input symbols u_x to rational
    functions is a differential ring map, so the recursion runs on the
    specialised coefficients directly."""
    alphabet = Alphabet.from_letters(sorted(inputs))
    m = NCPolynomial(alphabet, QZ, {(x,): InputFunction.of(f).ratfun for x, f in inputs.items()})
    q = NCPolynomial.one(alphabet, QZ)
    for _ in range(l):
        q = q * m + NCPolynomial(alphabet, QZ, {w: c.derivative() for w, c in q.terms.items()})
    return q


def test_word_multiplier_hand_values():
    # Q_2 = M^2 + M' and, for one letter, Q_3 = u^3 x^3 + 3 u u' x^2 + u'' x
    q2 = _word_multiplier(POLYLOG, 2)
    assert q2.coeff(("x0", "x1")) == QZ.parse("1/(z*(1-z))")
    assert q2.coeff(("x1",)) == QZ.parse("1/(1-z)^2")
    assert q2.coeff(()) == QZ.zero and len(q2.terms) == 6
    q3 = _word_multiplier({"x0": "1/z"}, 3)
    expected = {("x0",) * 3: "1/z^3", ("x0",) * 2: "-3/z^3", ("x0",): "2/z^3"}
    assert q3.terms == {w: QZ.parse(f) for w, f in expected.items()}


def _word_sum_row(rep, inputs, l):
    """The l-th row as the sum over the words w of Q_l[w] . nu mu(w),
    skipping words with a letter outside mu."""
    row = [QZ.zero] * rep.dim
    for w, c in _word_multiplier(inputs, l).terms.items():
        if any(x not in rep.rows for x in w):
            continue
        vec = {j: QZ.coerce(v) for j, v in nonzeros(rep.nu).items()}
        for x in w:
            vec = vec_rows(QZ, vec, rep.rows[x])
        for j, b in vec.items():
            row[j] += c * b
    return tuple(row)


_RATIONAL = ("1/z", "1/(1-z)", "1/(z+1)", "(z+2)/(z^2+3)")


@st.composite
def _row_cases(draw):
    n = draw(st.integers(1, 3))

    def vector():
        return tuple(draw(st.lists(_ENTRY, min_size=n, max_size=n)))

    # a letter may lack a matrix or a control: only the letters with both count
    letters = draw(st.sampled_from((("x0",), ("x1",), ("x0", "x1"))))
    mu = {x: tuple(vector() for _ in range(n)) for x in letters}
    rep = LinearRepresentation(X2, QQ, vector(), mu, vector())
    controlled = draw(st.sampled_from((("x0",), ("x1",), ("x0", "x1"))))
    return rep, {x: draw(st.sampled_from(_RATIONAL)) for x in controlled}


@settings(max_examples=30, deadline=None)
@given(_row_cases())
def test_derivative_rows_match_the_word_sum(case):
    rep, inputs = case
    rows = _derivative_rows(rep, _exact_controls(inputs))
    for l in range(5):
        row, scale = next(rows)
        assert all(row.values())
        dense = (row.get(j, Poly.const("z", Fraction(0))) for j in range(rep.dim))
        assert tuple(RatFun(p, scale) for p in dense) == _word_sum_row(rep, inputs, l)


def _field_path_ode(rep, inputs):
    """The derivation over the field Q(z): the word-sum rows go into one
    echelon basis over Q(z), each with an identity column l past the row, so
    the first row that reduces to zero below the identity columns carries the
    kernel vector in them; the vector is cleared of denominators and made primitive with a
    positive top-order leading coefficient."""
    n = rep.dim
    basis = EchelonBasis(QZ, n)
    for l in range(n + 1):
        v = nonzeros(_word_sum_row(rep, inputs, l))
        v[n + l] = QZ.one
        red = basis.reduce(v)
        if all(j >= n for j in red):
            kernel = [red.get(n + k, QZ.zero) for k in range(l + 1)]
            break
        basis.insert(red)
    assert all(all(row.values()) for row in basis.rows)
    den = Poly.const("z", Fraction(1))
    for f in kernel:
        den = poly_lcm(den, f.den)
    polys = [(f * RatFun(den)).num for f in kernel]
    g = None
    for p in polys:
        if not p.is_zero():
            g = p if g is None else poly_gcd(g, p)
    polys = [p // g for p in polys]
    scale = 1 / Poly("z", [c for p in polys for c in p.coeffs]).content()
    polys = [p * scale for p in polys]
    return [-p for p in polys] if polys[-1].leading() < 0 else polys


@settings(max_examples=30, deadline=None)
@given(_row_cases())
def test_derive_ode_matches_the_field_path(case):
    rep, inputs = case
    assert derive_scalar_ode(rep, inputs) == _field_path_ode(rep, inputs)


def test_derive_ode_dimension_9_is_fast():
    rep = minimize(representation_of("(x0.x1.x1)* shuffle (x0.x0.x1)*"))
    assert rep.dim == 9
    start = time.perf_counter()
    coeffs = derive_scalar_ode(rep, POLYLOG)
    assert time.perf_counter() - start < 2.0
    assert len(coeffs) - 1 == 9 and coeffs[-1].degree == 23


def test_derive_ode_dimension_6_is_fast():
    rep = minimize(representation_of("(x0.x1)* shuffle (x0.x0.x1)*"))
    assert rep.dim == 6
    start = time.perf_counter()
    coeffs = derive_scalar_ode(rep, POLYLOG)
    assert time.perf_counter() - start < 1.0
    assert len(coeffs) - 1 == 6 and coeffs[-1].degree == 11


def test_scalar_ode_text_shapes():
    z = Poly.gen("z")
    one = Poly.const("z", Fraction(1))
    assert scalar_ode_text([one]) == "y = 0"
    assert scalar_ode_text([-one, z]) == "z*y' - y = 0"
    assert scalar_ode_text([Poly.const("z", Fraction(0)), one]) == "y' = 0"
    assert scalar_ode_text([z * z - 1, 2 * z, one * 0, one]) == "y''' + 2*z*y' + (z^2-1)*y = 0"
    five = [one * 0] * 5
    five[4] = one
    five[0] = -one
    assert scalar_ode_text(five) == "y^(4) - y = 0"
