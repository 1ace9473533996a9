"""End-to-end acceptance gate.

Eleven numbered criteria cover the algebraic identities, the dual bases, the
representation calculus, the analytic pipeline, and the independence test.
Each criterion emits one PASS/FAIL line on the real stdout (bypassing
capture) together with its runtime, and criteria with a runtime budget fail
when they exceed it.  Expected values come from closed forms or from
independent brute-force oracles computed in situ; none are tuned to the
implementation.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ncfps.automata import (
    LinearRepresentation,
    classify,
    equal,
    minimize,
    rep_conc,
    rep_polynomial,
    rep_shuffle,
    rep_star,
    rep_stuffle,
    rep_sum,
)
from ncfps.bases import basis_table, msr_check, phi_pi1
from ncfps.chen import (
    SegmentPath,
    chen_series,
    derive_scalar_ode,
    friedrichs_check,
    pair_ode,
    pair_ode_derivatives,
    pair_series,
)
from ncfps.diffring import independence_criterion
from ncfps.exprs import representation_of, series_of
from ncfps.linalg import dot, invert_matrix, mat_rows, nonzeros, vec_rows
from ncfps.rings import QQ, QT, QZ
from ncfps.series import NCPolynomial, TensorPoly, TruncatedSeries, unshuffle, unstuffle
from ncfps.words import Alphabet

X1 = Alphabet.x(1)
X2 = Alphabet.x(2)
Y = Alphabet.y()

POLYLOG = {"x0": "1/z", "x1": "1/(1-z)"}

_MODULE_T0 = time.perf_counter()

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    # Verdict lines must stay visible under output capture.
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"[criterion {num:2d}] {label}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        _emit(f"[criterion {num:2d}] {label}: FAIL (runtime {dt:.2f}s, budget {budget:.0f}s)")
        raise AssertionError(f"criterion {num} runtime {dt:.2f}s exceeds the {budget}s budget")
    _emit(f"[criterion {num:2d}] {label}: PASS ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# helpers


def braket(a, b):
    """Pairing of two polynomials: sum of products of matching coefficients."""
    acc = Fraction(0)
    for w in a.terms.keys() & b.terms.keys():
        acc += a.terms[w] * b.terms[w]
    return acc


def expansion(rep, bound):
    """All coefficients of the represented series up to the grade bound."""
    ring = rep.ring
    rows = {(): nonzeros(rep.nu)}
    terms = {}
    for w in sorted(rep.alphabet.words_up_to(bound), key=len):
        if w:
            m = rep.rows.get(w[-1])
            rows[w] = vec_rows(ring, rows[w[:-1]], m) if m is not None else {}
        c = dot(ring, rows[w], rep.eta)
        if c != ring.zero:
            terms[w] = c
    return NCPolynomial(rep.alphabet, ring, terms)


def random_rep(rng, alphabet, letters):
    dim = rng.randint(1, 3)

    def coeff():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))

    nu = tuple(coeff() for _ in range(dim))
    eta = tuple(coeff() for _ in range(dim))
    mu = {x: tuple(tuple(coeff() for _ in range(dim)) for _ in range(dim)) for x in letters}
    return LinearRepresentation(alphabet, QQ, nu, mu, eta)


def properized(rep):
    """Shift eta so that nu . eta = 0, making the series star-compatible."""
    s = dot(QQ, nonzeros(rep.nu), rep.eta)
    if s == 0:
        return rep
    j = next(i for i, v in enumerate(rep.nu) if v != 0)
    eta = list(rep.eta)
    eta[j] -= s / rep.nu[j]
    return LinearRepresentation(rep.alphabet, rep.ring, rep.nu, rep.mu, tuple(eta))


def conjugated(rep, rng):
    """A random change of basis; the represented series is unchanged."""
    n = rep.dim
    while True:
        t = [nonzeros(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
        try:
            tinv = invert_matrix(QQ, t)
            break
        except ValueError:
            continue

    def dense(row):
        return tuple(row.get(j, QQ.zero) for j in range(n))

    nu = dense(vec_rows(QQ, nonzeros(rep.nu), t))
    mu = {x: tuple(map(dense, mat_rows(QQ, mat_rows(QQ, tinv, m), t))) for x, m in rep.rows.items()}
    eta = tuple(dot(QQ, row, rep.eta) for row in tinv)
    return LinearRepresentation(rep.alphabet, rep.ring, nu, mu, eta)


def degree_one_star(alphabet, coeffs, bound=None):
    p = NCPolynomial(alphabet, QQ, {(x,): c for x, c in coeffs.items() if c != 0})
    if bound is not None:
        return TruncatedSeries(p, bound).star()
    return rep_star(rep_polynomial(p))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_shuffle_star_identity():
    with criterion(1, "shuffle identity of opposite-parameter stars over Q[t]", budget=5.0):
        left = representation_of("(-t^2*x0.x1)* shuffle (t^2*x0.x1)*", ring="Q[t]")
        right = representation_of("(-4*t^4*x0.x0.x1.x1)*", ring="Q[t]")
        assert equal(left, right)
        ls = series_of("(-t^2*x0.x1)* shuffle (t^2*x0.x1)*", 8, ring="Q[t]")
        rs = series_of("(-4*t^4*x0.x0.x1.x1)*", 8, ring="Q[t]")
        assert ls.poly.terms == rs.poly.terms  # every word of length <= 8


def test_criterion_02_stuffle_star_identities():
    with criterion(2, "quasi-shuffle star identities on the graded alphabet", budget=5.0):
        for a, b, s, r in [(1, 1, 1, 1), (2, 3, 1, 2), (-1, 1, 2, 2)]:
            lhs = degree_one_star(Y, {f"y{s}": Fraction(a)}, 8).stuffle(
                degree_one_star(Y, {f"y{r}": Fraction(b)}, 8)
            )
            combined = {}
            for y, c in ((f"y{s}", Fraction(a)), (f"y{r}", Fraction(b)), (f"y{s + r}", Fraction(a * b))):
                combined[y] = combined.get(y, Fraction(0)) + c
            rhs = degree_one_star(Y, combined, 8)
            assert lhs.poly.terms == rhs.poly.terms
        # Parametric case, brute-forced to weight 8: the cross term carries
        # coefficient a*b = -t^4, and the two quadratic terms cancel.
        t2 = QT.parse("t^2")
        lhs = TruncatedSeries(NCPolynomial(Y, QT, {("y2",): -t2}), 8).star().stuffle(
            TruncatedSeries(NCPolynomial(Y, QT, {("y2",): t2}), 8).star()
        )
        rhs = TruncatedSeries(NCPolynomial(Y, QT, {("y4",): -t2 * t2}), 8).star()
        assert lhs.poly.terms == rhs.poly.terms
        _emit(
            "[criterion  2] note: (-t^2*y2)* stuffle (t^2*y2)* matches (-t^4*y4)*"
            " through weight 8"
        )


def test_criterion_03_plane_star_identity():
    with criterion(3, "star of a degree-one sum is multiplicative under shuffle", budget=1.0):
        rng = random.Random(35)
        for _ in range(3):
            alpha = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
            beta = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
            left = rep_shuffle(
                degree_one_star(X2, {"x0": alpha[0], "x1": alpha[1]}),
                degree_one_star(X2, {"x0": beta[0], "x1": beta[1]}),
            )
            right = degree_one_star(X2, {"x0": alpha[0] + beta[0], "x1": alpha[1] + beta[1]})
            assert equal(left, right)


def test_criterion_04_dual_bases_and_diagonal_factorizations():
    with criterion(4, "dual bases are orthonormal and factor the diagonal", budget=30.0):
        tx = basis_table(X2, 5)
        xwords = [w for w in X2.words_up_to(5) if w]
        same_grade = 0
        for u in xwords:
            for v in xwords:
                expected = Fraction(1) if u == v else Fraction(0)
                assert braket(tx.S[u], tx.P[v]) == expected
                if len(u) == len(v):
                    same_grade += 1
        assert same_grade == 1364

        ty = basis_table(Y, 5)
        ywords = [w for w in Y.words_up_to(5) if w]
        assert len(ywords) == 31
        for u in ywords:
            for v in ywords:
                expected = Fraction(1) if u == v else Fraction(0)
                assert braket(ty.Sigma[u], ty.Pi[v]) == expected

        ok_x, report_x = msr_check(X2, 5, table=tx)
        ok_y, report_y = msr_check(Y, 5, table=ty)
        assert ok_x, report_x
        assert ok_y, report_y


def test_criterion_05_projector_intertwines_the_coproducts():
    with criterion(5, "primitive projector carries unshuffle to unstuffle"):
        zero = TensorPoly(Y, QQ, {})
        for w in Y.words_up_to(4):
            if not w:
                continue
            p = NCPolynomial(Y, QQ, {w: Fraction(1)})
            lhs = zero
            for (u, v), c in unshuffle(p).terms.items():
                lhs = lhs + TensorPoly.of(phi_pi1(u), phi_pi1(v)).scale(c)
            rhs = unstuffle(phi_pi1(p))
            assert (lhs - rhs).terms == {}


def test_criterion_06_constructors_match_expansion_on_random_pairs():
    with criterion(6, "five representation constructors vs series oracles, 50 pairs"):
        rng = random.Random(96)
        for _ in range(50):
            r1 = random_rep(rng, X2, ("x0", "x1"))
            r2 = random_rep(rng, X2, ("x0", "x1"))
            e1 = expansion(r1, 6)
            e2 = expansion(r2, 6)
            s1 = TruncatedSeries(e1, 6)
            s2 = TruncatedSeries(e2, 6)
            assert expansion(rep_sum(r1, r2), 6).terms == (s1 + s2).poly.terms
            assert expansion(rep_conc(r1, r2), 6).terms == (s1 * s2).poly.terms
            assert expansion(rep_shuffle(r1, r2), 6).terms == s1.shuffle(s2).poly.terms
            p1 = properized(r1)
            sp1 = TruncatedSeries(expansion(p1, 6), 6)
            assert expansion(rep_star(p1), 6).terms == sp1.star().poly.terms

            q1 = random_rep(rng, Y, ("y1", "y2"))
            q2 = random_rep(rng, Y, ("y1", "y2"))
            t1 = TruncatedSeries(expansion(q1, 6), 6)
            t2 = TruncatedSeries(expansion(q2, 6), 6)
            assert expansion(rep_stuffle(q1, q2), 6).terms == t1.stuffle(t2).poly.terms


def test_criterion_07_classification_and_similarity_invariance():
    with criterion(7, "Lie-type classification with similarity invariance", budget=5.0):
        fixtures = [
            (representation_of("(x0 + x1)*"), "exchangeable"),
            (rep_polynomial(NCPolynomial(X2, QQ, {("x0", "x1"): Fraction(1)})), "nilpotent"),
            (representation_of("(x0.x1)*"), "general"),
            (representation_of("x0* . x1 . (-1*x0)*"), "solvable"),
        ]
        for rep, expected in fixtures:
            assert classify(rep) == expected
        rng = random.Random(70)
        for i in range(20):
            rep, expected = fixtures[i % 4]
            assert classify(conjugated(rep, rng)) == expected


def test_criterion_08_iterated_integral_numerics():
    with criterion(8, "iterated integrals against closed forms", budget=10.0):
        half = Fraction(1, 2)
        ev = chen_series({"x0": "1"}, SegmentPath(0, half), 5, tol=1e-12)
        for n in range(6):
            assert abs(ev.coeff(("x0",) * n) - 0.5**n / math.factorial(n)) < 1e-9

        ev = chen_series({"x0": "1/z"}, SegmentPath(1, 2), 5, tol=1e-12)
        for n in range(6):
            assert abs(ev.coeff(("x0",) * n) - math.log(2) ** n / math.factorial(n)) < 1e-8

        defect = friedrichs_check(chen_series({"x0": "1/z"}, SegmentPath(1, 2), 4, tol=1e-12))
        assert defect < 1e-7

        li2 = chen_series(POLYLOG, SegmentPath(0, half), 2, tol=1e-12).coeff(("x0", "x1"))
        oracle = sum(Fraction(1, 2**n) / n**2 for n in range(1, 80))
        assert abs(li2 - float(oracle)) < 1e-8


def test_criterion_09_pairing_series_vs_ode():
    with criterion(9, "truncated pairing agrees with the ODE value within the tail"):
        half = Fraction(1, 2)
        fixtures = [
            ("x0*", {"x0": "1"}, SegmentPath(0, half), math.exp(0.5)),
            ("x1*", {"x1": "1/(1-z)"}, SegmentPath(0, half), 2.0),
            ("(x0.x1)*", POLYLOG, SegmentPath(Fraction(1, 10), half), None),
        ]
        for text, inputs, path, target in fixtures:
            rep = minimize(representation_of(text).embed_field())
            ev = chen_series(inputs, path, 10, tol=1e-11)
            value, tail, certified = pair_series(ev, rep)
            ode = pair_ode(rep, inputs, path, tol=1e-11)
            assert abs(value - ode) <= tail + 1e-6
            assert certified
            if target is not None:
                assert abs(value - target) < 1e-6
                assert abs(ode - target) < 1e-6


def _proportional_over_qz(coeffs, target_texts):
    got = [QZ.coerce(c) for c in coeffs]
    want = [QZ.parse(t) for t in target_texts]
    if len(got) != len(want):
        return False
    return all(got[i] * want[j] == got[j] * want[i] for i in range(len(got)) for j in range(len(got)))


def test_criterion_10_scalar_ode_derivation():
    with criterion(10, "scalar ODE derivation: exact order-1 forms and a checked order-2", budget=30.0):
        rep = minimize(representation_of("x1*").embed_field())
        coeffs = derive_scalar_ode(rep, {"x1": "1/(1-z)"})
        # (1-z) y' = y, as the proportionality class [-1, 1-z].
        assert len(coeffs) - 1 == 1 <= rep.dim
        assert _proportional_over_qz(coeffs, ["-1", "1-z"])

        rep = minimize(representation_of("x0*").embed_field())
        coeffs = derive_scalar_ode(rep, {"x0": "1/z"})
        assert len(coeffs) - 1 == 1 <= rep.dim
        assert _proportional_over_qz(coeffs, ["-1", "z"])

        rep = minimize(representation_of("(x0.x1)*").embed_field())
        coeffs = derive_scalar_ode(rep, POLYLOG)
        order = len(coeffs) - 1
        assert order <= 2 and order <= rep.dim
        worst = 0.0
        for j in range(20):
            z = Fraction(1, 10) + Fraction(j + 1, 50)
            ders = pair_ode_derivatives(rep, POLYLOG, SegmentPath(Fraction(1, 10), z), order, tol=1e-12)
            residual = sum(float(p(z)) * ders[l] for l, p in enumerate(coeffs))
            worst = max(worst, abs(residual))
        assert worst < 1e-6


def test_criterion_11_independence_of_input_families():
    with criterion(11, "differential independence of input families"):
        assert independence_criterion({"x0": "1/z", "x1": "1/(1-z)"}, "Q(z)")
        assert not independence_criterion({"x0": "1"}, "Q(z)")
        assert independence_criterion({"x0": "1"}, "Q")


def test_total_runtime_within_budget():
    elapsed = time.perf_counter() - _MODULE_T0
    _emit(f"[acceptance] total module runtime {elapsed:.2f}s (budget 120s)")
    assert elapsed < 120.0
