"""Series core: products, coproducts, truncated fixed points, text form.

Oracles:

* shuffle by explicit position-subset interleaving;
* quasi-shuffle by an independent recursion peeling LAST letters (the
  implementation peels first letters);
* every coproduct checked as the adjoint of its product under the pairing;
* products over Q and Q[t] against sums of one ring product at a time, and
  star against a star on ring elements (``oracle_star``).
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfps.rings import QQ, QT, RR, Poly, ring_named
from ncfps.series import (
    NCPolynomial,
    TensorPoly,
    TruncatedSeries,
    conc_words,
    deconcat,
    parse_series_text,
    series_text,
    shuffle_words,
    stuffle_words,
    unshuffle,
    unstuffle,
    x_poly_to_y,
    y_poly_to_x,
)
from ncfps.words import Alphabet, parse_word

X2 = Alphabet.x(2)
Y = Alphabet.y()


def oracle_shuffle(u, v):
    out = {}
    n = len(u) + len(v)
    for pos in combinations(range(n), len(u)):
        posset = set(pos)
        w = []
        iu = iv = 0
        for i in range(n):
            if i in posset:
                w.append(u[iu])
                iu += 1
            else:
                w.append(v[iv])
                iv += 1
        t = tuple(w)
        out[t] = out.get(t, 0) + 1
    return out


def oracle_stuffle_idx(u, v):
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}

    def bump(w, c):
        out[w] = out.get(w, 0) + c

    for w, c in oracle_stuffle_idx(u[:-1], v).items():
        bump(w + (u[-1],), c)
    for w, c in oracle_stuffle_idx(u, v[:-1]).items():
        bump(w + (v[-1],), c)
    for w, c in oracle_stuffle_idx(u[:-1], v[:-1]).items():
        bump(w + (u[-1] + v[-1],), c)
    return out


def oracle_stuffle(u, v):
    idx = oracle_stuffle_idx(tuple(int(c[1:]) for c in u), tuple(int(c[1:]) for c in v))
    return {tuple(f"y{k}" for k in w): c for w, c in idx.items()}


def qp(text, alphabet=X2, ring=QQ):
    return parse_series_text(text, alphabet, ring)


def rand_poly(rng, alphabet, max_grade=3, nterms=3):
    words = alphabet.words_up_to(max_grade)
    terms = {}
    for _ in range(nterms):
        w = rng.choice(words)
        terms[w] = terms.get(w, 0) + Fraction(rng.randrange(-3, 4))
    return NCPolynomial(alphabet, QQ, terms)


class TestWordKernels:
    def test_shuffle_against_interleaving_oracle(self):
        for u, v in [
            (("x0", "x1"), ("x0",)),
            (("x0",), ("x1", "x1")),
            (("x0", "x1"), ("x1", "x0")),
            ((), ("x0", "x1")),
            (("x0", "x0"), ("x0", "x0")),
        ]:
            assert dict(shuffle_words(u, v)) == oracle_shuffle(u, v)

    def test_shuffle_fixed_example(self):
        got = dict(shuffle_words(parse_word("x0.x1"), parse_word("x0")))
        assert got == {
            parse_word("x0.x0.x1"): 2,
            parse_word("x0.x1.x0"): 1,
        }

    def test_stuffle_against_last_letter_oracle(self):
        words = Y.words_up_to(4, include_empty=True)
        rng = random.Random(2)
        for _ in range(60):
            u, v = rng.choice(words), rng.choice(words)
            assert dict(stuffle_words(u, v)) == oracle_stuffle(u, v)

    def test_stuffle_fixed_example(self):
        got = dict(stuffle_words(parse_word("y2"), parse_word("y2.y1")))
        assert got == {
            parse_word("y2.y2.y1"): 2,
            parse_word("y2.y1.y2"): 1,
            parse_word("y4.y1"): 1,
            parse_word("y2.y3"): 1,
        }

    def test_stuffle_rejects_x_letters(self):
        with pytest.raises(ValueError):
            stuffle_words(("x0",), ("x1",))


class TestNCPolynomial:
    def test_construction_prunes_zeros(self):
        p = NCPolynomial(X2, QQ, {("x0",): Fraction(0), ("x1",): 2})
        assert p.support() == [("x1",)]
        assert p.coeff(("x0",)) == 0

    def test_concatenation(self):
        p = qp("x0 + x1")
        q = qp("x0 - x1")
        assert p * q == qp("x0.x0 - x0.x1 + x1.x0 - x1.x1")

    def test_shuffle_commutative_associative(self):
        rng = random.Random(9)
        for _ in range(15):
            p, q, r = (rand_poly(rng, X2) for _ in range(3))
            assert p.shuffle(q) == q.shuffle(p)
            assert p.shuffle(q).shuffle(r) == p.shuffle(q.shuffle(r))

    def test_stuffle_commutative_associative(self):
        rng = random.Random(10)
        for _ in range(15):
            p, q, r = (rand_poly(rng, Y) for _ in range(3))
            assert p.stuffle(q) == q.stuffle(p)
            assert p.stuffle(q).stuffle(r) == p.stuffle(q.stuffle(r))

    def test_products_distribute(self):
        rng = random.Random(11)
        for _ in range(10):
            p, q, r = (rand_poly(rng, X2) for _ in range(3))
            assert p.shuffle(q + r) == p.shuffle(q) + p.shuffle(r)
            assert p * (q + r) == p * q + p * r

    def test_unit_words(self):
        one = NCPolynomial.one(X2, QQ)
        p = qp("2*x0.x1 - x1")
        assert one.shuffle(p) == p
        assert one * p == p and p * one == p

    def test_quotients(self):
        p = qp("1*x0.x1 + 3*x0.x0.x1 - 2*x1.x0")
        assert p.left_quotient(("x0",)) == qp("x1 + 3*x0.x1")
        assert p.right_quotient(("x1",)) == qp("x0 + 3*x0.x0")
        assert p.right_quotient(("x0",)) == qp("-2*x1")

    def test_schuetzenberger_reconstruction(self):
        rng = random.Random(12)
        for _ in range(10):
            p = rand_poly(rng, X2, max_grade=4, nterms=5)
            rebuilt = NCPolynomial(X2, QQ, {(): p.constant_term()})
            for x in X2.letters:
                rebuilt = rebuilt + NCPolynomial.word(X2, QQ, (x,)) * p.left_quotient((x,))
            assert rebuilt == p

    def test_pairing(self):
        p = qp("2*x0.x1 + x1")
        q = qp("3*x0.x1 - x1")
        assert p.pair(q) == 2 * 3 - 1

    def test_ring_mismatch_rejected(self):
        p = qp("x0")
        q = parse_series_text("x0", X2, QT)
        with pytest.raises(ValueError):
            p + q


class TestCoproducts:
    def test_deconcat_example(self):
        d = deconcat(qp("x0.x1"))
        assert d.coeff((), ("x0", "x1")) == 1
        assert d.coeff(("x0",), ("x1",)) == 1
        assert d.coeff(("x0", "x1"), ()) == 1
        assert d.coeff(("x1",), ("x0",)) == 0

    def test_unshuffle_letters_primitive(self):
        d = unshuffle(qp("x0"))
        assert d == TensorPoly(
            X2, QQ, {(("x0",), ()): 1, ((), ("x0",)): 1}
        )

    def test_unstuffle_letter_example(self):
        d = unstuffle(parse_series_text("y3", Y, QQ))
        assert d.coeff(("y3",), ()) == 1
        assert d.coeff((), ("y3",)) == 1
        assert d.coeff(("y1",), ("y2",)) == 1
        assert d.coeff(("y2",), ("y1",)) == 1
        assert d.coeff(("y1",), ("y1",)) == 0

    def test_deconcat_adjoint_to_concatenation(self):
        words = X2.words_up_to(3)
        for u in words:
            for v in words:
                uv = NCPolynomial.word(X2, QQ, u) * NCPolynomial.word(X2, QQ, v)
                for w in X2.words_up_to(4):
                    lhs = uv.coeff(w)
                    rhs = deconcat(NCPolynomial.word(X2, QQ, w)).coeff(u, v)
                    assert lhs == rhs

    def test_unshuffle_adjoint_to_shuffle(self):
        words = X2.words_up_to(3)
        for u in words:
            for v in words:
                sh = NCPolynomial.word(X2, QQ, u).shuffle(NCPolynomial.word(X2, QQ, v))
                for w in X2.words_up_to(4):
                    assert sh.coeff(w) == unshuffle(NCPolynomial.word(X2, QQ, w)).coeff(u, v)

    def test_unstuffle_adjoint_to_stuffle(self):
        words = Y.words_up_to(3)
        for u in words:
            for v in words:
                st = NCPolynomial.word(Y, QQ, u).stuffle(NCPolynomial.word(Y, QQ, v))
                for w in Y.words_up_to(5):
                    assert st.coeff(w) == unstuffle(NCPolynomial.word(Y, QQ, w)).coeff(u, v)

    def test_unshuffle_is_concatenation_morphism(self):
        rng = random.Random(13)
        for _ in range(8):
            p, q = rand_poly(rng, X2, 2), rand_poly(rng, X2, 2)
            assert unshuffle(p * q) == unshuffle(p).mul(unshuffle(q))

    def test_unstuffle_is_concatenation_morphism(self):
        rng = random.Random(14)
        for _ in range(8):
            p, q = rand_poly(rng, Y, 3), rand_poly(rng, Y, 3)
            assert unstuffle(p * q) == unstuffle(p).mul(unstuffle(q))

    def test_deconcat_is_shuffle_morphism(self):
        rng = random.Random(15)
        for _ in range(6):
            p, q = rand_poly(rng, X2, 2), rand_poly(rng, X2, 2)
            lhs = deconcat(p.shuffle(q))
            rhs = deconcat(p).mul(deconcat(q), shuffle_words, shuffle_words)
            assert lhs == rhs


class TestTruncatedSeries:
    def test_star_of_all_letters(self):
        p = qp("x0 + x1")
        s = TruncatedSeries(p, 3).star()
        for w in X2.words_up_to(3):
            assert s.coeff(w) == 1

    def test_star_fixed_point_identity(self):
        rng = random.Random(16)
        for _ in range(8):
            p = rand_poly(rng, X2, 2)
            p = p - NCPolynomial(X2, QQ, {(): p.constant_term()})  # proper part
            s = TruncatedSeries(p, 4).star()
            t = TruncatedSeries(NCPolynomial.one(X2, QQ), 4) + TruncatedSeries(p, 4) * s
            assert s == t

    def test_star_with_constant_term(self):
        p = qp("1/2 + x0")
        s = TruncatedSeries(p, 2).star()
        # constant solves t = 1 + t/2
        assert s.coeff(()) == 2
        # grade-1 component: t1 = (1/2)*(x0*t0) doubled by the resolvent
        assert s.coeff(("x0",)) == 4

    def test_star_requires_unit(self):
        p = parse_series_text("(t) + x0", X2, QT)
        with pytest.raises(ValueError):
            TruncatedSeries(p, 2).star()
        one = parse_series_text("1 + x0", X2, QQ)
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries(one, 2).star()

    def test_exp_of_letter(self):
        e = TruncatedSeries(qp("x0"), 4).exp()
        assert e.coeff(()) == 1
        assert e.coeff(("x0",) * 3) == Fraction(1, 6)
        assert e.coeff(("x0",) * 4) == Fraction(1, 24)
        assert e.coeff(("x1",)) == 0

    def test_exp_log_inverse(self):
        rng = random.Random(17)
        for alphabet in (X2, Y):
            for _ in range(6):
                p = rand_poly(rng, alphabet, 3)
                p = p - NCPolynomial(alphabet, QQ, {(): p.constant_term()})
                s = TruncatedSeries(p, 4)
                assert s.exp().log() == s
                assert (s + NCPolynomial.one(alphabet, QQ)).log().exp() == s + NCPolynomial.one(alphabet, QQ)

    def test_bounds_propagate(self):
        a = TruncatedSeries(qp("x0"), 5)
        b = TruncatedSeries(qp("x1"), 3)
        assert (a + b).bound == 3
        assert (a * b).bound == 3
        assert a.shuffle(b).bound == 3

    def test_quotient_bound_bookkeeping(self):
        s = TruncatedSeries(qp("x0.x1 + x0.x0"), 2)
        q = s.left_quotient(("x0",))
        assert q.bound == 1
        assert q.coeff(("x1",)) == 1
        with pytest.raises(ValueError):
            s.left_quotient(("x0", "x1", "x0"))

    def test_coeff_beyond_bound_rejected(self):
        s = TruncatedSeries(qp("x0"), 2)
        with pytest.raises(ValueError):
            s.coeff(("x0",) * 3)


class TestAlphabetCorrespondence:
    def test_letterwise(self):
        p = parse_series_text("y2 + 2*y1.y1", Y, QQ)
        q = y_poly_to_x(p, X2)
        assert q == qp("x0.x1 + 2*x1.x1")

    def test_kernel_words_drop(self):
        p = qp("x0.x1 + x1.x0 + 3*x0")
        q = x_poly_to_y(p, Y)
        assert q == parse_series_text("y2", Y, QQ)

    def test_adjointness_of_substitution_pair(self):
        # <x_to_y p, q>_Y = <p, y_to_x q>_X on word bases
        for g in range(5):
            for xw in X2.words_of_grade(g):
                p = NCPolynomial.word(X2, QQ, xw)
                for yw in Y.words_up_to(4, include_empty=True):
                    q = NCPolynomial.word(Y, QQ, yw)
                    lhs = x_poly_to_y(p, Y).pair(q)
                    rhs = p.pair(y_poly_to_x(q, X2))
                    assert lhs == rhs


class TestTextForm:
    def test_format_example(self):
        p = NCPolynomial(X2, QQ, {("x0", "x1"): 1, ("x1", "x0"): Fraction(-1, 2)})
        assert series_text(p) == "1*x0.x1 - 1/2*x1.x0"

    def test_constant_and_zero(self):
        assert series_text(NCPolynomial.zero(X2, QQ)) == "0"
        assert series_text(NCPolynomial.one(X2, QQ)) == "1"
        p = NCPolynomial(X2, QQ, {(): Fraction(-3, 2), ("x0",): 1})
        assert series_text(p) == "-3/2 + 1*x0"

    def test_round_trip_rationals(self):
        rng = random.Random(18)
        for alphabet in (X2, Y):
            for _ in range(20):
                p = rand_poly(rng, alphabet, 3, nterms=4)
                assert parse_series_text(series_text(p), alphabet, QQ) == p

    def test_round_trip_polynomial_and_ratfun_rings(self):
        qt = ring_named("Q[t]")
        p = parse_series_text("(t^2-1)*x0 + 2*x1 - 1*x0.x0", X2, qt)
        assert series_text(p) == "(t^2-1)*x0 + 2*x1 - 1*x0.x0"
        assert parse_series_text(series_text(p), X2, qt) == p
        qz = ring_named("Q(z)")
        f = parse_series_text("(1)/(z)*x0 + (z^2-1)*x1", X2, qz)
        assert series_text(f) == "(1)/(z)*x0 + (z^2-1)*x1"
        assert parse_series_text(series_text(f), X2, qz) == f

    def test_bare_word_and_signs(self):
        assert qp("x0.x1") == qp("1*x0.x1")
        assert qp("-x0 + 2") == qp("2 - x0")
        assert qp("- x0") == qp("0 - x0")
        assert qp("2*1") == qp("2")

    def test_parse_rejections(self):
        for bad in ["", "x0 x1", "2**x0", "*x0", "x0 +", "(t²)*x0", "x0,x1"]:
            with pytest.raises(ValueError):
                qp(bad)


# ---------------------------------------------------------------------------
# bounded products: the grade-bucketed loops against the unbounded product

X3 = Alphabet.x(3)
_ALPHABETS = {"X2": (X2, 4), "X3": (X3, 3), "Y": (Y, 4)}


def _coeffs(ring):
    ints = st.integers(-2, 2)
    if ring == QQ:
        return ints.map(Fraction)
    return st.tuples(ints, ints).map(lambda ab: Poly("t", ab))


@st.composite
def _poly(draw, alphabet, ring, max_grade):
    words = st.sampled_from(alphabet.words_up_to(max_grade))
    terms = draw(st.dictionaries(words, _coeffs(ring), max_size=6))
    return NCPolynomial(alphabet, ring, terms)


@st.composite
def _poly_pairs(draw):
    """(p, q) over one of X2, X3, Y and one of Q, Q[t]; q shares a term with
    p, negated, half the time, so sums can cancel."""
    alphabet, max_grade = _ALPHABETS[draw(st.sampled_from(sorted(_ALPHABETS)))]
    ring = draw(st.sampled_from([QQ, QT]))
    p = draw(_poly(alphabet, ring, max_grade))
    q = draw(_poly(alphabet, ring, max_grade))
    if p.terms and draw(st.booleans()):
        w = draw(st.sampled_from(sorted(p.terms, key=alphabet.word_key)))
        q = q + NCPolynomial(alphabet, ring, {w: -p.terms[w]})
    return p, q


def _kernels(alphabet):
    out = [conc_words, shuffle_words]
    if alphabet.kind == "Y":
        out.append(stuffle_words)
    return out


@settings(max_examples=80, deadline=None)
@given(_poly_pairs(), st.integers(0, 7))
def test_bounded_word_product_is_truncated_product(pair, bound):
    p, q = pair
    for kernel in _kernels(p.alphabet):
        assert p._word_product(q, kernel, bound) == p._word_product(q, kernel).truncate(bound)


@st.composite
def _tensor(draw, alphabet, ring, max_grade):
    words = st.sampled_from(alphabet.words_up_to(max_grade))
    terms = draw(st.dictionaries(st.tuples(words, words), _coeffs(ring), max_size=5))
    return TensorPoly(alphabet, ring, terms)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 6))
def test_bounded_tensor_product_drops_left_grades_above_bound(data, bound):
    alphabet, max_grade = _ALPHABETS[data.draw(st.sampled_from(sorted(_ALPHABETS)))]
    ring = data.draw(st.sampled_from([QQ, QT]))
    a = data.draw(_tensor(alphabet, ring, max_grade - 1))
    b = data.draw(_tensor(alphabet, ring, max_grade - 1))
    g = alphabet.word_grade
    for kernel in _kernels(alphabet):
        full = a.mul(b, kernel, conc_words)
        kept = TensorPoly(alphabet, ring, {k: c for k, c in full.terms.items() if g(k[0]) <= bound})
        assert a.mul(b, kernel, conc_words, bound) == kept


@settings(max_examples=80, deadline=None)
@given(_poly_pairs(), st.integers(0, 7))
def test_arithmetic_results_pass_the_public_constructor(pair, bound):
    p, q = pair
    results = [p + q, p - q, -p, p.scale(3), p.truncate(bound), p.scale(0)]
    results += [p._word_product(q, kernel, b) for kernel in _kernels(p.alphabet) for b in (None, bound)]
    for r in results:
        for w, c in r.terms.items():
            p.alphabet.validate_word(w)
            assert c
            assert r.ring.coerce(c) == c and type(c) is type(r.ring.zero)
        assert NCPolynomial(r.alphabet, r.ring, dict(r.terms)) == r
    assert (p - p).is_zero()


def test_public_constructor_validates_words_and_coefficients():
    with pytest.raises(ValueError):
        NCPolynomial(X2, QQ, {("x2",): 1})
    with pytest.raises(ValueError):
        NCPolynomial(Y, QQ, {("x0",): 1})
    with pytest.raises(TypeError):
        NCPolynomial(X2, QQ, {("x0",): QT.gen()})
    with pytest.raises(TypeError):
        NCPolynomial(X2, QT, {("x0",): Poly("s", (0, 1))})
    assert NCPolynomial(X2, QQ, {("x0",): 0, ("x1",): 2}).terms == {("x1",): Fraction(2)}


def test_public_tensor_constructor_validates_both_words():
    for key in ((("x2",), ()), ((), ("x0", "x2")), (("y1",), ("x0",))):
        with pytest.raises(ValueError):
            TensorPoly(X2, QQ, {key: 1})
    with pytest.raises(ValueError):
        TensorPoly(Y, QQ, {((), ("x0",)): 1})
    assert TensorPoly(X2, QQ, {(("x2",), ()): 0}) == TensorPoly.zero(X2, QQ)


def test_polynomial_plus_or_minus_a_scalar_moves_the_constant_term():
    p = qp("1 + 2*x0")
    assert p + 1 == 1 + p == qp("2 + 2*x0")
    assert p - 1 == qp("2*x0")
    assert 1 - p == qp("-2*x0")
    assert p + Fraction(1, 2) == qp("3/2 + 2*x0")
    assert p - Fraction(3, 2) == qp("-1/2 + 2*x0")


def test_tensor_negation_subtraction_truncation_repr_and_foreign_equality():
    t = TensorPoly(X2, QQ, {(("x0",), ("x1",)): Fraction(1, 2), ((), ("x0", "x1")): -3, (("x1",), ()): 2})
    assert repr(t) == "TensorPoly(-3*1(x)x0.x1 + 1/2*x0(x)x1 + 2*x1(x)1)"
    assert repr(-t) == "TensorPoly(3*1(x)x0.x1 + -1/2*x0(x)x1 + -2*x1(x)1)"
    assert repr(TensorPoly.zero(X2, QQ)) == "TensorPoly(0)"
    low = t.truncate(1)
    assert low.terms == {(("x1",), ()): 2}
    assert (t - low).terms == {(("x0",), ("x1",)): Fraction(1, 2), ((), ("x0", "x1")): -3}
    assert (t - t).terms == {} and (t + -t).terms == {}
    assert t.truncate(0) == TensorPoly.zero(X2, QQ)
    assert t != NCPolynomial.zero(X2, QQ) and t != 1 and not t == "t"


def test_truncated_right_quotient_reads_the_word_suffixes():
    s = TruncatedSeries(qp("1 + 3*x1 + 2*x0.x1 - 1*x1.x1 + 1/2*x0.x0.x1"), 3)
    assert s.right_quotient(("x1",)) == TruncatedSeries(qp("3 + 2*x0 - 1*x1 + 1/2*x0.x0"), 2)
    assert s.right_quotient(("x0", "x1")) == TruncatedSeries(qp("2 + 1/2*x0"), 1)
    assert s.right_quotient(()) == s
    with pytest.raises(ValueError):
        TruncatedSeries(qp("x0"), 1).right_quotient(("x0", "x1"))


def test_log_of_exp_at_bound_10_is_fast():
    # pairing every term of one factor with every term of the other and
    # discarding the pairs above the bound took about 3.7 s here
    x = NCPolynomial(X2, QQ, {("x0",): 1, ("x1",): 1})
    s = TruncatedSeries(x, 10).exp()
    t0 = time.perf_counter()
    assert s.log() == TruncatedSeries(x, 10)
    assert time.perf_counter() - t0 < 2.0


# ---------------------------------------------------------------------------
# exact products on integer numerators and exp/log by Horner's rule, against
# Fraction-by-Fraction sums over the brute-force kernels and the power sums


def _conc_oracle(u, v):
    return {u + v: 1}


_ORACLES = {conc_words: _conc_oracle, shuffle_words: oracle_shuffle, stuffle_words: oracle_stuffle}


def brute_product(left, right, oracle, grade, ring, bound=None):
    """Coefficient dict of a word product: c_u * c_v * m summed one term at a
    time over the oracle's expansion of every pair of words."""
    out = {}
    for u, cu in left.items():
        for v, cv in right.items():
            for w, m in oracle(u, v).items():
                if bound is None or grade(w) <= bound:
                    out[w] = out.get(w, ring.zero) + cu * cv * m
    return {w: c for w, c in out.items() if c}


def power_sum_exp(p, bound):
    """exp(S) as the sum of S^k / k! to the bound, S = p."""
    ring, grade = p.ring, p.alphabet.word_grade
    acc, term = {(): ring.one}, {(): ring.one}
    for k in range(1, bound + 1):
        term = {w: c * Fraction(1, k) for w, c in brute_product(term, p.terms, _conc_oracle, grade, ring, bound).items()}
        for w, c in term.items():
            acc[w] = acc.get(w, ring.zero) + c
    return NCPolynomial(p.alphabet, ring, acc)


def power_sum_log(p, bound):
    """log(1 + D) as the sum of (-1)^(k-1) D^k / k to the bound, 1 + D = p."""
    ring, grade = p.ring, p.alphabet.word_grade
    d = {w: c for w, c in p.terms.items() if w}
    acc, term = {}, {(): ring.one}
    for k in range(1, bound + 1):
        term = brute_product(term, d, _conc_oracle, grade, ring, bound)
        for w, c in term.items():
            acc[w] = acc.get(w, ring.zero) + c * Fraction((-1) ** (k - 1), k)
    return NCPolynomial(p.alphabet, ring, acc)


# denominators include distinct primes, so operands rarely share one
_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 11, 13]))
# Q[t] coefficients of both signs, of t-degree up to 3, with such denominators
_QT = st.lists(_FRACTIONS, max_size=4).map(lambda cs: Poly("t", cs))


@st.composite
def _proper_series(draw):
    """(alphabet, ring, p): p has a few terms of grade 1 to 3 and no constant
    term, over one of X2, X3, Y and one of Q, Q[t]."""
    alphabet = draw(st.sampled_from([X2, X3, Y]))
    ring = draw(st.sampled_from([QQ, QT]))
    words = st.sampled_from(alphabet.words_up_to(3, include_empty=False))
    terms = draw(st.dictionaries(words, _FRACTIONS if ring == QQ else _QT, max_size=4))
    return alphabet, ring, NCPolynomial(alphabet, ring, terms)


@settings(max_examples=60, deadline=None)
@given(_proper_series(), st.integers(0, 7))
def test_horner_exp_and_log_match_the_power_sums(case, bound):
    alphabet, ring, p = case
    one = NCPolynomial.one(alphabet, ring)
    e = TruncatedSeries(p, bound).exp()
    assert e.bound == bound and e.poly == power_sum_exp(p.truncate(bound), bound)
    lg = TruncatedSeries(one + p, bound).log()
    assert lg.bound == bound and lg.poly == power_sum_log((one + p).truncate(bound), bound)


def test_exp_and_log_at_bound_0():
    p = qp("1/2*x0 - 3*x1.x0")
    assert TruncatedSeries(p, 0).exp() == TruncatedSeries(NCPolynomial.one(X2, QQ), 0)
    assert TruncatedSeries(p + 1, 0).log() == TruncatedSeries(NCPolynomial.zero(X2, QQ), 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([X2, X3, Y]), st.dictionaries(st.integers(0, 11), st.floats(-2, 2), max_size=5), st.integers(1, 7))
def test_float_log_matches_the_power_sum(alphabet, picks, bound):
    # the float path of chen.primitive_log_check: rounding differs between
    # Horner's rule and the power sum, so compare to 1e-12 of the largest
    # coefficient
    words = alphabet.words_up_to(3, include_empty=False)
    terms = {words[i % len(words)]: c for i, c in picks.items()}
    terms[()] = 1.0
    p = NCPolynomial(alphabet, RR, terms)
    got = TruncatedSeries(p, bound).log().poly
    want = power_sum_log(p.truncate(bound), bound)
    scale = max([1.0] + [abs(c) for c in want.terms.values()])
    for w in set(got.terms) | set(want.terms):
        assert abs(got.coeff(w) - want.coeff(w)) <= 1e-12 * scale


def test_float_exp_and_log_round_as_horner_on_ring_elements():
    # chen.primitive_log_check prints a float log; its digits stay those of
    # Horner's rule written with ring-element products.  Uniform floats, not
    # hypothesis's simple ones, make the order of additions show.
    rng = random.Random(5)
    for alphabet in (X2, X3, Y):
        words = alphabet.words_up_to(3, include_empty=False)
        for _ in range(30):
            s = NCPolynomial(alphabet, RR, {rng.choice(words): rng.uniform(-2, 2) for _ in range(rng.randint(0, 6))})
            n = rng.randint(0, 7)
            g = NCPolynomial.one(alphabet, RR)
            for k in range(n, 0, -1):
                g = s.scale(Fraction(1, k))._word_product(g, conc_words, n - k + 1) + 1
            assert TruncatedSeries(s, n).exp().poly.terms == g.terms
            h = NCPolynomial.zero(alphabet, RR)
            for k in range(n, 0, -1):
                h = s._word_product(h, conc_words, n - k) + Fraction((-1) ** (k - 1), k)
            assert TruncatedSeries(s + 1, n).log().poly.terms == s._word_product(h, conc_words, n).terms


@st.composite
def _rational_pairs(draw):
    """(p, q) over Q on one of X2, X3, Y, coefficients with small prime
    denominators; either may be empty."""
    alphabet, max_grade = _ALPHABETS[draw(st.sampled_from(sorted(_ALPHABETS)))]
    words = st.sampled_from(alphabet.words_up_to(max_grade, include_empty=True))
    p, q = (NCPolynomial(alphabet, QQ, draw(st.dictionaries(words, _FRACTIONS, max_size=5))) for _ in range(2))
    return p, q


def _assert_rational(r):
    for c in r.terms.values():
        assert type(c) is Fraction and c


@settings(max_examples=80, deadline=None)
@given(_rational_pairs(), st.integers(0, 7))
def test_products_over_q_match_the_fraction_sums(pair, bound):
    p, q = pair
    g = p.alphabet.word_grade
    for kernel in _kernels(p.alphabet):
        oracle = _ORACLES[kernel]
        for b in (None, bound):
            got = p._word_product(q, kernel, b)
            _assert_rational(got)
            assert got.terms == brute_product(p.terms, q.terms, oracle, g, QQ, b)


def test_products_over_q_with_coprime_denominators_and_empty_operands():
    p = qp("1/3*x0 + 2/5*x1.x0")
    q = qp("1/7*x1 - 5/11*x0.x0")
    zero = NCPolynomial.zero(X2, QQ)
    assert p * q == qp("1/21*x0.x1 - 5/33*x0.x0.x0 + 2/35*x1.x0.x1 - 2/11*x1.x0.x0.x0")
    assert (p * q).coeff(("x0", "x1")) == Fraction(1, 21)
    for r in (p * zero, zero * p, p.shuffle(zero), zero.shuffle(zero)):
        assert r.is_zero()
    assert TensorPoly.of(p, q).mul(TensorPoly.zero(X2, QQ)) == TensorPoly.zero(X2, QQ)
    # a product whose numerators cancel over the common denominator
    assert (p * qp("1/2")).shuffle(qp("2")) == p


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 6))
def test_tensor_products_over_q_match_the_fraction_sums(data, bound):
    alphabet, max_grade = _ALPHABETS[data.draw(st.sampled_from(sorted(_ALPHABETS)))]
    words = st.sampled_from(alphabet.words_up_to(max_grade - 1, include_empty=True))
    a, b = (
        TensorPoly(alphabet, QQ, data.draw(st.dictionaries(st.tuples(words, words), _FRACTIONS, max_size=4)))
        for _ in range(2)
    )
    g = alphabet.word_grade
    for kernel in _kernels(alphabet):
        for bd in (None, bound):
            want = {}
            for (u1, v1), c1 in a.terms.items():
                for (u2, v2), c2 in b.terms.items():
                    for wu, mu in _ORACLES[kernel](u1, u2).items():
                        if bd is not None and g(wu) > bd:
                            continue
                        for wv, mv in _conc_oracle(v1, v2).items():
                            want[(wu, wv)] = want.get((wu, wv), Fraction(0)) + c1 * c2 * mu * mv
            got = a.mul(b, kernel, conc_words, bd)
            assert got.terms == {k: c for k, c in want.items() if c}
            assert all(type(c) is Fraction for c in got.terms.values())


def _oracle_unshuffle(w):
    out = {}
    for r in range(len(w) + 1):
        for pos in combinations(range(len(w)), r):
            key = (tuple(w[i] for i in pos), tuple(w[i] for i in range(len(w)) if i not in pos))
            out[key] = out.get(key, 0) + 1
    return out


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(X2.words_up_to(6)), _FRACTIONS, max_size=6))
def test_unshuffle_over_q_matches_the_fraction_sum(terms):
    p = NCPolynomial(X2, QQ, terms)
    want = {}
    for w, c in p.terms.items():
        for key, m in _oracle_unshuffle(w).items():
            want[key] = want.get(key, Fraction(0)) + c * m
    got = unshuffle(p)
    assert got.terms == {k: c for k, c in want.items() if c}
    assert all(type(c) is Fraction for c in got.terms.values())


def test_coproduct_kernels_keep_no_module_cache():
    # their memos live for one coproduct call; the Eulerian projector calls
    # the quasi-shuffle kernel on its own
    from ncfps import series

    for kernel in (series._deconcat_word, series._unshuffle_word, series._unstuffle_word):
        assert not hasattr(kernel, "cache_info")
    w = parse_word("y2.y1.y3")
    assert dict(series._unstuffle_word(w)) == dict(series._unstuffle_word(w, {}))
    assert unstuffle(NCPolynomial.word(Y, QQ, w)).terms == dict(series._unstuffle_word(w))


def test_dense_round_trip_at_bound_10_is_fast():
    # on a 2-CPU host with Python 3.11 the power sums over Fractions took
    # about 0.5 s, Horner's rule on integer numerators under 0.1 s
    rng = random.Random(23)
    words = [("x0",), ("x1",)] + [(a, b) for a in ("x0", "x1") for b in ("x0", "x1")]
    terms = {w: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for w in words}
    s = TruncatedSeries(NCPolynomial(X2, QQ, terms), 10)
    t0 = time.perf_counter()
    assert s.exp().log() == s
    assert time.perf_counter() - t0 < 0.25


# ---------------------------------------------------------------------------
# Q[t] on packed integers (Kronecker substitution) and star, exp and log on
# numerators, against Poly-by-Poly sums and a star on ring elements


def oracle_star(s):
    """Star of a TruncatedSeries on ring elements: T_0 = inv and
    T_g = inv.sum_i S_i.T_(g-i), one ring product and sum at a time."""
    ring, grade = s.ring, s.alphabet.word_grade
    inv = ring.invert(ring.one - s.poly.constant_term())
    t = {0: {(): inv}}
    for g in range(1, s.bound + 1):
        acc = {}
        for u, cu in s.poly.terms.items():
            i = grade(u)
            if u and i <= g:
                for v, cv in t.get(g - i, {}).items():
                    acc[u + v] = acc.get(u + v, ring.zero) + cu * cv
        t[g] = {w: inv * c for w, c in acc.items() if c}
    return NCPolynomial(s.alphabet, ring, {w: c for tg in t.values() for w, c in tg.items()})


@st.composite
def _qt_pairs(draw):
    alphabet, max_grade = _ALPHABETS[draw(st.sampled_from(sorted(_ALPHABETS)))]
    words = st.sampled_from(alphabet.words_up_to(max_grade, include_empty=True))
    return tuple(NCPolynomial(alphabet, QT, draw(st.dictionaries(words, _QT, max_size=5))) for _ in range(2))


@settings(max_examples=80, deadline=None)
@given(_qt_pairs(), st.integers(0, 7))
def test_products_over_qt_match_the_poly_sums(pair, bound):
    p, q = pair
    g = p.alphabet.word_grade
    for kernel in _kernels(p.alphabet):
        for b in (None, bound):
            got = p._word_product(q, kernel, b)
            assert got.terms == brute_product(p.terms, q.terms, _ORACLES[kernel], g, QT, b)
            assert all(type(c) is Poly and c for c in got.terms.values())


def _coproduct_oracle(kind, alphabet, w):
    if kind == "deconcat":
        return {(w[:i], w[i:]): 1 for i in range(len(w) + 1)}
    if kind == "unshuffle":
        return _oracle_unshuffle(w)
    # the adjoint of the quasi-shuffle: m(u (x) v) = coefficient of w in u * v
    out = {}
    for k in range(alphabet.word_grade(w) + 1):
        for u in alphabet.words_of_grade(k):
            for v in alphabet.words_of_grade(alphabet.word_grade(w) - k):
                m = oracle_stuffle(u, v).get(w, 0)
                if m:
                    out[(u, v)] = m
    return out


@settings(max_examples=50, deadline=None)
@given(st.data(), st.integers(0, 6))
def test_tensor_products_and_coproducts_over_qt_match_the_poly_sums(data, bound):
    alphabet, max_grade = _ALPHABETS[data.draw(st.sampled_from(sorted(_ALPHABETS)))]
    words = st.sampled_from(alphabet.words_up_to(max_grade - 1, include_empty=True))
    pairs = st.dictionaries(st.tuples(words, words), _QT, max_size=4)
    a, b = (TensorPoly(alphabet, QT, data.draw(pairs)) for _ in range(2))
    g = alphabet.word_grade
    for kernel in _kernels(alphabet):
        for bd in (None, bound):
            want = {}
            for (u1, v1), c1 in a.terms.items():
                for (u2, v2), c2 in b.terms.items():
                    for wu, mu in _ORACLES[kernel](u1, u2).items():
                        if bd is None or g(wu) <= bd:
                            for wv, mv in _conc_oracle(v1, v2).items():
                                want[(wu, wv)] = want.get((wu, wv), QT.zero) + c1 * c2 * mu * mv
            assert a.mul(b, kernel, conc_words, bd).terms == {k: c for k, c in want.items() if c}
    p = NCPolynomial(alphabet, QT, data.draw(st.dictionaries(words, _QT, max_size=5)))
    kinds = {"deconcat": deconcat, "unshuffle": unshuffle}
    if alphabet.kind == "Y":
        kinds["unstuffle"] = unstuffle
    for kind, coproduct in kinds.items():
        want = {}
        for w, c in p.terms.items():
            for key, m in _coproduct_oracle(kind, alphabet, w).items():
                want[key] = want.get(key, QT.zero) + c * m
        assert coproduct(p).terms == {k: c for k, c in want.items() if c}


def test_packed_width_covers_the_multiplicities():
    # the coefficient of x0^12 is C(12, 6) (1 - t^2): slots sized by the
    # operands' coefficients alone hold only |n| < 8
    t = QT.gen()
    for a, b in ((("x0",) * 6, ("x0",) * 6), (("y1",) * 6, ("y1",) * 6)):
        alphabet = Y if a[0].startswith("y") else X2
        p = NCPolynomial.word(alphabet, QT, a, 1 + t)
        q = NCPolynomial.word(alphabet, QT, b, 1 - t)
        kernel = stuffle_words if alphabet is Y else shuffle_words
        got = p._word_product(q, kernel)
        assert got.coeff(a + b) == 924 * (1 - t * t)
        assert got.terms == brute_product(p.terms, q.terms, _ORACLES[kernel], alphabet.word_grade, QT)


@st.composite
def _star_case(draw):
    """A truncated series over Q or Q[t] whose constant term a has 1 - a a
    unit, at bounds 0 to 6."""
    alphabet, max_grade = _ALPHABETS[draw(st.sampled_from(sorted(_ALPHABETS)))]
    ring = draw(st.sampled_from([QQ, QT]))
    coeffs = _FRACTIONS if ring == QQ else _QT
    words = st.sampled_from(alphabet.words_up_to(max_grade, include_empty=False))
    terms = draw(st.dictionaries(words, coeffs, max_size=4))
    terms[()] = draw(_FRACTIONS.filter(lambda a: a != 1))
    return TruncatedSeries(NCPolynomial(alphabet, ring, terms), draw(st.integers(0, 6)))


@settings(max_examples=80, deadline=None)
@given(_star_case())
def test_star_on_numerators_matches_the_star_on_ring_elements(s):
    got = s.star()
    assert got.bound == s.bound
    assert got.poly == oracle_star(s)
    assert all(type(c) is type(s.ring.zero) and c for c in got.poly.terms.values())


def test_qt_products_and_exp_log_multiply_no_polys(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    t = QT.gen()
    p = NCPolynomial(X2, QT, {("x0",): 1 + t, ("x1",): Fraction(1, 2) - 3 * t, ("x0", "x1"): 2})
    q = NCPolynomial(X2, QT, {("x1",): 2 - t, ("x1", "x0"): Fraction(-1, 3)})
    assert calls  # the operands were built with Poly products
    calls.clear()
    product = p.shuffle(q)
    s = TruncatedSeries(p, 5)
    back = s.exp().log()
    assert not calls
    assert product.coeff(("x0", "x1")) == (1 + t) * (2 - t)
    assert back == s


def test_every_module_cache_is_bounded(monkeypatch):
    import importlib
    import pkgutil

    import ncfps
    from ncfps import series

    caches = []
    for info in pkgutil.iter_modules(ncfps.__path__):
        module = importlib.import_module(f"ncfps.{info.name}")
        caches += [obj for obj in vars(module).values() if hasattr(obj, "cache_parameters")]
    assert series.shuffle_words in caches and series.stuffle_words in caches
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache
    # the table of shared words starts over when it would outgrow the bound
    monkeypatch.setattr(series, "CACHE_SIZE", 8)
    shuffle_words.cache_clear()
    for u, v in [(("x0", "x1"), ("x1", "x0")), (("x0",), ("x1", "x1", "x0"))]:
        assert dict(shuffle_words(u, v)) == oracle_shuffle(u, v)
        assert len(series._WORD_CACHE) <= 8
    shuffle_words.cache_clear()
