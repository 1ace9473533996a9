"""Linear representations: constructors against series-level oracles,
minimization, equality, splitting, rational forms, and classification."""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ncfps.automata
from ncfps.automata import (
    LinearRepresentation,
    _char_poly,
    classify,
    equal,
    is_character,
    is_rationally_exchangeable,
    kronecker_form,
    lie_closure,
    make_character_star,
    minimize,
    nilpotent_decompose,
    rep_conc,
    rep_polynomial,
    rep_scalar,
    rep_shuffle,
    rep_star,
    rep_stuffle,
    rep_sum,
    rep_word,
    rep_zero,
    sweedler_split,
)
from ncfps.exprs import infer_alphabet, parse_expression, representation_of, to_representation, to_series
from ncfps.linalg import EchelonBasis, dot, invert_matrix, nonzeros, vec_rows
from ncfps.rings import QQ, QT, QZ, Poly, RatFun
from ncfps.series import NCPolynomial, TruncatedSeries, parse_series_text
from ncfps.words import Alphabet

X2 = Alphabet.x(2)
Y = Alphabet.y()


def rand_rep(rng, alphabet, letters, dim, ring=QQ, proper=False):
    def num():
        return ring.coerce(Fraction(rng.randint(-2, 2)))

    if proper:
        nu = tuple(ring.one if i == 0 else ring.zero for i in range(dim))
        eta = (ring.zero,) + tuple(num() for _ in range(dim - 1))
    else:
        nu = tuple(num() for _ in range(dim))
        eta = tuple(num() for _ in range(dim))
    mu = {
        x: tuple(tuple(num() for _ in range(dim)) for _ in range(dim))
        for x in letters
    }
    return LinearRepresentation(alphabet, ring, nu, mu, eta)


def same_series(s1, s2, bound):
    return s1.poly.truncate(bound) == s2.poly.truncate(bound)


# ---------------------------------------------------------------------------
# basics


def test_coeff_and_expand_word_rep():
    r = rep_word(X2, QQ, ("x0", "x1", "x0"), Fraction(3, 2))
    assert r.dim == 4
    assert r.coeff(("x0", "x1", "x0")) == Fraction(3, 2)
    assert r.coeff(("x0", "x1")) == 0
    assert r.coeff(()) == 0
    s = r.expand(4)
    assert s.poly == NCPolynomial(X2, QQ, {("x0", "x1", "x0"): Fraction(3, 2)})


def test_rep_scalar_and_zero():
    assert rep_scalar(X2, QQ, 5).coeff(()) == 5
    assert rep_scalar(X2, QQ, 0).dim == 0
    z = rep_zero(X2, QQ)
    assert z.coeff(("x0",)) == 0
    assert z.expand(3).poly.is_zero()


def test_rep_polynomial_matches_input():
    p = parse_series_text("2*x0.x1 - 3*x1 + 1", X2, QQ)
    r = rep_polynomial(p)
    assert r.expand(4).poly == p


def test_inactive_letters_act_as_zero():
    r = LinearRepresentation(X2, QQ, (1,), {"x0": ((2,),)}, (1,))
    assert r.coeff(("x1",)) == 0
    assert r.coeff(("x0", "x1", "x0")) == 0
    assert r.active_letters == ["x0"]


def test_immutability_and_pruning():
    r = LinearRepresentation(X2, QQ, (1,), {"x0": ((0,),)}, (1,))
    assert r.mu == {}
    with pytest.raises(AttributeError):
        r.dim = 7


def test_quiplait_example():
    # two-state walk automaton: x0 steps forward, x1 steps back
    r = LinearRepresentation(
        X2, QQ, (1, 0), {"x0": ((0, 1), (0, 0)), "x1": ((0, 0), (1, 0))}, (1, 0)
    )
    assert r.coeff(()) == 1
    assert r.coeff(("x0", "x1")) == 1
    assert r.coeff(("x0", "x0")) == 0
    assert r.coeff(("x1", "x0")) == 0
    assert r.coeff(("x0", "x1", "x0", "x1")) == 1
    assert r.coeff(("x0", "x0", "x1", "x1")) == 0


# ---------------------------------------------------------------------------
# oracle soundness: constructors versus series arithmetic


def test_sum_conc_star_shuffle_against_expansion():
    rng = random.Random(20240511)
    bound = 6
    for _ in range(6):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        r1 = rand_rep(rng, X2, ["x0", "x1"], d1)
        r2 = rand_rep(rng, X2, ["x0", "x1"], d2)
        s1, s2 = r1.expand(bound), r2.expand(bound)
        assert same_series(rep_sum(r1, r2).expand(bound), s1 + s2, bound)
        assert same_series(rep_conc(r1, r2).expand(bound), s1 * s2, bound)
        assert same_series(rep_shuffle(r1, r2).expand(bound), s1.shuffle(s2), bound)
        rp = rand_rep(rng, X2, ["x0", "x1"], rng.randint(1, 3), proper=True)
        assert same_series(rep_star(rp).expand(bound), rp.expand(bound).star(), bound)


def test_stuffle_against_expansion():
    rng = random.Random(77)
    bound = 5
    for _ in range(5):
        r1 = rand_rep(rng, Y, ["y1", "y2"], rng.randint(1, 2))
        r2 = rand_rep(rng, Y, ["y1", "y2"], rng.randint(1, 2))
        got = rep_stuffle(r1, r2).expand(bound).poly
        want = r1.expand(bound).poly.stuffle(r2.expand(bound).poly).truncate(bound)
        assert got == want


def test_constructors_over_polynomial_ring():
    rng = random.Random(9)
    bound = 4
    t = QT.gen()
    r1 = rep_word(X2, QT, ("x0", "x1"), t)
    r2 = rep_word(X2, QT, ("x1",), 1 - t)
    s1, s2 = r1.expand(bound), r2.expand(bound)
    assert same_series(rep_conc(r1, r2).expand(bound), s1 * s2, bound)
    assert same_series(rep_shuffle(r1, r2).expand(bound), s1.shuffle(s2), bound)


def test_star_requires_zero_constant_term():
    r = rep_scalar(X2, QQ, 1)
    with pytest.raises(ValueError):
        rep_star(r)


def test_star_of_zero_is_one():
    r = rep_star(rep_zero(X2, QQ))
    assert r.expand(3).poly == NCPolynomial.one(X2, QQ)


def test_stuffle_of_character_stars_merges_letters():
    # (a y2)* stuffled with (b y3)* carries an extra letter y5 with weight ab
    a, b = Fraction(2), Fraction(3)
    r1 = make_character_star(Y, QQ, {"y2": a})
    r2 = make_character_star(Y, QQ, {"y3": b})
    merged = make_character_star(Y, QQ, {"y2": a, "y3": b, "y5": a * b})
    prod = rep_stuffle(r1, r2)
    assert equal(prod, merged)
    assert prod.expand(7).poly == merged.expand(7).poly


# ---------------------------------------------------------------------------
# minimization and equality


def loop_star_rep():
    return rep_star(rep_word(X2, QQ, ("x0", "x1")))


def test_minimize_sum_of_equal_copies():
    r = loop_star_rep()
    doubled = rep_sum(r, r)
    m = minimize(doubled)
    assert doubled.dim == 8 and m.dim == 2
    assert equal(m, r.scale(2))


def test_minimize_zero_final_vector():
    r = LinearRepresentation(
        X2, QQ, (1, 2), {"x0": ((1, 0), (0, 1))}, (0, 0)
    )
    assert minimize(r).dim == 0


def test_minimize_character_star():
    r = rep_star(rep_polynomial(parse_series_text("2*x0 + 3*x1", X2, QQ)))
    m = minimize(r)
    assert m.dim == 1
    assert equal(m, make_character_star(X2, QQ, {"x0": 2, "x1": 3}))


def test_minimize_idempotent_and_faithful():
    rng = random.Random(4242)
    for _ in range(5):
        r = rand_rep(rng, X2, ["x0", "x1"], 3)
        m = minimize(r)
        assert m.dim <= r.dim
        assert minimize(m).dim == m.dim
        assert equal(r, m)
        bound = r.dim + m.dim
        assert r.expand(bound).poly == m.expand(bound).poly


def test_minimize_needs_field():
    r = rep_word(X2, QT, ("x0",), QT.gen())
    with pytest.raises(ValueError):
        minimize(r)
    assert minimize(r.embed_field()).dim == 2


def test_equal_examples():
    assert not equal(rep_star(rep_word(X2, QQ, ("x0",))), rep_star(rep_word(X2, QQ, ("x1",))))
    r = loop_star_rep()
    assert equal(r, r)
    assert not equal(r, r.scale(2))
    # plane stars: shuffle of two characters is the character of the sum
    a = make_character_star(X2, QQ, {"x0": 1, "x1": 2})
    b = make_character_star(X2, QQ, {"x0": 3, "x1": 5})
    c = make_character_star(X2, QQ, {"x0": 4, "x1": 7})
    assert equal(rep_shuffle(a, b), c)
    assert not equal(rep_shuffle(a, b), make_character_star(X2, QQ, {"x0": 4, "x1": 8}))


def test_equal_walk_identity():
    # (-x0x1)* shuffled with (x0x1)* collapses to (-4 x0x0x1x1)*
    lhs = rep_shuffle(
        rep_star(rep_word(X2, QQ, ("x0", "x1"), -1)),
        rep_star(rep_word(X2, QQ, ("x0", "x1"))),
    )
    rhs = rep_star(rep_word(X2, QQ, ("x0", "x0", "x1", "x1"), -4))
    assert equal(lhs, rhs)


def test_equal_similar_pair_of_dimension_5_is_fast():
    # a word walk to depth n1 + n2 visits about 3^10 words here (over 20 s);
    # the span test needs at most 10 * 3 vector-matrix products
    rng = random.Random(55)
    al = Alphabet.x(3)
    r1 = rand_rep(rng, al, al.letters, 5)
    # unit lower triangular, hence invertible
    t = tuple(
        tuple(Fraction(1) if i == j else Fraction(rng.randint(-2, 2) if i > j else 0) for j in range(5))
        for i in range(5)
    )
    r2 = r1.conjugate(t)
    t0 = time.perf_counter()
    assert equal(r1, r2)
    assert time.perf_counter() - t0 < 1.0
    assert not equal(r1, r2.scale(2))


def test_four_star_shuffle_identity_is_decided_on_sparse_rows():
    # (x0+x1+x2)* shuffled four times is (4*x0+4*x1+4*x2)*: a compiled
    # dimension of 7^4 = 2401, where each letter matrix holds 6593 nonzeros
    # of 5.76 M entries
    left = representation_of(" shuffle ".join(["(x0+x1+x2)*"] * 4))
    assert left.dim == 2401
    assert {x: sum(map(len, rows)) for x, rows in left.rows.items()} == {"x0": 6593, "x1": 6593, "x2": 6593}
    assert equal(left, representation_of("(4*x0+4*x1+4*x2)*"))
    assert not equal(left, representation_of("(4*x0+4*x1+3*x2)*"))


_SIGNED = ["-x0", "x0 - x1.x0", "-(x0 + 2*x1)* + x1", "x0 - (x1 - x0)*", "-x0 shuffle (-x1)"]
_SIGNED_QT = ["-t*x0", "x0 - t^2*x1.x0 - 1", "-(t*x0 + x1)* - t", "(y1 - t*y2)* stuffle (-y1)"]


def _parsed_signs(node):
    """The tree with each sign's -1 written as -1/1, so that the ring parser
    reads it like any other scalar prefix."""
    if node[0] == "scale":
        return ("scale", "-1/1" if node[1] == "-1" else node[1], node[2], _parsed_signs(node[3]))
    if node[0] in ("word", "num"):
        return node
    return (node[0], *map(_parsed_signs, node[1:]))


@pytest.mark.parametrize("text, ring", [(t, QQ) for t in _SIGNED] + [(t, QT) for t in _SIGNED + _SIGNED_QT])
def test_signs_compile_as_the_parsed_minus_one(text, ring):
    node = parse_expression(text)
    old = _parsed_signs(node)
    assert old != node
    alphabet = infer_alphabet(node)
    rep, ref = to_representation(node, alphabet, ring), to_representation(old, alphabet, ring)
    assert (rep.nu, rep.rows, rep.eta) == (ref.nu, ref.rows, ref.eta)
    assert to_series(node, alphabet, ring, 4) == to_series(old, alphabet, ring, 4)


def test_signs_do_not_call_the_ring_parser(monkeypatch):
    texts = []
    parse = QT.parse

    def recorded(s):
        texts.append(s)
        return parse(s)

    monkeypatch.setattr(QT, "parse", recorded)
    for text in _SIGNED + _SIGNED_QT:
        representation_of(text, ring="Q[t]")
    assert "-1" not in texts and "t^2" in texts


# ---------------------------------------------------------------------------
# sparse letter rows against the dense formulas
#
# The constructors build sparse rows.  The oracle is the dense construction:
# block-diagonal sums, Kronecker products and entrywise sums of tuple-of-tuple
# matrices, read off the inputs' dense views.


def _zero_matrix(ring, n):
    return tuple((ring.zero,) * n for _ in range(n))


def _unit_matrix(ring, n):
    return tuple(tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n))


def _kron(a, b):
    if not a or not b:
        return ()
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _block_diag(ring, a, b):
    na, nb = len(a), len(b)
    return tuple(tuple(r) + (ring.zero,) * nb for r in a) + tuple((ring.zero,) * na + tuple(r) for r in b)


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _dense(r, x):
    return r.mu.get(x, _zero_matrix(r.ring, r.dim))


def _dense_sum(r1, r2):
    mu = {x: _block_diag(r1.ring, _dense(r1, x), _dense(r2, x)) for x in set(r1.mu) | set(r2.mu)}
    return r1.nu + r2.nu, mu, r1.eta + r2.eta


def _dense_conc(r1, r2):
    ring, n1, n2 = r1.ring, r1.dim, r2.dim
    s2 = sum((a * b for a, b in zip(r2.nu, r2.eta)), ring.zero)
    mu = {}
    for x in set(r1.mu) | set(r2.mu):
        m1, m2 = _dense(r1, x), _dense(r2, x)
        row2 = _plain_vec_mat(r2.nu, m2) if n2 else ()
        top = tuple(tuple(m1[i]) + tuple(r1.eta[i] * c for c in row2) for i in range(n1))
        mu[x] = top + tuple((ring.zero,) * n1 + tuple(m2[i]) for i in range(n2))
    return r1.nu + (ring.zero,) * n2, mu, tuple(e * s2 for e in r1.eta) + r2.eta


def _dense_star(r):
    ring, n = r.ring, r.dim
    mu = {}
    for x, m in r.mu.items():
        row = _plain_vec_mat(r.nu, m)
        rows = tuple(tuple(m[i][j] + r.eta[i] * row[j] for j in range(n)) + (ring.zero,) for i in range(n))
        mu[x] = rows + (tuple(row) + (ring.zero,),)
    return (ring.zero,) * n + (ring.one,), mu, r.eta + (ring.one,)


def _dense_kronecker_sum(r1, r2):
    i1, i2 = _unit_matrix(r1.ring, r1.dim), _unit_matrix(r1.ring, r2.dim)
    mu = {}
    for x in set(r1.mu) | set(r2.mu):
        mu[x] = _mat_add(_kron(_dense(r1, x), i2), _kron(i1, _dense(r2, x)))
    nu = tuple(a * b for a in r1.nu for b in r2.nu)
    eta = tuple(a * b for a in r1.eta for b in r2.eta)
    return nu, mu, eta


def _dense_stuffle(r1, r2):
    nu, mu, eta = _dense_kronecker_sum(r1, r2)
    n = r1.dim * r2.dim
    for x1, m1 in r1.mu.items():
        for x2, m2 in r2.mu.items():
            x = f"y{int(x1[1:]) + int(x2[1:])}"
            mu[x] = _mat_add(mu.get(x, _zero_matrix(r1.ring, n)), _kron(m1, m2))
    return nu, mu, eta


def _check_against_dense(rep, oracle):
    nu, mu, eta = oracle
    nonzero = {x: m for x, m in mu.items() if any(c for row in m for c in row)}
    assert (rep.nu, rep.mu, rep.eta) == (nu, nonzero, eta)
    for rows in rep.rows.values():
        assert len(rows) == rep.dim and any(rows)
        assert all(c for row in rows for c in row.values())


@st.composite
def _sparse_reps(draw, ring, alphabet, proper=False):
    """A representation of dimension 0-3 over Q or Q[t] whose entries are
    zero half the time; a proper one has eta zero on the support of nu, so
    its constant term vanishes."""
    n = draw(st.integers(0, 3))
    entry = st.one_of(st.just(ring.zero), _ring_entries(ring).map(ring.coerce))
    vec = st.lists(entry, min_size=n, max_size=n)
    nu, eta = draw(vec), draw(vec)
    if proper:
        eta = [ring.zero if a else b for a, b in zip(nu, eta)]
    letters = draw(st.lists(st.sampled_from(alphabet.letters_up_to(3)), unique=True))
    mu = {x: draw(st.lists(vec, min_size=n, max_size=n)) for x in letters}
    return LinearRepresentation(alphabet, ring, nu, mu, eta)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_constructors_match_the_dense_formulas(data):
    ring = data.draw(st.sampled_from((QQ, QT)))
    alphabet = data.draw(st.sampled_from((X2, Y)))
    r1, r2 = data.draw(_sparse_reps(ring, alphabet)), data.draw(_sparse_reps(ring, alphabet))
    _check_against_dense(rep_sum(r1, r2), _dense_sum(r1, r2))
    _check_against_dense(rep_conc(r1, r2), _dense_conc(r1, r2))
    _check_against_dense(rep_shuffle(r1, r2), _dense_kronecker_sum(r1, r2))
    if alphabet == Y:
        _check_against_dense(rep_stuffle(r1, r2), _dense_stuffle(r1, r2))
    proper = data.draw(_sparse_reps(ring, alphabet, proper=True))
    _check_against_dense(rep_star(proper), _dense_star(proper))


def test_stuffle_merges_that_cancel_drop_their_letters():
    # (y1 + y2)* stuffle (-y1)*: on y1 the Kronecker sum is 1 - 1, on y2 the
    # merge y1 (x) y1 adds -1 to the left factor's 1; only the merge
    # y2 (x) y1 survives, on y3
    for ring in (QQ, QT):
        r1 = make_character_star(Y, ring, {"y1": 1, "y2": 1})
        r2 = make_character_star(Y, ring, {"y1": -1})
        got = rep_stuffle(r1, r2)
        _check_against_dense(got, _dense_stuffle(r1, r2))
        assert got.mu == {"y3": ((ring.coerce(-1),),)}


def test_equal_walks_both_operands_past_a_closed_first_span():
    # the reachable span of the zero-series side closes after one vector,
    # the word x0.x0.x1 on the other side shows only at depth 3
    zero_series = LinearRepresentation(X2, QQ, (1,), {"x0": ((1,),)}, (0,))
    word = rep_word(X2, QQ, ("x0", "x0", "x1"))
    assert not equal(zero_series, word)
    assert not equal(word, zero_series)
    assert equal(zero_series, rep_zero(X2, QQ))


def test_equal_over_polynomial_ring_embeds():
    t = QT.gen()
    r1 = rep_word(X2, QT, ("x0",), t * t)
    r2 = rep_word(X2, QT, ("x0",), t * t)
    assert equal(r1, r2)
    assert not equal(r1, rep_word(X2, QT, ("x0",), t))


def test_schuetzenberger_reconstruction():
    # S = <S,1> 1 + sum_x x (x^{-1} S), with the left quotient acting on nu
    rng = random.Random(515)
    r = rand_rep(rng, X2, ["x0", "x1"], 3)
    acc = rep_scalar(X2, QQ, r.coeff(()))
    for x in r.active_letters:
        shifted = LinearRepresentation(
            X2, QQ, _plain_vec_mat(r.nu, r.mu[x]), r.mu, r.eta
        )
        acc = rep_sum(acc, rep_conc(rep_word(X2, QQ, (x,)), shifted))
    assert equal(acc, r)


# ---------------------------------------------------------------------------
# splitting, characters, one-letter forms


def test_sweedler_split_factors_concatenations():
    rng = random.Random(88)
    r = rand_rep(rng, X2, ["x0", "x1"], 3)
    pairs = sweedler_split(r)
    assert len(pairs) == r.dim
    words = [(), ("x0",), ("x1",), ("x0", "x1"), ("x1", "x1"), ("x0", "x1", "x0")]
    for u in words:
        for v in words:
            if len(u) + len(v) > 3:
                continue
            direct = r.coeff(u + v)
            split = sum(g.coeff(u) * d.coeff(v) for g, d in pairs)
            assert direct == split


def test_character_detection():
    assert is_character(make_character_star(X2, QQ, {"x0": 2, "x1": -1}))
    assert is_character(rep_scalar(X2, QQ, 1))
    assert not is_character(rep_scalar(X2, QQ, 2))
    assert not is_character(rep_word(X2, QQ, ("x0",)))
    assert not is_character(loop_star_rep())
    # multiplicativity holds on sampled pairs for a true character
    ch = make_character_star(X2, QQ, {"x0": 2, "x1": 3})
    assert ch.coeff(("x0", "x1")) == ch.coeff(("x0",)) * ch.coeff(("x1",))


X1 = Alphabet.x(1)


def test_kronecker_form_character():
    r = make_character_star(X1, QQ, {"x0": Fraction(3)})
    p, q = kronecker_form(r)
    assert p == NCPolynomial.one(X1, QQ)
    assert q == NCPolynomial(X1, QQ, {(): Fraction(3)})


def test_kronecker_form_polynomial():
    poly = parse_series_text("1*x0 + 1*x0.x0", X1, QQ)
    p, q = kronecker_form(rep_polynomial(poly))
    assert p == poly
    assert q.is_zero()


def test_kronecker_form_letter_choice():
    # over a larger alphabet the one active letter is used, and with none the
    # first letter of the alphabet
    x1 = NCPolynomial.word(X2, QQ, ("x1",))
    assert kronecker_form(rep_word(X2, QQ, ("x1", "x1"))) == (x1 * x1, NCPolynomial.zero(X2, QQ))
    assert kronecker_form(rep_scalar(X2, QQ, 3)) == (3 * NCPolynomial.one(X2, QQ), NCPolynomial.zero(X2, QQ))
    assert kronecker_form(make_character_star(X2, QQ, {"x1": 2})) == (
        NCPolynomial.one(X2, QQ),
        2 * NCPolynomial.one(X2, QQ),
    )
    with pytest.raises(ValueError, match="needs a one-letter alphabet"):
        kronecker_form(rep_word(X2, QQ, ("x0", "x1")))
    with pytest.raises(ValueError, match="field coefficients required"):
        kronecker_form(make_character_star(X1, QT, {"x0": QT.gen()}))


def test_kronecker_form_round_trip():
    rng = random.Random(303)
    for _ in range(4):
        r = rand_rep(rng, X1, ["x0"], 3)
        p, q = kronecker_form(r)
        assert p.max_grade() < r.dim and q.max_grade() < r.dim
        bound = 2 * r.dim
        xq = NCPolynomial.word(X1, QQ, ("x0",)) * q
        resolvent = TruncatedSeries(xq, bound).star()
        rebuilt = TruncatedSeries(p, bound) * resolvent
        assert r.expand(bound).poly == rebuilt.poly.truncate(bound)


# ---------------------------------------------------------------------------
# exchangeability


def _syntactically_exchangeable(series):
    """Coefficients constant on each class of words that share a letter
    multiset, checked on every word over the letters of the series up to its
    bound (a polynomial's bound is its degree): the word walk, exponential in
    the bound, that is_rationally_exchangeable decides by linear algebra."""
    if isinstance(series, TruncatedSeries):
        poly, bound = series.poly, series.bound
    else:
        poly, bound = series, series.max_grade()
    alphabet = poly.alphabet
    if alphabet.kind == "X":
        alphabet = Alphabet.from_letters(sorted({c for w in poly.terms for c in w}, key=alphabet.rank))
    classes = {}
    for w in alphabet.words_up_to(bound):
        c = poly.coeff(w)
        if classes.setdefault(tuple(sorted(w)), c) != c:
            return False
    return True


def test_syntactic_exchangeability():
    ones = rep_star(rep_polynomial(parse_series_text("1*x0 + 1*x1", X2, QQ)))
    assert _syntactically_exchangeable(ones.expand(4))
    skew = parse_series_text("1*x0.x1 - 1*x1.x0", X2, QQ)
    assert not _syntactically_exchangeable(skew)
    sym = parse_series_text("1*x0.x1 + 1*x1.x0 + 5", X2, QQ)
    assert _syntactically_exchangeable(sym)
    # zero coefficients must participate: x0x1 alone is not exchangeable
    assert not _syntactically_exchangeable(
        parse_series_text("1*x0.x1", X2, QQ)
    )


def test_syntactic_exchangeability_on_y():
    r = make_character_star(Y, QQ, {"y1": 2, "y2": 4})
    assert _syntactically_exchangeable(r.expand(4))
    assert not _syntactically_exchangeable(
        NCPolynomial(Y, QQ, {("y1", "y2"): Fraction(1), ("y2", "y1"): Fraction(2)})
    )


def test_rational_exchangeability():
    assert is_rationally_exchangeable(make_character_star(X2, QQ, {"x0": 1, "x1": 2}))
    shuffled = rep_shuffle(
        rep_star(rep_word(X2, QQ, ("x0",), 2)), rep_star(rep_word(X2, QQ, ("x1",), 3))
    )
    assert is_rationally_exchangeable(shuffled)
    assert not is_rationally_exchangeable(loop_star_rep())
    # syntactic and rational verdicts agree on these rational examples
    assert _syntactically_exchangeable(shuffled.expand(4))
    assert not _syntactically_exchangeable(loop_star_rep().expand(4))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rational_exchangeability_matches_the_word_walk(data):
    # if the minimal letter matrices do not commute, some u.x0.x1.v and
    # u.x1.x0.v differ with u and v shorter than the minimal dimension, so
    # grade 2 * dim holds a witness; half the draws take mu(x1) as a
    # polynomial in mu(x0), so that the letters commute
    n = data.draw(st.integers(0, 3))
    entry = st.integers(-2, 2).map(Fraction)
    vec = st.lists(entry, min_size=n, max_size=n)
    m0 = data.draw(st.lists(vec, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        a, b, c = data.draw(st.lists(entry, min_size=3, max_size=3))
        m0m0 = _plain_mat_mul(m0, m0) if n else ()
        m1 = [[a * (i == j) + b * m0[i][j] + c * m0m0[i][j] for j in range(n)] for i in range(n)]
    else:
        m1 = data.draw(st.lists(vec, min_size=n, max_size=n))
    r = LinearRepresentation(X2, QQ, data.draw(vec), {"x0": m0, "x1": m1}, data.draw(vec))
    verdict = is_rationally_exchangeable(r)
    event(f"exchangeable: {verdict}")
    assert verdict == _syntactically_exchangeable(r.expand(2 * r.dim))


# ---------------------------------------------------------------------------
# Lie classification


def quiplait_rep():
    return LinearRepresentation(
        X2, QQ, (1, 0), {"x0": ((0, 1), (0, 0)), "x1": ((0, 0), (1, 0))}, (1, 0)
    )


def test_lie_closure_dimensions():
    lie = lie_closure(quiplait_rep())
    # raising, lowering, and their bracket span a three-dimensional algebra
    assert lie.dim == 3
    chain = lie_closure(rep_word(X2, QQ, ("x0", "x1")))
    assert chain.dim == 3  # two steps plus their bracket, then abelian


def test_lie_closure_stops_at_the_whole_matrix_space(monkeypatch):
    # diag(1, 2, 4) and the cyclic shift generate gl_3: once the closure has
    # nine members no more brackets are formed (75 were formed without the
    # stop), and the classification is unchanged
    rep = LinearRepresentation(
        X2, QQ, (1, 0, 0), {"x0": ((1, 0, 0), (0, 2, 0), (0, 0, 4)), "x1": ((0, 1, 0), (0, 0, 1), (1, 0, 0))}, (1, 1, 1)
    )
    assert minimize(rep).dim == 3
    brackets = []
    bracket = ncfps.automata._bracket
    monkeypatch.setattr(ncfps.automata, "_bracket", lambda *args: brackets.append(1) or bracket(*args))
    lie = lie_closure(rep)
    assert lie.dim == 9 and len(_dense_lie_closure([_dense(rep, x) for x in ("x0", "x1")])) == 9
    assert len(brackets) < 75
    assert classify(rep) == "general"


def test_classify_examples():
    assert classify(make_character_star(X2, QQ, {"x0": 2, "x1": 3})) == "exchangeable"
    assert classify(rep_polynomial(parse_series_text("1*x0.x1", X2, QQ))) == "nilpotent"
    solvable = LinearRepresentation(
        X2,
        QQ,
        (1, 1),
        {"x0": ((1, 1), (0, 2)), "x1": ((3, 0), (0, 1))},
        (1, 1),
    )
    assert minimize(solvable).dim == 2
    assert classify(solvable) == "solvable"
    assert classify(quiplait_rep()) == "general"


def _dense_rep(n, seed):
    """A two-letter Q representation of dimension n with entries -2..2."""
    rng = random.Random(seed)

    def vec():
        return [Fraction(rng.randint(-2, 2)) for _ in range(n)]

    mu = {x: [vec() for _ in range(n)] for x in X2.letters}
    return LinearRepresentation(X2, QQ, vec(), mu, vec())


def test_classify_answers_general_at_once_for_gl_n(tmp_path):
    # the letter matrices of a dense representation generate all of gl_n;
    # bracketing gl_n down its two series took 2-3 s at n = 5, 10 s at n = 6
    for n in (5, 6):
        rep = _dense_rep(n, 5)
        assert minimize(rep).dim == n and lie_closure(rep).dim == n * n
        t0 = time.perf_counter()
        assert classify(rep) == "general"
        assert time.perf_counter() - t0 < 1.0
        f = tmp_path / f"dense{n}.json"
        f.write_text(rep.to_json())
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "ncfps.cli", "classify", "--rep", str(f)], capture_output=True, text=True
        )
        assert time.perf_counter() - t0 < 1.0
        assert (done.returncode, done.stdout) == (0, "general\n"), done.stderr


def test_classify_minimizes_once(monkeypatch):
    calls = []
    real = ncfps.automata.minimize
    monkeypatch.setattr(ncfps.automata, "minimize", lambda rep: calls.append(1) or real(rep))
    assert classify(quiplait_rep()) == "general"
    assert len(calls) == 1


def test_classify_is_similarity_invariant():
    rng = random.Random(606)
    fixtures = [
        make_character_star(X2, QQ, {"x0": 2, "x1": 3}),
        rep_polynomial(parse_series_text("1*x0.x1", X2, QQ)),
        quiplait_rep(),
    ]
    for r in fixtures:
        label = classify(r)
        for _ in range(3):
            n = r.dim
            while True:
                t = tuple(
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                    for _ in range(n)
                )
                try:
                    conj = r.conjugate(t)
                    break
                except ValueError:
                    continue
            assert classify(conj) == label


# ---------------------------------------------------------------------------
# triangular factorizations


def test_nilpotent_decompose_example():
    r = LinearRepresentation(X1, QQ, (1, 0), {"x0": ((1, 1), (0, 1))}, (0, 1))
    s1, c = nilpotent_decompose(r)
    assert c == {"x0": Fraction(1)}
    assert s1 == NCPolynomial.word(X1, QQ, ("x0",))


def test_nilpotent_decompose_identity():
    rng = random.Random(710)
    for _ in range(4):
        n = 3
        c_true = {x: Fraction(rng.randint(-2, 2)) for x in ["x0", "x1"]}
        mu = {}
        for x in ["x0", "x1"]:
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = c_true[x]
                for j in range(i + 1, n):
                    m[i][j] = Fraction(rng.randint(-2, 2))
            mu[x] = tuple(tuple(row) for row in m)
        nu = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        eta = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        r = LinearRepresentation(X2, QQ, nu, mu, eta)
        s1, c = nilpotent_decompose(r)
        assert c == c_true
        assert s1.max_grade() <= n - 1
        bound = n + 2
        char = TruncatedSeries(
            NCPolynomial(X2, QQ, {("x0",): c["x0"], ("x1",): c["x1"]}), bound
        ).star()
        rebuilt = TruncatedSeries(s1, bound).shuffle(char)
        assert r.expand(bound).poly == rebuilt.poly.truncate(bound)


def test_nilpotent_decompose_rejects_non_triangular():
    with pytest.raises(ValueError):
        nilpotent_decompose(quiplait_rep())


def _properized(r):
    """r with eta shifted so that nu . eta = 0: a proper series."""
    s = dot(QQ, nonzeros(r.nu), r.eta)
    if not s:
        return r
    j = next(i for i, v in enumerate(r.nu) if v)
    eta = list(r.eta)
    eta[j] -= s / r.nu[j]
    return LinearRepresentation(r.alphabet, r.ring, r.nu, r.mu, eta)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_star_of_a_sum_factors(data):
    # (a + b)* = (a* b)* a* for proper a and b: with a and b the diagonal and
    # strict parts of an upper-triangular letter matrix, the star of that
    # matrix factors through the stars of its parts
    a, b = (_properized(data.draw(_sparse_reps(QQ, X2))) for _ in range(2))
    assert equal(rep_star(rep_sum(a, b)), rep_conc(rep_star(rep_conc(rep_star(a), b)), rep_star(a)))


# ---------------------------------------------------------------------------
# linear independence of plane stars


def test_plane_stars_linearly_independent():
    words = []
    for g in range(5):
        words.extend(X2.words_of_grade(g))
    basis = EchelonBasis(QQ, len(words))
    count = 0
    for i in range(3):
        for j in range(3):
            star = make_character_star(X2, QQ, {"x0": Fraction(i), "x1": Fraction(j)})
            vec = tuple(star.coeff(w) for w in words)
            if basis.insert(nonzeros(vec)) is not None:
                count += 1
    assert count == 9
    assert all(all(row.values()) for row in basis.rows)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_x():
    t = QT.gen()
    r = rep_conc(rep_word(X2, QT, ("x0",), t), rep_word(X2, QT, ("x1",), 1 - t))
    text = r.to_json()
    back = LinearRepresentation.from_json(text)
    assert back.alphabet == X2 and back.ring == QT
    assert back.nu == r.nu and back.eta == r.eta and back.mu == r.mu


def test_json_round_trip_y():
    r = make_character_star(Y, QQ, {"y1": Fraction(1, 2), "y3": Fraction(-2)})
    back = LinearRepresentation.from_json(r.to_json())
    assert back.alphabet == Y
    assert back.expand(5).poly == r.expand(5).poly


def test_json_round_trip_rational_functions():
    z = QZ.gen()
    r = rep_word(X2, QZ, ("x0",), 1 / z)
    back = LinearRepresentation.from_json(r.to_json())
    assert back.mu == r.mu and back.nu == r.nu


def test_embed_field():
    r = rep_word(X2, QT, ("x0", "x1"), QT.gen())
    e = r.embed_field()
    assert e.ring == QT.field()
    assert e.coeff(("x0", "x1")) == e.ring.coerce(QT.gen())


# ---------------------------------------------------------------------------
# property tests: equality and the linear algebra kernels against definitions


def _plain_vec_mat(v, a):
    return tuple(sum((v[i] * a[i][j] for i in range(len(a))), 0 * v[0]) for j in range(len(a[0])))


def _plain_mat_mul(a, b):
    return tuple(_plain_vec_mat(row, b) for row in a)


def _brute_equal(r1, r2):
    """Compare coefficients on every word shorter than n1 + n2, which decides
    equality because the difference has dimension n1 + n2."""
    letters = sorted(set(r1.mu) | set(r2.mu), key=r1.alphabet.rank)
    layer = [(r1.nu, r2.nu)]
    for _ in range(r1.dim + r2.dim):
        for v1, v2 in layer:
            c1 = sum((a * b for a, b in zip(v1, r1.eta)), r1.ring.zero)
            c2 = sum((a * b for a, b in zip(v2, r2.eta)), r2.ring.zero)
            if c1 != c2:
                return False
        layer = [
            (_plain_vec_mat(v1, _dense(r1, x)), _plain_vec_mat(v2, _dense(r2, x)))
            for v1, v2 in layer
            for x in letters
        ]
    return True


def _ring_entries(ring):
    ints = st.integers(-2, 2)
    if ring == QQ:
        return ints.map(Fraction)
    polys = st.tuples(ints, ints).map(lambda ab: Poly("t", ab))
    if ring == QT:
        return polys
    return st.tuples(polys, polys.filter(bool)).map(lambda pq: RatFun(*pq))  # (a + b t)/(c + d t)


@st.composite
def _basis_change(draw, ring, n):
    """(t, t^-1) for a product of up to three elementary matrices with
    integer entries, so that the inverse is exact in any ring."""
    one, zero = ring.one, ring.zero
    t = tinv = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = ring.coerce(draw(st.integers(-2, 2)))
        e = [[one if a == b else zero for b in range(n)] for a in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        t, tinv = _plain_mat_mul(e, t), _plain_mat_mul(tinv, e_inv)
    return t, tinv


def _conjugated(alphabet, ring, nu, mu, eta, basis_change):
    t, tinv = basis_change
    n = len(nu)
    nu2 = _plain_vec_mat(nu, tinv)
    mu2 = {x: _plain_mat_mul(_plain_mat_mul(t, m), tinv) for x, m in mu.items()}
    eta2 = [sum((t[i][j] * eta[j] for j in range(n)), ring.zero) for i in range(n)]
    return LinearRepresentation(alphabet, ring, nu2, mu2, eta2)


@st.composite
def _similar_pairs(draw, ring, max_dim=4):
    """(r1, r2) with r2 = r1, optionally with one entry perturbed, after an
    exact change of basis.  The change of basis is a product of elementary
    matrices with integer entries, so its inverse is exact in any ring and
    conjugation keeps the degree in t of the entries low.  A "chain" r1 has
    superdiagonal letter matrices, so it lives on the words of length n - 1
    and a perturbation on the chain shows on those words only.  Over Q[t] a
    pair of dimension 4 uses at most 2 letters: the brute force on the 3^7
    words of a 3-letter pair takes about 15 s there."""
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, 2 if ring == QT and n == 4 else 3))
    alphabet = Alphabet.x(k)
    entry = _ring_entries(ring)
    one, zero = ring.one, ring.zero
    if draw(st.booleans()):
        nu = [one] + [zero] * (n - 1)
        eta = [zero] * (n - 1) + [one]
        mu = {}
        for x in alphabet.letters:
            mu[x] = [[zero] * n for _ in range(n)]
            for i in range(n - 1):
                mu[x][i][i + 1] = ring.coerce(draw(entry))
    else:
        vec = st.lists(entry, min_size=n, max_size=n)
        nu, eta = draw(vec), draw(vec)
        mu = {x: draw(st.lists(vec, min_size=n, max_size=n)) for x in alphabet.letters}
    r1 = LinearRepresentation(alphabet, ring, nu, mu, eta)
    if draw(st.booleans()):
        nu, eta = list(nu), list(eta)
        mu = {x: [list(r) for r in m] for x, m in mu.items()}
        where = draw(st.sampled_from(["nu", "eta"] + list(alphabet.letters)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if where == "nu":
            nu[i] = nu[i] + one
        elif where == "eta":
            eta[i] = eta[i] + one
        else:
            mu[where][i][j] = mu[where][i][j] + one
    return r1, _conjugated(alphabet, ring, nu, mu, eta, draw(_basis_change(ring, n)))


@settings(max_examples=60, deadline=None)
@given(_similar_pairs(QQ))
def test_equal_matches_brute_force_over_q(pair):
    r1, r2 = pair
    assert equal(r1, r2) == _brute_equal(r1, r2)


_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 7))


@st.composite
def _rational_pairs(draw, max_dim=3):
    """(r1, r2) over Q with entries of denominators 1 to 7 and r2 = r1 after
    the change of basis by a rational diagonal matrix d, optionally with one
    entry of r2 perturbed by a rational.  The two sides then have different
    denominators on nu, eta and every letter, so an integer lift that scaled
    one side apart from the other would change the verdict."""
    n = draw(st.integers(1, max_dim))
    alphabet = Alphabet.x(draw(st.integers(1, 3)))
    vec = st.lists(_rationals, min_size=n, max_size=n)
    nu, eta = draw(vec), draw(vec)
    mu = {x: draw(st.lists(vec, min_size=n, max_size=n)) for x in alphabet.letters}
    d = draw(st.lists(_rationals.filter(bool), min_size=n, max_size=n))
    nu2 = [nu[j] / d[j] for j in range(n)]
    mu2 = {x: [[d[i] * m[i][j] / d[j] for j in range(n)] for i in range(n)] for x, m in mu.items()}
    eta2 = [d[i] * eta[i] for i in range(n)]
    if draw(st.booleans()):
        where = draw(st.sampled_from(["nu", "eta"] + list(alphabet.letters)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(_rationals.filter(bool))
        if where == "nu":
            nu2[i] += c
        elif where == "eta":
            eta2[i] += c
        else:
            mu2[where][i][j] += c
    r1 = LinearRepresentation(alphabet, QQ, nu, mu, eta)
    return r1, LinearRepresentation(alphabet, QQ, nu2, mu2, eta2)


@settings(max_examples=100, deadline=None)
@given(_rational_pairs())
def test_equal_over_q_with_rational_entries_matches_brute_force(pair):
    # the integer decision over Q lifts nu, eta and each letter step by
    # denominators that both sides share; here the sides' denominators differ
    r1, r2 = pair
    assert equal(r1, r2) == _brute_equal(r1, r2)
    assert equal(r2, r1) == _brute_equal(r1, r2)


@settings(max_examples=20, deadline=None)
@given(_similar_pairs(QT))
def test_equal_matches_brute_force_over_qt(pair):
    # the verdict over Q[t] against the brute force, against the same pair
    # embedded in Q(t), and with only one side embedded in Q(t)
    r1, r2 = pair
    verdict = equal(r1, r2)
    assert verdict == _brute_equal(r1, r2)
    assert verdict == equal(r1.embed_field(), r2.embed_field())
    assert verdict == equal(r1, r2.embed_field()) == equal(r1.embed_field(), r2)


_ROOTS = (1, 2, 3, 4, 8, 2**10, 2**40, 2**100)


@st.composite
def _root_planted_pairs(draw):
    """(r1, r2, plant) over Q[t], or over Q(t) with entries (a + b t)/(c + d t):
    r2 is r1 after an exact change of basis, and plant(r) is r2 with its nu
    or eta moved by c (t - r) at one place.  Every coefficient of the
    difference of r1 and plant(r) has the factor t - r, so a decision that
    evaluated that pair at t = r would call it equal.  Over Q(t) a pair has
    dimension at most 2: the brute force over Q(t) takes about 30 s on some
    two-letter pairs of dimension 3, in the gcds of its sums."""
    ring = draw(st.sampled_from([QT, QT.field()]))
    n = draw(st.integers(1, 3 if ring == QT else 2))
    alphabet = Alphabet.x(draw(st.integers(1, 2)))
    vec = st.lists(_ring_entries(ring).map(ring.coerce), min_size=n, max_size=n)
    nu, eta = draw(vec), draw(vec)
    mu = {x: draw(st.lists(vec, min_size=n, max_size=n)) for x in alphabet.letters}
    r1 = LinearRepresentation(alphabet, ring, nu, mu, eta)
    r2 = _conjugated(alphabet, ring, nu, mu, eta, draw(_basis_change(ring, n)))
    on_nu, i, c = draw(st.booleans()), draw(st.integers(0, n - 1)), draw(st.sampled_from([-2, -1, 1, 2]))

    def plant(r):
        nu, eta = list(r2.nu), list(r2.eta)
        (nu if on_nu else eta)[i] += ring.coerce(c * (QT.gen() - r))
        return LinearRepresentation(alphabet, ring, nu, r2.mu, eta)

    return r1, r2, plant


@settings(max_examples=60, deadline=None)
@given(_root_planted_pairs())
def test_equal_over_qt_and_q_of_t_matches_brute_force_at_planted_roots(case):
    # the one evaluation point must be no root of the difference: pairs that
    # differ by a multiple of t - r, for small and for huge r, stay unequal
    r1, r2, plant = case
    for other in [r2] + [plant(r) for r in _ROOTS]:
        truth = _brute_equal(r1, other)
        assert equal(r1, other) == equal(other, r1) == truth
        assert equal(r1.embed_field(), other) == equal(r1, other.embed_field()) == truth


def _reference_left_reduce(rep):
    """The left reduction with coordinates from one inverse: the reached
    vectors' block on the pivot columns is inverted, and a vector in their
    span is its pivot entries times that inverse."""
    ring = rep.ring
    basis = EchelonBasis(ring, rep.dim)
    reached = []

    def insert(v):
        if basis.insert(nonzeros(v)) is not None:
            reached.append(v)

    insert(rep.nu)
    letters = rep.active_letters
    images = {x: [] for x in letters}  # images[x][i] = reached[i] . mu(x)
    for v in reached:
        for x in letters:
            w = _plain_vec_mat(v, rep.mu[x])
            images[x].append(w)
            insert(w)
    assert all(all(row.values()) for row in basis.rows)
    if not reached:
        return rep_zero(rep.alphabet, ring)
    inverse = invert_matrix(ring, [nonzeros(v[p] for p in basis.pivots) for v in reached])
    assert all(all(row.values()) for row in inverse)

    def coordinates(v):
        assert not basis.reduce(nonzeros(v))
        c = vec_rows(ring, nonzeros(v[p] for p in basis.pivots), inverse)
        return tuple(c.get(k, ring.zero) for k in range(len(reached)))

    mu = {x: tuple(coordinates(w) for w in ws) for x, ws in images.items()}
    eta = tuple(dot(ring, nonzeros(v), rep.eta) for v in reached)
    return LinearRepresentation(rep.alphabet, ring, coordinates(rep.nu), mu, eta)


@st.composite
def _minimize_cases(draw, ring, max_dim=4):
    """A representation from a similar pair, or the difference of the pair:
    the difference of an unperturbed pair minimizes to dimension 0."""
    r1, r2 = draw(_similar_pairs(ring, max_dim))
    rep = rep_sum(r1, r2.scale(-1)) if draw(st.booleans()) else r1
    return rep.embed_field()


def _check_minimize_against_reference(rep):
    m = minimize(rep)
    ref = _reference_left_reduce(_reference_left_reduce(rep).transpose()).transpose()
    assert (m.dim, m.nu, m.mu, m.eta) == (ref.dim, ref.nu, ref.mu, ref.eta)
    return m


@settings(max_examples=100, deadline=None)
@given(_minimize_cases(QQ))
def test_minimize_matches_the_pivot_block_reference_over_q(rep):
    _check_minimize_against_reference(rep)


@settings(max_examples=30, deadline=None)
@given(_minimize_cases(QT, max_dim=2))
def test_minimize_matches_the_pivot_block_reference_over_qt(rep):
    # pairs of dimension 2 at most: a dense representation of dimension 3 or
    # 4 over Q(t) can take seconds to minimize, nearly all of it in the gcds
    # that normalize RatFun products
    _check_minimize_against_reference(rep)


def test_minimize_reference_cases_reach_dimension_zero():
    for rep, dim in ((loop_star_rep(), 2), (rep_word(X2, QT, ("x0", "x1"), QT.gen()).embed_field(), 3)):
        assert _check_minimize_against_reference(rep).dim == dim
        assert _check_minimize_against_reference(rep_sum(rep, rep.scale(-1))).dim == 0


_small = st.integers(-3, 3).map(Fraction)


@st.composite
def _matrices(draw, min_rows=1):
    """Matrices over Q of 1-5 columns, with rows drawn as combinations of a
    few seed rows so that dependent rows are common."""
    m = draw(st.integers(min_rows, 5))
    n = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.lists(_small, min_size=n, max_size=n), min_size=1, max_size=4))
    rows = []
    for _ in range(m):
        coeffs = draw(st.lists(_small, min_size=len(seeds), max_size=len(seeds)))
        rows.append(tuple(sum((c * s[j] for c, s in zip(coeffs, seeds)), Fraction(0)) for j in range(n)))
    return tuple(rows)


@st.composite
def _invertible_matrices(draw, field, n=None):
    """P.L.U with L unit lower triangular, U upper triangular with nonzero
    diagonal and P a row permutation, over Q or over Q(t); n x n, or of a
    drawn size from 1 to 4."""
    n = draw(st.integers(1, 4)) if n is None else n
    entry = _ring_entries(QQ) if field == QQ else _ring_entries(QT).map(QT.embed)
    nonzero = entry.filter(bool)
    lower = [[field.one if i == j else draw(entry) if j < i else field.zero for j in range(n)] for i in range(n)]
    upper = [[draw(nonzero) if i == j else draw(entry) if j > i else field.zero for j in range(n)] for i in range(n)]
    a = _plain_mat_mul(lower, upper)
    return tuple(a[i] for i in draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invert_matrix_is_a_two_sided_inverse(data):
    field = data.draw(st.sampled_from((QQ, QT.field())))
    a = data.draw(_invertible_matrices(field))
    n = len(a)
    rows = invert_matrix(field, [nonzeros(row) for row in a])
    assert len(rows) == n and all(all(row.values()) for row in rows)
    inv = tuple(tuple(row.get(j, field.zero) for j in range(n)) for row in rows)
    unit = _unit_matrix(field, n)
    assert _plain_mat_mul(a, inv) == unit and _plain_mat_mul(inv, a) == unit


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invert_matrix_rejects_a_dependent_row(data):
    field = data.draw(st.sampled_from((QQ, QT.field())))
    a = [list(row) for row in data.draw(_invertible_matrices(field))]
    n = len(a)
    i = data.draw(st.integers(0, n - 1))
    coeffs = [field.coerce(data.draw(st.integers(-2, 2))) for _ in range(n)]
    a[i] = [sum((coeffs[k] * a[k][j] for k in range(n) if k != i), field.zero) for j in range(n)]
    with pytest.raises(ValueError, match="singular matrix"):
        invert_matrix(field, [nonzeros(row) for row in a])


def test_invert_matrix_needs_a_field_and_takes_the_empty_matrix():
    with pytest.raises(ValueError, match="needs a field"):
        invert_matrix(QT, ({0: QT.one},))
    assert invert_matrix(QQ, ()) == ()
    assert invert_matrix(QT.field(), ()) == ()


def _rank(a):
    rows = [list(r) for r in a]
    rank = 0
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_small_t = st.tuples(st.integers(-3, 3), st.integers(-1, 1)).map(lambda ab: Poly("t", ab))


@st.composite
def _qt_matrices(draw):
    """Matrices over Q[t] with rows drawn as combinations, with linear
    polynomial coefficients, of a few seed rows of degree at most 2."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    entry = st.lists(st.integers(-2, 2), max_size=3).map(lambda cs: Poly("t", cs))
    seeds = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    rows = []
    for _ in range(m):
        coeffs = draw(st.lists(_small_t, min_size=len(seeds), max_size=len(seeds)))
        rows.append(tuple(sum((c * s[j] for c, s in zip(coeffs, seeds)), QT.zero) for j in range(n)))
    return tuple(rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_domain_mode_matches_the_field_path(data):
    # fraction-free over Q[t] against the reduced row echelon form over Q(t):
    # the same rank after each row, and the same membership of other vectors
    a = data.draw(_qt_matrices())
    n = len(a[0])
    field = QT.field()
    domain_basis, field_basis = EchelonBasis(QT, n), EchelonBasis(field, n)
    for row in a:
        inserted = domain_basis.insert(nonzeros(row))
        assert inserted == field_basis.insert(nonzeros(QT.embed(c) for c in row))
        if inserted is not None:
            assert QT.primitive(domain_basis.rows[-1]) == domain_basis.rows[-1]
    assert all(all(row.values()) for basis in (domain_basis, field_basis) for row in basis.rows)
    extra = data.draw(st.lists(_small_t, min_size=n, max_size=n))
    for v in [extra] + [tuple(QT.coerce(int(i == j)) for i in range(n)) for j in range(n)]:
        assert bool(domain_basis.reduce(nonzeros(v))) == bool(field_basis.reduce(nonzeros(QT.embed(c) for c in v)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_coordinates_reproduce_combinations(data):
    # identity columns past the width: with a_i + e_(n+i) inserted, a vector
    # v in the span reduces to the entries -c_i at the columns n + i, with
    # v = sum_i c_i a_i
    a = data.draw(_matrices())
    m, n = len(a), len(a[0])
    basis = EchelonBasis(QQ, n)
    for i, row in enumerate(a):
        row = nonzeros(row)
        row[n + i] = Fraction(1)
        basis.insert(row)
    assert all(all(row.values()) for row in basis.rows)
    rank = _rank(a)
    assert basis.rank == rank
    coeffs = data.draw(st.lists(_small, min_size=m, max_size=m))
    v = _plain_vec_mat(coeffs, a)
    red = basis.reduce(nonzeros(v))
    assert all(j >= n for j in red)
    assert _plain_vec_mat([-red.get(n + i, Fraction(0)) for i in range(m)], a) == v
    for j in range(n):
        e = tuple(Fraction(int(i == j)) for i in range(n))
        if _rank(a + (e,)) > rank:
            assert any(k < n for k in basis.reduce({j: Fraction(1)}))


# ---------------------------------------------------------------------------
# the Lie classification, the one-letter form and conjugation on sparse rows
# against the dense formulas


def _dense_bracket(a, b):
    ab, ba = _plain_mat_mul(a, b), _plain_mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def _dense_char_poly(ring, m):
    """The trace recursion on dense matrices: a_(n-k) = -tr(M_k)/k with
    M_1 = M and M_(k+1) = M (M_k + a_(n-k) I)."""
    n = len(m)
    a = [ring.zero] * n + [ring.one]
    mk = m
    for k in range(1, n + 1):
        a[n - k] = ring.coerce(Fraction(-1, k)) * sum((mk[i][i] for i in range(n)), ring.zero)
        shifted = tuple(tuple(c + a[n - k] if i == j else c for j, c in enumerate(row)) for i, row in enumerate(mk))
        mk = _plain_mat_mul(m, shifted)
    return tuple(a)


def _dense_add(reduced, m):
    """Reduce the flattened entries of m by the rows (pivot, row with pivot
    entry 1) in `reduced`; a nonzero remainder joins them, and then True."""
    v = [c for row in m for c in row]
    for p, r in reduced:
        if v[p]:
            c = v[p]
            v = [x - c * y for x, y in zip(v, r)]
    p = next((j for j, c in enumerate(v) if c), None)
    if p is not None:
        reduced.append((p, [c / v[p] for c in v]))
    return p is not None


def _dense_span(mats, stop=None):
    """A maximal linearly independent sublist of dense matrices, or the first
    `stop` members of one."""
    reduced, members = [], []
    for m in mats:
        if len(members) == stop:
            break
        if _dense_add(reduced, m):
            members.append(m)
    return members


def _dense_lie_closure(gens):
    reduced = []
    members = [m for m in gens if _dense_add(reduced, m)]
    for i, a in enumerate(members):  # extended while it is walked
        for b in members[:i]:
            c = _dense_bracket(a, b)
            if _dense_add(reduced, c):
                members.append(c)
    return members


def _dense_classify(rep):
    m = minimize(rep.embed_field())
    gens = [m.mu[x] for x in m.active_letters]
    if not _dense_span([_dense_bracket(a, b) for a in gens for b in gens]):
        return "exchangeable"
    lie = _dense_lie_closure(gens)

    def vanishes(lower_central):
        # L_(k+1) = [L, L_k] for the lower central series, [L_k, L_k] for the derived one
        layer = lie
        while layer:
            brackets = (_dense_bracket(a, b) for a in (lie if lower_central else layer) for b in layer)
            nxt = _dense_span(brackets, stop=len(layer))
            if len(nxt) >= len(layer):
                return False
            layer = nxt
        return True

    return "nilpotent" if vanishes(True) else "solvable" if vanishes(False) else "general"


@st.composite
def _field_reps(draw, field, max_dim):
    """A representation over Q or Q(t) of dimension 0 to max_dim on one or
    two letters, whose entries are zero about half the time."""
    n = draw(st.integers(0, max_dim))
    nonzero = (_ring_entries(QQ) if field == QQ else _ring_entries(QT).map(QT.embed)).filter(bool)
    vec = st.lists(st.one_of(st.just(field.zero), nonzero), min_size=n, max_size=n)
    letters = draw(st.sampled_from((("x0",), ("x0", "x1"))))
    mu = {x: draw(st.lists(vec, min_size=n, max_size=n)) for x in letters}
    return LinearRepresentation(X2, field, draw(vec), mu, draw(vec))


def _check_sparse_against_dense(data, field, max_dim):
    r = data.draw(_field_reps(field, max_dim))
    n = r.dim
    for x in X2.letters:
        assert _char_poly(field, r.rows.get(x, ({},) * n)) == _dense_char_poly(field, _dense(r, x))
    assert lie_closure(r).dim == len(_dense_lie_closure([r.mu[x] for x in r.active_letters]))
    assert classify(r) == _dense_classify(r)
    t = data.draw(_invertible_matrices(field, n))
    conj = r.conjugate(t)
    assert set(conj.mu) == set(r.mu)
    assert all(c for rows in conj.rows.values() for row in rows for c in row.values())
    if n:
        assert _plain_vec_mat(conj.nu, t) == r.nu
    assert conj.eta == tuple(sum((a * b for a, b in zip(row, r.eta)), field.zero) for row in t)
    for x, m in r.mu.items():
        assert _plain_mat_mul(conj.mu[x], t) == _plain_mat_mul(t, m)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_sparse_lie_and_conjugation_match_the_dense_formulas_over_q(data):
    # a dimension-4 pair of letters mostly generates gl(4), of dimension 16:
    # about 1 s per classification
    _check_sparse_against_dense(data, QQ, 4)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_sparse_lie_and_conjugation_match_the_dense_formulas_over_qt(data):
    # dimension 2 at most: classifying a dimension-3 representation over Q(t)
    # can take minutes, in the brackets of its minimized rational functions
    _check_sparse_against_dense(data, QT.field(), 2)


def test_conjugate_needs_a_square_matrix_of_the_dimension():
    r = quiplait_rep()
    for t in (((1, 0), (0, 1), (0, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1,), (0, 1))):
        with pytest.raises(ValueError, match="not 2x2"):
            r.conjugate(t)
    with pytest.raises(ValueError, match="singular"):
        r.conjugate(((1, 2), (2, 4)))
