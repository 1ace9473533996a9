"""Lyndon dual bases, the Eulerian projector, and the diagonal factorization.

The projector oracle below is the adjoint-sum formula: pair the word against
all quasi-shuffle products of k nonempty words and concatenate, weighted by
(-1)^(k-1)/k.  The implementation instead iterates the reduced coproduct, so
agreement is a genuine cross-check.
"""

import time
from fractions import Fraction
from functools import partial

import pytest

from ncfps.automata import rep_word
from ncfps.bases import (
    BasisTable,
    basis_P,
    basis_Pi,
    basis_S,
    basis_Sigma,
    basis_table,
    basis_table_lines,
    eulerian_pi1,
    msr_check,
    phi_pi1,
)
from ncfps.linalg import invert_matrix
from ncfps.rings import QQ
from ncfps.series import NCPolynomial, TensorPoly, TruncatedSeries, parse_series_text, unshuffle, unstuffle
from ncfps.words import Alphabet, is_lyndon, lyndon_factorization, parse_word, word_text

X2 = Alphabet.x(2)
X3 = Alphabet.x(3)
Y = Alphabet.y()


def qp(text, alphabet=X2):
    return parse_series_text(text, alphabet, QQ)


def yp(text):
    return parse_series_text(text, Y, QQ)


def word_poly(alphabet, w):
    return NCPolynomial.word(alphabet, QQ, w)


def _tuples_of_words(total, k):
    if k == 0:
        if total == 0:
            yield ()
        return
    for g1 in range(1, total - k + 2):
        for w1 in Y.words_of_grade(g1):
            for rest in _tuples_of_words(total - g1, k - 1):
                yield (w1,) + rest


def oracle_pi1(w):
    g = Y.word_grade(w)
    acc = NCPolynomial.word(Y, QQ, w)
    for k in range(2, g + 1):
        coeff = Fraction((-1) ** (k - 1), k)
        for tup in _tuples_of_words(g, k):
            prod = word_poly(Y, tup[0])
            for u in tup[1:]:
                prod = prod.stuffle(word_poly(Y, u))
            c = prod.coeff(w)
            if c:
                conc = NCPolynomial.word(Y, QQ, sum(tup, ()))
                acc = acc + conc.scale(coeff * c)
    return acc


class TestBracketBasis:
    def test_single_bracket(self):
        assert basis_P(X2, parse_word("x0.x1")) == qp("x0.x1 - x1.x0")

    def test_nested_bracket(self):
        expected = qp("x0.x0.x1 - 2*x0.x1.x0 + x1.x0.x0")
        assert basis_P(X2, parse_word("x0.x0.x1")) == expected

    def test_pbw_product_of_letters(self):
        assert basis_P(X2, parse_word("x1.x0")) == qp("x1.x0")

    def test_homogeneous(self):
        t = basis_table(X2, 4)
        for w in t.words:
            for v in t.P[w].support():
                assert len(v) == len(w)
            for v in t.S[w].support():
                assert len(v) == len(w)


class TestDualBasis:
    def test_letter_peeling(self):
        assert basis_S(X2, parse_word("x0.x0.x1")) == qp("x0.x0.x1")

    def test_two_lyndon_factors(self):
        assert basis_S(X2, parse_word("x1.x0")) == qp("x0.x1 + x1.x0")

    def test_divided_power(self):
        assert basis_S(X2, parse_word("x0.x0")) == qp("x0.x0")

    def test_duality_grade_5(self):
        t = basis_table(X2, 5)
        for u in t.words:
            for v in t.words:
                expected = QQ.one if u == v else QQ.zero
                assert t.S[u].pair(t.P[v]) == expected, (u, v)

    def test_unitriangular_transition(self):
        # rows of the duals against the word basis, lex order: unit diagonal
        # and nothing above it; bracket rows are the mirror image, which the
        # table's dual-basis recursion relies on
        for alphabet, bound in ((X2, 4), (X3, 4), (Y, 6)):
            t = basis_table(alphabet, bound)
            pairs = [(t.P, t.S), (t.Pi, t.Sigma)] if alphabet.kind == "Y" else [(t.P, t.S)]
            for g in range(1, bound + 1):
                words = sorted(alphabet.words_of_grade(g), key=alphabet.ranks)
                for brackets, duals in pairs:
                    for i, u in enumerate(words):
                        assert duals[u].coeff(u) == 1 and brackets[u].coeff(u) == 1
                        for j in range(i + 1, len(words)):
                            assert duals[u].coeff(words[j]) == 0, (u, words[j])
                        for j in range(i):
                            assert brackets[u].coeff(words[j]) == 0, (u, words[j])


class TestEulerianProjector:
    def test_primitive_letter_fixed(self):
        assert eulerian_pi1(parse_word("y1")) == yp("y1")

    def test_weight_two(self):
        assert eulerian_pi1(parse_word("y2")) == yp("y2 - 1/2*y1.y1")

    def test_matches_adjoint_sum_oracle(self):
        for w in Y.words_up_to(4, include_empty=False):
            assert eulerian_pi1(w) == oracle_pi1(w), w

    def test_primitive_for_quasi_shuffle(self):
        for w in Y.words_up_to(5, include_empty=False):
            p = eulerian_pi1(w)
            d = unstuffle(p)
            one = NCPolynomial.one(Y, QQ)
            defect = d - TensorPoly.of(p, one) - TensorPoly.of(one, p)
            assert not defect.terms, w

    def test_idempotent_on_image(self):
        for w in Y.words_up_to(5, include_empty=False):
            p = eulerian_pi1(w)
            assert eulerian_pi1(p) == p, w


class TestPhi:
    def test_letter_images(self):
        assert phi_pi1(parse_word("y1")) == yp("y1")
        assert phi_pi1(parse_word("y2")) == yp("y2 - 1/2*y1.y1")

    def test_morphism_example(self):
        lhs = phi_pi1(parse_word("y1.y2"))
        rhs = word_poly(Y, ("y1",)) * yp("y2 - 1/2*y1.y1")
        assert lhs == rhs

    def test_intertwines_coproducts(self):
        # applying phi in both slots after the shuffle coproduct equals the
        # quasi-shuffle coproduct after phi, wordwise up to weight 4
        for w in Y.words_up_to(4, include_empty=False):
            lhs = TensorPoly.zero(Y, QQ)
            for (u, v), c in unshuffle(word_poly(Y, w)).terms.items():
                lhs = lhs + TensorPoly.of(phi_pi1(u), phi_pi1(v)).scale(c)
            rhs = unstuffle(phi_pi1(w))
            assert lhs == rhs, w


class TestQuasiShuffleBases:
    def test_pi_letters_are_projector_images(self):
        assert basis_Pi(parse_word("y2")) == yp("y2 - 1/2*y1.y1")

    def test_sigma_letters_are_plain(self):
        for s in range(1, 6):
            assert basis_Sigma((f"y{s}",)) == yp(f"y{s}")

    def test_duality_weight_3_matrix(self):
        words = sorted(Y.words_of_grade(3), key=Y.ranks)
        for u in words:
            for v in words:
                expected = QQ.one if u == v else QQ.zero
                assert basis_Sigma(u).pair(basis_Pi(v)) == expected

    def test_duality_weight_5(self):
        t = basis_table(Y, 5)
        for u in t.words:
            for v in t.words:
                expected = QQ.one if u == v else QQ.zero
                assert t.Sigma[u].pair(t.Pi[v]) == expected, (u, v)

    def test_homogeneous(self):
        t = basis_table(Y, 4)
        for w in t.words:
            for v in t.Pi[w].support():
                assert Y.word_grade(v) == Y.word_grade(w)
            for v in t.Sigma[w].support():
                assert Y.word_grade(v) == Y.word_grade(w)


class TestDiagonalFactorization:
    def test_shuffle_side(self):
        ok, report = msr_check(X2, 4)
        assert ok, report
        assert report["sum_ok"] and report["product_ok"]

    def test_quasi_shuffle_side(self):
        ok, report = msr_check(Y, 4)
        assert ok, report

    def test_shuffle_side_at_grade_6_is_fast(self):
        # forming every tensor pair and truncating afterwards took about 13 s
        t0 = time.perf_counter()
        ok, report = msr_check(X2, 6)
        assert ok, report
        assert time.perf_counter() - t0 < 2.0

    def test_corrupted_table_detected(self):
        t = BasisTable(X2, 3)
        w = parse_word("x0.x1")
        t.S[w] = t.S[w] + qp("x1.x1")
        ok, report = msr_check(X2, 3, table=t)
        assert not ok
        assert report["max_discrepancy"] > 0
        assert report["at"] is not None


def pbw_product_oracle(w, alphabet, brackets):
    """The concatenation product of the brackets of w's Lyndon factors, in order."""
    acc = NCPolynomial.one(alphabet, QQ)
    for factor in lyndon_factorization(w, alphabet):
        acc = acc * brackets[factor]
    return acc


def divided_power_oracle(w, alphabet, duals, product=NCPolynomial.shuffle):
    """The product over runs f^i of w's Lyndon factors of the power
    duals[f]^i divided by i!, for the shuffle or the quasi-shuffle."""
    runs = []
    for f in lyndon_factorization(w, alphabet):
        if runs and runs[-1][0] == f:
            runs[-1][1] += 1
        else:
            runs.append([f, 1])
    val = NCPolynomial.one(alphabet, QQ)
    denom = 1
    for f, mult in runs:
        for _ in range(mult):
            val = product(val, duals[f])
        for j in range(2, mult + 1):
            denom *= j
    return val.scale(Fraction(1, denom))


@pytest.mark.parametrize("alphabet, bound", [(X2, 6), (X3, 4), (Y, 6)])
def test_each_entry_is_the_product_over_its_lyndon_factors(alphabet, bound):
    # every word, not a sample: the table builds a word from its first factor
    # and the rest, the oracles from all its factors at once
    t = BasisTable(alphabet, bound)
    for w in t.words:
        assert t.P[w] == pbw_product_oracle(w, alphabet, t.P), w
        assert t.S[w] == divided_power_oracle(w, alphabet, t.S), w
        if alphabet.kind == "Y":
            assert t.Pi[w] == pbw_product_oracle(w, alphabet, t.Pi), w
            assert t.Sigma[w] == divided_power_oracle(w, alphabet, t.Sigma, NCPolynomial.stuffle), w


def solve_sigma_block(table, g):
    """Sigma on the words of grade g by inverting the transposed Pi block:
    column i holds the coefficients of Pi[words[i]] on the words, and the
    rows of the inverse give the dual coefficients."""
    alphabet = table.alphabet
    words = sorted(alphabet.words_of_grade(g), key=alphabet.ranks)
    column = {w: j for j, w in enumerate(words)}
    t = [{} for _ in words]
    for i, v in enumerate(words):
        for w, c in table.Pi[v].terms.items():
            t[column[w]][i] = c
    s = invert_matrix(QQ, t)
    return {v: NCPolynomial(alphabet, QQ, {words[j]: c for j, c in row.items()}) for v, row in zip(words, s)}


def test_sigma_is_the_inverse_of_the_transposed_pi_blocks():
    # every entry up to weight 7, against the general matrix inverse
    t = BasisTable(Y, 7)
    for g in range(1, 8):
        for v, want in solve_sigma_block(t, g).items():
            assert t.Sigma[v] == want, v


@pytest.mark.parametrize("alphabet, bound", [(X2, 6), (X3, 4)])
def test_lyndon_duals_peel_their_first_letter(alphabet, bound):
    # S_l = x.S_rest for a Lyndon word l = x.rest of length >= 2
    t = BasisTable(alphabet, bound)
    for l in t.lyndon:
        if len(l) > 1:
            assert t.S[l] == word_poly(alphabet, l[:1]) * t.S[l[1:]], l


@pytest.mark.parametrize("alphabet, bound, count", [(X2, 6, 248), (Y, 6, 228)])
def test_each_entry_past_the_lyndon_words_costs_one_product(monkeypatch, alphabet, bound, count):
    # a Lyndon word's bracket is two concatenations and its dual none; every
    # other nonempty word takes one concatenation and one dual product in
    # each family: 2 brackets + 2 others at X2@6, where letter peeling made
    # 271, and 146 concatenations + 41 shuffles + 41 stuffles at Y@6
    kernels = []
    word_product = NCPolynomial._word_product

    def spy(self, other, kernel, bound=None):
        kernels.append(kernel.__name__)
        return word_product(self, other, kernel, bound)

    monkeypatch.setattr(NCPolynomial, "_word_product", spy)
    t = BasisTable(alphabet, bound)
    lyndon = [w for w in t.words if w and is_lyndon(w, alphabet)]
    others = len(t.words) - 1 - len(lyndon)
    brackets = sum(len(l) > 1 for l in lyndon)
    families = 2 if alphabet.kind == "Y" else 1
    assert kernels.count("shuffle_words") == others
    assert kernels.count("stuffle_words") == (others if alphabet.kind == "Y" else 0)
    assert kernels.count("conc_words") == families * (2 * brackets + others)
    assert len(kernels) == count


def _corrupted_x2_dual():
    t = BasisTable(X2, 3)
    w = parse_word("x0.x1")
    t.S[w] = t.S[w] + qp("x1.x1")
    return msr_check(X2, 3, table=t)


def _corrupted_x2_letter():
    # P[x0] doubled: exp(x0 (x) 2 x0) reaches its fourth power
    t = BasisTable(X2, 4)
    t.P[("x0",)] = t.P[("x0",)].scale(2)
    return msr_check(X2, 4, table=t)


def _corrupted_y_sigma():
    # y2.y1 is Lyndon, so the product meets the corrupted entry too
    t = BasisTable(Y, 4)
    w = parse_word("y2.y1")
    t.Sigma[w] = t.Sigma[w] + yp("1/2*y3")
    return msr_check(Y, 4, table=t)


@pytest.mark.parametrize(
    "corrupt, want",
    [
        (_corrupted_x2_dual, {"max_discrepancy": Fraction(3), "at": ("x1.x1", "x0.x1"), "sum_ok": False, "product_ok": False}),
        (_corrupted_x2_letter, {"max_discrepancy": Fraction(15), "at": ("x0", "x0"), "sum_ok": False, "product_ok": False}),
        (_corrupted_y_sigma, {"max_discrepancy": Fraction(1, 2), "at": ("y3", "y2.y1"), "sum_ok": False, "product_ok": False}),
    ],
)
def test_corrupted_tables_give_the_same_reports(corrupt, want):
    # the reports the check gave when it summed Fractions term by term and
    # ran each exponential to its first empty power
    ok, report = corrupt()
    assert ok is False
    assert report == want and list(report) == list(want)


class TestGoldenTables:
    def test_x2_table_locked(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "bases_x2_grade4.tsv"
        lines = basis_table_lines(basis_table(X2, 4))
        assert golden.read_text().splitlines() == lines

    def test_y_table_locked(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "bases_y_weight4.tsv"
        lines = basis_table_lines(basis_table(Y, 4))
        assert golden.read_text().splitlines() == lines


def test_basis_tables_keep_at_most_the_bound():
    from ncfps import bases

    bases.basis_table.cache_clear()
    x1 = Alphabet.x(1)
    tables = [bases.basis_table(x1, b) for b in range(33)]
    assert bases.basis_table.cache_info().currsize == 32
    assert bases.basis_table(x1, 32) is tables[32]
    # the least recently used table, of bound 0, was dropped and is rebuilt
    assert bases.basis_table(x1, 0) is not tables[0]
    assert bases.basis_table.cache_info().currsize == 32


def _word_entry_points():
    """Each entry point that builds from a word or divides by one, as a
    function of the word, with the alphabet of the words it takes."""
    poly = NCPolynomial(X2, QQ, {w: Fraction(i + 1) for i, w in enumerate(X2.words_up_to(3))})
    truncated = TruncatedSeries(poly, 3)

    def chain(w):
        rep = rep_word(X2, QQ, w)
        return rep.nu, rep.rows, rep.eta

    return {
        "NCPolynomial.word": (partial(NCPolynomial.word, X2, QQ), X2),
        "rep_word": (chain, X2),
        "NCPolynomial.left_quotient": (poly.left_quotient, X2),
        "NCPolynomial.right_quotient": (poly.right_quotient, X2),
        "TruncatedSeries.left_quotient": (truncated.left_quotient, X2),
        "TruncatedSeries.right_quotient": (truncated.right_quotient, X2),
        "basis_P": (partial(basis_P, X2), X2),
        "basis_S": (partial(basis_S, X2), X2),
        "basis_Pi": (basis_Pi, Y),
        "basis_Sigma": (basis_Sigma, Y),
        "eulerian_pi1": (eulerian_pi1, Y),
        "phi_pi1": (phi_pi1, Y),
    }


@pytest.mark.parametrize("site", list(_word_entry_points()))
def test_a_word_given_as_text_builds_as_its_letters(site):
    get, alphabet = _word_entry_points()[site]
    for w in alphabet.words_up_to(3, include_empty=False):
        want = get(w)
        assert get(word_text(w)) == want and get(list(w)) == want, w
