"""Dual basis pairs on the word algebra, indexed by Lyndon words.

Two families are built over Q:

* the bracket family: letters for Lyndon letters, iterated commutators over
  the standard factorization for longer Lyndon words, concatenation products
  over the nonincreasing Lyndon factorization for everything else;
* its dual family under the coefficient pairing: letter-peeling recursion on
  Lyndon words, divided shuffle powers in general.

On the graded Y alphabet the same pattern is repeated for the quasi-shuffle
structure.  There the bracket family starts not from letters but from their
images under the first Eulerian projector (the convolution logarithm of the
identity), which are primitive for the quasi-shuffle coproduct.  The dual
family is obtained by solving the unitriangular duality system inside each
grade-homogeneous component, ordering words lexicographically.

The factorization check multiplies exponentials of paired basis elements
over the table's Lyndon words in decreasing order and compares against the
diagonal sum; the tensor factors multiply with the mixed rule (shuffle or
quasi-shuffle on the left slot, concatenation on the right).  The Lyndon
words are listed by filtering the graded words, which the table enumerates
anyway: over Y there are only 2^g - 1 nonempty words of weight <= g.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import invert_matrix
from .rings import QQ
from .series import (
    CACHE_SIZE,
    NCPolynomial,
    TensorPoly,
    _unstuffle_word,
    conc_words,
    series_text,
    shuffle_words,
    stuffle_words,
)
from .words import (
    Alphabet,
    _as_word,
    is_lyndon,
    lyndon_factorization,
    lyndon_words,
    standard_factorization,
    word_text,
)

__all__ = [
    "BasisTable",
    "basis_table",
    "basis_P",
    "basis_S",
    "basis_Pi",
    "basis_Sigma",
    "eulerian_pi1",
    "phi_pi1",
    "msr_check",
    "basis_table_lines",
]

_Y = Alphabet.y()


@lru_cache(maxsize=CACHE_SIZE)
def _pi1_word(w):
    """First Eulerian projector of a Y-type word, as a coefficient dict.

    Convolution-logarithm sum: the k-th term conc-multiplies the k slots of
    the (k-1)-fold reduced quasi-shuffle coproduct, weighted (-1)^(k-1)/k.
    """
    if not w:
        return ()
    acc = {w: Fraction(1)}
    layers = {(w,): 1}
    grade = sum(int(c[1:]) for c in w)
    for k in range(2, grade + 1):
        new = {}
        for slots, c in layers.items():
            for (a, b), m in _unstuffle_word(slots[-1]):
                if a and b:
                    key = slots[:-1] + (a, b)
                    new[key] = new.get(key, 0) + c * m
        layers = new
        if not layers:
            break
        coeff = Fraction((-1) ** (k - 1), k)
        for slots, c in layers.items():
            word = sum(slots, ())
            acc[word] = acc.get(word, Fraction(0)) + coeff * c
    return tuple(acc.items())


def eulerian_pi1(arg):
    """Apply the first Eulerian projector (Y alphabet), extended linearly."""
    if isinstance(arg, NCPolynomial):
        if arg.alphabet.kind != "Y":
            raise ValueError("the Eulerian projector acts on the graded Y alphabet")
        out = {}
        for w, c in arg.terms.items():
            for v, d in _pi1_word(w):
                out[v] = out.get(v, arg.ring.zero) + c * d
        return NCPolynomial(arg.alphabet, arg.ring, out)
    w = _as_word(arg)
    _Y.validate_word(w)
    return NCPolynomial(_Y, QQ, dict(_pi1_word(w)))


def phi_pi1(p):
    """The concatenation endomorphism sending each letter yk to its Eulerian
    projector image, extended multiplicatively and linearly."""
    if not isinstance(p, NCPolynomial):
        p = NCPolynomial.word(_Y, QQ, p)
    if p.alphabet.kind != "Y":
        raise ValueError("phi_pi1 acts on the graded Y alphabet")
    out = NCPolynomial.zero(p.alphabet, p.ring)
    one = NCPolynomial.one(p.alphabet, p.ring)
    for w, c in p.terms.items():
        prod = one
        for letter in w:
            prod = prod * NCPolynomial(p.alphabet, p.ring, dict(_pi1_word((letter,))))
        out = out + prod.scale(c)
    return out


class BasisTable:
    """All four basis families on words of grade <= bound, over Q."""

    def __init__(self, alphabet, bound):
        self.alphabet = alphabet
        self.bound = bound
        self.words = alphabet.words_up_to(bound)
        self.lyndon = lyndon_words(alphabet, bound)
        self.P = {}
        self.S = {}
        one = NCPolynomial.one(alphabet, QQ)
        letter_base = {(c,): NCPolynomial.word(alphabet, QQ, (c,)) for c in alphabet.letters_up_to(bound)}
        bracket_lyndon = self._bracket_family(letter_base)
        for w in self.words:
            self.P[w] = self._pbw_product(w, bracket_lyndon, one)
        for w in self.words:
            self._dual_S(w)
        if alphabet.kind == "Y":
            pi_base = {
                (c,): NCPolynomial(alphabet, QQ, dict(_pi1_word((c,))))
                for c in alphabet.letters_up_to(bound)
            }
            pi_lyndon = self._bracket_family(pi_base)
            self.Pi = {w: self._pbw_product(w, pi_lyndon, one) for w in self.words}
            self.Sigma = {}
            for g in range(bound + 1):
                self._solve_sigma_block(g)

    def _bracket_family(self, letter_base):
        out = {}
        for l in sorted(self.lyndon, key=len):
            if len(l) == 1:
                out[l] = letter_base[l]
            else:
                l1, l2 = standard_factorization(l, self.alphabet)
                a, b = out[l1], out[l2]
                out[l] = a * b - b * a
        return out

    def _pbw_product(self, w, lyndon_vals, one):
        acc = one
        for factor in lyndon_factorization(w, self.alphabet):
            acc = acc * lyndon_vals[factor]
        return acc

    def _dual_S(self, w):
        if w in self.S:
            return self.S[w]
        if not w:
            val = NCPolynomial.one(self.alphabet, QQ)
        elif is_lyndon(w, self.alphabet):
            if len(w) == 1:
                val = NCPolynomial.word(self.alphabet, QQ, w)
            else:
                val = NCPolynomial.word(self.alphabet, QQ, (w[0],)) * self._dual_S(w[1:])
        else:
            factors = lyndon_factorization(w, self.alphabet)
            runs = []
            for f in factors:
                if runs and runs[-1][0] == f:
                    runs[-1][1] += 1
                else:
                    runs.append([f, 1])
            val = NCPolynomial.one(self.alphabet, QQ)
            denom = 1
            for f, mult in runs:
                base = self._dual_S(f)
                for _ in range(mult):
                    val = val.shuffle(base)
                for j in range(2, mult + 1):
                    denom *= j
            val = val.scale(Fraction(1, denom))
        self.S[w] = val
        return val

    def _solve_sigma_block(self, g):
        words = sorted(self.alphabet.words_of_grade(g), key=self.alphabet.ranks)
        if g == 0:
            self.Sigma[()] = NCPolynomial.one(self.alphabet, QQ)
            return
        # column i of the transpose holds the coefficients of Pi[words[i]] on
        # the words; rows of its inverse give the dual family coefficients
        column = {w: j for j, w in enumerate(words)}
        t = [{} for _ in words]
        for i, v in enumerate(words):
            for w, c in self.Pi[v].terms.items():
                t[column[w]][i] = c
        s = invert_matrix(QQ, t)
        for v, row in zip(words, s):
            self.Sigma[v] = NCPolynomial(self.alphabet, QQ, {words[j]: c for j, c in sorted(row.items())})


@lru_cache(maxsize=32)
def basis_table(alphabet, bound):
    """The table of `alphabet` up to grade `bound`; the last 32 used are kept."""
    if bound < 0:
        raise ValueError("the grade bound must be nonnegative")
    return BasisTable(alphabet, bound)


def basis_P(alphabet, w):
    w = _as_word(w)
    return basis_table(alphabet, alphabet.word_grade(w)).P[w]


def basis_S(alphabet, w):
    w = _as_word(w)
    return basis_table(alphabet, alphabet.word_grade(w)).S[w]


def basis_Pi(w):
    w = _as_word(w)
    return basis_table(_Y, _Y.word_grade(w)).Pi[w]


def basis_Sigma(w):
    w = _as_word(w)
    return basis_table(_Y, _Y.word_grade(w)).Sigma[w]


# ---------------------------------------------------------------------------
# diagonal factorization check


def _tensor_exp(t, bound, left_kernel):
    one = TensorPoly(t.alphabet, t.ring, {((), ()): QQ.one})
    acc = one
    term = one
    for k in range(1, bound + 1):
        term = term.mul(t, left_kernel, conc_words, bound).scale(Fraction(1, k))
        if not term.terms:
            break
        acc = acc + term
    return acc


def msr_check(alphabet, bound, table=None):
    """Verify the two diagonal-series identities up to the grade bound.

    The product runs over the table's Lyndon words of grade <= bound, in
    decreasing order.

    Returns (ok, report); the report carries per-check flags and, on failure,
    the first offending tensor component and the largest coefficient gap.
    """
    if table is None:
        table = basis_table(alphabet, bound)
    if alphabet.kind == "Y":
        duals, brackets, left_kernel = table.Sigma, table.Pi, stuffle_words
    else:
        duals, brackets, left_kernel = table.S, table.P, shuffle_words
    diagonal = TensorPoly(alphabet, QQ, {(w, w): QQ.one for w in alphabet.words_up_to(bound)})

    def compare(got, label, report):
        diff = got - diagonal
        if diff.terms:
            worst = max(abs(c) for c in diff.terms.values())
            at = min(diff.terms, key=lambda k: (alphabet.word_key(k[0]), alphabet.word_key(k[1])))
            report[label] = False
            if worst > report["max_discrepancy"]:
                report["max_discrepancy"] = worst
                report["at"] = (word_text(at[0]), word_text(at[1]))
            return False
        report[label] = True
        return True

    report = {"max_discrepancy": Fraction(0), "at": None}
    pair_sum = {}  # one dict for the sum of the duals[w] (x) brackets[w]
    for w in alphabet.words_up_to(bound):
        for u, cu in duals[w].terms.items():
            for v, cv in brackets[w].terms.items():
                pair_sum[(u, v)] = pair_sum.get((u, v), QQ.zero) + cu * cv
    ok_sum = compare(TensorPoly(alphabet, QQ, pair_sum), "sum_ok", report)

    product = TensorPoly(alphabet, QQ, {((), ()): QQ.one})
    lyndon = [l for l in table.lyndon if alphabet.word_grade(l) <= bound]
    for l in reversed(lyndon):
        factor = _tensor_exp(TensorPoly.of(duals[l], brackets[l]), bound, left_kernel)
        product = product.mul(factor, left_kernel, conc_words, bound)
    ok_prod = compare(product, "product_ok", report)

    return ok_sum and ok_prod, report


def basis_table_lines(table):
    """Golden-file form: word, bracket, dual (plus the Y pair), tab-separated."""
    lines = []
    for w in table.words:
        cols = [word_text(w), series_text(table.P[w]), series_text(table.S[w])]
        if table.alphabet.kind == "Y":
            cols.extend([series_text(table.Pi[w]), series_text(table.Sigma[w])])
        lines.append("\t".join(cols))
    return lines
