"""Dual basis pairs on the word algebra, indexed by Lyndon words.

Two families are built over Q:

* the bracket family: letters for Lyndon letters, iterated commutators over
  the standard factorization for longer Lyndon words, concatenation products
  over the nonincreasing Lyndon factorization for everything else;
* its dual family under the coefficient pairing: the dual-basis recursion
  D_l = l - sum_{u < l} <B_u | l> D_u on Lyndon words, divided shuffle
  powers in general.

On the graded Y alphabet the same pattern is repeated for the quasi-shuffle
structure, the quasi-shuffle taking the shuffle's place.  There the bracket
family starts not from letters but from their images under the first
Eulerian projector (the convolution logarithm of the identity), which are
primitive for the quasi-shuffle coproduct.

`BasisTable` builds every pair by the same rule in one pass: a word that is
not Lyndon costs one product in each family, on entries the table already
holds.  The recursion is exact because each bracket B_u is u plus lex-larger
words of its grade, so the u < l of l's grade are all the brackets reaching l.

The factorization check multiplies exponentials of paired basis elements
over the table's Lyndon words in decreasing order and compares against the
diagonal sum; the tensor factors multiply with the mixed rule (shuffle or
quasi-shuffle on the left slot, concatenation on the right).  The diagonal
sum of the paired elements runs on integer numerators over one common
denominator, and each exponential stops at the power bound // g, g the least
left grade of its argument.  The Lyndon
words are listed by filtering the graded words, which the table enumerates
anyway: over Y there are only 2^g - 1 nonempty words of weight <= g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

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
    """All four basis families on words of grade <= bound, over Q.

    One pass over the words, in grade then lex order, builds each pair
    (brackets B, duals D, dual product): (P, S, shuffle), and over Y also
    (Pi, Sigma, quasi-shuffle).  A Lyndon word l takes its letter's image
    (the letter, or its Eulerian projection for Pi) or the commutator of the
    brackets of its standard factorization, and D_l = l - sum_{u < l}
    <B_u | l> D_u over the earlier words of its grade.  Every other word w
    is l.w', l its first Lyndon factor: B_w = B_l.B_w' and
    D_w = (D_l * D_w') / i, i the number of leading factors equal to l.
    """

    def __init__(self, alphabet, bound):
        self.alphabet = alphabet
        self.bound = bound
        self.words = alphabet.words_up_to(bound)
        self.lyndon = lyndon_words(alphabet, bound)
        one = NCPolynomial.one(alphabet, QQ)
        self.P, self.S = {(): one}, {(): one}
        # brackets, duals, dual product, letter image, and the entries
        # <B_u | l> that each Lyndon word l still ahead will read
        families = [(self.P, self.S, NCPolynomial.shuffle, partial(NCPolynomial.word, alphabet, QQ), {})]
        if alphabet.kind == "Y":
            self.Pi, self.Sigma = {(): one}, {(): one}
            families.append((self.Pi, self.Sigma, NCPolynomial.stuffle, eulerian_pi1, {}))
        lyndon = set(self.lyndon)
        for w in self.words[1:]:
            factors = lyndon_factorization(w, alphabet)
            l, rest = factors[0], w[len(factors[0]) :]
            for brackets, duals, product, image, reads in families:
                if rest:
                    brackets[w] = brackets[l] * brackets[rest]
                    dual, i = product(duals[l], duals[rest]), factors.count(l)
                    duals[w] = dual.scale(Fraction(1, i)) if i > 1 else dual
                else:
                    if len(w) == 1:
                        brackets[w] = image(w)
                    else:
                        a, b = (brackets[f] for f in standard_factorization(w, alphabet))
                        brackets[w] = a * b - b * a
                    # D_l on integer numerators over one denominator
                    lifted = [(c, QQ.lift(duals[u].terms)) for u, c in reads.pop(w, ())]
                    den = math.lcm(*(c.denominator * d for c, (d, _) in lifted))
                    dual = {w: den}
                    for c, (d, nums) in lifted:
                        scale = c.numerator * (den // (c.denominator * d))
                        for v, n in nums.items():
                            dual[v] = dual.get(v, 0) - scale * n
                    duals[w] = NCPolynomial(alphabet, QQ, QQ.lower(dual, den))
                for v, c in brackets[w].terms.items():
                    if v != w and v in lyndon:
                        reads.setdefault(v, []).append((w, c))


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
    """exp(t) through the powers t^k / k! for k <= bound // g, g >= 1 the
    least left grade of t's terms: every later power is empty below the bound.
    With g = 0 the powers run to the bound or to the first empty one."""
    g = min((t.alphabet.word_grade(u) for u, _ in t.terms), default=0)
    acc = TensorPoly(t.alphabet, t.ring, {((), ()): QQ.one}) + t
    term = t
    for k in range(2, (bound // g if g else bound) + 1):
        term = term.mul(t, left_kernel, conc_words, bound).scale(Fraction(1, k))
        if not term.terms:
            break
        acc = acc + term
    return acc


def msr_check(alphabet, bound, table=None):
    """Verify the two diagonal-series identities up to the grade bound.

    The sum of duals[w] (x) brackets[w] is accumulated on integer
    numerators over the least common multiple of the pairs' denominators and
    lowered to Q once.  The product runs over the table's Lyndon words of
    grade <= bound, in decreasing order; exp(t) for t = duals[l] (x)
    brackets[l] stops at the power bound // g, g >= 1 the least left grade
    of t's terms, past which every power is empty.

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
    # the sum of the duals[w] (x) brackets[w], on integer numerators over one denominator
    lifted = [(QQ.lift(duals[w].terms), QQ.lift(brackets[w].terms)) for w in alphabet.words_up_to(bound)]
    d = math.lcm(*(ds * db for (ds, _), (db, _) in lifted))
    pair_sum = {}
    for (ds, s), (db, b) in lifted:
        scale = d // (ds * db)
        for u, cu in s.items():
            cu *= scale
            for v, cv in b.items():
                pair_sum[(u, v)] = pair_sum.get((u, v), 0) + cu * cv
    ok_sum = compare(TensorPoly(alphabet, QQ, QQ.lower(pair_sum, d)), "sum_ok", report)

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
