"""Alphabets, word text form, and Lyndon combinatorics.

Brute-force oracles used here:

* Lyndon test straight from the definition (smaller than every proper suffix).
* Lyndon listing by filtering all words of bounded grade through that test.
* Lyndon counts by weight from Witt's formula, independent of any listing.
* Factorizations checked against exhaustive enumeration of all splits.
"""

import random
from collections import Counter
from itertools import product

import pytest

from ncfps.words import (
    Alphabet,
    is_lyndon,
    lyndon_factorization,
    lyndon_words,
    parse_word,
    standard_factorization,
    word_text,
    x_word_to_y,
    y_word_to_x,
)

X2 = Alphabet.x(2)
X3 = Alphabet.x(3)
Y = Alphabet.y()


def oracle_is_lyndon(word, alphabet):
    if not word:
        return False
    r = alphabet.ranks(word)
    return all(r < r[i:] for i in range(1, len(word)))


def oracle_lyndon_words(alphabet, bound):
    out = [w for w in alphabet.words_up_to(bound, include_empty=False) if oracle_is_lyndon(w, alphabet)]
    out.sort(key=alphabet.ranks)
    return out


def mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def witt_count(n, primitive):
    """(1/n) sum over d | n of mobius(d) * primitive(n / d)."""
    return sum(mobius(d) * primitive(n // d) for d in range(1, n + 1) if n % d == 0) // n


class TestAlphabet:
    def test_x_order_and_grades(self):
        assert X3.letters == ("x0", "x1", "x2")
        assert X3.rank("x0") < X3.rank("x2")
        assert X3.grade("x2") == 1
        assert X3.word_grade(("x0", "x2")) == 2

    def test_y_order_is_reversed_by_index(self):
        assert Y.rank("y1") > Y.rank("y2") > Y.rank("y7")
        assert Y.grade("y3") == 3
        assert Y.word_grade(("y2", "y1", "y1")) == 4

    def test_membership(self):
        assert X2.is_letter("x1") and not X2.is_letter("x2")
        assert Y.is_letter("y12") and not Y.is_letter("y0") and not Y.is_letter("x1")
        assert not Y.is_letter("y2\n")
        with pytest.raises(ValueError):
            X2.validate_word(("x0", "x5"))
        with pytest.raises(ValueError):
            Alphabet.from_letters(["x0\n"])

    def test_words_of_grade_x(self):
        assert X2.words_of_grade(0) == [()]
        assert X2.words_of_grade(2) == [
            ("x0", "x0"),
            ("x0", "x1"),
            ("x1", "x0"),
            ("x1", "x1"),
        ]
        assert len(X3.words_of_grade(3)) == 27

    def test_words_of_grade_y_are_compositions(self):
        ws = Y.words_of_grade(3)
        assert set(ws) == {("y3",), ("y2", "y1"), ("y1", "y2"), ("y1", "y1", "y1")}
        # lex order: y3 < y2.y1 < y1.y2 < y1.y1.y1
        assert ws == [("y3",), ("y2", "y1"), ("y1", "y2"), ("y1", "y1", "y1")]
        assert len(Y.words_of_grade(6)) == 32  # 2^(6-1) compositions

    def test_words_up_to_sorted_by_grade_then_lex(self):
        ws = X2.words_up_to(2)
        assert ws == [(), ("x0",), ("x1",), ("x0", "x0"), ("x0", "x1"), ("x1", "x0"), ("x1", "x1")]
        keys = [Y.word_key(w) for w in Y.words_up_to(4)]
        assert keys == sorted(keys)

    def test_name_round_trip(self):
        assert Alphabet.named(X3.name) == X3
        assert Alphabet.named("Y") == Y
        assert Alphabet.named("x0,x2").letters == ("x0", "x2")


class TestWordText:
    def test_round_trip(self):
        for w in [(), ("x0",), ("x0", "x1", "x1"), ("y2", "y1")]:
            assert parse_word(word_text(w)) == w
        assert word_text(()) == "1"
        assert parse_word("1") == ()

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("x0..x1")
        with pytest.raises(ValueError):
            parse_word("foo")


class TestLyndon:
    def test_against_definition_oracle(self):
        for alphabet, bound in [(X2, 6), (X3, 4), (Y, 6)]:
            for w in alphabet.words_up_to(bound):
                assert is_lyndon(w, alphabet) == oracle_is_lyndon(w, alphabet)

    def test_listing_x2_grade3(self):
        got = lyndon_words(X2, 3)
        assert [word_text(w) for w in got] == ["x0", "x0.x0.x1", "x0.x1", "x0.x1.x1", "x1"]

    def test_listing_matches_filter_oracle(self):
        for alphabet, bound in [(X2, 7), (X3, 5), (Y, 7)]:
            assert lyndon_words(alphabet, bound) == oracle_lyndon_words(alphabet, bound)

    def test_counts_x2(self):
        # necklace counts over two letters: 2, 1, 2, 3, 6, 9, 18 by grade
        by_grade = {}
        for w in lyndon_words(X2, 7):
            by_grade[len(w)] = by_grade.get(len(w), 0) + 1
        assert [by_grade[g] for g in range(1, 8)] == [2, 1, 2, 3, 6, 9, 18]

    def test_counts_by_weight_follow_witts_formula(self):
        # k letters of grade 1 give k^m words of length m; Y, with one letter
        # of each weight, gives 2^m - 1 in place of k^m
        assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
        for alphabet, bound, primitive in [(X3, 6, lambda m: 3**m), (Y, 10, lambda m: 2**m - 1)]:
            counts = Counter(alphabet.word_grade(w) for w in lyndon_words(alphabet, bound))
            want = [witt_count(n, primitive) for n in range(1, bound + 1)]
            assert [counts[n] for n in range(1, bound + 1)] == want
        assert want == [1, 1, 2, 3, 6, 9, 18, 30, 56, 99]

    def test_standard_factorization_oracle(self):
        # oracle: of all splits w = uv with both halves Lyndon, the standard
        # one has the longest right half
        for alphabet, bound in [(X2, 7), (Y, 6)]:
            for w in lyndon_words(alphabet, bound):
                if len(w) < 2:
                    continue
                left, right = standard_factorization(w, alphabet)
                assert left + right == w
                assert is_lyndon(left, alphabet) and is_lyndon(right, alphabet)
                best = max(
                    (v for i in range(1, len(w)) for u, v in [(w[:i], w[i:])]
                     if oracle_is_lyndon(u, alphabet) and oracle_is_lyndon(v, alphabet)),
                    key=len,
                )
                assert right == best

    def test_standard_factorization_rejects(self):
        with pytest.raises(ValueError):
            standard_factorization(("x0",), X2)
        with pytest.raises(ValueError):
            standard_factorization(("x1", "x0"), X2)

    def test_factorization_into_nonincreasing_lyndon(self):
        rng = random.Random(5)
        for alphabet, letters in [(X2, ["x0", "x1"]), (X3, ["x0", "x1", "x2"]), (Y, ["y1", "y2", "y3"])]:
            for _ in range(200):
                n = rng.randrange(0, 9)
                w = tuple(rng.choice(letters) for _ in range(n))
                parts = lyndon_factorization(w, alphabet)
                assert sum(parts, ()) == w
                for p in parts:
                    assert oracle_is_lyndon(p, alphabet)
                ranks = [alphabet.ranks(p) for p in parts]
                assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_factorization_uniqueness_small(self):
        # exhaustive: every word over x0,x1 of length <= 6 admits exactly one
        # nonincreasing Lyndon factorization
        def all_factorizations(w):
            if not w:
                yield []
                return
            for i in range(1, len(w) + 1):
                if oracle_is_lyndon(w[:i], X2):
                    for rest in all_factorizations(w[i:]):
                        yield [w[:i]] + rest

        for n in range(7):
            for w in product(("x0", "x1"), repeat=n):
                good = [
                    fs
                    for fs in all_factorizations(w)
                    if all(X2.ranks(a) >= X2.ranks(b) for a, b in zip(fs, fs[1:]))
                ]
                assert len(good) == 1
                assert good[0] == lyndon_factorization(w, X2)


class TestYXCorrespondence:
    def test_letterwise_images(self):
        assert y_word_to_x(("y1",)) == ("x1",)
        assert y_word_to_x(("y2",)) == ("x0", "x1")
        assert y_word_to_x(("y3", "y1")) == ("x0", "x0", "x1", "x1")
        assert y_word_to_x(()) == ()

    def test_inverse(self):
        assert x_word_to_y(("x0", "x1")) == ("y2",)
        assert x_word_to_y(("x1", "x1")) == ("y1", "y1")
        assert x_word_to_y(()) == ()
        assert x_word_to_y(("x0",)) is None
        assert x_word_to_y(("x1", "x0")) is None

    def test_round_trip_and_grade(self):
        for w in Y.words_up_to(6):
            xw = y_word_to_x(w)
            assert x_word_to_y(xw) == w
            assert len(xw) == Y.word_grade(w)

    def test_rejects_wrong_alphabet(self):
        with pytest.raises(ValueError):
            y_word_to_x(("x0",))
        with pytest.raises(ValueError):
            x_word_to_y(("x2",))
