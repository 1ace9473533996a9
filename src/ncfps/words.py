"""Ordered alphabets, words, and Lyndon-word combinatorics.

Two alphabet families cover everything downstream:

* X-type: finitely many letters ``x0 < x1 < ...``, each of grade 1, so the
  grade of a word is its length.
* Y-type: the infinite graded family ``y1, y2, ...`` where ``yk`` has grade
  ``k`` and the order puts higher indices lower: ``y1 > y2 > ...``.  The
  grade of a word is the sum of its letter grades.

Words are tuples of letter names.  The empty word prints as ``1``, a
nonempty word as dot-separated letters, e.g. ``x0.x1.x1``.
"""

from __future__ import annotations

import re
from itertools import product

from .rings import _Immutable

__all__ = [
    "Alphabet",
    "parse_word",
    "word_text",
    "split_outside_parens",
    "is_lyndon",
    "lyndon_words",
    "standard_factorization",
    "lyndon_factorization",
    "y_word_to_x",
    "x_word_to_y",
]

_LETTER_RE = re.compile(r"([xy])([0-9]+)\Z")

# the graded words of X alphabets by (letters, length), shared by every Chen
# evaluation on the same letters; bounded by the words held, not the entries,
# and cleared when a new table would overflow it
_GRADED_WORDS_CAP = 2**16
_GRADED_WORDS_CACHE = {}


def _graded_words(letters, g):
    """The tuple of all words of length g over the letters, in lex order.

    A table of more than `_GRADED_WORDS_CAP` words is built and not kept."""
    words = _GRADED_WORDS_CACHE.get((letters, g))
    if words is None:
        words = tuple(product(letters, repeat=g))
        if len(words) <= _GRADED_WORDS_CAP:
            if sum(map(len, _GRADED_WORDS_CACHE.values())) + len(words) > _GRADED_WORDS_CAP:
                _GRADED_WORDS_CACHE.clear()
            _GRADED_WORDS_CACHE[letters, g] = words
    return words


class Alphabet(_Immutable):
    """A totally ordered, graded letter set."""

    __slots__ = ("kind", "letters", "_rank")

    def __init__(self, kind, letters=None):
        if kind == "X":
            letters = tuple(letters)
            seen = set()
            for name in letters:
                m = _LETTER_RE.match(name)
                if not m or m.group(1) != "x":
                    raise ValueError(f"bad X-type letter {name!r}")
                if name in seen:
                    raise ValueError(f"duplicate letter {name!r}")
                seen.add(name)
            object.__setattr__(self, "letters", letters)
            object.__setattr__(self, "_rank", {c: i for i, c in enumerate(letters)})
        elif kind == "Y":
            if letters is not None:
                raise ValueError("Y-type alphabet has a fixed infinite letter set")
            object.__setattr__(self, "letters", None)
            object.__setattr__(self, "_rank", None)
        else:
            raise ValueError(f"unknown alphabet kind {kind!r}")
        object.__setattr__(self, "kind", kind)

    @classmethod
    def x(cls, n):
        """The X-type alphabet x0 < x1 < ... < x{n-1}."""
        return cls("X", tuple(f"x{i}" for i in range(n)))

    @classmethod
    def from_letters(cls, letters):
        """X-type alphabet with the given letters, ordered as listed."""
        return cls("X", letters)

    @classmethod
    def y(cls):
        """The graded Y-type alphabet."""
        return cls("Y")

    def is_letter(self, name):
        if self.kind == "X":
            return name in self._rank
        m = _LETTER_RE.match(name)
        return bool(m) and m.group(1) == "y" and int(m.group(2)) >= 1

    def validate_word(self, word):
        for c in word:
            if not self.is_letter(c):
                raise ValueError(f"letter {c!r} is not in alphabet {self.name}")
        return word

    def rank(self, letter):
        """Order key: letters compare by rank, smaller rank = smaller letter."""
        if self.kind == "X":
            return self._rank[letter]
        return -int(letter[1:])

    def grade(self, letter):
        if self.kind == "X":
            return 1
        return int(letter[1:])

    def word_grade(self, word):
        if self.kind == "X":
            return len(word)
        return sum(int(c[1:]) for c in word)

    def ranks(self, word):
        if self.kind == "X":
            return tuple(map(self._rank.__getitem__, word))
        return tuple(-int(c[1:]) for c in word)

    def word_key(self, word):
        """Sort key: grade first, then lex by letter order.  Each letter is
        read once: over Y the grade is minus the sum of the ranks."""
        ranks = self.ranks(word)
        return (len(word) if self.kind == "X" else -sum(ranks), ranks)

    def letters_up_to(self, g):
        """All letters of grade <= g, in ascending order."""
        if self.kind == "X":
            return list(self.letters)
        return [f"y{k}" for k in range(g, 0, -1)]

    def words_of_grade(self, g):
        """All words of exact grade g, in lex order."""
        if g == 0:
            return [()]
        if self.kind == "X":
            return list(_graded_words(self.letters, g))
        words = [tuple(f"y{k}" for k in comp) for comp in _compositions(g)]
        words.sort(key=self.ranks)
        return words

    def words_up_to(self, g, include_empty=True):
        """All words of grade <= g, sorted by grade then lex."""
        out = []
        for k in range(0 if include_empty else 1, g + 1):
            out.extend(self.words_of_grade(k))
        return out

    @property
    def name(self):
        if self.kind == "X":
            return ",".join(self.letters)
        return "Y"

    @classmethod
    def named(cls, text):
        if text == "Y":
            return cls.y()
        return cls.from_letters(text.split(","))

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.kind == other.kind and self.letters == other.letters

    def __hash__(self):
        return hash((self.kind, self.letters))

    def __repr__(self):
        return f"Alphabet({self.name!r})" if self.kind == "X" else "Alphabet.y()"


def _compositions(g):
    """Ordered compositions of g into positive parts."""
    if g == 0:
        yield ()
        return
    for first in range(1, g + 1):
        for rest in _compositions(g - first):
            yield (first,) + rest


def parse_word(text):
    """Read a dot-separated word; ``1`` denotes the empty word."""
    text = text.strip()
    if text == "1":
        return ()
    parts = tuple(p.strip() for p in text.split("."))
    for p in parts:
        if not _LETTER_RE.match(p):
            raise ValueError(f"bad letter {p!r} in word {text!r}")
    return parts


def _as_word(w):
    """A word given as text, read by `parse_word`, or as a sequence of letters, as a tuple."""
    return parse_word(w) if isinstance(w, str) else tuple(w)


def word_text(word):
    return ".".join(word) if word else "1"


def split_outside_parens(text, seps):
    """Cut text at the characters of seps that lie outside parentheses.

    Returns (separator, piece) pairs in order; the first separator is "".
    """
    out, sep, start, depth = [], "", 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in seps:
            out.append((sep, text[start:i]))
            sep, start = ch, i + 1
    out.append((sep, text[start:]))
    return out


def is_lyndon(word, alphabet):
    """True when the word is nonempty and strictly smaller than every proper suffix."""
    n = len(word)
    if n == 0:
        return False
    r = alphabet.ranks(word)
    return all(r < r[i:] for i in range(1, n))


def lyndon_words(alphabet, grade_bound):
    """All Lyndon words of grade <= grade_bound, in lex order.

    The graded words are few enough to filter: 2^g - 1 nonempty words of
    weight <= g over Y, and over X the basis tables list them all anyway.
    """
    words = alphabet.words_up_to(grade_bound, include_empty=False)
    return sorted((w for w in words if is_lyndon(w, alphabet)), key=alphabet.ranks)


def standard_factorization(word, alphabet):
    """Split a Lyndon word of length >= 2 as (left, right) with the right
    factor the lex-least proper suffix; both factors are again Lyndon."""
    if len(word) < 2:
        raise ValueError(f"no factorization for {word_text(word)!r}")
    if not is_lyndon(word, alphabet):
        raise ValueError(f"{word_text(word)!r} is not a Lyndon word")
    r = alphabet.ranks(word)
    best = 1
    for i in range(2, len(word)):
        if r[i:] < r[best:]:
            best = i
    return word[:best], word[best:]


def lyndon_factorization(word, alphabet):
    """The unique factorization into a lex-nonincreasing product of Lyndon words."""
    r = alphabet.ranks(word)
    n = len(word)
    out = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and r[k] <= r[j]:
            k = i if r[k] < r[j] else k + 1
            j += 1
        step = j - k
        while i <= k:
            out.append(word[i : i + step])
            i += step
    return out


def y_word_to_x(word):
    """Substitute yk -> x0^(k-1) x1 letterwise."""
    out = []
    for c in word:
        m = _LETTER_RE.match(c)
        if not m or m.group(1) != "y":
            raise ValueError(f"expected a Y-type word, got letter {c!r}")
        k = int(m.group(2))
        out.extend(["x0"] * (k - 1))
        out.append("x1")
    return tuple(out)


def x_word_to_y(word):
    """Inverse of the yk -> x0^(k-1) x1 substitution.

    Returns None for words outside the image (those ending in x0).
    Only words over {x0, x1} are meaningful here.
    """
    for c in word:
        if c not in ("x0", "x1"):
            raise ValueError(f"expected a word over x0,x1, got letter {c!r}")
    out = []
    run = 0
    for c in word:
        if c == "x0":
            run += 1
        else:
            out.append(f"y{run + 1}")
            run = 0
    if run:
        return None
    return tuple(out)
