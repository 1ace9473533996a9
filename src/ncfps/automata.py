"""Rational series as finite linear representations (weighted automata).

A representation is a triple (nu, mu, eta): a row vector, a letter-indexed
family of square matrices extended to words as a monoid morphism, and a
column vector.  The represented series has coefficient nu mu(w) eta on the
word w; letters without a stored matrix act as zero.

The module provides the closure constructions (sum, concatenation product,
star, shuffle, quasi-shuffle), two-sided minimization over a field,
decidable equality over Q, Q[v] and Q(v), the splitting of a series into
finitely many left/right factor pairs, character stars, the one-letter
rational-fraction form, the exchangeability decision, Lie-algebra
classification of the letter matrices, and the nilpotent decomposition.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .linalg import EchelonBasis, _add_multiple, dot, invert_matrix, mat_rows, nonzeros, vec_rows
from .rings import QQ, PolynomialRing, RationalFunctionRing, _Immutable, _integral, poly_lcm, ring_named
from .series import NCPolynomial, TruncatedSeries
from .words import Alphabet, _as_word

__all__ = [
    "LinearRepresentation",
    "rep_zero",
    "rep_scalar",
    "rep_word",
    "rep_polynomial",
    "rep_sum",
    "rep_conc",
    "rep_star",
    "rep_shuffle",
    "rep_stuffle",
    "minimize",
    "equal",
    "sweedler_split",
    "make_character_star",
    "is_character",
    "kronecker_form",
    "is_rationally_exchangeable",
    "MatrixLieAlgebra",
    "lie_closure",
    "classify",
    "nilpotent_decompose",
]


class LinearRepresentation(_Immutable):
    """A rational series as (nu, mu, eta) over a coefficient ring.

    Each letter matrix is stored as n sparse rows: ``rows[x][i]`` is a dict
    {column: entry} that holds only the nonzero entries of row i of mu(x),
    and a letter whose matrix is zero is not stored.  The shuffle and
    quasi-shuffle are Kronecker sums, mostly zeros, so the constructors,
    ``coeff``, ``expand``, ``minimize`` and ``equal`` cost the nonzero
    entries, not n^2 per matrix; so do conjugation, the one-letter form and
    the Lie classification.  ``mu`` is the dense view, {letter: n x n tuple
    of row tuples}, built from ``rows`` on each access; in this package
    only ``to_json`` reads it.

    The public constructor takes dense matrices and coerces every entry;
    results of the operations below come through ``_built``, which takes
    sparse rows that are already coerced and free of zeros.
    """

    __slots__ = ("alphabet", "ring", "nu", "rows", "eta", "dim")

    def __init__(self, alphabet, ring, nu, mu, eta):
        nu = tuple(ring.coerce(c) for c in nu)
        eta = tuple(ring.coerce(c) for c in eta)
        if len(nu) != len(eta):
            raise ValueError("initial and final vectors must have the same length")
        n = len(nu)
        rows = {}
        for x, m in mu.items():
            if not alphabet.is_letter(x):
                raise ValueError(f"letter {x!r} is not in alphabet {alphabet.name}")
            m = [tuple(map(ring.coerce, row)) for row in m]
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"matrix for {x!r} is not {n}x{n}")
            rows[x] = tuple({j: c for j, c in enumerate(row) if c} for row in m)
        _init(self, alphabet, ring, nu, rows, eta)

    @property
    def mu(self):
        z, cols = self.ring.zero, range(self.dim)
        return {x: tuple(tuple(row.get(j, z) for j in cols) for row in rs) for x, rs in self.rows.items()}

    @property
    def active_letters(self):
        return sorted(self.rows, key=self.alphabet.rank)

    def coeff(self, w):
        ring = self.ring
        if self.dim == 0:
            return ring.zero
        v = nonzeros(self.nu)
        for x in _as_word(w):
            rows = self.rows.get(x)
            if rows is None:
                return ring.zero
            v = vec_rows(ring, v, rows)
        return dot(ring, v, self.eta)

    def expand(self, bound):
        """All coefficients on words of grade <= bound, as a truncated series."""
        ring, alphabet = self.ring, self.alphabet
        terms = {}
        if self.dim:
            letters = [(x, alphabet.grade(x), self.rows[x]) for x in self.active_letters]

            def walk(word, grade, v):
                c = dot(ring, v, self.eta)
                if c:
                    terms[word] = c
                for x, g, rows in letters:
                    if grade + g <= bound:
                        v2 = vec_rows(ring, v, rows)
                        if v2:
                            walk(word + (x,), grade + g, v2)

            walk((), 0, nonzeros(self.nu))
        return TruncatedSeries(NCPolynomial(alphabet, ring, terms), bound)

    def scale(self, c):
        c = self.ring.coerce(c)
        return _built(self.alphabet, self.ring, tuple(c * v for v in self.nu), self.rows, self.eta)

    def transpose(self):
        """Represents the letter-reversed series."""
        rows = {}
        for x, rs in self.rows.items():
            t = [{} for _ in rs]
            for i, row in enumerate(rs):
                for j, c in row.items():
                    t[j][i] = c
            rows[x] = tuple(t)
        return _built(self.alphabet, self.ring, self.eta, rows, self.nu)

    def embed_field(self):
        field = self.ring.field()
        if field == self.ring:
            return self
        emb = self.ring.embed
        return _built(
            self.alphabet,
            field,
            tuple(emb(c) for c in self.nu),
            {x: tuple({j: emb(c) for j, c in row.items()} for row in rs) for x, rs in self.rows.items()},
            tuple(emb(c) for c in self.eta),
        )

    def conjugate(self, t):
        """Similarity transform (nu t^-1, t mu(x) t^-1, t eta) by an invertible
        n x n matrix t, given dense; the series is unchanged.  Raises
        ValueError when t is not n x n or not invertible, or the ring is not
        a field."""
        ring, n = self.ring, self.dim
        t = [tuple(map(ring.coerce, row)) for row in t]
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError(f"change of basis is not {n}x{n}")
        t = [nonzeros(row) for row in t]
        tinv = invert_matrix(ring, t)
        nu = vec_rows(ring, nonzeros(self.nu), tinv)
        return _built(
            self.alphabet,
            ring,
            tuple(nu.get(j, ring.zero) for j in range(n)),
            {x: mat_rows(ring, mat_rows(ring, t, m), tinv) for x, m in self.rows.items()},
            tuple(dot(ring, row, self.eta) for row in t),
        )

    def to_json(self):
        fmt = self.ring.format
        if self.alphabet.kind == "X":
            letters = list(self.alphabet.letters)
        else:
            letters = self.active_letters
        return json.dumps(
            {
                "alphabet": letters,
                "ring": self.ring.name,
                "dim": self.dim,
                "nu": [fmt(c) for c in self.nu],
                "mu": {x: [fmt(c) for row in m for c in row] for x, m in self.mu.items()},
                "eta": [fmt(c) for c in self.eta],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text):
        """Read the form ``to_json`` writes.  Raises ValueError, naming the
        field, on text of any other shape."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("representation JSON must be an object")

        def field(key, ok, what):
            value = data.get(key)
            if not ok(value):
                raise ValueError(f"field {key!r} must be {what}")
            return value

        def strings(v, length=None):
            return isinstance(v, list) and all(isinstance(c, str) for c in v) and (length is None or len(v) == length)

        letters = field("alphabet", strings, "a list of strings")
        ring = ring_named(field("ring", lambda v: isinstance(v, str), "a string"))
        n = field("dim", lambda v: type(v) is int and v >= 0, "an integer >= 0")
        nu, eta = (field(key, lambda v: strings(v, n), f"a list of dim = {n} strings") for key in ("nu", "eta"))
        flats = field(
            "mu",
            lambda v: isinstance(v, dict) and all(strings(m, n * n) for m in v.values()),
            f"an object of lists of dim * dim = {n * n} strings",
        )
        if letters and all(c.startswith("y") for c in letters):
            alphabet = Alphabet.y()
        else:
            alphabet = Alphabet.from_letters(letters)
        mu = {}
        for x, flat in flats.items():
            mu[x] = tuple(tuple(ring.parse(c) for c in flat[i * n : (i + 1) * n]) for i in range(n))
        return cls(alphabet, ring, [ring.parse(c) for c in nu], mu, [ring.parse(c) for c in eta])

    def __repr__(self):
        return (
            f"LinearRepresentation(dim={self.dim}, alphabet={self.alphabet.name!r}, "
            f"ring={self.ring.name}, letters={self.active_letters})"
        )


def _init(rep, alphabet, ring, nu, rows, eta):
    put = object.__setattr__
    put(rep, "alphabet", alphabet)
    put(rep, "ring", ring)
    put(rep, "nu", nu)
    put(rep, "rows", {x: tuple(rs) for x, rs in rows.items() if any(rs)})
    put(rep, "eta", eta)
    put(rep, "dim", len(nu))


def _built(alphabet, ring, nu, rows, eta):
    """Representation from vectors of ring elements and sparse rows that hold
    no zero entry, as the operations on valid representations produce them:
    drops the letters whose rows are all empty, skips coercion and checks.
    Stored rows are shared between representations and never mutated."""
    rep = object.__new__(LinearRepresentation)
    _init(rep, alphabet, ring, nu, rows, eta)
    return rep


def _add_into(row, other):
    """row += other for sparse rows, dropping entries that cancel."""
    for j, c in other.items():
        if j in row:
            s = row[j] + c
            if s:
                row[j] = s
            else:
                del row[j]
        else:
            row[j] = c


def _plus_outer(rows, col, row):
    """The rows plus col (x) row: row i gains col[i] * row."""
    if not row:
        return tuple(rows)
    out = []
    for r, e in zip(rows, col):
        if e:
            r = dict(r)
            _add_multiple(r, e, row)
        out.append(r)
    return tuple(out)


def _shifted(row, k):
    return {j + k: c for j, c in row.items()}


# ---------------------------------------------------------------------------
# constructors


def rep_zero(alphabet, ring):
    return _built(alphabet, ring, (), {}, ())


def rep_scalar(alphabet, ring, c):
    c = ring.coerce(c)
    if not c:
        return rep_zero(alphabet, ring)
    return _built(alphabet, ring, (c,), {}, (ring.one,))


def rep_word(alphabet, ring, w, coeff=None):
    """Chain automaton of a single word with an optional coefficient."""
    w = _as_word(w)
    alphabet.validate_word(w)
    c = ring.one if coeff is None else ring.coerce(coeff)
    n = len(w) + 1
    rows = {}
    for i, x in enumerate(w):
        if x not in rows:
            rows[x] = [{} for _ in range(n)]
        rows[x][i][i + 1] = ring.one
    nu = tuple(ring.one if i == 0 else ring.zero for i in range(n))
    eta = tuple(c if i == n - 1 else ring.zero for i in range(n))
    return _built(alphabet, ring, nu, rows, eta)


def rep_polynomial(p):
    """Representation of a noncommutative polynomial (sum of chain automata)."""
    rep = rep_zero(p.alphabet, p.ring)
    for w in p.support():
        rep = rep_sum(rep, rep_word(p.alphabet, p.ring, w, p.terms[w]))
    return rep


def _check_pair(r1, r2):
    if r1.alphabet != r2.alphabet or r1.ring != r2.ring:
        raise ValueError("representations live over different alphabets or rings")


def _letters(r1, r2):
    """The letters of r1, then the other letters of r2."""
    return list({**dict.fromkeys(r1.rows), **dict.fromkeys(r2.rows)})


def rep_sum(r1, r2):
    """Sum: block-diagonal letter matrices."""
    _check_pair(r1, r2)
    empty1, empty2 = ({},) * r1.dim, ({},) * r2.dim
    rows = {
        x: r1.rows.get(x, empty1) + tuple(_shifted(row, r1.dim) for row in r2.rows.get(x, empty2))
        for x in _letters(r1, r2)
    }
    return _built(r1.alphabet, r1.ring, r1.nu + r2.nu, rows, r1.eta + r2.eta)


def rep_conc(r1, r2):
    """Concatenation (Cauchy) product: the sum's block-diagonal letter
    matrices, coupled top right by eta1 (x) (nu2 mu2(x))."""
    blocks = rep_sum(r1, r2)
    ring, n1, empty2 = r1.ring, r1.dim, ({},) * r2.dim
    nu2 = nonzeros(r2.nu)
    rows = {}
    for x, rs in blocks.rows.items():
        row2 = _shifted(vec_rows(ring, nu2, r2.rows.get(x, empty2)), n1)
        rows[x] = _plus_outer(rs[:n1], r1.eta, row2) + rs[n1:]
    s2 = dot(ring, nu2, r2.eta)  # constant term of the right factor
    eta = tuple(e * s2 for e in r1.eta) + r2.eta
    return _built(r1.alphabet, ring, r1.nu + (ring.zero,) * r2.dim, rows, eta)


def rep_star(r):
    """Kleene star; the represented series must have zero constant term."""
    ring, nu = r.ring, nonzeros(r.nu)
    if dot(ring, nu, r.eta):
        raise ValueError("star needs a series with zero constant term")
    rows = {}
    for x, m in r.rows.items():
        last = vec_rows(ring, nu, m)  # nu mu(x)
        rows[x] = _plus_outer(m, r.eta, last) + (last,)
    nu = (ring.zero,) * r.dim + (ring.one,)
    return _built(r.alphabet, ring, nu, rows, r.eta + (ring.one,))


def _kronecker_sum(r1, r2):
    """Letter rows of mu1(x)(x)I + I(x)mu2(x), fresh dicts the caller may
    change, and the product vectors.  Row and column (i1, i2) is i1*n2 + i2."""
    _check_pair(r1, r2)
    empty1, empty2 = ({},) * r1.dim, ({},) * r2.dim
    n2 = r2.dim
    rows = {}
    for x in _letters(r1, r2):
        out = rows[x] = []
        for i1, left in enumerate(r1.rows.get(x, empty1)):
            for i2, right in enumerate(r2.rows.get(x, empty2)):
                row = {j1 * n2 + i2: a for j1, a in left.items()}
                _add_into(row, _shifted(right, i1 * n2))
                out.append(row)
    nu = tuple(a * b for a in r1.nu for b in r2.nu)
    eta = tuple(a * b for a in r1.eta for b in r2.eta)
    return rows, nu, eta


def rep_shuffle(r1, r2):
    """Shuffle product: Kronecker sum of the letter actions."""
    rows, nu, eta = _kronecker_sum(r1, r2)
    return _built(r1.alphabet, r1.ring, nu, rows, eta)


def rep_stuffle(r1, r2):
    """Quasi-shuffle product over Y: the shuffle's Kronecker sum, plus the
    letter merge mu1(yi)(x)mu2(yj) on y(i+j)."""
    if r1.alphabet.kind != "Y":
        raise ValueError("quasi-shuffle is defined on the graded Y alphabet")
    rows, nu, eta = _kronecker_sum(r1, r2)
    n2 = r2.dim
    for x1, m1 in r1.rows.items():
        for x2, m2 in r2.rows.items():
            x = f"y{int(x1[1:]) + int(x2[1:])}"
            if x not in rows:
                rows[x] = [{} for _ in range(r1.dim * n2)]
            out = rows[x]
            for i1, left in enumerate(m1):
                for i2, right in enumerate(m2):
                    if left and right:
                        merge = {j1 * n2 + j2: a * b for j1, a in left.items() for j2, b in right.items()}
                        _add_into(out[i1 * n2 + i2], merge)
    return _built(r1.alphabet, r1.ring, nu, rows, eta)


# ---------------------------------------------------------------------------
# minimization and equality


def _left_reduce(rep):
    # The reached vectors v_k = nu mu(w), walked breadth-first, go into one
    # echelon basis as v_k + e_(n+k); an image w reduces to the entries -c_k
    # at the columns n + k when w = sum_k c_k v_k, and otherwise becomes the
    # next v_k.
    ring, n = rep.ring, rep.dim
    zero, one = ring.zero, ring.one
    basis = EchelonBasis(ring, n)
    reached = []

    def coordinates(w):
        # as a sparse row {k: c_k} over the reached vectors
        red = basis.reduce(w)
        if all(j >= n for j in red):
            return {j - n: -c for j, c in red.items()}
        k = len(reached)
        red[n + k] = one
        basis.insert(red)
        reached.append(w)
        return {k: one}

    nu = coordinates(nonzeros(rep.nu))
    letters = rep.active_letters
    rows = {x: [] for x in letters}
    for v in reached:  # extended while it is walked: a breadth-first queue
        for x in letters:
            rows[x].append(coordinates(vec_rows(ring, v, rep.rows[x])))
    r = len(reached)
    if r == 0:
        return rep_zero(rep.alphabet, ring)
    nu = tuple(nu.get(k, zero) for k in range(r))
    eta = tuple(dot(ring, v, rep.eta) for v in reached)
    return _built(rep.alphabet, ring, nu, rows, eta)


def minimize(rep):
    """Equivalent representation of minimal dimension: reduce the forward
    reachable span, then the backward observable span."""
    if not rep.ring.is_field:
        raise ValueError("minimization needs field coefficients; embed first")
    half = _left_reduce(rep)
    return _left_reduce(half.transpose()).transpose()


class _Integers:
    """Z, as far as the fraction-free ``EchelonBasis`` reads it: an integral
    domain whose primitive part of a sparse vector is the vector divided by
    the gcd of its entries."""

    is_field = False
    zero, one = 0, 1

    @staticmethod
    def primitive(v):
        g = math.gcd(*v.values())
        return v if g == 1 else {j: c // g for j, c in v.items()}


class _DifferenceRows(dict):
    """The sparse rows of one letter's block-diagonal matrix diag(m1, m2)
    over Q, each built on first use: row i is stored as the integer
    numerators of d_i times it, with d_i = ``dens[i]`` the lcm of the
    denominators of the row."""

    def __init__(self, m1, m2):
        super().__init__()
        self.m1, self.m2 = m1, m2
        self.dens = {}

    def __missing__(self, i):
        k = len(self.m1)
        row, k = (self.m1[i], 0) if i < k else (self.m2[i - k], k)
        self.dens[i], nums = _integral(row.values())
        row = self[i] = {j + k: n for j, n in zip(row, nums)}
        return row

    def times(self, v):
        """The integer vector D.v.m divided by the gcd of its entries, for an
        integer vector v, with D the lcm of the denominators of the rows that
        v selects."""
        for i in v:
            if i not in self:
                self.__missing__(i)
        dens = self.dens
        d = math.lcm(*[dens[i] for i in v])
        if d != 1:
            v = {i: c * (d // dens[i]) for i, c in v.items()}
        return _Integers.primitive(vec_rows(_Integers, v, self))


def _specialized(r1, r2):
    """A pair over Q[v] or Q(v) as a pair over Q, with integer entries, whose
    series are equal exactly when those of r1 and r2 are: the pair at
    v = 2^W, with W fixed in advance so that 2^W is no root of the
    difference.

    The vector nu, the column eta and each letter's matrix are multiplied by
    factors common to both sides, which leave the verdict as it is.  Over
    Q(v) the factor is the polynomial lcm of their denominators.  Then it is
    the lcm of their coefficient denominators, D_nu, D_eta and D_x, after
    which every coefficient g_w of the difference lies in Z[v].  Let |p|_1
    be the sum of the absolute coefficients, which is submultiplicative.
    For |w| < n = n1 + n2 the height of g_w is at most
    N = |D_nu nu|_1 max_j |D_eta eta_j|_1 B^(n-1), with B at least 1 and at
    least every row sum of every |D_x mu(x)|_1.  A nonzero integer
    polynomial of height at most N has no root of absolute value N + 1 or
    more (Cauchy's bound).  So with W = bitlen(N) + 1 each g_w vanishes at
    2^W exactly when it is zero, and series of dimensions n1 and n2 are
    equal when they agree on the words shorter than n.  The value at 2^W is
    the Kronecker packing of the integer coefficients.
    """
    n1, n = r1.dim, r1.dim + r2.dim
    ring = PolynomialRing(r1.ring.var)
    fractions = r1.ring != ring

    def lifted(rows):
        # {(i, j): integer coefficients} of the rows, and their largest |.|_1
        if fractions:
            m = poly_lcm(ring.one, *{c.den for row in rows for c in row.values()})
            rows = [{j: c.num if c.den == m else c.num * (m // c.den) for j, c in row.items()} for row in rows]
        _, nums = ring.lift({(i, j): p for i, row in enumerate(rows) for j, p in row.items()})
        sums = [0] * len(rows)
        for (i, _), cs in nums.items():
            sums[i] += sum(map(abs, cs))
        return nums, max(sums, default=0)

    def packed(nums, k):
        rows = [{} for _ in range(k)]
        for (i, j), value in ring.pack(nums, width).items():
            if value:
                rows[i][j] = value
        return rows

    empty1, empty2 = ({},) * n1, ({},) * r2.dim
    nu = lifted([nonzeros(r1.nu + r2.nu)])
    eta = lifted([{0: c} if c else {} for c in r1.eta + r2.eta])
    mats = {x: lifted(r1.rows.get(x, empty1) + r2.rows.get(x, empty2)) for x in _letters(r1, r2)}
    b = max([1] + [s for _, s in mats.values()])
    width = (nu[1] * eta[1] * b ** max(n - 1, 0)).bit_length() + 1
    [nu] = packed(nu[0], 1)
    nu = tuple(nu.get(j, 0) for j in range(n))
    eta = tuple(row.get(0, 0) for row in packed(eta[0], n))
    mats = {x: packed(nums, n) for x, (nums, _) in mats.items()}
    return tuple(
        _built(r1.alphabet, QQ, nu[lo:hi], {x: rows[lo:hi] for x, rows in mats.items()}, eta[lo:hi])
        for lo, hi in ((0, n1), (n1, n))
    )


def equal(r1, r2):
    """Decide equality of the represented series.

    Span test of the difference r1 - r2 (Schützenberger reduction; the
    polynomial-time equivalence test of Tzeng, SIAM J. Comput. 21, 1992):
    the series are equal exactly when every reachable vector nu mu(w) of the
    block-diagonal sum of r1 and r2 pairs to zero with (eta1, -eta2).  The
    vectors are walked breadth-first, one letter at a time, and grow an
    echelon basis, whose dimension is at most n = n1 + n2; so the test makes
    at most n*|letters| vector-matrix products, each at the cost of the
    nonzero entries of the rows the vector selects, and the basis pays for
    the nonzero entries of the rows a vector hits.  It stops at the first
    vector whose pairing is nonzero.  The letter rows are built on first use.

    The test runs on Python ints.  Over Q both nus are lifted by one shared
    denominator and both etas by another, and each step by a letter
    multiplies by the lcm of the denominators of the rows it reads, on both
    sides at once.  So the integer vector reached by a word is a nonzero
    multiple of the rational one, its two halves by the same factor; it is
    divided by the gcd of its entries.  The pairing's zero test and the span
    test are both unchanged by such factors, and the span is decided
    fraction-free over Z.  The rows are lifted on first use, so a pair that
    fails early pays for few of them.  A pair over Q[v] or Q(v) is first
    specialized at one integer point that no coefficient of the difference
    has as a root (``_specialized``), which keeps the verdict.  Two
    representations over different rings are both embedded in their
    fraction fields first, so that a Q[t] series compares with a Q(t) one.
    """
    if r1.ring != r2.ring:
        r1, r2 = r1.embed_field(), r2.embed_field()
    _check_pair(r1, r2)
    if isinstance(r1.ring, (PolynomialRing, RationalFunctionRing)):
        r1, r2 = _specialized(r1, r2)
    elif r1.ring != QQ:
        raise ValueError(f"equality is decided over Q, Q[v] and Q(v), not over {r1.ring.name}")
    n1 = r1.dim
    _, nu = _integral(r1.nu + r2.nu)
    _, eta = _integral(r1.eta + r2.eta)
    eta = eta[:n1] + [-e for e in eta[n1:]]
    empty1, empty2 = ({},) * n1, ({},) * r2.dim
    letters = sorted(_letters(r1, r2), key=r1.alphabet.rank)
    mats = [_DifferenceRows(r1.rows.get(x, empty1), r2.rows.get(x, empty2)) for x in letters]
    basis = EchelonBasis(_Integers, len(nu))
    frontier = [nonzeros(nu)]  # extended while it is walked: a breadth-first queue
    for v in frontier:
        if dot(_Integers, v, eta):
            return False
        if basis.insert(v) is not None:
            frontier.extend(rows.times(v) for rows in mats)
    return True


# ---------------------------------------------------------------------------


def sweedler_split(rep):
    """Pairs (G_i, D_i) with <S,uv> = sum_i <G_i,u> <D_i,v>."""
    ring, n = rep.ring, rep.dim
    pairs = []
    for i in range(n):
        e = tuple(ring.one if j == i else ring.zero for j in range(n))
        g = _built(rep.alphabet, ring, rep.nu, rep.rows, e)
        d = _built(rep.alphabet, ring, e, rep.rows, rep.eta)
        pairs.append((g, d))
    return pairs


def make_character_star(alphabet, ring, coeffs):
    """Dimension-one representation of (sum_x c_x x)*."""
    mu = {x: ((ring.coerce(c),),) for x, c in coeffs.items()}
    return LinearRepresentation(alphabet, ring, (ring.one,), mu, (ring.one,))


def is_character(rep):
    """True when the series is multiplicative on words with value 1 at the
    empty word, equivalently admits a dimension-one representation."""
    m = minimize(rep.embed_field())
    if m.dim > 1:
        return False
    return dot(m.ring, nonzeros(m.nu), m.eta) == m.ring.one


def _plus_scalar(rows, c):
    """The matrix given by sparse rows plus c times the identity, as fresh rows."""
    out = [dict(row) for row in rows]
    if c:
        for i, row in enumerate(out):
            _add_into(row, {i: c})
    return out


def _char_poly(ring, m):
    """Coefficients (a_0, ..., a_n) of det(lambda I - M), a_n = 1, for M given
    by n sparse rows, computed division-free in lambda by the trace recursion
    (valid in characteristic 0)."""
    n = len(m)
    a = [ring.zero] * (n + 1)
    a[n] = ring.one
    mk = m
    for k in range(1, n + 1):
        tr = sum((mk[i].get(i, ring.zero) for i in range(n)), ring.zero)
        ck = ring.coerce(Fraction(-1, k)) * tr
        a[n - k] = ck
        if k < n:
            mk = mat_rows(ring, m, _plus_scalar(mk, ck))
    return tuple(a)


def kronecker_form(rep):
    """One-letter rational form: (P, Q) with S = P . (xQ)* as series.

    Both parts are returned as polynomials in the single letter (banked as
    noncommutative polynomials over the rep's alphabet).
    """
    letters = rep.active_letters
    if rep.alphabet.kind == "X" and len(rep.alphabet.letters) == 1:
        x = rep.alphabet.letters[0]
    elif len(letters) == 1:
        x = letters[0]
    elif not letters:
        x = rep.alphabet.letters_up_to(1)[0]
    else:
        raise ValueError("the rational-fraction form needs a one-letter alphabet")
    ring = rep.ring
    if not ring.is_field:
        raise ValueError("field coefficients required")
    n = rep.dim
    rows = rep.rows.get(x, ({},) * n)
    a = _char_poly(ring, rows)  # monic, a[k] multiplies lambda^k
    # det(I - xM) has coefficient a_{n-k} on x^k
    d = [a[n - k] for k in range(n + 1)]
    s = []
    v = nonzeros(rep.nu)
    for _ in range(n):
        s.append(dot(ring, v, rep.eta))
        v = vec_rows(ring, v, rows)
    p = {}
    for j in range(n):
        c = ring.zero
        for i in range(j + 1):
            c = c + d[i] * s[j - i]
        if c != ring.zero:
            p[(x,) * j] = c
    q = {}
    for j in range(n):
        c = -d[j + 1]
        if c != ring.zero:
            q[(x,) * j] = c
    return (
        NCPolynomial(rep.alphabet, ring, p),
        NCPolynomial(rep.alphabet, ring, q),
    )


# ---------------------------------------------------------------------------
# exchangeability and classification


def is_rationally_exchangeable(rep):
    """Membership in the closure class generated by one-letter rationals,
    decided by pairwise commutation of the minimal letter matrices."""
    return _commuting(minimize(rep.embed_field()))


def _commuting(m):
    """Whether the letter matrices of the minimal representation m commute."""
    mats = [m.rows[x] for x in m.active_letters]
    return not _bracket_span(m.ring, m.dim, mats, mats)


class MatrixLieAlgebra:
    """Bracket-closed span of n x n matrices over a field: ``basis`` holds
    linearly independent members, each given by n sparse rows."""

    def __init__(self, ring, n, basis):
        self.ring = ring
        self.n = n
        self.basis = list(basis)

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"MatrixLieAlgebra(dim={self.dim}, matrices {self.n}x{self.n})"


def _bracket(ring, a, b):
    """ab - ba for matrices given by sparse rows."""
    ab = mat_rows(ring, a, b)
    for row, other in zip(ab, mat_rows(ring, b, a)):
        _add_into(row, {j: -c for j, c in other.items()})
    return ab


def _bracket_span(ring, n, left, right=None):
    """Independent n x n matrices, given by sparse rows, spanning the
    brackets [a, b], a in left and b in right.  Without right, the span of
    left closed under brackets: the brackets run over the growing list of
    members, new ones included.  Entry (i, j) is column i*n + j of the span.
    Once there are n^2 members they span every matrix, and no more brackets
    are formed."""
    basis = EchelonBasis(ring, n * n)
    members = []

    def add(m):
        if basis.insert({i * n + j: c for i, row in enumerate(m) for j, c in row.items()}) is not None:
            members.append(m)

    if right is None:
        for g in left:
            add(g)
        left = right = members
    for a in left:
        for b in right:
            if len(members) == n * n:
                return members
            add(_bracket(ring, a, b))
    return members


def lie_closure(rep):
    """The Lie algebra generated by the letter matrices."""
    ring = rep.ring
    if not ring.is_field:
        raise ValueError("field coefficients required")
    gens = [rep.rows[x] for x in rep.active_letters]
    members = _bracket_span(ring, rep.dim, gens)
    return MatrixLieAlgebra(ring, rep.dim, members)


def _series_vanishes(lie, lower_central):
    # the lower central series brackets each term with the whole algebra, the
    # derived series with the term itself; each term is an ideal contained in
    # the previous one, so the dimension is strictly decreasing until the
    # series stabilizes
    layer = lie.basis
    while layer:
        nxt = _bracket_span(lie.ring, lie.n, lie.basis if lower_central else layer, layer)
        if len(nxt) >= len(layer):
            return False
        layer = nxt
    return True


def classify(rep):
    """Coarse class of the series by the Lie algebra of its minimal letter
    matrices: 'exchangeable', 'nilpotent', 'solvable', or 'general'."""
    m = minimize(rep.embed_field())
    if _commuting(m):
        return "exchangeable"
    lie = lie_closure(m)
    # two letter matrices that do not commute need n >= 2; a closure of n^2
    # members is gl_n, which holds the simple sl_n, so neither series vanishes
    if lie.dim == lie.n * lie.n:
        return "general"
    if _series_vanishes(lie, lower_central=True):
        return "nilpotent"
    if _series_vanishes(lie, lower_central=False):
        return "solvable"
    return "general"


# ---------------------------------------------------------------------------
# nilpotent decomposition


def nilpotent_decompose(rep):
    """Split S = S1 (shuffle) (sum_x c_x x)* when every mu(x) - c_x I is
    strictly upper triangular, c_x the (0, 0) entry of mu(x).  Returns
    (S1 as a polynomial, c)."""
    ring, n, alphabet = rep.ring, rep.dim, rep.alphabet
    c = {x: rep.rows[x][0].get(0, ring.zero) for x in rep.active_letters}
    rows1 = {}
    for x, cx in c.items():
        rows1[x] = _plus_scalar(rep.rows[x], -cx)
        if any(j <= i for i, row in enumerate(rows1[x]) for j in row):
            raise ValueError(f"matrix for {x!r} minus {ring.format(cx)}*I is not strictly upper triangular")
    rep1 = _built(alphabet, ring, rep.nu, rows1, rep.eta)
    bound = max(n - 1, 0)
    s1 = rep1.expand(bound).poly
    return s1, c
