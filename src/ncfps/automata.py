"""Rational series as finite linear representations (weighted automata).

A representation is a triple (nu, mu, eta): a row vector, a letter-indexed
family of square matrices extended to words as a monoid morphism, and a
column vector.  The represented series has coefficient nu.mu(w).eta on the
word w; letters without a stored matrix act as zero.

The module provides the closure constructions (sum, concatenation product,
star, shuffle, quasi-shuffle), two-sided minimization and decidable equality
over a field, the splitting of a series into finitely many left/right
factor pairs, character stars, the one-letter rational-fraction form,
exchangeability tests, Lie-algebra classification of the letter matrices,
and the two triangular factorizations.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import (
    EchelonBasis,
    dot,
    invert_matrix,
    mat,
    mat_mul,
    mat_sub,
    mat_vec,
    vec_mat,
    vec_rows,
)
from .rings import ring_named
from .series import NCPolynomial, TruncatedSeries
from .words import Alphabet

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
    "is_syntactically_exchangeable",
    "is_rationally_exchangeable",
    "MatrixLieAlgebra",
    "lie_closure",
    "classify",
    "nilpotent_decompose",
    "triangular_star_factorization_check",
]


class LinearRepresentation:
    """A rational series as (nu, mu, eta) over a coefficient ring.

    Each letter matrix is stored as n sparse rows: ``rows[x][i]`` is a dict
    {column: entry} that holds only the nonzero entries of row i of mu(x),
    and a letter whose matrix is zero is not stored.  The shuffle and
    quasi-shuffle are Kronecker sums, mostly zeros, so the constructors,
    ``coeff``, ``expand``, ``minimize`` and ``equal`` cost the nonzero
    entries, not n^2 per matrix.  ``mu`` is the dense view, {letter: n x n
    tuple of row tuples}, built on first use and kept; numpy conversions,
    the Lie classification and the JSON form read it.

    The public constructor takes dense matrices and coerces every entry;
    results of the operations below come through ``_built``, which takes
    sparse rows that are already coerced and free of zeros.
    """

    __slots__ = ("alphabet", "ring", "nu", "rows", "eta", "dim", "_mu")

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

    def __setattr__(self, name, value):
        raise AttributeError("LinearRepresentation is immutable")

    @property
    def mu(self):
        if self._mu is None:
            z, cols = self.ring.zero, range(self.dim)
            dense = {x: tuple(tuple(row.get(j, z) for j in cols) for row in rs) for x, rs in self.rows.items()}
            object.__setattr__(self, "_mu", dense)
        return self._mu

    @property
    def active_letters(self):
        return sorted(self.rows, key=self.alphabet.rank)

    def matrix(self, x):
        """Dense mu(x); the zero matrix for a letter without one."""
        m = self.mu.get(x)
        return m if m is not None else ((self.ring.zero,) * self.dim,) * self.dim

    def coeff(self, w):
        ring = self.ring
        if self.dim == 0:
            return ring.zero
        v = self.nu
        for x in w:
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
                        if any(v2):
                            walk(word + (x,), grade + g, v2)

            walk((), 0, self.nu)
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
        """Similarity transform by an invertible matrix; the series is unchanged."""
        ring = self.ring
        t = mat(t)
        tinv = invert_matrix(ring, t)
        return LinearRepresentation(
            self.alphabet,
            ring,
            vec_mat(ring, self.nu, tinv),
            {x: mat_mul(ring, mat_mul(ring, t, m), tinv) for x, m in self.mu.items()},
            mat_vec(ring, t, self.eta),
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
        data = json.loads(text)
        ring = ring_named(data["ring"])
        letters = data["alphabet"]
        if letters and all(c.startswith("y") for c in letters):
            alphabet = Alphabet.y()
        else:
            alphabet = Alphabet.from_letters(letters)
        n = data["dim"]
        mu = {}
        for x, flat in data["mu"].items():
            if len(flat) != n * n:
                raise ValueError(f"matrix for {x!r} has {len(flat)} entries, wanted {n * n}")
            mu[x] = tuple(tuple(ring.parse(c) for c in flat[i * n : (i + 1) * n]) for i in range(n))
        return cls(alphabet, ring, [ring.parse(c) for c in data["nu"]], mu, [ring.parse(c) for c in data["eta"]])

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
    put(rep, "_mu", None)


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
            _add_into(r, {j: e * c for j, c in row.items()})
        out.append(r)
    return tuple(out)


def _shifted(row, k):
    return {j + k: c for j, c in row.items()}


def _sparse(v):
    return {j: c for j, c in enumerate(v) if c}


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
    w = tuple(w)
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
    rows = {}
    for x, rs in blocks.rows.items():
        row2 = _shifted(_sparse(vec_rows(ring, r2.nu, r2.rows.get(x, empty2))), n1)
        rows[x] = _plus_outer(rs[:n1], r1.eta, row2) + rs[n1:]
    s2 = dot(ring, r2.nu, r2.eta)  # constant term of the right factor
    eta = tuple(e * s2 for e in r1.eta) + r2.eta
    return _built(r1.alphabet, ring, r1.nu + (ring.zero,) * r2.dim, rows, eta)


def rep_star(r):
    """Kleene star; the represented series must have zero constant term."""
    ring = r.ring
    if dot(ring, r.nu, r.eta):
        raise ValueError("star needs a series with zero constant term")
    rows = {}
    for x, m in r.rows.items():
        last = _sparse(vec_rows(ring, r.nu, m))  # nu mu(x)
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
    # The reached vectors v_k = nu.mu(w), walked breadth-first, go into one
    # echelon basis as [v_k | e_k]; an image w reduces as [w | 0] to
    # [0 | -c] when w = sum_k c_k v_k, and otherwise becomes the next v_k.
    ring, n = rep.ring, rep.dim
    zero, one = ring.zero, ring.one
    basis = EchelonBasis(ring, n)
    reached = []

    def coordinates(w):
        # as a sparse row {k: c_k} over the reached vectors
        red = basis.reduce(tuple(w) + (zero,) * n)
        if not any(red[:n]):
            return {k: -c for k, c in enumerate(red[n:]) if c}
        k = len(reached)
        red[n + k] = one
        basis.insert(red)
        reached.append(w)
        return {k: one}

    nu = coordinates(rep.nu)
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


def equal(r1, r2):
    """Decide equality of the represented series.

    Span test of the difference r1 - r2 (Schützenberger reduction; the
    polynomial-time equivalence test of Tzeng, SIAM J. Comput. 21, 1992):
    the series are equal exactly when every reachable pair of row vectors
    (nu1.mu1(w), nu2.mu2(w)) gives the same value against the two final
    vectors.  The pairs are walked breadth-first, one letter at a time, and
    their concatenations grow an echelon basis, whose dimension is at most
    n = n1 + n2; so the test makes at most n*|letters| vector-matrix products
    on each side, each at the cost of the matrix's nonzero entries, and
    O(n^3) ring operations in the basis.  It stops at the first pair whose
    two values differ.

    Over Q[t] the basis eliminates fraction-free in Q[t] itself, which
    decides the same span over Q(t) without a gcd per operation.  Two
    representations over different rings are both embedded in their fraction
    fields first, so that a Q[t] series compares with a Q(t) one.
    """
    if r1.ring != r2.ring:
        r1, r2 = r1.embed_field(), r2.embed_field()
    _check_pair(r1, r2)
    ring = r1.ring
    empty1, empty2 = ({},) * r1.dim, ({},) * r2.dim
    letters = sorted(_letters(r1, r2), key=r1.alphabet.rank)
    mats = [(r1.rows.get(x, empty1), r2.rows.get(x, empty2)) for x in letters]
    basis = EchelonBasis(ring, r1.dim + r2.dim)
    frontier = [(r1.nu, r2.nu)]  # extended while it is walked: a breadth-first queue
    for v1, v2 in frontier:
        if dot(ring, v1, r1.eta) - dot(ring, v2, r2.eta):
            return False
        if basis.insert(v1 + v2) is not None:
            frontier.extend((vec_rows(ring, v1, m1), vec_rows(ring, v2, m2)) for m1, m2 in mats)
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
    return dot(m.ring, m.nu, m.eta) == m.ring.one


def _char_poly(ring, m):
    """Coefficients (a_0, ..., a_n) of det(lambda I - M), a_n = 1, computed
    division-free in lambda by the trace recursion (valid in characteristic 0)."""
    n = len(m)
    a = [ring.zero] * (n + 1)
    a[n] = ring.one
    mk = m
    for k in range(1, n + 1):
        tr = sum((mk[i][i] for i in range(n)), ring.zero)
        ck = ring.coerce(Fraction(-1, k)) * tr
        a[n - k] = ck
        if k < n:
            shifted = tuple(
                tuple(mk[i][j] + ck if i == j else mk[i][j] for j in range(n))
                for i in range(n)
            )
            mk = mat_mul(ring, m, shifted)
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
    m = rep.matrix(x)
    a = _char_poly(ring, m)  # monic, a[k] multiplies lambda^k
    # det(I - xM) has coefficient a_{n-k} on x^k
    d = [a[n - k] for k in range(n + 1)]
    s = []
    v = rep.nu
    for _ in range(n):
        s.append(dot(ring, v, rep.eta))
        v = vec_mat(ring, v, m)
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


def _multidegree(alphabet, w):
    counts = {}
    for c in w:
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.items()))


def is_syntactically_exchangeable(series, bound=None):
    """Coefficients constant on classes of words sharing a letter multiset."""
    if isinstance(series, LinearRepresentation):
        if bound is None:
            raise ValueError("a grade bound is required")
        series = series.expand(bound)
    if isinstance(series, TruncatedSeries):
        bound = series.bound if bound is None else min(bound, series.bound)
        poly = series.poly
    else:
        poly = series
        if bound is None:
            bound = poly.max_grade()
    alphabet = poly.alphabet
    if alphabet.kind == "X":
        active = sorted({c for w in poly.terms for c in w}, key=alphabet.rank)
        alphabet = Alphabet.from_letters(active)
    words = alphabet.words_up_to(bound)
    classes = {}
    for w in words:
        key = _multidegree(alphabet, w)
        c = poly.coeff(w)
        if key in classes:
            if classes[key] != c:
                return False
        else:
            classes[key] = c
    return True


def _letters_commute(m):
    mats = [m.mu[x] for x in m.active_letters]
    return not _bracket_span(m.ring, m.dim, mats, mats)


def is_rationally_exchangeable(rep):
    """Membership in the closure class generated by one-letter rationals,
    decided by pairwise commutation of the minimal letter matrices."""
    return _letters_commute(minimize(rep.embed_field()))


class MatrixLieAlgebra:
    """Bracket-closed span of square matrices over a field."""

    def __init__(self, ring, n, basis):
        self.ring = ring
        self.n = n
        self.basis = list(basis)

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"MatrixLieAlgebra(dim={self.dim}, matrices {self.n}x{self.n})"


def _flatten(m):
    return tuple(c for row in m for c in row)


def _bracket(ring, a, b):

    return mat_sub(ring, mat_mul(ring, a, b), mat_mul(ring, b, a))


def _bracket_span(ring, n, left, right=None):
    """Independent n x n matrices spanning the brackets [a, b], a in left and
    b in right.  Without right, the span of left closed under brackets: the
    brackets run over the growing list of members, new ones included."""
    basis = EchelonBasis(ring, n * n)
    members = []

    def add(m):
        if basis.insert(_flatten(m)) is not None:
            members.append(m)

    if right is None:
        for g in left:
            add(g)
        left = right = members
    for a in left:
        for b in right:
            add(_bracket(ring, a, b))
    return members


def lie_closure(rep):
    """The Lie algebra generated by the letter matrices."""
    ring = rep.ring
    if not ring.is_field:
        raise ValueError("field coefficients required")
    gens = [rep.mu[x] for x in rep.active_letters]
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
    if _letters_commute(m):
        return "exchangeable"
    lie = lie_closure(m)
    if _series_vanishes(lie, lower_central=True):
        return "nilpotent"
    if _series_vanishes(lie, lower_central=False):
        return "solvable"
    return "general"


# ---------------------------------------------------------------------------
# triangular factorizations


def nilpotent_decompose(rep, char_coeffs=None):
    """Split S = S1 (shuffle) (sum_x c_x x)* when every mu(x) - c_x I is
    strictly upper triangular.  Returns (S1 as a polynomial, c)."""
    ring, n = rep.ring, rep.dim
    if char_coeffs is None:
        char_coeffs = {}
        for x in rep.active_letters:
            m = rep.mu[x]
            d = m[0][0] if n else ring.zero
            char_coeffs[x] = d
    c = {x: ring.coerce(v) for x, v in char_coeffs.items()}
    mu1 = {}
    for x in set(rep.mu) | set(c):
        m = rep.matrix(x)
        cx = c.get(x, ring.zero)
        shifted = tuple(
            tuple(m[i][j] - cx if i == j else m[i][j] for j in range(n)) for i in range(n)
        )
        for i in range(n):
            for j in range(i + 1):
                if shifted[i][j] != ring.zero:
                    raise ValueError(
                        f"matrix for {x!r} minus {ring.format(cx)}*I is not strictly upper triangular"
                    )
        mu1[x] = shifted
    rep1 = LinearRepresentation(rep.alphabet, ring, rep.nu, mu1, rep.eta)
    bound = max(n - 1, 0)
    s1 = rep1.expand(bound).poly
    return s1, c


def _poly_mat_mul(a, b, bound):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                term = (a[i][k] * b[k][j]).truncate(bound)
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _poly_mat_star(m, bound, one, zero):
    """Geometric sum of a matrix with proper polynomial entries."""
    n = len(m)
    ident = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    acc = ident
    power = ident
    for _ in range(bound):
        power = _poly_mat_mul(power, m, bound)
        if all(p.is_zero() for row in power for p in row):
            break
        acc = tuple(
            tuple(acc[i][j] + power[i][j] for j in range(n)) for i in range(n)
        )
    return acc


def triangular_star_factorization_check(rep, bound):
    """With upper-triangular letter matrices, the star of the letter matrix
    factors through its diagonal and strict parts; verified entrywise on
    words of grade <= bound."""
    ring, n = rep.ring, rep.dim
    for x, m in rep.mu.items():
        for i in range(n):
            for j in range(i):
                if m[i][j] != ring.zero:
                    raise ValueError(f"matrix for {x!r} is not upper triangular")
    alphabet = rep.alphabet
    zero = NCPolynomial.zero(alphabet, ring)
    one = NCPolynomial.one(alphabet, ring)
    letter_matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            p = zero
            for x, m in rep.mu.items():
                if m[i][j] != ring.zero:
                    p = p + NCPolynomial.word(alphabet, ring, (x,), m[i][j])
            row.append(p)
        letter_matrix.append(tuple(row))
    m_full = tuple(letter_matrix)
    d_part = tuple(
        tuple(m_full[i][j] if i == j else zero for j in range(n)) for i in range(n)
    )
    n_part = tuple(
        tuple(m_full[i][j] if i != j else zero for j in range(n)) for i in range(n)
    )
    lhs = _poly_mat_star(m_full, bound, one, zero)
    d_star = _poly_mat_star(d_part, bound, one, zero)
    dn = _poly_mat_mul(d_star, n_part, bound)
    rhs = _poly_mat_mul(_poly_mat_star(dn, bound, one, zero), d_star, bound)
    for i in range(n):
        for j in range(n):
            if lhs[i][j] != rhs[i][j]:
                return False
    return True
