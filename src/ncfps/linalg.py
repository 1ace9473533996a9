"""Exact linear algebra over the coefficient rings.

Dense matrices are tuples of tuples (rows); vectors are tuples.  A sparse
matrix is a sequence of rows, each a dict {column: entry} of its nonzero
entries: the automaton letter matrices are stored so, and ``vec_rows``
multiplies a dense row vector by one at the cost of its nonzero entries.
Everything is parameterized by a ring descriptor; inversion requires a
field (``ring.is_field``).

The incremental :class:`EchelonBasis` is the one elimination routine.  It
works over a field, in reduced row echelon form, or over the integral domain
Q[v], fraction-free by cross-multiplication (Bareiss, Math. Comp. 22, 1968):
rows stay polynomial, and rank and span test are those over the fraction
field Q(v), at one gcd per inserted row instead of one per ring operation.
It keeps no copy of the inserted vectors.  A caller that needs a vector as a
combination of them appends identity columns past ``width``: a vector in the
span reduces to zero on the first ``width`` entries, and the entries past
them carry the combination.  Matrix inversion and the automaton
minimization both read their results off such columns.  Zero tests use
truthiness: every ring element defines ``__bool__``.
"""

from __future__ import annotations

__all__ = [
    "mat",
    "identity",
    "transpose",
    "mat_sub",
    "mat_mul",
    "mat_vec",
    "vec_mat",
    "vec_rows",
    "dot",
    "invert_matrix",
    "EchelonBasis",
]


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(ring, n):
    z, o = ring.zero, ring.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_sub(ring, a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(ring, a, b):
    if not a or not b:
        return ()
    return tuple(vec_mat(ring, ra, b) for ra in a)


def mat_vec(ring, a, v):
    z = ring.zero
    out = []
    for r in a:
        acc = z
        for x, y in zip(r, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return tuple(out)


def vec_mat(ring, v, a):
    """Row vector times matrix: the combination sum_i v_i a[i] of the rows."""
    z = ring.zero
    out = None
    for c, row in zip(v, a):
        if c:
            if out is None:
                out = [c * y if y else z for y in row]
            else:
                out = [acc + c * y if y else acc for acc, y in zip(out, row)]
    if out is None:
        return tuple(z for _ in range(len(a[0]) if a else 0))
    return tuple(out)


def vec_rows(ring, v, rows):
    """Row vector times a square matrix given by sparse rows: the combination
    sum_i v_i rows[i], dense, at the cost of the rows that v selects."""
    acc = {}
    for c, row in zip(v, rows):
        if c:
            for j, y in row.items():
                acc[j] = acc[j] + c * y if j in acc else c * y
    out = [ring.zero] * len(rows)
    for j, c in acc.items():
        out[j] = c
    return tuple(out)


def dot(ring, u, v):
    acc = ring.zero
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


def _complexity(x):
    # pivot preference: small objects first; works for Fraction, Poly, RatFun
    num = getattr(x, "num", None)
    if num is not None and hasattr(num, "degree"):
        return num.degree + x.den.degree
    if hasattr(x, "degree"):
        return x.degree
    n = getattr(x, "numerator", 0)
    d = getattr(x, "denominator", 1)
    return (abs(n).bit_length() if n else 0) + abs(d).bit_length()


class EchelonBasis:
    """Growing row space.

    ``insert(v)`` returns None when v was already in the span, else the new
    row index.  ``reduce(v)`` clears v on every pivot column.

    The ring decides the elimination.  Over a field the rows are in reduced
    row echelon form with pivot entries 1.  Over Q[v] (``ring.is_field``
    false) they are in echelon form in insertion order, each row zero on the
    pivots of the rows before it: a vector is reduced by v <- a*v - v[p]*row
    for each row's pivot entry a = row[p] where v[p] is nonzero, and an
    inserted row is divided by its content (``ring.primitive``), one gcd per
    row.

    Vectors may be longer than ``width``.  The entries past it ride along
    through every row operation but are never pivots, and the span test reads
    only the first ``width`` entries.  Identity columns there record which
    combination of the inserted vectors a row is: insert [v_k | e_k] for each
    vector, and over a field a vector [w | 0] in the span reduces to
    [0 | -c] with w = sum_k c_k v_k.
    """

    def __init__(self, ring, width):
        self.ring = ring
        self.width = width
        self.rows = []  # over a field: reduced row echelon form, pivot entry 1
        self.pivots = []  # pivot column per row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """v less its part in the row span: zero on every pivot column.

        Over Q[v] the result is a nonzero polynomial multiple of that."""
        v = list(v)
        field = self.ring.is_field
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not c:
                continue
            if field:
                # rows are zero on each other's pivots, so each coefficient is
                # the entry of the input at that pivot
                v = [x - c * y if y else x for x, y in zip(v, row)]
            else:
                a = row[p]
                v = [a * x - c * y if y else a * x if x else x for x, y in zip(v, row)]
        return v

    def insert(self, v):
        red = self.reduce(v)
        nonzero = [j for j in range(self.width) if red[j]]
        if not nonzero:
            return None
        pivot = min(nonzero, key=lambda j: (_complexity(red[j]), j))
        if self.ring.is_field:
            inv = self.ring.invert(red[pivot])
            red = [inv * c if c else c for c in red]
            # back-eliminate the new pivot from stored rows
            for i, row in enumerate(self.rows):
                c = row[pivot]
                if c:
                    self.rows[i] = [a - c * b if b else a for a, b in zip(row, red)]
        else:
            red = self.ring.primitive(red)
        self.rows.append(red)
        self.pivots.append(pivot)
        return len(self.rows) - 1


def invert_matrix(ring, a):
    """Inverse over a field; raises ValueError when singular.

    The rows [a_i | e_i] go into one echelon basis.  In reduced row echelon
    form the row with pivot column p is [e_p | row p of the inverse]."""
    if not ring.is_field:
        raise ValueError("matrix inversion needs a field")
    n = len(a)
    basis = EchelonBasis(ring, n)
    for row, unit in zip(a, identity(ring, n)):
        if basis.insert(tuple(row) + unit) is None:
            raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for _, row in sorted(zip(basis.pivots, basis.rows)))
