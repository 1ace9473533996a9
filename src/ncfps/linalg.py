"""Exact linear algebra over the coefficient rings.

There is one matrix form: a sequence of sparse rows, each a dict {column:
entry} of its nonzero entries.  The automaton letter matrices, the Lie
brackets, inverses and the ODE rows are all stored so.  The initial and
final vectors nu and eta of a representation stay dense tuples.
``vec_rows`` multiplies a sparse row vector by a matrix, ``mat_rows``
multiplies two matrices, ``dot`` pairs a sparse row vector with a dense
column such as eta, and ``nonzeros`` turns a dense vector into a sparse one.
Everything is parameterized by a ring descriptor; inversion requires a
field (``ring.is_field``).

The incremental :class:`EchelonBasis` is the one elimination routine, on
sparse vectors, at the cost of their nonzero entries.  It works over a
field, in reduced row echelon form, or over an integral domain (Q[v] for the
scalar ODEs, or Z for the equality test over every exact ring), fraction-free
by cross-multiplication
(Bareiss, Math. Comp. 22, 1968): rows stay in the domain, and rank and span
test are those over its fraction field, at one gcd per inserted row instead
of one per ring operation.  It keeps no copy of the inserted vectors.  A
caller that needs a vector as a combination of them puts identity entries
in the columns past ``width``: a vector in the span reduces to zero below
``width``, and the entries past it carry the combination.  Matrix inversion
and the automaton minimization both read their results off such columns.
Zero tests use truthiness: every ring element defines ``__bool__``.
"""

from __future__ import annotations

import heapq

__all__ = [
    "vec_rows",
    "mat_rows",
    "dot",
    "nonzeros",
    "invert_matrix",
    "EchelonBasis",
]


def vec_rows(ring, v, rows):
    """Sparse row vector times a matrix given by sparse rows: the
    combination sum_i v_i rows[i], as a sparse vector without zeros, at the
    cost of the nonzero entries of the rows that v selects."""
    acc = {}
    for i, c in v.items():
        for j, y in rows[i].items():
            acc[j] = acc[j] + c * y if j in acc else c * y
    return {j: c for j, c in acc.items() if c}


def mat_rows(ring, a, b):
    """The product ab of two matrices given by sparse rows, as fresh rows."""
    return tuple(vec_rows(ring, r, b) for r in a)


def dot(ring, v, w):
    """The pairing of a sparse row vector v with a dense column w."""
    acc = ring.zero
    for j, c in v.items():
        y = w[j]
        if y:
            acc = acc + c * y
    return acc


def nonzeros(v):
    """The sparse form {column: entry} of a dense vector."""
    return {j: c for j, c in enumerate(v) if c}


def _complexity(x):
    # pivot preference: small objects first; works for int, Fraction, Poly, RatFun
    num = getattr(x, "num", None)
    if num is not None and hasattr(num, "degree"):
        return num.degree + x.den.degree
    if hasattr(x, "degree"):
        return x.degree
    n = getattr(x, "numerator", 0)
    d = getattr(x, "denominator", 1)
    return (abs(n).bit_length() if n else 0) + abs(d).bit_length()


class EchelonBasis:
    """Growing row space of sparse vectors.

    Vectors are dicts {column: entry} that hold no zero entry.  ``insert(v)``
    returns None when v was already in the span, else the new row index.
    ``reduce(v)`` returns v cleared on every pivot column.  A pivot -> row map
    finds the rows whose pivots v hits, so a reduction costs the nonzero
    entries of those rows and of v, not the width times the rank.

    The ring decides the elimination.  Over a field the rows are in reduced
    row echelon form with pivot entries 1, and a vector is reduced by
    subtracting v[p] times each hit row, in row order.  Over an integral
    domain (``ring.is_field`` false: Q[v], or Z for ``automata.equal``) they
    are in echelon form in insertion order, each row zero on the pivots of the
    rows before it: a vector is reduced by v <- a*v - v[p]*row for each row,
    in insertion order, whose pivot entry a = row[p] meets a nonzero v[p], and
    an inserted row is divided by its content (``ring.primitive``), one gcd
    per row.  The pivot of a new row is its entry of least ``_complexity``,
    the lowest column among equals.

    Columns may run past ``width``.  Their entries ride along through every
    row operation but are never pivots, and the span test reads only the
    columns below it.  Identity columns there record which combination of the
    inserted vectors a row is: insert v_k + e_(width+k) for each vector, and
    over a field a vector w in the span reduces to the entries -c_k at the
    columns width + k, with w = sum_k c_k v_k.
    """

    def __init__(self, ring, width):
        self.ring = ring
        self.width = width
        self.rows = []  # over a field: reduced row echelon form, pivot entry 1
        self.pivots = []  # pivot column per row
        self._row_at = {}  # pivot column -> row index

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """v less its part in the row span: zero on every pivot column.

        Over a domain the result is a nonzero multiple of that."""
        v = dict(v)
        row_at, rows, pivots = self._row_at, self.rows, self.pivots
        field, one = self.ring.is_field, self.ring.one
        hits = [row_at[p] for p in v if p in row_at]
        heapq.heapify(hits)
        last = -1
        while hits:
            i = heapq.heappop(hits)
            c = v.get(pivots[i])
            if i == last or c is None:
                continue
            last = i
            row = rows[i]
            if not field:
                a = row[pivots[i]]
                if a != one:
                    v = {j: a * x for j, x in v.items()}
                # a domain row may put entries on the pivots of later rows;
                # over a field the rows are zero on each other's pivots
                for j in row:
                    k = row_at.get(j, i)
                    if k > i:
                        heapq.heappush(hits, k)
            _add_multiple(v, -c, row)
        return v

    def insert(self, v):
        red = self.reduce(v)
        width = self.width
        free = [j for j in red if j < width]
        if not free:
            return None
        pivot = min(free, key=lambda j: (_complexity(red[j]), j))
        if self.ring.is_field:
            inv = self.ring.invert(red[pivot])
            red = {j: inv * c for j, c in red.items()}
            # back-eliminate the new pivot from stored rows
            for row in self.rows:
                c = row.get(pivot)
                if c is not None:
                    _add_multiple(row, -c, red)
        else:
            red = self.ring.primitive(red)
        self._row_at[pivot] = len(self.rows)
        self.rows.append(red)
        self.pivots.append(pivot)
        return len(self.rows) - 1


def _add_multiple(v, c, row):
    """v += c*row for sparse vectors, in place, dropping entries that cancel."""
    for j, y in row.items():
        if j in v:
            x = v[j] + c * y
            if x:
                v[j] = x
            else:
                del v[j]
        else:
            v[j] = c * y


def invert_matrix(ring, rows):
    """Inverse over a field of a square matrix given by sparse rows, as
    sparse rows; raises ValueError when singular.

    The rows [a_i | e_i] go into one echelon basis.  In reduced row echelon
    form the row with pivot column p is [e_p | row p of the inverse]."""
    if not ring.is_field:
        raise ValueError("matrix inversion needs a field")
    n = len(rows)
    basis = EchelonBasis(ring, n)
    for i, row in enumerate(rows):
        if basis.insert({**row, n + i: ring.one}) is None:
            raise ValueError("singular matrix")
    return tuple({j - n: c for j, c in row.items() if j >= n} for _, row in sorted(zip(basis.pivots, basis.rows)))
