"""The differential independence test for rational inputs.

`independence_criterion` decides whether a family of rational inputs admits
a nonzero rational linear combination that is an exact derivative in Q(z).
Over the common denominator D the numerators of such derivatives form a
Q-subspace with an explicit spanning set (Horowitz-Ostrogradsky), so the
decision is one echelon span test over Q and needs no roots of D.
"""

from __future__ import annotations

from .chen import _exact_controls
from .linalg import EchelonBasis, nonzeros
from .rings import QQ, Poly, RatFun, poly_gcd, poly_lcm, ring_named

__all__ = ["independence_criterion"]


def independence_criterion(inputs, base):
    """Whether no nonzero rational-coefficient combination of the inputs is
    trivial for integration purposes.

    Over the constant base field Q this is plain linear independence over Q.
    Over the rational-function base Q(z) (or its alias Q(t)) no nonzero
    combination may be an exact derivative in Q(z).  With all inputs over
    their lcm denominator D, the exact derivatives whose denominator divides
    D have numerators spanned over Q by (z^j/E)' D for j < deg E, where
    E = gcd(D, D'), and by the z^k D: a derivative g' over D has g = P/E plus
    a polynomial (Horowitz 1971; Bronstein, Symbolic Integration I, 2.2).
    Both bases are one span test: the family is independent exactly when
    each input's numerator adds a new row to the echelon basis of these
    generators (none over Q), so no root of D is ever located.  The inputs
    are read as `chen` reads controls, and each must be rational in z.
    """
    if isinstance(base, str):
        base = ring_named(base)
    if base.name not in ("Q", "Q(z)", "Q(t)"):
        raise ValueError(f"unsupported base field {base.name!r}")
    controls = _exact_controls(inputs)
    funs = [controls[x].ratfun for x in sorted(controls)]
    if not funs:
        return True
    den = poly_lcm(*(f.den for f in funs))
    numerators = [f.num * (den // f.den) for f in funs]
    exact = []
    if base.name != "Q":
        e = poly_gcd(den, den.derivative())
        z = Poly.gen(den.var)
        exact = [(RatFun(z**j, e).derivative() * den).num for j in range(e.degree)]
        top = max(n.degree for n in numerators)
        exact += [z**k * den for k in range(top - den.degree + 1)]
    width = max(p.degree for p in exact + numerators) + 1
    rows = [nonzeros(p.coeffs) for p in exact + numerators]
    basis = EchelonBasis(QQ, width)
    for row in rows[: len(exact)]:
        basis.insert(row)
    return all(basis.insert(row) is not None for row in rows[len(exact) :])
