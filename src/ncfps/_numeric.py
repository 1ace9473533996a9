"""The float engine of `ncfps.chen`: everything there that computes a double.

The Gauss-Legendre panel tables, the word levels and the level kernel of the
truncated Chen series, the adaptive driver, the Gauss collocation step of the
state flow, the float matrices of a pairing and the evaluation of controls at
doubles.  This is the only module that imports numpy at its top; `chen`
imports it at the first float it computes, after its exact checks have
passed, so parsing, validation, refusals and the exact ODE derivation run
without numpy.
"""

import math
from functools import partial

import numpy as np

from .rings import Poly, RatFun


# ---------------------------------------------------------------------------
# controls at doubles


def _control_values(f, z):
    """Values of the control f at the doubles z (an array or one np.float64)."""
    if f.kind == "exp":
        return np.exp(z)
    if f.kind == "pow":
        return z ** float(f.value)
    return f.value(z)


def _integrands(controls, path, t, p):
    """f(z(t)) z'(t) for each control f, at the parameters t, for
    z(t) = z0 + (z1 - z0) t^p.

    `controls` holds each control's split (o, g) at z0, as `_split_at` gives
    it: f = g (z - z0)^o, with o = 0 and g = f on a regular segment.  The
    product is evaluated as g(z(t)) p (z1 - z0)^(o+1) t^(p(o+1) - 1), so the
    factor (z - z0)^o is read off the parameter exactly, not from z(t) - z0,
    a difference of doubles next to z0 that is off by an ulp of z0; it also
    stays finite where t^p underflows, though the integral converges.  On a
    regular segment it is f(z0 + (z1 - z0) t) (z1 - z0), bit for bit.
    """
    dz = path.z1 - path.z0
    zs = path.z0 + dz * t**p
    return [_control_values(g, zs) * (p * dz ** (o + 1)) * t ** (p * (o + 1) - 1) for o, g in controls]


def _split_at(f, o, z0):
    """(o, g) with f = g (z - z0)^o, for o the order of the control f at z0:
    g is f itself for o = 0, 1 for z^a from 0, and the exact Q(z) quotient for
    a rational f.  The zero control, of order inf, splits as (0, f)."""
    if not o or o == math.inf:
        return 0, f
    if f.kind == "pow":
        return o, type(f).rational(1)
    shift = RatFun(Poly(f.ratfun.var, (-z0, 1))) ** abs(o)
    return o, type(f).rational(f.ratfun / shift if o > 0 else f.ratfun * shift)


# ---------------------------------------------------------------------------
# panel quadrature and the adaptive driver

_PANEL = 16


# the positive half of the 16-point Gauss-Legendre rule, as
# numpy.polynomial.legendre.leggauss(16) gives it (bitwise symmetric); literal,
# so that a float evaluation does not import numpy.polynomial
_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)


def _gauss_tables():
    half_x, half_w = np.array(_HALF_NODES), np.array(_HALF_WEIGHTS)
    x, w = np.concatenate([-half_x[::-1], half_x]), np.concatenate([half_w[::-1], half_w])
    p = np.zeros((_PANEL + 1, _PANEL))
    p[0] = 1.0
    p[1] = x
    for m in range(1, _PANEL):
        p[m + 1] = ((2 * m + 1) * x * p[m] - m * p[m - 1]) / (m + 1)
    # node values -> Legendre coefficients of the degree-15 interpolant; the
    # quadrature is exact to degree 31, so the projection is the interpolant
    coef = ((2.0 * np.arange(_PANEL) + 1.0) / 2.0)[:, None] * (w[None, :] * p[:_PANEL])
    anti = np.zeros((_PANEL, _PANEL))
    anti[:, 0] = x + 1.0
    for m in range(1, _PANEL):
        anti[:, m] = (p[m + 1] - p[m - 1]) / (2 * m + 1)
    return x, w, anti @ coef


_NODES, _WEIGHTS, _CUM = _gauss_tables()


def _initial_mesh(singular_start):
    """Panel breaks on the unit parameter interval, graded toward a singular start.

    A regular segment starts as two panels: on an analytic integrand the
    16-node rule converges geometrically, so further panels mostly confirm a
    defect already at rounding level, and the driver bisects wherever it is
    not.  Two, not one, keep the first panel's nodes inside the first half,
    where a control that leaves the double range late on a long segment is
    still finite, so the overflow is reported as the flow's.  A singular start
    keeps 7 panels graded by powers of 8 from 8^-5 up, with 1/2: two panels
    miss Li_13 from 0 by 2.5e-14 and 1/z^2 by 1e-11, beyond their estimates,
    and five graded by 16 miss {z^(-2/3), 1/(1-z)} from 0 by 4.5e-15.
    """
    if singular_start:
        return np.array(sorted({0.0, 0.5, 1.0} | {8.0**-k for k in range(1, 6)}))
    return np.array([0.0, 0.5, 1.0])


# rows per matrix product: keeps each product small enough that BLAS runs it
# on the calling thread, and fixes the bits of a result, since BLAS may sum a
# larger product in another order ({1/(z+2), z, 1/(3-z)} on [1/5, 2/5] at
# bound 11 moved 3 of its 265720 values by an ulp in one product per length)
_BLOCK = 512


def _panel_values(q, lo, hi, path, controls, levels, p=1):
    """Values of a family of words at parameter hi from their values q at lo.

    One step of the nilpotent flow dV_w = u_x V_s (w = x s) on the panel,
    by word length.  `levels[k]` is (size, segments) for the words of length
    k + 1, as `_word_levels` builds them: the rows of a segment (i, index)
    are the letter `controls[i]` followed by the rows `index` of the previous
    length (the empty word, of value 1, for length 1); `q` holds all rows,
    length by length.  Letter i's node values are folded into the quadrature
    weights and the panel antiderivative, so a segment costs one matmul of
    its suffixes' node values with each, in blocks of at most `_BLOCK` rows,
    and the start values are added once per length.  The suffixes are a view
    for a slice, and a gather of at most one length's node values otherwise.
    `controls[i]` is a (letter, control) pair, or None for a letter no row
    starts with; the control is its split (o, g) at the start, as
    `_integrands` reads it.

    `p` reparametrizes the segment as z(s) = z0 + (z1 - z0) s^p; with p large
    enough every integrable integrand vanishes at a singular start, restoring
    panelwise polynomial accuracy there.  Returns the values at hi and
    h max_j sum_x |u_x(t_j) dz/dt|, which scales their rounding error.
    """
    half = (hi - lo) / 2.0
    t = (lo + hi) / 2.0 + half * _NODES
    used = [i for i, c in enumerate(controls) if c is not None]
    u = np.zeros((len(controls), _PANEL))
    with np.errstate(all="ignore"):
        for i, values in zip(used, _integrands([controls[i][1] for i in used], path, t, p)):
            u[i] = values
    if not np.isfinite(u).all():
        i, j = np.argwhere(~np.isfinite(u))[0]
        zs = path.z0 + (path.z1 - path.z0) * t**p
        how = f"power substitution s^{p}" if p > 1 else "no power substitution"
        raise ValueError(f"the integrand of {controls[i][0]} is not finite at z = {float(zs[j])!r} ({how})")
    norm = np.max(np.sum(np.abs(u), axis=0))
    u *= half
    # letter i's control folded into the quadrature weights and the panel
    # antiderivative; C order makes each product read its matrix by rows
    weights, cums = u * _WEIGHTS, np.multiply(u[:, :, None], _CUM.T, order="C")
    out = np.empty_like(q)
    prev = np.ones((1, _PANEL))
    start = 0
    for k, (size, segments) in enumerate(levels):
        q_k, out_k = q[start : start + size], out[start : start + size]
        nodes = np.empty((size, _PANEL)) if k + 1 < len(levels) else None
        row = 0
        for i, index in segments:
            src = prev[index]
            for r in range(0, len(src), _BLOCK):
                block = src[r : r + _BLOCK]
                rows = slice(row, row + len(block))
                np.matmul(block, weights[i], out=out_k[rows])
                if nodes is not None:
                    np.matmul(block, cums[i], out=nodes[rows])
                row += len(block)
        out_k += q_k
        if nodes is not None:
            nodes += q_k[:, None]
        prev = nodes
        start += size
    return out, half * norm


# The driver bisects a panel at most down to 2^-43 of the parameter interval
# and at most 512 times in all, so that an integrand it cannot resolve (a pole
# next to the path, fast growth or oscillation) fails in bounded time.  A step
# rounds to about 1e-14 * (1 + h |B|) of the state's size, so steps that agree
# to that have converged, up to the tolerance: next to a strong pole h |B| is
# so large that the uncapped floor would pass steps that share no digit.
_MIN_PANEL = 2.0**-43
_MAX_BISECTIONS = 512
_ROUNDING = 1e-14


def _adaptive(step, q, breaks, tol, path, p=1):
    """State at parameter 1 from q at 0, and its error estimate.

    `step(q, lo, hi)` returns the state at hi from q at lo and h |B|, the
    scale of its rounding.  The panels start as the intervals between
    `breaks`; a panel is accepted when one step and two half steps agree to
    its share max(tol * width, min(rounding, tol)) of the tolerance, relative
    to the size of the state, and is bisected otherwise.  An accepted panel
    keeps the half steps and adds |halves - whole| to the error estimate.  Half
    steps whose values overflow doubles raise ValueError.  A bisected panel
    passes its left half step on as the whole step of its left half, which
    starts from the same state.
    """
    # a stack, leftmost panel on top; a panel may carry its whole step
    pending = [(lo, hi, None) for lo, hi in zip(breaks[:-1], breaks[1:])][::-1]
    err = np.zeros_like(q)
    bisections = 0
    while pending:
        lo, hi, known = pending.pop()
        mid = (lo + hi) / 2.0
        with np.errstate(all="ignore"):
            whole, norm = known or step(q, lo, hi)
            left, left_norm = step(q, lo, mid)
            halves, _ = step(left, mid, hi)
            if not np.isfinite(halves).all():
                where = path.z0 + (path.z1 - path.z0) * hi**p
                raise ValueError(f"the flow values overflow doubles by z = {where:.6g}")
            defect = np.abs(halves - whole)
            share = max(tol * (hi - lo), min(_ROUNDING * (1.0 + norm), tol))
            accept = np.max(defect) <= share * max(1.0, np.max(np.abs(halves)))
        if accept:
            q = halves
            err += defect
            continue
        bisections += 1
        if hi - lo <= _MIN_PANEL or bisections > _MAX_BISECTIONS:
            where = path.z0 + (path.z1 - path.z0) * lo**p
            raise RuntimeError(f"flow integration does not converge near z = {where:.6g}")
        pending += [(mid, hi, None), (lo, mid, (left, left_norm))]
    return q, err


# ---------------------------------------------------------------------------
# word levels, and integrability at a singular start

# a stage exponent at or below -1 diverges; the margin absorbs the rounding of
# sums of fractional orders
_DIVERGES = -1.0 + 1e-12


def _word_levels(orders, bound):
    """Every word of length 1 to `bound`, grown one letter at a time on the
    left, with its integrability.

    The words of length k + 1 are the graded words, in lex order:
    block i is the letter i followed by every word of length k.  A word's
    outer stage multiplies the antiderivative of its suffix (leading exponent
    acc = suffix stage + 1) by its first control (leading exponent orders[i])
    and integrates; a stage exponent of -1 or less diverges, which excludes
    the word and every word built on it.  The stage exponents are held over
    all words of one length, -inf for an excluded word so that its extensions
    stay excluded, and one mask per length selects the kept rows of every
    block at once.

    Returns the kept masks (per length, a bool array over its graded words,
    or None when every word is kept), their levels for `_panel_values` and
    the smallest kept stage exponent.  A level is (size, segments)
    for one length: its rows are the segments in order, and a segment
    (i, index) holds the letter i followed by the rows `index` of the
    previous length, a slice when that is the whole previous length and an
    intp array otherwise.
    """
    masks, levels = [], []
    orders = np.array(orders, dtype=float)[:, None]
    stages, alive = np.array([-1.0]), np.array([True])
    emin = math.inf
    for _ in range(bound):
        with np.errstate(invalid="ignore"):  # inf + -inf: a zero control on an excluded suffix
            e = orders + (stages + 1.0)
        keep = e > _DIVERGES
        emin = min(emin, float(e[keep].min(initial=math.inf)))
        segments = []
        for i, rows in enumerate(keep[:, alive]):
            if rows.any():
                segments.append((i, slice(None) if rows.all() else np.flatnonzero(rows)))
        stages, alive = np.where(keep, e, -math.inf).ravel(), keep.ravel()
        kept = int(np.count_nonzero(alive))
        masks.append(None if kept == alive.size else alive)
        levels.append((kept, segments))
    return masks, levels, emin


def _chain_levels(orders, indices):
    """The suffixes of one word, given by its letters' indices, shortest
    first, laid out as `_word_levels` lays out a family: one row per length.
    The first suffix whose stage diverges ends the chain, and it and every
    longer suffix are excluded.  Returns the number of kept suffixes, their
    levels and the smallest stage exponent."""
    levels = []
    stage, emin = -1.0, math.inf
    for i in reversed(indices):
        stage = orders[i] + (stage + 1.0)
        if not stage > _DIVERGES:
            break
        levels.append((1, [(i, slice(None))]))
        emin = min(emin, stage)
    return len(levels), levels, emin


def _power_param(orders, emin):
    """Reparametrization power for a singular start.

    Integer control orders leave every integrable integrand analytic at the
    endpoint, so the graded mesh alone suffices.  Fractional orders get the
    power substitution lifting the smallest stage exponent to at least 2.
    """
    finite = [o for o in orders if o != math.inf]
    if all(float(o).is_integer() for o in finite):
        return 1
    if not math.isfinite(emin):
        return 1
    return min(64, max(2, math.ceil(3.0 / (emin + 1.0))))


def _evaluate(controls, tol, levels_of):
    """The layout, the values and the error estimates of the kept words of
    the family that `levels_of(orders)` lays out from the controls' orders by
    letter index: `_word_levels` with its length bound (the layout is its kept
    masks), or `_chain_levels` with its word's letter indices (the number of
    kept suffixes).  The values follow the levels' rows.

    The state of the adaptive driver is the vector of all kept words' values,
    zero at the start; a panel step starts from the previous panel's end
    values, which is Chen's identity applied in place.  Each control is
    split at the start once, here, so that its pole factor is read off the
    parameter; on a regular segment the split is (0, f).
    """
    letters, path, singular_start = controls.alphabet.letters, controls.path, controls.singular_start
    funcs = [controls.inputs[x] for x in letters]
    orders = [f.vanishing_order_at(path.z0_exact) if singular_start else 0.0 for f in funcs]
    layout, levels, emin = levels_of(orders)
    rows = sum(size for size, _ in levels)
    if not rows:
        return layout, np.zeros(0), np.zeros(0)
    p = _power_param(orders, emin) if singular_start else 1
    used = {i for _, segments in levels for i, _ in segments}
    funcs = [_split_at(f, o, path.z0_exact) for f, o in zip(funcs, orders)]
    pairs = [(x, f) if i in used else None for i, (x, f) in enumerate(zip(letters, funcs))]
    step = partial(_panel_values, path=path, controls=pairs, levels=levels, p=p)
    vals, errs = _adaptive(step, np.zeros(rows), _initial_mesh(singular_start), tol, path, p)
    return layout, vals, errs


# ---------------------------------------------------------------------------
# pairing with a linear representation


def _float_matrix(rows, n):
    """The n x n double matrix of sparse rows."""
    m = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j, c in row.items():
            m[i, j] = float(c)
    return m


def _series_pairing(coeffs, letters, bound, rep):
    """The truncated pairing sum_w c_w nu mu(w) eta, and ||nu||_1 ||eta||_inf,
    for `coeffs` the c_w of every word up to `bound`, in grade-lex order.

    The prefix rows P_k of the words of length k are formed length by length,
    P_{k+1}[r m + j] = P_k[r] mu(x_j), over the letters that have a matrix, in
    blocks of `_BLOCK` rows; a word with a letter that has none pairs to 0 and
    is skipped.  `rows` holds each prefix row's word as its index among the
    words of its length, so the terms c_w (P_k eta)_w are added in word order.
    """
    m, n = len(letters), rep.dim
    used = np.flatnonzero([x in rep.rows for x in letters])
    # the matrices side by side: row r of P_k @ wide holds the rows of r's word followed by each used letter
    wide = np.hstack([np.zeros((n, 0))] + [_float_matrix(rep.rows[letters[j]], n) for j in used])
    nu = np.array([float(c) for c in rep.nu])
    eta = np.array([float(c) for c in rep.eta])
    coeffs = np.array(coeffs, dtype=float)
    prefixes, rows = nu[None, :], np.zeros(1, dtype=np.intp)
    value, start = 0.0, 0
    for k in range(bound + 1):
        if k:
            grown = np.empty((len(prefixes), wide.shape[1]))
            for r in range(0, len(prefixes), _BLOCK):
                np.matmul(prefixes[r : r + _BLOCK], wide, out=grown[r : r + _BLOCK])
            prefixes = grown.reshape(-1, n)
            rows = (rows[:, None] * m + used).ravel()
        for term in (coeffs[start + rows] * (prefixes @ eta)).tolist():
            value += term
        start += m**k
    return value, float(np.sum(np.abs(nu))) * float(np.max(np.abs(eta)))


def _collocation_step(q, lo, hi, path, funcs):
    """State at parameter hi from the state q at lo, by Gauss collocation.

    The stage values Q_j at the panel's quadrature nodes t_j solve
    Q = 1 (x) q + h (_CUM (x) B_j) Q with B_j = (dz/dt) A(z(t_j)); the step
    q + h sum_j w_j B_j Q_j is the 16-stage Gauss-Legendre method, of order 32.
    Returns the new state and h max_j |B_j|, which scales its rounding error.
    """
    h = (hi - lo) / 2.0
    dz = path.z1 - path.z0
    z = path.z0 + dz * ((lo + hi) / 2.0 + h * _NODES)
    b = sum(_control_values(f, z)[:, None, None] * m for f, m in funcs) * dz
    n = q.size
    blocks = (h * _CUM)[:, None, :, None] * b.transpose(1, 0, 2)[None]
    stages = np.linalg.solve(np.eye(_PANEL * n) - blocks.reshape(_PANEL * n, _PANEL * n), np.tile(q, _PANEL))
    step = h * np.einsum("j,jab,jb->a", _WEIGHTS, b, stages.reshape(_PANEL, n))
    return q + step, h * np.max(np.sum(np.abs(b), axis=2))


def _ode_state(rep, controls, tol):
    """Flow state at z1 from eta at z0, for checked controls regular on the
    closed segment, by collocation steps under the adaptive driver."""
    funcs = [(f, _float_matrix(rep.rows[x], rep.dim)) for x, f in controls.inputs.items() if x in rep.rows]
    q = np.array([float(c) for c in rep.eta])
    if not funcs or not rep.dim:
        return q
    step = partial(_collocation_step, path=controls.path, funcs=funcs)
    return _adaptive(step, q, _initial_mesh(False), tol, controls.path)[0]
