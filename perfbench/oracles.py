"""Reference computations that the benchmark checks answers against.

Nothing here imports ncfps: every expected value is built from the inputs
with plain Python integers, Fractions and floats, by brute force or from a
closed form, so a defect in the library cannot hide in its own oracle.
"""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

EPS = 2.0**-52


class CheckFailed(AssertionError):
    """A job's answer disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# words


def shuffle(u, v):
    """Interleavings of u and v with multiplicities, by choosing positions."""
    n = len(u) + len(v)
    out = Counter()
    for pos in itertools.combinations(range(n), len(u)):
        word, iu, iv, chosen = [], 0, 0, set(pos)
        for i in range(n):
            if i in chosen:
                word.append(u[iu])
                iu += 1
            else:
                word.append(v[iv])
                iv += 1
        out[tuple(word)] += 1
    return out


def unshuffle(word):
    """All splittings of a word into two complementary subwords."""
    out = Counter()
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        out[(left, right)] += 1
    return out


def unstuffle(word):
    """Quasi-shuffle coproduct of a y-word: each letter y_k goes left, right,
    or splits as y_i (x) y_(k-i)."""
    options = []
    for letter in word:
        k = int(letter[1:])
        opts = [((letter,), ()), ((), (letter,))]
        opts += [((f"y{i}",), (f"y{k - i}",)) for i in range(1, k)]
        options.append(opts)
    out = Counter()
    for choice in itertools.product(*options):
        left = tuple(x for a, _ in choice for x in a)
        right = tuple(x for _, b in choice for x in b)
        out[(left, right)] += 1
    return out


def words_up_to(letters, bound, grade=len):
    """Every word over the letters whose grade is at most the bound."""
    out, frontier = [()], [()]
    while frontier:
        nxt = [w + (x,) for w in frontier for x in letters if grade(w + (x,)) <= bound]
        out += nxt
        frontier = nxt
    return out


def y_weight(word):
    return sum(int(x[1:]) for x in word)


def star_coeff(coeffs, word, mul=lambda a, b: a * b, one=Fraction(1)):
    """Coefficient of a word in (sum_x c_x x)*: the product of its letters'
    coefficients."""
    acc = one
    for x in word:
        acc = mul(acc, coeffs.get(x, 0))
    return acc


# ---------------------------------------------------------------------------
# polynomials in one variable, as ascending tuples of Fractions


def p_norm(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def p_add(a, b):
    n = max(len(a), len(b))
    return p_norm((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def p_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_norm(out)


def p_eval(p, z):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * z + c
    return acc


def as_poly(c):
    """A Q or Q[t] coefficient as an ascending tuple; Q[t] values expose
    their coefficient tuple."""
    if isinstance(c, (int, Fraction)):
        return p_norm((Fraction(c),))
    return p_norm(c.coeffs)


# ---------------------------------------------------------------------------
# matrices over Q


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


def vec_mat(v, m):
    return [sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0)) for j in range(len(m[0]))]


def mat_vec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(m):
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(m)
    a = [list(map(Fraction, row)) + identity(n)[i] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def rep_coeff(nu, mu, eta, word):
    """nu . mu(w_1) ... mu(w_k) . eta, letters absent from mu acting as zero."""
    v = list(nu)
    for x in word:
        if x not in mu:
            return Fraction(0)
        v = vec_mat(v, mu[x])
    return sum((a * b for a, b in zip(v, eta)), Fraction(0))


# ---------------------------------------------------------------------------
# scalar ODE of a pairing, checked in exact Taylor arithmetic


def _taylor_ratio(num, den, z0, order):
    """Taylor coefficients at z0 of num/den (ascending coefficient tuples)."""

    def shifted(p):
        # coefficients of p(z0 + h) in h
        out = [Fraction(0)] * max(len(p), 1)
        for k, c in enumerate(p):
            for j in range(k + 1):
                out[j] += c * math.comb(k, j) * z0 ** (k - j)
        return out + [Fraction(0)] * (order + 1)

    n, d = shifted(num), shifted(den)
    if d[0] == 0:
        raise ZeroDivisionError("pole at the expansion point")
    out = []
    for k in range(order + 1):
        s = n[k] - sum((d[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(s / d[0])
    return out


def ode_residual(nu, mu, inputs, coeffs, z0):
    """Value at z0 of sum_l a_l(z) R_l(z), where R_0 = nu and
    R_(l+1) = R_l' + R_l A with A = sum_x u_x(z) mu(x).

    The pairing y = nu q(z) with q' = A q has y^(l) = R_l q, so a correct
    scalar ODE sum_l a_l y^(l) = 0 makes this row vector vanish.  `inputs`
    maps letters to (num, den) coefficient tuples, `coeffs` lists the a_l.
    """
    order = len(coeffs) - 1
    n = len(nu)
    u = {x: _taylor_ratio(num, den, z0, order) for x, (num, den) in inputs.items()}
    zero = [Fraction(0)] * (order + 1)
    # A as a matrix of Taylor series
    a = [[list(zero) for _ in range(n)] for _ in range(n)]
    for x, m in mu.items():
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    for k in range(order + 1):
                        a[i][j][k] += m[i][j] * u[x][k]
    row = [[Fraction(c)] + [Fraction(0)] * order for c in nu]
    total = [Fraction(0)] * n
    for l in range(order + 1):
        a_l = p_eval(coeffs[l], z0)
        for j in range(n):
            total[j] += a_l * row[j][0]
        if l == order:
            break
        new = []
        for j in range(n):
            series = [(k + 1) * row[j][k + 1] for k in range(order)] + [Fraction(0)]
            for i in range(n):
                for p in range(order + 1):
                    if row[i][p]:
                        for q in range(order + 1 - p):
                            series[p + q] += row[i][p] * a[i][j][q]
            new.append(series)
        row = new
    return total


# ---------------------------------------------------------------------------
# iterated integrals


def letter_integral(kind, z0, z1, c=None):
    """Closed form of the single-letter integral of an input on [z0, z1]."""
    if kind == "1":
        return float(z1 - z0)
    if kind == "1/z":
        return math.log(z1 / z0)
    if kind == "1/(1-z)":
        return math.log((1 - z0) / (1 - z1))
    if kind == "1/(z+c)":
        return math.log((z1 + c) / (z0 + c))
    raise ValueError(kind)


def power_word_value(integral, n):
    """Iterated integral of x^n: (int u)^n / n!."""
    return integral**n / math.factorial(n)


def close(got, want, slack):
    return abs(got - want) <= slack + 8 * EPS * max(abs(got), abs(want))


# ---------------------------------------------------------------------------
# command line output


_TERM = re.compile(r"([+-]?)\s*([0-9]+(?:/[0-9]+)?)(?:\*([xy][0-9]+(?:\.[xy][0-9]+)*))?\Z")


def parse_series_text(text):
    """word -> Fraction from 'c*w + c*w - c*w' output over Q."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in re.split(r" (?=[+-] )", text):
        m = _TERM.match(piece.replace(" ", ""))
        require(m is not None, f"cannot read series term {piece!r}")
        sign, num, word = m.groups()
        c = Fraction(num) * (-1 if sign == "-" else 1)
        out[tuple(word.split(".")) if word else ()] = c
    return out


_MONO = re.compile(r"([+-]?)([0-9]+(?:/[0-9]+)?)?\*?(z(?:\^([0-9]+))?)?")


def parse_poly_text(text):
    """Ascending coefficients from a polynomial printed like '3/2*z^3+z-5'."""
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _MONO.match(text, pos)
        require(m is not None and m.end() > pos, f"cannot read polynomial {text!r}")
        sign, num, var, power = m.groups()
        require(num is not None or var is not None, f"cannot read polynomial {text!r}")
        c = Fraction(num) if num is not None else Fraction(1)
        deg = 0 if var is None else int(power or 1)
        coeffs[deg] = coeffs.get(deg, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return p_norm(coeffs.get(d, Fraction(0)) for d in range(max(coeffs, default=-1) + 1))


_ODE_TERM = re.compile(r"(?:\((?P<paren>[^)]*)\)|(?P<atom>[^()]+?))\*y(?P<ticks>'*)(?:\^\((?P<order>[0-9]+)\))?\Z")


def parse_ode_text(text):
    """[a_0, ..., a_N] from 'a_N*y^(N) + ... + a_0*y = 0'."""
    require(text.endswith(" = 0"), f"not an ODE line: {text!r}")
    body = text[: -len(" = 0")]
    coeffs = {}
    for piece in re.split(r" (?=[+-] )", body):
        sign = 1
        if piece[:2] in ("+ ", "- "):
            sign, piece = (-1 if piece[0] == "-" else 1), piece[2:]
        elif piece.startswith("-"):
            sign, piece = -1, piece[1:]
        if piece.startswith("y"):
            piece = "1*" + piece
        m = _ODE_TERM.match(piece)
        require(m is not None, f"cannot read ODE term {piece!r}")
        poly = parse_poly_text(m.group("paren") or m.group("atom"))
        order = int(m.group("order")) if m.group("order") else len(m.group("ticks"))
        coeffs[order] = tuple(sign * c for c in poly)
    return [coeffs.get(l, ()) for l in range(max(coeffs) + 1)]
