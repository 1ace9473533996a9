"""The four workloads: job shapes, seeded inputs and answer checks.

A workload is a fixed list of job shapes run in order, one round after
another; each job draws fresh inputs for its shape from a seeded stream.  A
job's `run` calls the library (or, for `cli`, names the command line) and its
`check` compares the answer with a reference from `oracles`, raising
`CheckFailed` on a wrong answer.  A known-defect probe's check returns
"defect" while the program still shows the defect.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracles as O
from oracles import require
from spans import MODULES


class Job:
    __slots__ = ("shape", "run", "check", "argv", "timeout", "probe")

    def __init__(self, shape, run=None, check=None, argv=None, timeout=None, probe=False):
        self.shape = shape
        self.run = run
        self.check = check
        self.argv = argv
        self.timeout = timeout
        self.probe = probe


def rand_q(rng, nums=(1, 2, 3, -1, -2, -3), dens=(1, 1, 2, 3)):
    return Fraction(rng.choice(nums), rng.choice(dens))


def batch(make, k):
    """A job of k independent draws of one shape, checked one by one."""

    def make_k(rng):
        parts = [make(rng) for _ in range(k)]
        return (lambda: [run() for run, _ in parts]), (lambda outs: [check(o) for (_, check), o in zip(parts, outs)])

    return make_k


def combo_text(terms):
    """'c*w + c*w - c*w' for (coefficient, word) pairs; a coefficient is a
    Fraction or a ring element's text, negative when it starts with '-'."""
    out = ""
    for i, (c, w) in enumerate(terms):
        c = str(c)
        neg = c.startswith("-")
        body = f"{c.lstrip('-')}*{'.'.join(w)}"
        if i == 0:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out


def random_rep(rng, letters, dim):
    """(nu, mu, eta) of a random representation over Q with small entries."""

    def c():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))

    nu = [c() for _ in range(dim)]
    nu[0] = nu[0] or Fraction(1)
    eta = [c() for _ in range(dim)]
    eta[-1] = eta[-1] or Fraction(1)
    mu = {x: [[c() for _ in range(dim)] for _ in range(dim)] for x in letters}
    return nu, mu, eta


def conjugate(rng, nu, mu, eta):
    """The same series under a random change of basis T = LU with unit
    triangular factors, so that T has an exact inverse."""
    n = len(nu)
    lower = [[Fraction(rng.randint(-2, 2)) if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    t = O.mat_mul(lower, upper)
    tinv = O.inverse(t)
    return O.vec_mat(nu, t), {x: O.mat_mul(O.mat_mul(tinv, m), t) for x, m in mu.items()}, O.mat_vec(tinv, eta)


# ---------------------------------------------------------------------------
# algebra: exact truncated series and bases


def _algebra(api):
    NCPolynomial, TruncatedSeries = api.series.NCPolynomial, api.series.TruncatedSeries
    Alphabet, QQ, QT = api.words.Alphabet, api.rings.QQ, api.rings.QT
    X2, X3, Y = Alphabet.x(2), Alphabet.x(3), Alphabet.y()

    def qt_coeff(rng):
        # a random element r + s*t of Q[t], never zero
        r, s = rand_q(rng), rng.choice((0, 1, 2, -1))
        return QT.coerce(r) + QT.parse("t") * s, (r, Fraction(s))

    def explog(alphabet, grade, ring):
        def make(rng):
            letters = alphabet.letters
            words = [(x,) for x in letters] + [(x, y) for x in letters for y in letters if len(letters) == 2]
            if ring is QQ:
                terms = {w: rand_q(rng) for w in words}
            else:
                terms = {w: qt_coeff(rng)[0] for w in words}
            s = TruncatedSeries(NCPolynomial(alphabet, ring, terms), grade)

            def check(back):
                require(back.poly.terms == s.poly.terms, "log(exp(S)) differs from S")

            return lambda: s.exp().log(), check

        return make

    def shuffle_star(alphabet, grade):
        def make(rng):
            letters = alphabet.letters
            a = {x: rand_q(rng) for x in letters}
            b = {x: rand_q(rng) for x in letters}
            sa = TruncatedSeries(NCPolynomial(alphabet, QQ, {(x,): c for x, c in a.items()}), grade)
            sb = TruncatedSeries(NCPolynomial(alphabet, QQ, {(x,): c for x, c in b.items()}), grade)
            ab = {x: a[x] + b[x] for x in letters}

            def check(out):
                want = {w: O.star_coeff(ab, w) for w in O.words_up_to(letters, grade)}
                require(out.poly.terms == {w: c for w, c in want.items() if c}, "a* sh b* differs from (a+b)*")

            return lambda: sa.star().shuffle(sb.star()), check

        return make

    def stuffle_star(weight, ring):
        def make(rng):
            idx = (1, 2, 3)
            if ring is QQ:
                a = {k: (rand_q(rng),) for k in idx[:2]}
                b = {k: (rand_q(rng),) for k in idx}
                coerce = lambda p: QQ.coerce(p[0])
            else:
                a, b = {}, {}
                for side, ks in ((a, idx[:2]), (b, idx)):
                    for k in ks:
                        r, s = rand_q(rng), rng.choice((0, 1, -1))
                        side[k] = O.p_norm((r, Fraction(s)))
                coerce = lambda p: QT.coerce(p[0]) + QT.parse("t") * p[1] if len(p) > 1 else QT.coerce(p[0])
            sa = TruncatedSeries(NCPolynomial(Y, ring, {(f"y{k}",): coerce(c) for k, c in a.items()}), weight)
            sb = TruncatedSeries(NCPolynomial(Y, ring, {(f"y{k}",): coerce(c) for k, c in b.items()}), weight)
            # (sum a_k y_k)* st (sum b_k y_k)* = (sum (a_k + b_k) y_k + sum a_i b_j y_(i+j))*
            comb = {}
            for k, c in list(a.items()) + list(b.items()):
                comb[f"y{k}"] = O.p_add(comb.get(f"y{k}", ()), c)
            for i, ci in a.items():
                for j, cj in b.items():
                    comb[f"y{i + j}"] = O.p_add(comb.get(f"y{i + j}", ()), O.p_mul(ci, cj))
            letters = sorted(comb, key=lambda x: int(x[1:]))

            def check(out):
                got = {w: O.as_poly(c) for w, c in out.poly.terms.items()}
                for w in O.words_up_to(letters, weight, O.y_weight):
                    want = O.star_coeff(comb, w, O.p_mul, (Fraction(1),))
                    require(got.pop(w, ()) == O.p_norm(want), f"stuffle star identity fails at {w}")
                require(not got, "stuffle product has words outside the identity")

            return lambda: sa.star().stuffle(sb.star()), check

        return make

    def coproduct(kind, count, lo, hi):
        def make(rng):
            if kind == "unshuffle":
                alphabet, pick = X2, lambda: tuple(rng.choice(("x0", "x1")) for _ in range(rng.randint(lo, hi)))
            else:
                alphabet = Y

                def pick():
                    w, left = [], rng.randint(lo, hi)
                    while left:
                        k = rng.randint(1, min(3, left))
                        w.append(f"y{k}")
                        left -= k
                    return tuple(w)

            terms = {}
            for _ in range(count):
                terms[pick()] = rand_q(rng)
            p = NCPolynomial(alphabet, QQ, terms)
            brute = getattr(O, kind)

            def check(out):
                want = {}
                for w, c in terms.items():
                    for key, m in brute(w).items():
                        want[key] = want.get(key, 0) + c * m
                require(out.terms == {k: v for k, v in want.items() if v}, f"{kind} differs from brute force")

            return lambda: getattr(api.series, kind)(p), check

        return make

    def msr(alphabet, bound):
        def make(rng):
            grade = rng.randint(1, bound)
            sample = [(u, v) for u in alphabet.words_of_grade(grade) for v in alphabet.words_of_grade(grade)]
            sample = rng.sample(sample, min(6, len(sample)))

            def run():
                table = api.bases.BasisTable(alphabet, bound)
                return table, api.bases.msr_check(alphabet, bound, table=table)

            def check(out):
                table, (ok, report) = out
                require(ok, f"msr_check reports {report}")
                dual, base = (table.Sigma, table.Pi) if alphabet.kind == "Y" else (table.S, table.P)
                for u, v in sample:
                    got = sum((c * base[v].terms.get(w, 0) for w, c in dual[u].terms.items()), Fraction(0))
                    require(got == (u == v), f"dual bases not orthonormal at {u}, {v}")

            return run, check

        return make

    shapes = {
        "unshuffle.x2": coproduct("unshuffle", 60, 6, 9),
        "unstuffle.y": coproduct("unstuffle", 60, 6, 9),
        "msr.x2.g4": msr(X2, 4),
        "stuffle-star.y.w8": stuffle_star(8, QQ),
        "msr.x2.g5": msr(X2, 5),
        "stuffle-star.qt.y.w6": stuffle_star(6, QT),
        "msr.y.w4": msr(Y, 4),
        "explog.x2.g7": explog(X2, 7, QQ),
        "explog.x3.g5": explog(X3, 5, QQ),
        "shuffle-star.x2.g7": shuffle_star(X2, 7),
        "explog.qt.x2.g6": explog(X2, 6, QT),
        "explog.x2.g8": explog(X2, 8, QQ),
        "explog.x2.g9": explog(X2, 9, QQ),
        "shuffle-star.x3.g6": shuffle_star(X3, 6),
    }
    # msr_check at grade 5 fills three slots so that the tail percentile falls
    # inside its cluster; the grade-9 round trip, heavier still, has one slot
    # and so fewer than the ten samples a run keeps above the tail
    order = list(shapes)
    order[9:9] = ["msr.x2.g5"]
    order.append("msr.x2.g5")
    order = [order]
    warmup = ["explog.x2.g7", "shuffle-star.x2.g7", "unshuffle.x2", "msr.x2.g4", "stuffle-star.y.w8", "unstuffle.y"]
    return shapes, order, warmup


# ---------------------------------------------------------------------------
# identity: exact equality decisions


def _identity(api):
    LinearRepresentation = api.automata.LinearRepresentation
    automata, exprs = api.automata, api.exprs
    Alphabet, QQ = api.words.Alphabet, api.rings.QQ

    def star_text(rng, words, qt):
        terms = []
        for w in words:
            c = rand_q(rng)
            if qt and rng.random() < 0.5:
                c = ("-" if c < 0 else "") + rng.choice(("t", "t^2", "2*t", "1/2*t"))
            terms.append((c, w))
        return "(" + combo_text(terms) + ")*"

    def commuted(op, left, right, ring):
        qt = ring == "Q[t]"

        def make(rng):
            a = star_text(rng, left, qt)
            b = star_text(rng, right, qt)

            def run():
                left = exprs.representation_of(f"{a} {op} {b}", ring=ring)
                return automata.equal(left, exprs.representation_of(f"{b} {op} {a}", ring=ring))

            return run, lambda holds: require(holds is True, f"{a} {op} {b} = {b} {op} {a} reported false")

        return make

    def similar(n_letters, dim, perturb):
        alphabet = Alphabet.x(n_letters)
        letters = alphabet.letters

        def make(rng):
            nu, mu, eta = random_rep(rng, letters, dim)
            nu2, mu2, eta2 = conjugate(rng, nu, mu, eta)
            if perturb:
                x, i, j = rng.choice(letters), rng.randrange(dim), rng.randrange(dim)
                mu2[x][i][j] += rng.choice((1, -1, Fraction(1, 2)))
            # two representations of dimension n agree everywhere iff they
            # agree on every word shorter than 2n
            words = O.words_up_to(letters, 2 * dim - 1)
            truth = all(O.rep_coeff(nu, mu, eta, w) == O.rep_coeff(nu2, mu2, eta2, w) for w in words)
            r1 = LinearRepresentation(alphabet, QQ, nu, mu, eta)
            r2 = LinearRepresentation(alphabet, QQ, nu2, mu2, eta2)
            return (
                lambda: automata.equal(r1, r2),
                lambda holds: require(holds is truth, f"equal says {holds}, truth is {truth}"),
            )

        return make

    def classic_shuffle_qt(rng):
        # (-a x0x1)* sh (a x0x1)* = (-4 a^2 x0x0x1x1)*, here with a = c t^k
        c, k = rng.randint(1, 3), rng.randint(1, 2)
        a = f"{c}*t^{k}" if k > 1 else f"{c}*t"
        b = f"{4 * c * c}*t^{2 * k}"

        def run():
            left = exprs.representation_of(f"(-{a}*x0.x1)* shuffle ({a}*x0.x1)*", ring="Q[t]")
            return automata.equal(left, exprs.representation_of(f"(-{b}*x0.x0.x1.x1)*", ring="Q[t]"))

        return run, lambda holds: require(holds is True, "shuffle identity of opposite stars reported false")

    def classic_plane(rng):
        # (alpha . x)* sh (beta . x)* = ((alpha + beta) . x)* for degree-one stars
        letters = ("x0", "x1")
        alpha = {x: rand_q(rng) for x in letters}
        beta = {x: rand_q(rng) for x in letters}
        gamma = {x: alpha[x] + beta[x] for x in letters}
        texts = ["(" + combo_text([(c, (x,)) for x, c in d.items() if c]) + ")*" for d in (alpha, beta, gamma)]
        if not any(gamma.values()):
            texts[2] = "1"

        alphabet = Alphabet.x(len(letters))

        def run():
            left = exprs.representation_of(f"{texts[0]} shuffle {texts[1]}", alphabet=alphabet)
            return automata.equal(left, exprs.representation_of(texts[2], alphabet=alphabet))

        return run, lambda holds: require(holds is True, "plane star identity reported false")

    def classic_stuffle(rng):
        # (a y_s)* st (b y_r)* = (a y_s + b y_r + ab y_(s+r))*
        s, r = rng.randint(1, 2), rng.randint(1, 2)
        a, b = rand_q(rng), rand_q(rng)
        comb = {}
        for k, c in ((s, a), (r, b), (s + r, a * b)):
            comb[k] = comb.get(k, 0) + c
        right = "(" + combo_text([(c, (f"y{k}",)) for k, c in sorted(comb.items()) if c]) + ")*"

        def run():
            left = f"({combo_text([(a, (f'y{s}',))])})* stuffle ({combo_text([(b, (f'y{r}',))])})*"
            left = exprs.representation_of(left)
            return automata.equal(left, exprs.representation_of(right))

        return run, lambda holds: require(holds is True, "stuffle star identity reported false")

    # cheap decisions run in batches so that every job costs tens of ms
    shapes = {
        "commute.shuffle.q.d25": commuted("shuffle", [("x0",), ("x1",)], [("x0", "x1")], "Q"),
        "similar.l2.d2x8": batch(similar(2, 2, False), 8),
        "perturbed.l2.d2x12": batch(similar(2, 2, True), 12),
        "classic.plane": classic_plane,
        "commute.shuffle.qt.d25": commuted("shuffle", [("x0", "x1")], [("x1",), ("x0",)], "Q[t]"),
        "similar.l2.d3x3": batch(similar(2, 3, False), 3),
        "perturbed.l2.d3x8": batch(similar(2, 3, True), 8),
        "commute.stuffle.q.d21": commuted("stuffle", [("y1",), ("y1", "y2")], [("y2",)], "Q"),
        "similar.l3.d2x4": batch(similar(3, 2, False), 4),
        "perturbed.l3.d2x12": batch(similar(3, 2, True), 12),
        "classic.shuffle.qt": classic_shuffle_qt,
        "commute.shuffle.q.d49": commuted("shuffle", [("x0",), ("x1", "x0")], [("x1",), ("x0", "x1")], "Q"),
        "similar.l2.d4": similar(2, 4, False),
        "perturbed.l2.d4x6": batch(similar(2, 4, True), 6),
        "commute.stuffle.qt.d15": commuted("stuffle", [("y1",), ("y2",)], [("y1",)], "Q[t]"),
        "similar.l3.d3": similar(3, 3, False),
        "perturbed.l3.d3x6": batch(similar(3, 3, True), 6),
        "classic.stuffle.x5": batch(classic_stuffle, 5),
    }
    # the heaviest shape, the compiled product of dimension 49, fills four
    # slots so that the tail percentile falls inside its cluster
    order = list(shapes) + ["commute.shuffle.q.d49"]
    order.insert(6, "commute.shuffle.q.d49")
    order.insert(2, "commute.shuffle.q.d49")
    order.remove("classic.stuffle.x5")
    order.insert(8, "classic.stuffle.x5")
    order.remove("similar.l3.d3")
    order.insert(4, "similar.l3.d3")
    order = [order]
    warmup = ["commute.shuffle.q.d25", "similar.l2.d2x8", "perturbed.l2.d2x12", "classic.plane"]
    warmup.append("commute.stuffle.q.d21")
    return shapes, order, warmup


# ---------------------------------------------------------------------------
# analytic: iterated integrals, pairings and scalar ODEs


# letter -> (input text, numerator, denominator), coefficients ascending
POLYLOG = {
    "x0": ("1/z", (Fraction(1),), (Fraction(0), Fraction(1))),
    "x1": ("1/(1-z)", (Fraction(1),), (Fraction(1), Fraction(-1))),
}


def _rational_family(rng, with_x2=True):
    c = rng.randint(1, 3)
    fam = {"x0": ("1", (Fraction(1),), (Fraction(1),)), "x1": ("1/(1-z)", (Fraction(1),), (Fraction(1), Fraction(-1)))}
    if with_x2:
        fam["x2"] = (f"1/(z+{c})", (Fraction(1),), (Fraction(c), Fraction(1)))
    else:
        fam["x1"] = (f"1/(z+{c})", (Fraction(1),), (Fraction(c), Fraction(1)))
    return fam, c


def _segment(rng, lo, hi, span_lo, span_hi):
    z0 = Fraction(rng.randint(round(lo * 20), round(hi * 20)), 20)
    return z0, z0 + Fraction(rng.randint(round(span_lo * 20), round(span_hi * 20)), 20)


def _analytic(api):
    chen = api.chen
    SegmentPath = chen.SegmentPath
    Alphabet, QQ = api.words.Alphabet, api.rings.QQ
    LinearRepresentation, automata = api.automata.LinearRepresentation, api.automata
    TOL = 1e-10

    def check_chen(ev, fam, z0, z1, rng, c=None):
        """Closed forms on single-letter powers, then the shuffle relation on
        a sample of word pairs, within the reported error estimates."""
        for x, (text, _, _) in fam.items():
            kind = "1/(z+c)" if text.startswith("1/(z+") else text
            if kind == "1/z" and z0 == 0:
                require((x,) in ev.excluded, f"{x} should diverge at the start point 0")
                continue
            integral = O.letter_integral(kind, Fraction(z0), Fraction(z1), c)
            for n in range(1, ev.bound + 1):
                w = (x,) * n
                want = O.power_word_value(integral, n)
                ok = O.close(ev.values[w], want, TOL + ev.errors[w])
                require(ok, f"{w}: {ev.values[w]!r} vs closed form {want!r}")
        kept = [w for w in ev.values if w]
        for _ in range(12):
            u, v = rng.choice(kept), rng.choice(kept)
            if len(u) + len(v) > ev.bound:
                continue
            terms = O.shuffle(u, v)
            if any(w not in ev.values for w in terms):
                continue
            lhs = ev.values[u] * ev.values[v]
            rhs = math.fsum(m * ev.values[w] for w, m in terms.items())
            err = sum(m * ev.errors[w] for w, m in terms.items())
            err += abs(ev.values[u]) * ev.errors[v] + abs(ev.values[v]) * ev.errors[u]
            scale = sum(m * abs(ev.values[w]) for w, m in terms.items()) + abs(lhs)
            ok = abs(lhs - rhs) <= err + 64 * O.EPS * scale
            require(ok, f"shuffle relation fails for {u}, {v}: {lhs!r} vs {rhs!r}")

    def series(family, bound, from_zero):
        def make(rng):
            if family == "polylog":
                fam, c = POLYLOG, None
                z0, z1 = (_segment(rng, 0, 0, 0.3, 0.7) if from_zero else _segment(rng, 0.1, 0.3, 0.2, 0.4))
            else:
                fam, c = _rational_family(rng)
                z0, z1 = (_segment(rng, 0, 0, 0.3, 0.7) if from_zero else _segment(rng, 0.1, 0.3, 0.2, 0.4))
            inputs = {x: t for x, (t, _, _) in fam.items()}
            check_rng = random.Random(rng.random())
            return (
                lambda: chen.chen_series(inputs, SegmentPath(z0, z1), bound, TOL),
                lambda ev: check_chen(ev, fam, z0, z1, check_rng, c),
            )

        return make

    def pairing(kind):
        def make(rng):
            if kind == "geometric":
                a = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(-1)))
                text, inputs = f"({combo_text([(a, ('x1',))])})*", {"x1": "1/(1-z)"}
                z0, z1 = _segment(rng, 0, 0.3, 0.1, 0.3)
                closed = float(((1 - z0) / (1 - z1))) ** float(a)
            else:
                a = rand_q(rng, nums=(1, 2, -1, -2), dens=(1, 2))
                text, inputs = f"({combo_text([(a, ('x0', 'x1'))])})*", {x: t for x, (t, _, _) in POLYLOG.items()}
                if kind == "rational":
                    fam, _ = _rational_family(rng, with_x2=False)
                    text = f"({combo_text([(a, ('x0', 'x1')), (rand_q(rng), ('x1',))])})*"
                    inputs = {x: t for x, (t, _, _) in fam.items()}
                z0, z1 = _segment(rng, 0.4, 0.5, 0.1, 0.2)
                closed = None
            rep = automata.minimize(api.exprs.representation_of(text).embed_field())
            path = SegmentPath(z0, z1)

            def run():
                ev = chen.chen_series(inputs, path, 10, TOL)
                return chen.pair_series(ev, rep), chen.pair_ode(rep, inputs, path, TOL)

            def check(out):
                (value, tail, certified), ode = out
                slack = tail + 1e-8
                ok = abs(value - ode) <= slack
                require(ok, f"{text}: series {value!r} and ODE {ode!r} differ by more than {slack!r}")
                if closed is not None:
                    require(certified, f"{text}: a catalog input should certify the tail")
                    ok = abs(value - closed) <= slack and abs(ode - closed) <= 1e-8
                    require(ok, f"{text}: {value!r}, {ode!r} vs {closed!r}")

            return run, check

        return make

    def derive(dim, rational, density=0.5):
        alphabet = Alphabet.x(2)

        def make(rng):
            fam = _rational_family(rng, with_x2=False)[0] if rational else POLYLOG
            inputs = {x: t for x, (t, _, _) in fam.items()}

            def c():
                return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) if rng.random() < density else Fraction(0)

            # nu = e_1, eta = e_dim and a chain e_1 -> ... -> e_dim under x0
            # keep the representation minimal, so every job has dimension dim
            nu = [Fraction(int(i == 0)) for i in range(dim)]
            eta = [Fraction(int(i == dim - 1)) for i in range(dim)]
            mu = {x: [[c() for _ in range(dim)] for _ in range(dim)] for x in ("x0", "x1")}
            for i in range(dim - 1):
                mu["x0"][i][i + 1] = rand_q(rng, nums=(1, 2, -1, -2), dens=(1, 2))
            rep = LinearRepresentation(alphabet, QQ, nu, mu, eta)
            points = (Fraction(1, 3), Fraction(5, 7))

            def run():
                small = automata.minimize(rep)
                return small, chen.derive_scalar_ode(small, inputs)

            def check(out):
                small, coeffs = out
                snu = [Fraction(v) for v in small.nu]
                smu = {x: [[Fraction(v) for v in row] for row in m] for x, m in small.mu.items()}
                seta = [Fraction(v) for v in small.eta]
                for w in O.words_up_to(("x0", "x1"), dim + small.dim - 1):
                    ok = O.rep_coeff(nu, mu, eta, w) == O.rep_coeff(snu, smu, seta, w)
                    require(ok, f"minimize changed the series at {w}")
                polys = [O.p_norm(p.coeffs) for p in coeffs]
                ok = len(polys) - 1 <= max(small.dim, 1) and polys[-1]
                require(ok, f"ODE of order {len(polys) - 1} for dimension {small.dim}")
                if small.dim:
                    ratios = {x: (num, den) for x, (_, num, den) in fam.items()}
                    for z in points:
                        res = O.ode_residual(snu, smu, ratios, polys, z)
                        require(not any(res), f"the derived ODE leaves residual {res} at z = {z}")

            return run, check

        return make

    shapes = {
        "chen.polylog.from0.b11": series("polylog", 11, True),
        "derive.polylog.d1x10": batch(derive(1, False), 10),
        "pair.geometric.b10x10": batch(pairing("geometric"), 10),
        "chen.polylog.from0.b13": series("polylog", 13, True),
        "chen.rational3.b7": series("rational3", 7, False),
        "derive.rational.d2x4": batch(derive(2, True), 4),
        "chen.polylog.b11": series("polylog", 11, False),
        "pair.polylog.b10": pairing("polylog"),
        "chen.rational3.b8": series("rational3", 8, False),
        "chen.polylog.from0.b12": series("polylog", 12, True),
        "derive.polylog.d3": derive(3, False),
        "chen.rational3.from0.b7": series("rational3", 7, True),
        "pair.rational.b10": pairing("rational"),
        "chen.polylog.b12": series("polylog", 12, False),
        "derive.rational.d4": derive(4, True, density=0.3),
    }
    # the heaviest shape fills three slots so that the tail percentile falls
    # inside its cluster; the two shapes at the median fill two slots each, so
    # that it rests on more samples
    order = list(shapes) + ["chen.polylog.from0.b13"]
    order[8:8] = ["chen.rational3.b7", "chen.rational3.from0.b7", "chen.polylog.from0.b13"]
    order = [order]
    warmup = ["chen.polylog.from0.b11", "derive.polylog.d1x10", "pair.geometric.b10x10", "chen.rational3.b7"]
    warmup.append("derive.rational.d2x4")
    return shapes, order, warmup


# ---------------------------------------------------------------------------
# cli: one-shot command line calls

CLI_TIMEOUT = 20.0
HANG_TIMEOUT = 3.0


def _stuffle_words(u, v):
    """Quasi-shuffle of y-words by its recursive definition."""
    if not u or not v:
        return {u + v: 1}
    out = {}
    merged = f"y{int(u[0][1:]) + int(v[0][1:])}"
    for head, rest in (((u[0],), (u[1:], v)), ((v[0],), (u, v[1:])), ((merged,), (u[1:], v[1:]))):
        for w, m in _stuffle_words(*rest).items():
            out[head + w] = out.get(head + w, 0) + m
    return out


def _bilinear(a, b, kernel):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, m in kernel(u, v).items():
                out[w] = out.get(w, 0) + cu * cv * m
    return {w: c for w, c in out.items() if c}


def _ok_output(parse_and_check):
    def check(out):
        rc, stdout, stderr, timed_out = out
        require(not timed_out, "timed out")
        require(rc == 0, f"exit {rc}: {stderr.strip()[-200:]}")
        parse_and_check(stdout)

    return check


def _cli(root):
    golden = {
        "x2": (root / "tests" / "golden" / "bases_x2_grade4.tsv"),
        "y": (root / "tests" / "golden" / "bases_y_weight4.tsv"),
    }

    def rand_combo(rng, letters, lengths):
        out = {}
        for _ in range(rng.randint(1, 2)):
            out[tuple(rng.choice(letters) for _ in range(rng.choice(lengths)))] = rand_q(rng)
        return out

    def text_of(d):
        return "(" + combo_text([(c, w) for w, c in d.items()]) + ")"

    def expand(rng):
        a, b = rand_combo(rng, ("x0", "x1"), (1, 2)), rand_combo(rng, ("x0", "x1"), (1, 2))
        want = _bilinear(a, b, O.shuffle)
        argv = ["expand", f"{text_of(a)} shuffle {text_of(b)}"]
        return argv, _ok_output(lambda out: require(O.parse_series_text(out) == want, f"expand printed {out!r}"))

    def op(rng):
        a, b = rand_combo(rng, ("y1", "y2"), (1, 2)), rand_combo(rng, ("y1", "y2"), (1, 2))
        want = _bilinear(a, b, _stuffle_words)
        argv = ["op", "stuffle", text_of(a), text_of(b), "--max-length", "8"]
        return argv, _ok_output(lambda out: require(O.parse_series_text(out) == want, f"op printed {out!r}"))

    def star(rng):
        coeffs = {"x0": rand_q(rng), "x1": rand_q(rng)}
        want = {w: O.star_coeff(coeffs, w) for w in O.words_up_to(("x0", "x1"), 5)}
        argv = ["star", combo_text([(c, (x,)) for x, c in coeffs.items()]), "--max-length", "5"]
        if argv[1].startswith("-"):
            argv[1] = f"({argv[1]})"
        return argv, _ok_output(lambda out: require(O.parse_series_text(out) == want, f"star printed {out.strip()!r}"))

    def bases(rng):
        alphabet = rng.choice(("x2", "y"))
        want = golden[alphabet].read_text()
        argv = ["bases", "--alphabet", alphabet, "--max-length", "4"]
        return argv, _ok_output(lambda out: require(out == want, f"bases {alphabet} differs from the golden table"))

    def minimize(rng):
        a = rand_q(rng)

        def verify(out):
            data = json.loads(out)
            n = data["dim"]
            require(n == 2, f"(a x0 x1)* has minimal dimension 2, got {n}")
            rows = lambda flat: [[Fraction(v) for v in flat[i * n : (i + 1) * n]] for i in range(n)]
            mu = {x: rows(flat) for x, flat in data["mu"].items()}
            nu, eta = [Fraction(v) for v in data["nu"]], [Fraction(v) for v in data["eta"]]
            for w in O.words_up_to(("x0", "x1"), 6):
                k = len(w) // 2
                want = a**k if w == ("x0", "x1") * k else 0
                require(O.rep_coeff(nu, mu, eta, w) == want, f"minimized representation is wrong at {w}")

        return ["minimize", "(" + combo_text([(a, ("x0", "x1"))]) + ")*"], _ok_output(verify)

    def classify(rng):
        a, b = rand_q(rng), rand_q(rng)
        while b == a:
            b = rand_q(rng)
        x0 = lambda c: combo_text([(c, ("x0",))])
        text, want = rng.choice(
            (
                (f"({combo_text([(a, ('x0',)), (b, ('x1',))])})*", "exchangeable"),
                ("(" + combo_text([(a, ("x0", "x1"))]) + ")*", "general"),
                (f"({x0(a)})* . x1 . ({x0(b)})*", "solvable"),
                (combo_text([(a, ("x0", "x1"))]), "nilpotent"),
            )
        )
        if text.startswith("-"):
            text = f"({text})"
        return ["classify", text], _ok_output(lambda out: require(out.strip() == want, f"classify {text}: {out!r}"))

    def check_identity(rng):
        a, b, c = rand_q(rng), rand_q(rng), rand_q(rng)
        left = f"({combo_text([(a, ('x0',)), (c, ('x0', 'x1'))])})*"
        right = f"({combo_text([(b, ('x1',))])})*"
        holds = rng.random() < 0.5
        # the coefficient of the word x0 is a on the left and a + 1 on the perturbed right
        left2 = left if holds else f"({combo_text([(a + 1, ('x0',)), (c, ('x0', 'x1'))])})*"

        def check(out):
            rc, stdout, stderr, timed_out = out
            require(not timed_out, "timed out")
            want = (0, "identity holds (exact)") if holds else (1, "identity fails (exact)")
            require((rc, stdout.strip()) == want, f"check-identity gave exit {rc}, {stdout.strip()!r}, want {want}")

        return ["check-identity", f"{left} shuffle {right}", f"{right} shuffle {left2}"], check

    def chen(rng):
        z0, z1 = _segment(rng, 0, 0.3, 0.2, 0.4)

        def verify(out):
            vals = {}
            for line in out.splitlines():
                word, value = line.split("\t")
                vals[tuple(word.split(".")) if word != "1" else ()] = float(value)
            require(len(vals) == 1 + 2 + 4 + 8, f"chen printed {len(vals)} words")
            for x, kind in (("x0", "1"), ("x1", "1/(1-z)")):
                integral = O.letter_integral(kind, z0, z1)
                for n in range(1, 4):
                    require(O.close(vals[(x,) * n], O.power_word_value(integral, n), 1e-9), f"chen {x}^{n} is off")
            for u, v in ((("x0",), ("x1",)), (("x1",), ("x0", "x1")), (("x0",), ("x1", "x1"))):
                rhs = sum(m * vals[w] for w, m in O.shuffle(u, v).items())
                require(abs(vals[u] * vals[v] - rhs) <= 1e-9, f"chen shuffle relation fails for {u}, {v}")

        argv = ["chen", "--inputs", "x0=1,x1=1/(1-z)", "--z0", str(z0), "--z", str(z1), "--max-length", "3"]
        return argv, _ok_output(verify)

    def pair(rng):
        a = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1)))
        z0, z1 = _segment(rng, 0, 0.3, 0.1, 0.3)
        closed = float((1 - z0) / (1 - z1)) ** float(a)

        def verify(out):
            fields = dict(line.split(" ", 1) for line in out.splitlines())
            value, tail = float(fields["value"]), float(fields["tail"])
            require(fields["certified"] == "yes", "pairing with 1/(1-z) should be certified")
            require(abs(value - closed) <= tail + 1e-8, f"pair value {value!r} vs {closed!r}")
            require(abs(float(fields["ode"]) - closed) <= 1e-8, f"pair ode {fields['ode']} vs {closed!r}")

        text = "(" + combo_text([(a, ("x1",))]) + ")*"
        return ["pair", text, "--inputs", "x1=1/(1-z)", "--z0", str(z0), "--z", str(z1)], _ok_output(verify)

    def derive_ode(rng):
        a = rand_q(rng)
        mu = {"x1": [[a]]}
        inputs = {"x1": ((Fraction(1),), (Fraction(1), Fraction(-1)))}

        def verify(out):
            coeffs = O.parse_ode_text(out.strip())
            require(len(coeffs) == 2 and coeffs[1], f"derive-ode printed {out.strip()!r}")
            for z in (Fraction(1, 3), Fraction(3, 7)):
                residual = O.ode_residual([Fraction(1)], mu, inputs, coeffs, z)
                require(not any(residual), f"derive-ode {out.strip()!r} is wrong")

        text = "(" + combo_text([(a, ("x1",))]) + ")*"
        return ["derive-ode", text, "--inputs", "x1=1/(1-z)"], _ok_output(verify)

    def malformed(rng):
        argv = rng.choice(
            (
                ["expand", "x0 +"],
                ["chen", "--inputs", "x0=1/z", "--z0", "-1", "--z", "1"],
                ["bases", "--alphabet", "q3"],
                ["check-identity", "x0", "y1"],
                ["pair", "x1*", "--inputs", "x0=1"],
            )
        )

        def check(out):
            rc, stdout, stderr, timed_out = out
            require(not timed_out, "timed out")
            ok = rc == 2 and stderr.startswith("error: ") and "Traceback" not in stderr
            require(ok, f"{argv}: exit {rc}, {stderr.strip()[-200:]!r}")

        return argv, check

    def probe_far_pole(rng):
        # A pole far outside [0, 1]: the answer is tiny, but the root search
        # factors the huge constant term by trial division and hangs.
        def check(out):
            rc, stdout, stderr, timed_out = out
            if timed_out:
                return "defect"
            require(rc == 0, f"far-pole input: exit {rc}, {stderr.strip()[-200:]!r}")
            for line in stdout.splitlines():
                word, value = line.split("\t")
                require(word == "1" or abs(float(value)) < 1e-20, f"far-pole value {line!r}")
            return None

        pole = "x0=1/(z-100000000000000000000000000003)"
        argv = ["chen", "--inputs", pole, "--z0", "0", "--z", "1", "--max-length", "2"]
        return argv, check

    def probe_double_pole(rng):
        # 1/(z^2-2)^2 has a double pole at sqrt(2) inside [1, 2]: it must be
        # refused as singular, not reported as a quadrature failure.
        def check(out):
            rc, stdout, stderr, timed_out = out
            require(not timed_out, "timed out")
            require(rc == 2, f"double-pole input: exit {rc}")
            if "inside the path" in stderr:
                return None
            require("quadrature" in stderr, f"double-pole input: {stderr.strip()[-200:]!r}")
            return "defect"

        return ["chen", "--inputs", "x0=1/(z^4-4*z^2+4)", "--z0", "1", "--z", "2"], check

    def job(kind, timeout=CLI_TIMEOUT, probe=False):
        def named(shape):
            def make(rng):
                argv, check = kind(rng)
                return Job(shape, argv=argv, check=check, timeout=timeout, probe=probe)

            return make

        return named

    shapes = {
        "expand": job(expand),
        "bases": job(bases),
        "chen": job(chen),
        "malformed.a": job(malformed),
        "op": job(op),
        "probe.double-pole": job(probe_double_pole, probe=True),
        "pair": job(pair),
        "probe.far-pole": job(probe_far_pole, timeout=HANG_TIMEOUT, probe=True),
        "star": job(star),
        "minimize": job(minimize),
        "derive-ode": job(derive_ode),
        "classify": job(classify),
        "malformed.b": job(malformed),
        "check-identity": job(check_identity),
    }
    # calls cost about the same, so each is a round of its own and a run
    # can end after any of them
    return {shape: named(shape) for shape, named in shapes.items()}, [[shape] for shape in shapes], ["expand"]


# ---------------------------------------------------------------------------


class Api:
    """The ncfps modules, imported once the source tree is on sys.path."""

    def __init__(self):
        import importlib

        for name in MODULES:
            setattr(self, name, importlib.import_module(f"ncfps.{name}"))


NAMES = ("algebra", "identity", "analytic", "cli")


def build(name, api, root):
    """(shape -> job maker, the rounds a run cycles through, each a list of
    shapes in order, warm-up shapes) for a workload; a maker takes an rng
    and returns a Job."""
    if name == "cli":
        return _cli(Path(root))
    shapes, order, warmup = {"algebra": _algebra, "identity": _identity, "analytic": _analytic}[name](api)

    def wrap(shape, make):
        def job(rng):
            run, check = make(rng)
            return Job(shape, run=run, check=check)

        return job

    return {s: wrap(s, m) for s, m in shapes.items()}, order, warmup
