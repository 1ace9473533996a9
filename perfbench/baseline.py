"""One-shot re-measurement of the ROADMAP open-item cases.

    python3 perfbench/baseline.py

Each case runs once in its own interpreter under a time cap of CAP_S
seconds, so a case that hangs or runs away is recorded as "capped" instead
of stopping the rest.  The results go to perfbench/baseline.json.
These numbers are a baseline to compare against, not part of any workload.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CAP_S = 120.0

CASES = {}


def case(fn):
    CASES[fn.__name__] = fn
    return fn


def _similar_pair(n, letters=3, seed=0):
    import random

    from ncfps.automata import LinearRepresentation
    from ncfps.rings import QQ
    from ncfps.words import Alphabet
    from workloads import conjugate, random_rep

    rng = random.Random(f"baseline:{n}:{seed}")
    alphabet = Alphabet.x(letters)
    nu, mu, eta = random_rep(rng, alphabet.letters, n)
    r1 = LinearRepresentation(alphabet, QQ, nu, mu, eta)
    r2 = LinearRepresentation(alphabet, QQ, *conjugate(rng, nu, mu, eta))
    return r1, r2


def _equal(n):
    from ncfps.automata import equal

    r1, r2 = _similar_pair(n)
    t0 = time.perf_counter()
    holds = equal(r1, r2)
    return {"seconds": time.perf_counter() - t0, "holds": holds, "dim": n, "letters": 3}


def _minimize(n):
    from ncfps.automata import minimize, rep_sum

    r1, r2 = _similar_pair(n)
    diff = rep_sum(r1, r2.scale(-1))
    t0 = time.perf_counter()
    small = minimize(diff)
    return {"seconds": time.perf_counter() - t0, "dim_in": diff.dim, "dim_out": small.dim, "letters": 3}


for _n in (2, 3, 4, 5):
    CASES[f"equal_d{_n}"] = (lambda n: lambda: _equal(n))(_n)
    CASES[f"minimize_difference_d{_n}"] = (lambda n: lambda: _minimize(n))(_n)


@case
def log_grade10():
    from ncfps.series import NCPolynomial, TruncatedSeries
    from ncfps.rings import QQ
    from ncfps.words import Alphabet

    x2 = Alphabet.x(2)
    s = TruncatedSeries(NCPolynomial(x2, QQ, {("x0",): QQ.one, ("x1",): QQ.one}), 10)
    t0 = time.perf_counter()
    e = s.exp()
    t1 = time.perf_counter()
    back = e.log()
    t2 = time.perf_counter()
    return {"exp_seconds": t1 - t0, "seconds": t2 - t1, "round_trip_ok": back.poly.terms == s.poly.terms}


@case
def msr_check_x2_6():
    from ncfps.bases import msr_check
    from ncfps.words import Alphabet

    t0 = time.perf_counter()
    ok, _ = msr_check(Alphabet.x(2), 6)
    return {"seconds": time.perf_counter() - t0, "ok": ok}


@case
def msr_check_y_5():
    from ncfps.bases import msr_check
    from ncfps.words import Alphabet

    t0 = time.perf_counter()
    ok, _ = msr_check(Alphabet.y(), 5)
    return {"seconds": time.perf_counter() - t0, "ok": ok}


@case
def equal_qt_shuffle_product_d49():
    from ncfps.automata import equal
    from ncfps.exprs import representation_of

    a, b = "(3*x0 - 2*x1.x0)*", "(3*x1 + t*x0.x1)*"
    left = representation_of(f"{a} shuffle {b}", ring="Q[t]")
    right = representation_of(f"{b} shuffle {a}", ring="Q[t]")
    t0 = time.perf_counter()
    holds = equal(left, right)
    return {"seconds": time.perf_counter() - t0, "holds": holds, "dim": left.dim}


@case
def chen_series_b14():
    from fractions import Fraction

    from ncfps.chen import SegmentPath, chen_series

    t0 = time.perf_counter()
    ev = chen_series({"x0": "1/z", "x1": "1/(1-z)"}, SegmentPath(Fraction(1, 10), Fraction(1, 2)), 14)
    return {"seconds": time.perf_counter() - t0, "words": len(ev.values) - 1}


@case
def check_identity_3_factor_shuffle():
    star = "(x0 + x1 + x2)*"
    left, right = f"{star} shuffle {star} shuffle {star}", "(3*x0 + 3*x1 + 3*x2)*"
    argv = [sys.executable, "-m", "ncfps.cli", "check-identity", left, right]
    t0 = time.perf_counter()
    p = subprocess.run(argv, capture_output=True, text=True, env=os.environ)
    return {"seconds": time.perf_counter() - t0, "exit": p.returncode, "stdout": p.stdout.strip()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    if args.case:
        print(json.dumps(CASES[args.case]()))
        return 0

    import numpy
    import scipy

    env = dict(os.environ, PYTHONPATH=str(SRC))
    results = {}
    for name in CASES:
        t0 = time.perf_counter()
        try:
            p = subprocess.run(
                [sys.executable, __file__, "--case", name], capture_output=True, text=True, timeout=CAP_S, env=env
            )
            results[name] = json.loads(p.stdout) if p.returncode == 0 else {"error": p.stderr.strip()[-300:]}
        except subprocess.TimeoutExpired:
            results[name] = {"capped": True, "seconds": f">{CAP_S:g}"}
        results[name]["wall_seconds"] = time.perf_counter() - t0
        print(name, json.dumps(results[name]), flush=True)
    machine = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cap_seconds": CAP_S,
    }
    (HERE / "baseline.json").write_text(json.dumps({"machine": machine, "cases": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
