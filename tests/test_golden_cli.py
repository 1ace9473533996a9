"""Byte-for-byte CLI output of the commands whose bytes depend on the
automaton kernels (minimization bases, derived ODEs, equality verdicts and
classification), on the Lyndon words of the basis tables (`bases`), or on
the quadrature (`chen` and `pair` print `repr` floats, so any change in the
order of floating-point operations shows here).

The expected outputs live in ``tests/golden/cli_<name>.txt``.  To rewrite
them after an intended output change, run this file as a script::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ncfps.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "minimize_star_x0x1": ["minimize", "(x0.x1)*"],
    "minimize_star_shuffle": ["minimize", "(x0.x1)* shuffle x0*"],
    "minimize_qt_star_product": ["minimize", "(t*x0.x1)* shuffle (x0 + t^2*x1)*", "--ring", "Q[t]"],
    "derive_ode_star_x0x1": ["derive-ode", "(x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)"],
    "derive_ode_shuffle": ["derive-ode", "x0* shuffle (2*x1)*", "--inputs", "x0=1/(z+1),x1=1/(1-z)"],
    "derive_ode_order2": ["derive-ode", "x0* shuffle (x1.x1)*", "--inputs", "x0=1/(z+1),x1=1/(1-z)"],
    "derive_ode_dim6": ["derive-ode", "(x0.x1)* shuffle (x0.x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)"],
    "derive_ode_dim9": ["derive-ode", "(x0.x1.x1)* shuffle (x0.x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)"],
    "check_identity_qt_holds": ["check-identity", "(t*x0)* shuffle (t^2*x1)*", "(t*x0 + t^2*x1)*", "--ring", "Q[t]"],
    "check_identity_qt_fails": [
        "check-identity",
        "(t*x0.x1)* shuffle (x0 + t*x1)*",
        "(x0 + t*x1)* shuffle (t*x1.x0)*",
        "--ring",
        "Q[t]",
    ],
    "classify_exchangeable": ["classify", "(x0 + x1)*"],
    "classify_nilpotent": ["classify", "x0.x1"],
    "classify_solvable": ["classify", "x0* . x1 . (-1*x0)*"],
    "classify_general": ["classify", "(x0.x1)*"],
    "chen_polylog_from0": ["chen", "--inputs", "x0=1/z,x1=1/(1-z)", "--z0", "0", "--z", "1/2", "--max-length", "4"],
    "pair_star_x0x1": ["pair", "(x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)", "--z0", "1/10", "--z", "1/2"],
    # Lyndon words with the letters y5 and y6, past the weight-4 basis TSV
    "bases_y6": ["bases", "--alphabet", "y", "--max-length", "6"],
    "minimize_stuffle": ["minimize", "(y1)* stuffle (2*y2 + y3)*"],
}

# exit code of the cases that do not exit 0: a failing identity exits 1
EXIT_CODES = {"check_identity_qt_fails": 1}


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = cli_stdout(CASES[name])
    assert code == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"cli_{name}.txt").read_text()


@pytest.mark.parametrize("name", ["check_identity_qt_holds", "check_identity_qt_fails"])
def test_check_identity_over_q_of_t_prints_the_q_t_golden(name):
    # the Q[t] pairs read over Q(t) are cleared back to Q[t] before the
    # integer test: same verdict, same bytes, same exit code
    argv = CASES[name][:-1] + ["Q(t)"]
    assert cli_stdout(argv) == (EXIT_CODES.get(name, 0), (GOLDEN / f"cli_{name}.txt").read_text())


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = cli_stdout(argv)
        if code != EXIT_CODES.get(name, 0):
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"cli_{name}.txt").write_text(out)
