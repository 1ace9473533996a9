"""Byte-for-byte stdout of the demo scripts under ``demos/``.

Each ``demos/0*.py`` runs in a fresh interpreter with ``src`` on the path,
and its stdout must equal ``tests/golden/demo_<script name>.txt``.  To
rewrite the expected outputs after an intended output change, run this file
as a script::

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def demo_stdout(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 7
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [f"demo_{p.stem}.txt" for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(script):
    assert demo_stdout(script) == (GOLDEN / f"demo_{script.stem}.txt").read_text()


if __name__ == "__main__":
    for script in DEMOS:
        (GOLDEN / f"demo_{script.stem}.txt").write_text(demo_stdout(script))
