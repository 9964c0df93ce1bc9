"""Every demo prints what it printed when its reference was recorded.

Each ``demos/*.py`` runs in a fresh interpreter with ``PYTHONPATH=src``,
RuntimeWarnings raised as errors and ``import scipy`` blocked (scipy is
a test oracle only), and its stdout must equal
``tests/data/demos/<demo>.txt`` byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN = ('import runpy, sys; sys.modules["scipy"] = None; '
       'runpy.run_path(sys.argv[1], run_name="__main__")')


def test_every_demo_has_a_reference_and_every_reference_a_demo():
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_reference(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", RUN, str(demo)],
                          cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
