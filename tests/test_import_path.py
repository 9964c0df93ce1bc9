"""Only ``calibrate`` and the perceptron load scipy.

scipy costs more start-up time than the rest of the package together,
so ``fndam`` imports it inside the two functions that call it:
``calibrate.fit_device_parameters`` (``least_squares``) and
``trainer.best_margin`` (``linprog``).  A fresh interpreter runs every
other path here and checks after each step that no ``scipy`` module
has been loaded, then runs ``best_margin``, which must load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """\
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

steps = {}
import fndam, fndam.cli
fndam.load_config({})
steps["import fndam, fndam.cli; load_config({})"] = scipy_loaded()

out = sys.argv[1]
for argv in (["characterize"], ["energy-report"], ["retention-report"],
             ["train", "--experiment", "network"]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = fndam.cli.main(argv + ["--out", out])
    steps[" ".join(argv)] = scipy_loaded() if status == 0 else f"exit status {status}"

from fndam.array import (MismatchSpec, advance, batch_pulse, build_array, state_from_json,
                         state_to_json)
from fndam.calibrate import default_params
from fndam.node import Pulse

p = default_params()
arr = build_array(64, p, 7.5, MismatchSpec(relative_sigma=0.05, seed=3))
arr = batch_pulse(advance(arr, 10.0), [(i, 1 - 2 * (i % 2), Pulse(0.5, 0.5)) for i in range(8)])
assert state_from_json(state_to_json(arr)) == arr
steps["build_array, advance, batch_pulse, JSON round trip"] = scipy_loaded()

cell = fndam.synchronize(p, default_params(k1=p.k1 * 1.01, k2=p.k2 * 1.001), 7.5)
assert cell.v[0, 1] != 7.5
steps["mismatched synchronize"] = scipy_loaded()

from fndam.trainer import best_margin, make_separable_dataset
best_margin(make_separable_dataset(8))
steps["best_margin"] = scipy_loaded()
print(json.dumps(steps))
"""


def test_no_scipy_outside_calibrate_and_the_perceptron(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    # the perceptron's margin LP does load scipy, so the check can see it
    assert "scipy.optimize" in steps.pop("best_margin")
    assert len(steps) == 7
    assert {step: loaded for step, loaded in steps.items() if loaded} == {}
