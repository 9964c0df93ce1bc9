"""No fndam path loads scipy.

The least-squares fit behind ``calibrate`` is a numpy replay of
scipy's ``least_squares`` and the perceptron's margin is solved exactly,
so scipy is a test oracle only.  A fresh interpreter runs every CLI
command and the array, state and cell paths, and checks after
each step that no ``scipy`` module has been loaded.  A second
interpreter blocks ``import scipy`` outright and runs all six commands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = (["calibrate"], ["characterize"], ["energy-report"], ["retention-report"],
            ["train", "--experiment", "perceptron"], ["train", "--experiment", "network"])

SCRIPT = """\
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(name for name, module in list(sys.modules.items())
                  if module is not None and (name == "scipy" or name.startswith("scipy.")))

steps = {}
import fndam, fndam.cli
fndam.load_config({})
steps["import fndam, fndam.cli; load_config({})"] = scipy_loaded()

out = sys.argv[1]
for argv in json.loads(sys.argv[2]):
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

cell = build_array(1, p, 7.5, MismatchSpec(relative_sigma=0.01, seed=5))
assert cell.v[0, 1] != 7.5 and fndam.synchronize(p, 7.5).v[0, 1] == 7.5
steps["mismatched one-cell build_array, synchronize"] = scipy_loaded()

from fndam.trainer import best_margin, make_separable_dataset
best_margin(make_separable_dataset(8))
steps["best_margin"] = scipy_loaded()
print(json.dumps(steps))
"""


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_step_loads_scipy(tmp_path):
    steps = run_script(SCRIPT, str(tmp_path / "out"), json.dumps(COMMANDS))
    assert len(steps) == 10
    assert {step: loaded for step, loaded in steps.items() if loaded} == {}


def test_every_command_runs_with_scipy_blocked(tmp_path):
    blocked = 'import sys\nsys.modules["scipy"] = None\n' + SCRIPT
    steps = run_script(blocked, str(tmp_path / "out"), json.dumps(COMMANDS))
    assert {step: loaded for step, loaded in steps.items() if loaded} == {}
    # the block holds: importing scipy in that interpreter fails
    probe = run_script(
        'import sys, json\nsys.modules["scipy"] = None\n'
        'try:\n    import scipy.optimize\n    print(json.dumps("loaded"))\n'
        'except ImportError:\n    print(json.dumps("blocked"))\n')
    assert probe == "blocked"
