"""Every config leaf at edge values keeps the CLI's failure contract.

Each leaf of the config schema is set, alone, to an edge value: 0, -1,
+-inf, NaN, 1e+-300 and 1.5, and small integers for the integer leaves
(a list leaf holds the value as its one entry).  The commands that read
the leaf then run in process with RuntimeWarnings raised as errors.  A
run ends in exit 0 with nothing on stderr, in exit 2 with a one-line
ConfigError record naming a config path, or in exit 1 with a one-line
record of a typed FndamError; never in a traceback or a warning.
Sizes are not capped and a run's cost grows with each of them, so the
training runs start from small sizes (BASE) and sizes are fuzzed with
small values only.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import typing
import warnings

from hypothesis import given, settings, strategies as st

from fndam import errors
from fndam.cli import main
from fndam.config import ExperimentConfig

# training sizes small enough that an edge value which multiplies the work
# (a tiny unit step clips every update at the longest pulse train) stays fast
BASE = {"experiment": {"train": {
    "perceptron": {"n_points": 10, "epochs": 1},
    "network": {"n_train_per_class": 10, "n_test_per_class": 10, "epochs": 2},
}}}
EDGES = (0, -1, math.inf, -math.inf, math.nan, 1e300, 1e-300, 1.5)
SMALL_INTS = (1, 2, 3)

CHARACTERIZE = ("characterize", "--experiment")
PERCEPTRON = ("train", "--experiment", "perceptron")
NETWORK = ("train", "--experiment", "network")
PHYSICS = (("characterize",), ("energy-report",), ("retention-report",), PERCEPTRON, NETWORK)

# the commands that read a leaf, by its path or the path of its block
READERS = {
    "device": PHYSICS,
    "device.v0": (("calibrate",), *PHYSICS),
    "device.c_in": (("calibrate",), ("energy-report",), PERCEPTRON),
    "noise": (("retention-report",),),
    "experiment.seed": ((*CHARACTERIZE, "mismatch"), PERCEPTRON, NETWORK),
    "experiment.horizon_s": (("energy-report",),),
    "experiment.n_samples": (("energy-report",),),
    "experiment.offset_v": (("energy-report",),),
    "experiment.window_s": ((*CHARACTERIZE, "regimes"), (*CHARACTERIZE, "common_mode")),
    "experiment.step_mv": ((*CHARACTERIZE, "regimes"), (*CHARACTERIZE, "bidirectional"),
                           (*CHARACTERIZE, "mismatch")),
    "experiment.amplitude_grid_v": ((*CHARACTERIZE, "amplitude_sweep"),),
    "experiment.bias_grid_v": (("retention-report",),),
    "experiment.age_grid_s": (("retention-report",),),
    "experiment.step_grid_mv": (("retention-report",),),
    "experiment.train.kind": (("train",),),
    "experiment.train.perceptron": (PERCEPTRON,),
    "experiment.train.network": (NETWORK,),
    "output_dir": (("energy-report",),),
}
TYPED_ERRORS = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.FndamError)}


def leaves(cls=ExperimentConfig, prefix=""):
    """(dotted path, type) of every leaf of the config schema."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        path, kind = prefix + f.name, hints[f.name]
        if dataclasses.is_dataclass(kind):
            yield from leaves(kind, path + ".")
        else:
            yield path, kind


LEAVES = dict(leaves())


def readers(path):
    """The READERS entry of the path, or of its nearest enclosing block."""
    while path not in READERS:
        path = path.rpartition(".")[0]
    return READERS[path]


def document(path, value):
    """BASE with the leaf at path set to value."""
    if LEAVES[path] == tuple[float, ...]:
        value = [value]
    *blocks, key = path.split(".")
    doc = node = copy.deepcopy(BASE)
    for block in blocks:
        node = node.setdefault(block, {})
    node[key] = value
    return doc


CASES = [(path, value) for path, kind in LEAVES.items()
         for value in EDGES + (SMALL_INTS if kind is int else ())]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_leaf_has_readers():
    assert len(LEAVES) == 38
    for path in LEAVES:
        assert readers(path), path


@settings(max_examples=len(CASES), deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES))
def test_edge_values_keep_the_cli_contract(tmp_path_factory, case):
    path, value = case
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(document(path, value)))  # NaN and inf as JSON extensions
    for i, command in enumerate(readers(path)):
        argv = [*command, "--config", str(config), "--out", str(root / str(i))]
        code, stdout, stderr = run(argv)
        where = f"{path} = {value!r}: {' '.join(command)}"
        if code == 0:
            assert stderr == "", where
            continue
        assert stdout == "" and stderr.count("\n") == 1, where
        record = json.loads(stderr)
        if code == 2:
            assert record["error"] == "ConfigError", where
            named = re.sub(r"\[\d+\]$", "", record["message"].split(": ", 1)[0])
            assert named in LEAVES, where
        else:
            assert code == 1 and record["error"] in TYPED_ERRORS, (where, record)
