"""Every CLI setup writes its golden tree, byte for byte.

tools/record_goldens.py defines the setups and recorded each tree under
tests/data/golden/<setup>: the six default commands at seeds 0 and 2104
(seed-0, seed-2104), the refitted-device pipeline (the one run of
characterize and retention-report on a device other than the shipped
one), the network with a ragged last batch and the perceptron with
clipped, unequal pulse trains.  Each test here runs one config setup
afresh and compares every file: CSVs, fitted device, state files and
sidecars.  tests/test_cli_golden.py does the same for the two seed
setups.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_goldens.py"
_SPEC = importlib.util.spec_from_file_location("record_goldens", _PATH)
record_goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_goldens)

GOLDEN = record_goldens.GOLDEN
SEED_SETUPS = ("seed-0", "seed-2104")


def tree_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", sorted(set(record_goldens.SETUPS) - set(SEED_SETUPS)))
def test_setup_writes_its_golden_tree(name, tmp_path):
    record_goldens.record(name, tmp_path)
    written = tree_files(tmp_path)
    expected = tree_files(GOLDEN / name)
    assert sorted(written) == sorted(expected)
    assert [path for path in sorted(expected) if written[path] != expected[path]] == []


def test_the_golden_folders_are_the_setups():
    """No tree outlives its setup, and no setup lacks a tree."""
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(record_goldens.SETUPS)


def test_the_trees_hold_the_cases_they_are_for():
    """The refitted device's characterization differs from the shipped
    device's, and the clipped perceptron clips updates."""
    for name in ("regimes.csv", "pulse_count.csv"):
        refitted = GOLDEN / "refitted-device" / "characterize" / name
        assert refitted.read_bytes() != (GOLDEN / "seed-0" / name).read_bytes()
    steps = GOLDEN / "clipped-perceptron" / "train" / "perceptron_steps.csv"
    assert any(line.endswith(",1") for line in steps.read_text().splitlines()[1:])
