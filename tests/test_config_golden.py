"""The CLI setups beyond the default config write their golden trees, byte
for byte.

tools/record_config_goldens.py defines the setups and recorded each tree
under tests/data/golden/config-<name>: the refitted-device pipeline (the
one run of characterize and retention-report on a device other than the
shipped one), the network with a ragged last batch and the perceptron
with clipped, unequal pulse trains.  Each test runs one setup afresh and
compares every file, sidecars included.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_config_goldens.py"
_SPEC = importlib.util.spec_from_file_location("record_config_goldens", _PATH)
record_config_goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_config_goldens)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def tree_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", sorted(record_config_goldens.SETUPS))
def test_setup_writes_its_golden_tree(name, tmp_path):
    record_config_goldens.record(name, tmp_path)
    written = tree_files(tmp_path)
    expected = tree_files(GOLDEN / f"config-{name}")
    assert sorted(written) == sorted(expected)
    assert [path for path in sorted(expected) if written[path] != expected[path]] == []


def test_the_trees_hold_the_cases_they_are_for():
    """The refitted device's characterization differs from the shipped
    device's, and the clipped perceptron clips updates."""
    refitted = GOLDEN / "config-refitted-device" / "characterize"
    shipped = GOLDEN.parents[2] / "bench" / "refs" / "cli" / "common"
    for name in ("regimes.csv", "pulse_count.csv"):
        assert (refitted / name).read_bytes() != (shipped / name).read_bytes()
    steps = GOLDEN / "config-clipped-perceptron" / "train" / "perceptron_steps.csv"
    assert any(line.endswith(",1") for line in steps.read_text().splitlines()[1:])
