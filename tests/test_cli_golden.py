"""Every file that the six CLI commands write equals its reference, byte
for byte.

The CSVs and fitted_device.json are compared with bench/refs/cli,
recorded by bench/record_refs.py: files that do not depend on the seed
live in ``common``, the rest in ``seed-<n>``.  The array state files
that ``train`` writes and every ``.meta.json`` sidecar have their own
references under tests/data/golden/seed-<n>, recorded with the six
commands at ``--seed <n>``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fndam.cli import main

REFS = Path(__file__).resolve().parents[1] / "bench" / "refs" / "cli"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
COMMANDS = (
    ["calibrate"],
    ["characterize"],
    ["energy-report"],
    ["retention-report"],
    ["train", "--experiment", "perceptron"],
    ["train", "--experiment", "network"],
)


def reference_files(seed):
    return {p.name: p.read_bytes()
            for folder in (REFS / "common", REFS / f"seed-{seed}")
            for p in folder.iterdir()}


@pytest.mark.parametrize("seed", (0, 2104))
def test_outputs_equal_the_references(seed, tmp_path):
    written = {}
    for i, argv in enumerate(COMMANDS):
        out = tmp_path / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
        written.update((p.name, p.read_bytes()) for p in out.iterdir()
                       if not p.name.endswith("_state.json"))
    expected = reference_files(seed)
    expected.update((p.name, p.read_bytes()) for p in (GOLDEN / f"seed-{seed}").glob("*.meta.json"))
    assert sorted(written) == sorted(expected)
    assert [name for name in sorted(expected) if written[name] != expected[name]] == []


@pytest.mark.parametrize("seed", (0, 2104))
def test_train_state_files_equal_the_golden_bytes(seed, tmp_path):
    for argv in COMMANDS[4:]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--seed", str(seed), "--out", str(tmp_path)]) == 0
    written = {p.name: p.read_bytes() for p in tmp_path.glob("*_state.json")}
    expected = {p.name: p.read_bytes() for p in (GOLDEN / f"seed-{seed}").glob("*_state.json")}
    assert sorted(expected) == ["network_state.json", "perceptron_state.json"]
    assert written == expected
