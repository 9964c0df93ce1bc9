"""The six default commands write the seed-0 and seed-2104 golden trees,
byte for byte.

tools/record_goldens.py defines both setups: calibrate, characterize,
energy-report, retention-report and both train experiments at --seed
<n>, all writing into tests/data/golden/seed-<n>.  Each setup runs once
for this module; one test compares the CSVs, the fitted device and every
sidecar, the other the two array state files that train writes.
"""

import pytest

from test_golden import GOLDEN, SEED_SETUPS, record_goldens, tree_files


@pytest.fixture(scope="module", params=(0, 2104))
def trees(request, tmp_path_factory):
    """(written, expected): a fresh seed tree's files and the golden ones."""
    name = f"seed-{request.param}"
    assert name in SEED_SETUPS
    tree = tmp_path_factory.mktemp(name)
    record_goldens.record(name, tree)
    return tree_files(tree), tree_files(GOLDEN / name)


def _split(trees, state):
    return [{path: data for path, data in files.items() if path.endswith("_state.json") == state}
            for files in trees]


def test_outputs_equal_the_references(trees):
    written, expected = _split(trees, state=False)
    assert sorted(written) == sorted(expected)
    assert [path for path in sorted(expected) if written[path] != expected[path]] == []


def test_train_state_files_equal_the_golden_bytes(trees):
    written, expected = _split(trees, state=True)
    assert sorted(expected) == ["network_state.json", "perceptron_state.json"]
    assert written == expected
