"""Record the golden files under tests/data/golden: the state files and
sidecars of the six default commands, and the output trees of the CLI
setups beyond the default config.

    python3 tools/record_config_goldens.py

``record_seed(seed, folder)`` runs the six default commands at
``--seed <seed>`` and keeps only the files that bench/refs/cli does not
hold: every ``.meta.json`` sidecar and the two ``*_state.json`` array
state files that ``train`` writes.  ``main`` writes them for each of
``SEEDS`` into ``tests/data/golden/seed-<n>/``, which
``tests/test_cli_golden.py`` compares byte for byte with a fresh run.

Each setup in ``SETUPS`` is an optional config and a list of CLI calls
beyond the six default commands:

- ``refitted-device``: ``calibrate``, then ``energy-report``,
  ``retention-report`` and ``characterize`` on the ``fitted_device.json``
  it wrote, so the float solvers also run on a device other than the
  shipped one;
- ``ragged-network``: the network with a ragged last batch, day-old
  cells and 1 % mismatch, which its stacked arms must train without a
  warning;
- ``clipped-perceptron``: the perceptron on day-old cells at learning
  rate 60, which clips the w0 update at 1000 pulses while the w1 update
  takes fewer, so its pulse-train segments differ in length.

``record(name, tree)`` writes a setup's tree: its ``config.json``, if it
has one, and one folder per call holding every file the call writes,
sidecars included.  ``main`` records each setup into
``tests/data/golden/config-<name>/``, which
``tests/test_config_golden.py`` compares byte for byte with a fresh
tree.  Run it only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

SEEDS = (0, 2104)
DEFAULT_COMMANDS = (
    ["calibrate"],
    ["characterize"],
    ["energy-report"],
    ["retention-report"],
    ["train", "--experiment", "perceptron"],
    ["train", "--experiment", "network"],
)
# the golden files a default command writes; its CSVs are in bench/refs/cli
KEPT_SUFFIXES = (".meta.json", "_state.json")

# name -> (config or None, [(folder, argv, config file in the tree or None)])
SETUPS = {
    "refitted-device": (None, [
        ("calibrate", ["calibrate"], None),
        *((command, [command], "calibrate/fitted_device.json")
          for command in ("energy-report", "retention-report", "characterize")),
    ]),
    "ragged-network": (
        {"experiment": {"seed": 5, "train": {"network": {
            "batch_size": 7, "n_train_per_class": 23, "pre_age_s": 86400,
            "mismatch_sigma": 0.01}}}},
        [("train", ["train", "--experiment", "network"], "config.json")],
    ),
    "clipped-perceptron": (
        {"experiment": {"seed": 3, "train": {"perceptron": {
            "learning_rate": 60, "pre_age_s": 86400}}}},
        [("train", ["train", "--experiment", "perceptron"], "config.json")],
    ),
}


def _run(name: str, argv: list[str]) -> None:
    """One quiet CLI call; SystemExit if it fails."""
    from fndam.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"{name}: {' '.join(argv)} failed with status {status}")


def record(name: str, tree: Path) -> None:
    """Run setup name's calls, writing its tree into tree; SystemExit if a call fails."""
    config, calls = SETUPS[name]
    tree.mkdir(parents=True, exist_ok=True)
    if config is not None:
        (tree / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    for folder, argv, config_file in calls:
        options = ["--out", str(tree / folder)]
        if config_file is not None:
            options += ["--config", str(tree / config_file)]
        _run(name, argv + options)


def record_seed(seed: int, folder: Path) -> None:
    """Run the six default commands at seed, keeping their golden files in folder."""
    folder.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for i, argv in enumerate(DEFAULT_COMMANDS):
            out = Path(scratch) / str(i)
            _run(f"seed {seed}", argv + ["--seed", str(seed), "--out", str(out)])
            for path in out.iterdir():
                if path.name.endswith(KEPT_SUFFIXES):
                    shutil.copyfile(path, folder / path.name)


def _emptied(folder: str) -> Path:
    tree = GOLDEN / folder
    shutil.rmtree(tree, ignore_errors=True)
    return tree


def main() -> int:
    for seed in SEEDS:
        record_seed(seed, _emptied(f"seed-{seed}"))
    for name in SETUPS:
        record(name, _emptied(f"config-{name}"))
    for tree in sorted(GOLDEN.iterdir()):
        print(f"{tree.name}: {sum(p.is_file() for p in tree.rglob('*'))} files under {tree}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
