"""Record the golden trees under tests/data/golden: every file the CLI
writes in each setup of ``SETUPS``, sidecars and state files included.

    python3 tools/record_goldens.py

Each setup is an optional config and a list of CLI calls:

- ``seed-0`` and ``seed-2104``: the six default commands at ``--seed
  <n>``, all writing into the tree's root;
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
has one, and every file its calls write, each call into its own folder.
``main`` empties tests/data/golden and records each setup into
``tests/data/golden/<name>/``, which ``tests/test_golden.py`` (and
``tests/test_cli_golden.py`` for the seed setups) compares byte for byte
with a fresh tree.  Run it only at a commit whose outputs
are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"


def _default_commands(seed: int):
    """The six default commands at seed, each writing into the tree's root."""
    return None, [(".", argv + ["--seed", str(seed)], None) for argv in (
        ["calibrate"], ["characterize"], ["energy-report"], ["retention-report"],
        ["train", "--experiment", "perceptron"], ["train", "--experiment", "network"])]


# name -> (config or None, [(folder, argv, config file in the tree or None)])
SETUPS = {
    "seed-0": _default_commands(0),
    "seed-2104": _default_commands(2104),
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


def record(name: str, tree: Path) -> None:
    """Run setup name's calls, writing its tree into tree; SystemExit if a call fails."""
    from fndam.cli import main

    config, calls = SETUPS[name]
    tree.mkdir(parents=True, exist_ok=True)
    if config is not None:
        (tree / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    for folder, argv, config_file in calls:
        argv = argv + ["--out", str(tree / folder)]
        if config_file is not None:
            argv += ["--config", str(tree / config_file)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} failed with status {status}")


def main() -> int:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in SETUPS:
        record(name, GOLDEN / name)
        files = sum(p.is_file() for p in (GOLDEN / name).rglob("*"))
        print(f"{name}: {files} files under {GOLDEN / name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
