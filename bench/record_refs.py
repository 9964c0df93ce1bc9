"""Record the reference outputs under bench/refs.

    python3 bench/record_refs.py

Writes, for the default seed and the held-out seed, the CSVs (and the
fitted device block) of every device and train command, and the final
array-scale weights.  Files that do not depend on the seed are stored
once under refs/cli/common; the script fails if the two seeds disagree
on one of them.  Run it only at a commit whose outputs are trusted: the
benchmark checks every later commit against these files.
"""

from __future__ import annotations

import contextlib
import fnmatch
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import fndam  # noqa: E402
import fndam.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

def cli_outputs(seed: int, scratch: Path) -> dict[str, bytes]:
    files = {}
    for metric, argv in workloads.DEVICE_OPS + workloads.TRAIN_OPS:
        out = scratch / f"{metric}-{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = fndam.cli.main(argv + ["--seed", str(seed), "--out", str(out)])
        if status != 0:
            raise SystemExit(f"{' '.join(argv)} failed with status {status}")
        for path in sorted(out.iterdir()):
            if path.suffix == ".csv" or path.name == "fitted_device.json":
                files[path.name] = path.read_bytes()
    return files


def final_weights(seed: int, workdir: Path) -> np.ndarray:
    run = workloads.Run(fndam, seed, workdir)
    run.begin_pass(False)
    weights = workloads.array_pass(run, workloads.ArrayContext(fndam, seed))
    if run.failed:
        raise SystemExit(f"array-scale failed its checks: {run.problems}")
    return weights


def main() -> int:
    refs = checks.REFS
    shutil.rmtree(refs, ignore_errors=True)
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        scratch = Path(tmp)
        outputs = {seed: cli_outputs(seed, scratch) for seed in checks.REFERENCE_SEEDS}
        for seed, files in outputs.items():
            for name, data in files.items():
                dependent = any(fnmatch.fnmatch(name, p) for p in checks.SEED_DEPENDENT)
                if not dependent and data != outputs[checks.REFERENCE_SEEDS[0]][name]:
                    raise SystemExit(f"{name} depends on the seed; add it to SEED_DEPENDENT")
                target = refs / "cli" / (f"seed-{seed}" if dependent else "common") / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
            (refs / "array").mkdir(parents=True, exist_ok=True)
            np.save(refs / "array" / f"seed-{seed}.npy", final_weights(seed, scratch))
    print(f"references written under {refs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
