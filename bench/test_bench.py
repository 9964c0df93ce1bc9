"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fndam  # noqa: E402
import fndam.cli  # noqa: E402

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Run, array_inputs  # noqa: E402


def _bindings() -> dict:
    """Identity of every module attribute and module-level dict value in fndam."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == "fndam" or key.startswith("fndam.")):
            continue
        for attr, value in vars(mod).items():
            out[(key, attr)] = id(value)
            if type(value) is dict and attr != "__builtins__":
                for dkey, dvalue in value.items():
                    out[(key, attr, dkey)] = id(dvalue)
    out["EnergyLedger.record"] = id(fndam.EnergyLedger.__dict__["record"])
    return out


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _small_pass(out: Path) -> None:
    for argv in (["energy-report"], ["retention-report"], ["train", "--experiment", "perceptron"]):
        assert fndam.cli.main(argv + ["--out", str(out / argv[0])]) == 0


def test_tracing_leaves_no_trace(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.begin_pass()
    with tracer:
        assert _bindings() != before
        _small_pass(tmp_path / "traced")
    assert _bindings() == before
    _small_pass(tmp_path / "plain")
    traced, plain = _outputs(tmp_path / "traced"), _outputs(tmp_path / "plain")
    assert traced and traced == plain
    metrics = tracer.pass_metrics(0)
    assert metrics["cell.precompensated_amplitude.calls"] > 0
    assert metrics["energy.EnergyLedger.record.calls"] > 0
    assert metrics["experiments.run_train.calls"] == 1


def test_same_seed_same_array_inputs():
    a, b, c = array_inputs(7), array_inputs(7), array_inputs(8)
    for field in ("targets", "polarity", "amplitude"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(a, field), getattr(b, field)))
        assert not all(np.array_equal(x, y) for x, y in zip(getattr(a, field), getattr(c, field)))


def test_references_exist_for_default_and_held_out_seed():
    assert len(checks.REFERENCE_SEEDS) == 2
    for seed in checks.REFERENCE_SEEDS:
        assert (checks.REFS / "array" / f"seed-{seed}.npy").is_file()
        for name in ("mismatch.csv", "perceptron_steps.csv", "network_epochs.csv"):
            assert checks.reference_for(name, seed) is not None
    assert checks.reference_for("calibration_metrics.csv", 12345) is not None
    assert checks.reference_for("mismatch.csv", 12345) is None


def test_invalid_operation_is_counted_and_the_run_goes_on(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"device": {"v0": -1.0}}))
    run = Run(fndam, 0, tmp_path)
    run.begin_pass(False)
    run.cli("invalid_s", ["energy-report", "--config", str(config)])
    assert (run.attempted, run.failed) == (1, 1)
    assert "exit status 2" in run.problems[0] and "ConfigError" in run.problems[0]
    run.cli("energy_report_s", ["energy-report"])
    assert (run.attempted, run.failed) == (2, 1)
    assert run.failed / run.attempted == 0.5


def test_reference_comparison_catches_a_moved_value():
    ref = checks.reference_for("pulse_count.csv", 0).decode()
    lines = ref.splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * 1.2)
    moved = "\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n"
    assert checks.compare_csv(ref, ref) == []
    assert checks.compare_csv(moved, ref)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.GATED)
    for m in spec["end_to_end"]:
        assert m["unit"] == bench_run.END_TO_END[m["name"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "device",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", checks.REFERENCE_SEEDS)
def test_array_scale_matches_references(seed, tmp_path):
    from workloads import ArrayContext, array_pass
    run = Run(fndam, seed, tmp_path)
    run.begin_pass(False)
    weights = array_pass(run, ArrayContext(fndam, seed))
    assert run.failed == 0, run.problems
    assert weights is not None
