"""fndam benchmark: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload {device,train,array-scale,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of a traced run (spans around the package's public
functions, see tracer.py).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every output passed its check, 1 when one did not, 2 on a usage error
or when the package cannot be found.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads; children inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("device", "train", "array-scale")
SETUP_REPEATS = 5

# end-to-end metric -> unit; README.md says which workloads report which
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_norm": "ref",
    "peak_rss_mb": "MiB",
    "calibrate_s": "s",
    "characterize_s": "s",
    "energy_report_s": "s",
    "retention_report_s": "s",
    "train_perceptron_s": "s",
    "train_network_s": "s",
    "array_cell_ops_per_s": "cell-ops/s",
    "error_rate": "ratio",
}
# the subset every workload reports and BENCHMARK.json gates (never zero)
GATED = ("setup_s", "pass_norm", "peak_rss_mb")

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import fndam
t1 = time.perf_counter()
fndam.load_config({})
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1, "file": fndam.__file__}))
"""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import ARRAY_OPS, EVALS_PER_CALL, Tracer
    units = {}
    for name in Tracer().names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in ARRAY_OPS:
            units[f"{name}.ns_per_cell"] = "ns/cell"
    units.update({metric: "evals/call" for metric in EVALS_PER_CALL})
    units.update({
        "energy.pulses_booked": "count",
        "energy.booked_j": "J",
        "array.state_bytes": "bytes",
        "trainer.perceptron_steps": "count",
        "trainer.network_iterations": "count",
        "experiments.bytes_written": "bytes",
        "experiments.files_written": "count",
        "experiments.csv_identical": "flag",
        "cli.import_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# -- environment -----------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        packed = _read(ROOT / ".git" / "packed-refs") or ""
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment() -> dict:
    import numpy
    import scipy
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({k: _read(index / k) for k in ("level", "type", "size")})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches_per_cpu": caches,
        "git_commit": _git_commit(),
    }


# -- measurement -----------------------------------------------------------

def measure_setup(repeats: int) -> list[dict]:
    """Fresh interpreters through `import fndam` and default config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        if not Path(child["file"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up child imported fndam from {child['file']}")
        out.append(dict(child, wall_s=wall))
    return out


def run_passes(run, pass_fn, ctx, seconds: float, traced: bool) -> list[dict]:
    """Passes until `seconds` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        run.begin_pass(traced)
        if traced:
            run.tracer.install()
        try:
            pass_fn(run, ctx)
        finally:
            if traced:
                run.tracer.uninstall()
        passes.append(run.passes[-1])
    return passes


def _stat(values: list[float], norms: list[float] | None = None) -> dict:
    """Median, the median normalized time, and the highest percentile
    with at least ten samples beyond it."""
    out = {"value": statistics.median(values), "n": len(values)}
    if norms:
        out["norm"] = statistics.median(norms)
    if len(values) > 10:
        pct = 100 * (len(values) - 10) // len(values)
        out[f"p{pct}"] = sorted(values)[-11]
    return out


def run_workload(args, fndam) -> tuple[dict, dict]:
    from tracer import Tracer
    from workloads import WORKLOADS, Run

    setup = measure_setup(SETUP_REPEATS)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pass_fn, make_ctx = WORKLOADS[args.workload]
        run = Run(fndam, args.seed, workdir, Tracer() if args.trace else None)
        ctx = make_ctx(fndam, args.seed)
        run.begin_pass(False)  # warm-up: checked and counted, not timed
        pass_fn(run, ctx)
        run.samples.clear()
        run.norm_samples.clear()
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_passes(run, pass_fn, ctx, budget, False)
        traced = run_passes(run, pass_fn, ctx, budget, True) if args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    e2e = {
        "setup_s": _stat([s["wall_s"] for s in setup]),
        "pass_s": _stat([p["time_s"] for p in plain]),
        "pass_norm": _stat([p["norm"] for p in plain]),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "n": 1},
        "error_rate": {"value": run.failed / run.attempted, "n": run.attempted},
    }
    for metric, samples in run.samples.items():
        if metric in END_TO_END:
            e2e[metric] = _stat(samples, run.norm_samples[metric])
    counted = [p["counters"] for p in plain if p["counters"].get("array.cell_s")]
    if counted:
        e2e["array_cell_ops_per_s"] = _stat(
            [c["array.cell_ops"] / c["array.cell_s"] for c in counted],
            [c["array.cell_ops"] / c["array.cell_norm"] for c in counted])

    layer = {}
    if args.trace:
        layer = run.tracer.aggregate()
        first = next(p for p in run.passes if p["traced"])["counters"]
        for key in ("experiments.bytes_written", "experiments.files_written",
                    "trainer.perceptron_steps"):
            layer[key] = {"value": first.get(key, 0.0), "n": 1}
        layer["experiments.csv_identical"] = {
            "value": 0.0 if first.get("experiments.files_differing") else 1.0, "n": 1}
        layer["cli.import_s"] = _stat([s["import_s"] for s in setup])
        layer["trace.overhead_s"] = {
            "value": statistics.median(p["time_s"] for p in traced)
            - statistics.median(p["time_s"] for p in plain),
            "n": len(traced)}
        for name in per_layer_units():
            layer.setdefault(name, {"value": 0.0, "n": 0})

    result = {"run": run, "e2e": e2e, "layer": layer, "setup": setup}
    return result, {"plain_passes": len(plain), "traced_passes": len(traced)}


# -- output ----------------------------------------------------------------

def _table(metrics: dict, units: dict) -> list[str]:
    lines = []
    for name, stat in metrics.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stat.items() if k not in ("value", "n"))
        lines.append(f"  {name:<48} {stat['value']:>14.6g} {units[name]:<11} "
                     f"n={stat['n']:<4} {extra}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must be an unsigned 64-bit integer, --seconds positive")
    if not (SRC / "fndam" / "__init__.py").is_file():
        print(f"bench: no fndam package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import fndam
    import fndam.cli  # noqa: F401  (the device and train workloads call cli.main)
    if not Path(fndam.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: fndam imported from {fndam.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, info = run_workload(args, fndam)
    run = result["run"]
    units = END_TO_END
    print(f"fndam benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={info}")
    print("end-to-end (untraced):")
    for line in _table(result["e2e"], units):
        print(line)
    if args.trace:
        print("per-layer (traced):")
        for line in _table(result["layer"], per_layer_units()):
            print(line)
    for problem in run.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "end_to_end": result["e2e"], "per_layer": result["layer"],
              "setup_children": result["setup"]}
    print(json.dumps({"record": record}, sort_keys=True))

    if args.trace:
        layer_units = per_layer_units()
        metrics = {name: {"value": result["layer"][name]["value"], "unit": layer_units[name]}
                   for name in layer_units}
    else:
        metrics = {name: {"value": result["e2e"][name]["value"], "unit": units[name]}
                   for name in GATED}
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    status, finals = 0, {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0:
            status = 1
        if proc.returncode in (0, 1) and len(lines) >= 2:
            finals[workload] = (json.loads(lines[-1]), json.loads(lines[-2])["record"])
    print("all workloads, end-to-end:")
    for workload, (final, record) in finals.items():
        for name, stat in record["end_to_end"].items():
            print(f"  {workload:<12} {name:<22} {stat['value']:>14.6g} "
                  f"{END_TO_END[name]:<11} n={stat['n']}")
    attempted = sum(f["attempted"] for f, _ in finals.values())
    failed = sum(f["failed"] for f, _ in finals.values())
    metrics = {f"{w}.{name}": stat for w, (f, _) in finals.items()
               for name, stat in f["metrics"].items()}
    correct = status == 0 and len(finals) == len(WORKLOAD_NAMES) and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
