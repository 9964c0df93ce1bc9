"""Alternating benchmark pairs: a git ref (the parent) against this checkout (the change).

    python3 tools/ab_pairs.py REF --workload W [--pairs 10] [--seconds 25] [--seed 0]

REF is exported with ``git archive`` into a temporary directory, and
the checkout's files (tracked and untracked, ignored files left out)
are copied into another, so both sides run from new directories: run
from the checkout itself, identical code has read several percent more
``array-scale`` ``peak_rss_mb`` than from an export.  Both trees
compile their ``src`` first (``python -m compileall -q src``), so
neither side's ``setup_s`` pays for writing bytecode the other already
has.  Each pair runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, the side that runs first alternating
from pair to pair, and reads the last two lines of its output: the
result and the ``{"record": ...}`` line before it.  After both bench
runs of a pair, the two trees run ``python -X importtime -c "import
fndam.cli"`` IMPORT_RUNS times each with ``PYTHONPATH=<tree>/src``, one
interpreter at a time in ABBA order, so that the machine's state after
a bench run weighs on both sides alike; the median of the summed self
times of the ``fndam`` modules is each side's ``fndam_import_s``,
fndam's own import time without numpy's.  On ``array-scale``, each
tree then also runs one interpreter of ``STATE_TIMER``, in the pair's
order: the median time of STATE_RUNS saves (``state_to_json_s``) and
loads (``state_from_json_s``) of a built array of STATE_CELLS cells at
the pair's seed, advanced 10 s.

For each metric ``BENCHMARK.json`` gates, the summary gives each side's
median and quartiles, the ratio of the medians (change / parent), the
pairs the change won (ties count for neither side), whether that is a
gain (won at least nine tenths of the pairs, and the medians differ by
more than the parent's interquartile range) and whether the change's
median stays within the metric's bound.  The per-command metrics of the
record line that ``BENCHMARK.json`` does not gate (``calibrate_s`` to
``train_network_s``, and ``array_cell_ops_per_s`` on ``array-scale``),
``fndam_import_s`` and the two state times get the same statistics
without a bound, marked as ungated, so a gain can be traced to the
command or the import it sits in.  A per-command metric is read as its ``norm``, the median in
units of the bench's reference kernel, as ``pass_norm`` is, since raw
seconds drift with the shared machine's speed.  The last line of output
is the summary as one JSON object.  The exit status is 1 if any run
reports ``correct: false`` or a failed operation, or gives no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # share of pairs the change must win to claim a gain
# the record line's per-command metrics, which no bound gates: name -> better
UNGATED = {name: "lower" for name in (
    "calibrate_s", "characterize_s", "energy_report_s", "retention_report_s",
    "train_perceptron_s", "train_network_s")}
UNGATED["array_cell_ops_per_s"] = "higher"
UNGATED.update(fndam_import_s="lower", state_to_json_s="lower", state_from_json_s="lower")
IMPORT_RUNS = 5  # interpreters per fndam_import_s
STATE_CELLS, STATE_RUNS = 10**4, 9  # array size, and saves and loads per interpreter
# argv: cells, seed, runs; prints the median seconds of one save and of one load
STATE_TIMER = """
import json, statistics, sys, time
from fndam.array import MismatchSpec, advance, build_array, state_from_json, state_to_json
from fndam.calibrate import default_params
cells, seed, runs = map(int, sys.argv[1:])
array = advance(build_array(cells, default_params(), 7.5, MismatchSpec(seed=seed)), 10.0)
text = state_to_json(array)

def median_s(call, arg):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)

print(json.dumps({"state_to_json_s": median_s(state_to_json, array),
                  "state_from_json_s": median_s(state_from_json, text)}))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], gated: list[dict]) -> dict:
    """Per gated metric, the two sides' statistics over paired runs.

    parent[i] and change[i] are the metric values of pair i; each entry
    of gated is a BENCHMARK.json end-to-end metric (name, better, bound).
    A metric without a bound (an ungated one) gets no ``within_bound``,
    and a run without the metric counts as NaN.
    """
    if not parent or len(parent) != len(change):
        raise ValueError(f"need equally many runs per side, got {len(parent)} and {len(change)}")
    out = {}
    for metric in gated:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [run.get(name, math.nan) for run in parent]
        c = [run.get(name, math.nan) for run in change]
        p_q, c_q = quartiles(p), quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        worse = (c_q[1] - p_q[1]) if lower else (p_q[1] - c_q[1])
        out[name] = {
            "parent": {"median": p_q[1], "q1": p_q[0], "q3": p_q[2]},
            "change": {"median": c_q[1], "q1": c_q[0], "q3": c_q[2]},
            "ratio": c_q[1] / p_q[1] if p_q[1] else float("nan"),
            "wins": wins,
            "pairs": len(p),
            "gain": wins >= GAIN_SHARE * len(p) and -worse > p_q[2] - p_q[0],
        }
        if "bound" in metric:
            out[name]["within_bound"] = worse <= metric["bound"] * abs(p_q[1])
    return out


def run_values(result: dict | None, record: dict | None, gated: list[dict]) -> dict:
    """One run's gated metrics from its result line and its ungated
    per-command ones, normalized, from its record line; a gated metric it
    lacks is NaN, and a per-command one without a ``norm`` is left out."""
    values = {m["name"]: (result or {}).get("metrics", {}).get(m["name"], {})
              .get("value", math.nan) for m in gated}
    reported = (record or {}).get("end_to_end", {})
    values.update({name: reported[name]["norm"] for name in UNGATED
                   if "norm" in reported.get(name, {})})
    return values


def fndam_import_seconds(stderr: str) -> float:
    """The summed self times, in seconds, of the fndam modules in the
    stderr of ``python -X importtime``."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line.removeprefix("import time:").split("|")
            name = name.strip()
            if name == "fndam" or name.startswith("fndam."):
                total_us += int(self_us)
    return total_us * 1e-6


def importtime_stderr(tree: Path) -> str:
    """The stderr of ``python -X importtime -c "import fndam.cli"`` on tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-X", "importtime", "-c", "import fndam.cli"],
                          cwd=tree, env=env, capture_output=True, text=True, check=True).stderr


def import_times(trees: dict[str, Path], runs: int = IMPORT_RUNS) -> dict[str, float]:
    """fndam_import_s per side: the median over runs fresh interpreters on
    each tree, the sides alternating interpreter by interpreter in ABBA order."""
    samples = {side: [] for side in trees}
    for i in range(runs):
        for side in (list(trees) if i % 2 == 0 else list(reversed(trees))):
            samples[side].append(fndam_import_seconds(importtime_stderr(trees[side])))
    return {side: statistics.median(values) for side, values in samples.items()}


def state_times(tree: Path, seed: int) -> dict[str, float]:
    """``STATE_TIMER``'s save and load seconds, one fresh interpreter on tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", STATE_TIMER, str(STATE_CELLS), str(seed), str(STATE_RUNS)]
    return json.loads(subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                     check=True).stdout)


def export(ref: str, dest: Path) -> None:
    """The committed tree of ref, written into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_checkout(dest: Path) -> None:
    """This checkout's tracked and untracked files, ignored ones left out, copied into dest."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, names.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # a tracked file deleted from the checkout is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def read_output(stdout: str) -> tuple[dict | None, dict | None]:
    """A bench run's result (its last line) and record (the line before), None where missing."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, None
    try:
        record = json.loads(lines[-2])["record"]
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        record = None
    return result, record


def bench(tree: Path, args) -> tuple[dict | None, dict | None]:
    """The result and record of one bench run in tree (see ``read_output``)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    result, record = read_output(proc.stdout)
    if result is None:
        sys.stderr.write(proc.stderr)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the parent: a commit, branch or tag of this repository")
    parser.add_argument("--workload", required=True, choices=("device", "train", "array-scale"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.ref, trees["parent"])
        copy_checkout(trees["change"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree,
                           check=True)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, record = bench(trees[side], args)
                if result is None or not result["correct"] or result["failed"] > 0:
                    ok = False
                    print(f"pair {i + 1}: {side} run failed: {result}", file=sys.stderr)
                runs[side].append(run_values(result, record, gated))
            for side, seconds in import_times(trees).items():
                runs[side][-1]["fndam_import_s"] = seconds
            if args.workload == "array-scale":
                for side in order:
                    runs[side][-1].update(state_times(trees[side], args.seed))
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
                f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
                for name in [m["name"] for m in gated] + ["fndam_import_s"]), flush=True)

    summary = summarize(runs["parent"], runs["change"], gated)
    ungated = summarize(runs["parent"], runs["change"], [
        {"name": name, "better": better} for name, better in UNGATED.items()
        if any(name in run for side in runs.values() for run in side)])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"parent {args.ref} -> change (this checkout); median [q1, q3]")
    for name, s in {**summary, **ungated}.items():
        p, c = s["parent"], s["change"]
        bound = ("ungated" if "within_bound" not in s else
                 f"within bound {'yes' if s['within_bound'] else 'no'}")
        print(f"  {name:<20} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
              f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  ratio {s['ratio']:.4f}  "
              f"change won {s['wins']}/{s['pairs']}  gain {'yes' if s['gain'] else 'no'}  "
              f"{bound}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ref": args.ref,
                      "correct": ok, "runs": runs, "summary": summary, "ungated": ungated}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
