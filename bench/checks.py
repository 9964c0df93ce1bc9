"""Correctness checks for the benchmark's outputs.

Three kinds of check, all independent of the timings:

* Reference comparison.  ``refs/cli`` holds the CSVs (and the fitted
  device block) written at the seed commit.  Files that do not depend on
  the seed live in ``refs/cli/common`` and are checked on every run;
  seed-dependent files live in ``refs/cli/seed-<n>`` for the default and
  the held-out seed.  ``refs/array/seed-<n>.npy`` holds the final
  ``array-scale`` weights for the same two seeds.
* Invariants that hold for any seed: calibration within tolerance, the
  energy books add up, summaries agree with the step logs, saved states
  load back, mismatch draws follow the documented PCG64 stream.
* An independent numpy model of the array physics (``ArrayOracle``)
  that predicts every ``array-scale`` read for any seed.

Numeric tolerance (see README.md): a field passes when
``|x - ref| <= max(RTOL * max(|ref|, column scale), ATOL_MV)``, where the
column scale is the largest magnitude in that column of the reference
file and ``ATOL_MV`` applies to millivolt columns only.  Solving the
precompensation 1000x tighter than today moves no field by more than
0.4 % of its column scale; a 10x looser solve changes pulse counts and
is caught.  ``k1`` of the fitted device is compared as ``log k1``: the
fit is flat along k1, so the tighter solve moved k1 by 4.5 % while no
calibration metric moved by more than 4e-6.
"""

from __future__ import annotations

import fnmatch
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-2
ATOL_MV = 1e-2
K1_LOG_ATOL = 0.1  # fitted k1 may move by 10 %, see above
ARRAY_ATOL_MV = 1e-6  # oracle and stored weights: a millionth of the 1 mV step

REFERENCE_SEEDS = (0, 2104)  # default seed, held-out seed
SEED_DEPENDENT = ("mismatch.csv", "perceptron_*.csv", "network_*.csv")
REFS = Path(__file__).resolve().parent / "refs"


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def compare_csv(text: str, ref: str) -> list[str]:
    rows = [line.split(",") for line in text.splitlines()]
    want = [line.split(",") for line in ref.splitlines()]
    if len(rows) != len(want) or rows[0] != want[0]:
        return [f"shape/header differ ({len(rows)} vs {len(want)} lines)"]
    header = want[0]
    scale = [0.0] * len(header)
    for row in want[1:]:
        for j, cell in enumerate(row):
            if _is_number(cell):
                scale[j] = max(scale[j], abs(float(cell)))
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows[1:], want[1:]), start=1):
        if len(row) != len(ref_row):
            problems.append(f"line {i}: {len(row)} fields, expected {len(ref_row)}")
            continue
        for j, (got, exp) in enumerate(zip(row, ref_row)):
            if not (_is_number(exp) and _is_number(got)):
                if got != exp:
                    problems.append(f"line {i} {header[j]}: {got!r} != {exp!r}")
                continue
            x, r = float(got), float(exp)
            atol = ATOL_MV if header[j].endswith("_mV") else 0.0
            if not abs(x - r) <= max(RTOL * max(abs(r), scale[j]), atol):
                problems.append(f"line {i} {header[j]}: {got} vs reference {exp}")
    return problems[:5]


def compare_fitted_device(text: str, ref: str) -> list[str]:
    got, want = json.loads(text)["device"], json.loads(ref)["device"]
    problems = []
    for key, exp in want.items():
        x = got.get(key)
        if x is None:
            problems.append(f"fitted device: missing {key}")
        elif key == "k1":
            if not abs(math.log(x) - math.log(exp)) <= K1_LOG_ATOL:
                problems.append(f"fitted device k1: {x!r} vs reference {exp!r}")
        elif not abs(x - exp) <= RTOL * abs(exp):
            problems.append(f"fitted device {key}: {x!r} vs reference {exp!r}")
    return problems


def reference_for(name: str, seed: int) -> bytes | None:
    if any(fnmatch.fnmatch(name, pat) for pat in SEED_DEPENDENT):
        path = REFS / "cli" / f"seed-{seed}" / name
    else:
        path = REFS / "cli" / "common" / name
    return path.read_bytes() if path.is_file() else None


def against_references(files: dict[str, bytes], seed: int) -> tuple[list[str], int]:
    """(problems, number of referenced files that are not byte-identical)."""
    problems, differing = [], 0
    for name, data in sorted(files.items()):
        if not (name.endswith(".csv") or name == "fitted_device.json"):
            continue
        ref = reference_for(name, seed)
        if ref is None:
            continue
        if data == ref:
            continue
        differing += 1
        compare = compare_fitted_device if name.endswith(".json") else compare_csv
        problems += [f"{name}: {p}" for p in compare(data.decode(), ref.decode())]
    return problems, differing


# -- invariants ------------------------------------------------------------

def _csv_rows(data: bytes) -> list[dict]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def mismatch_factors(n: int, sigma: float, seed: int) -> np.ndarray:
    """Documented MismatchSpec draw: (cell, node, [k1, k2]) factors."""
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, 2, 2))
    return 1.0 + sigma * z


def invariants(command: str, files: dict[str, bytes], seed: int, fndam) -> list[str]:
    """Checks that hold for any seed; `command` is the CLI command line."""
    problems = []
    if command == "calibrate":
        meta = json.loads(files["fitted_device.json.meta.json"])
        if meta.get("within_tolerance") is not True:
            problems.append("calibrate: within_tolerance is not true")
    elif command == "characterize":
        rows = _csv_rows(files["mismatch.csv"])
        cfg = fndam.load_config({})
        f = mismatch_factors(len(rows), fndam.MismatchSpec().relative_sigma, seed)
        k1, k2 = cfg.device.k1, cfg.device.k2
        for i, row in enumerate(rows):
            want = (k1 * f[i, 0, 0], k2 * f[i, 0, 1], k1 * f[i, 1, 0], k2 * f[i, 1, 1])
            got = [float(row[c]) for c in ("k1_set", "k2_set", "k1_reset", "k2_reset")]
            if not all(_close(g, w) for g, w in zip(got, want)):
                problems.append(f"mismatch.csv cell {i}: k values off the PCG64 draw")
    elif command.endswith("perceptron"):
        problems += _perceptron_invariants(files, fndam)
    elif command.endswith("network"):
        problems += _network_invariants(files, fndam)
    return problems


def _perceptron_invariants(files, fndam) -> list[str]:
    problems = []
    c_in = fndam.load_config({}).device.c_in
    ledger = _csv_rows(files["perceptron_ledger.csv"])
    for e in ledger:
        want = int(e["n_pulses"]) * 0.5 * c_in * float(e["amplitude_V"]) ** 2
        if not _close(float(e["energy_J"]), want, 1e-9):
            problems.append(f"ledger entry energy {e['energy_J']} != n*C*A^2/2")
            break
    total = sum(float(e["energy_J"]) for e in ledger)
    summary = _csv_rows(files["perceptron_summary.csv"])[0]
    if not _close(total, float(summary["total_energy_J"]), 1e-9):
        problems.append("ledger total differs from summary total_energy_J")
    steps = _csv_rows(files["perceptron_steps.csv"])
    last = steps[-1]
    if (last["w0_mV"], last["w1_mV"]) != (summary["final_w0_mV"], summary["final_w1_mV"]):
        problems.append("summary final weights differ from the last step")
    state = fndam.state_from_json(files["perceptron_state.json"].decode())
    weights = [repr(float(r.weight)) for r in fndam.batch_read(state)]
    if weights != [summary["final_w0_mV"], summary["final_w1_mV"]]:
        problems.append("saved perceptron state does not hold the final weights")
    return problems


def _network_invariants(files, fndam) -> list[str]:
    problems = []
    epochs = _csv_rows(files["network_epochs.csv"])
    last = {}
    for e in epochs:
        if not 0.0 <= float(e["test_accuracy"]) <= 1.0:
            problems.append(f"accuracy out of range: {e['test_accuracy']}")
        last[e["arm"]] = e["test_accuracy"]
    summary = {r["arm"]: r["final_accuracy"] for r in _csv_rows(files["network_summary.csv"])}
    if summary != last:
        problems.append("network summary differs from the last epoch of each arm")
    state = fndam.state_from_json(files["network_state.json"].decode())
    if len(state) != fndam.MlpSpec().n_params:
        problems.append("saved network state has the wrong number of cells")
    return problems


# -- array oracle ----------------------------------------------------------

class ArrayOracle:
    """numpy model of a mismatched array: build, advance, pulse, read.

    Repeats the closed-form physics (``V -> k2 / logaddexp(k2/V, log k1 +
    log dt)``, pulses as a coupled gate step that tunnels and is released,
    rate-matched RESET nodes) without calling into ``fndam``.
    """

    def __init__(self, k1, k2, c_total, c_couple, v0, n, sigma, seed):
        f = mismatch_factors(n, sigma, seed)
        self.log_k1 = np.log(k1 * f[:, :, 0])  # (cell, node)
        self.k2 = k2 * f[:, :, 1]
        self.ratio = c_couple / c_total
        target = self._log_rate(0, np.full(n, v0))
        v = np.full(n, float(v0))
        for _ in range(100):  # Newton on the RESET node's rate match
            g = self._log_rate(1, v) - target
            step = g / (2.0 / v + self.k2[:, 1] / v**2)
            v = v - step
            if np.all(np.abs(step) <= 1e-15 * v):
                break
        self.v = np.stack([np.full(n, float(v0)), v], axis=1)

    def _log_rate(self, node, v):
        return self.log_k1[:, node] - np.log(self.k2[:, node]) + 2 * np.log(v) - self.k2[:, node] / v

    @staticmethod
    def _evolve(v, log_k1, k2, dt):
        new = k2 / np.logaddexp(k2 / v, log_k1 + math.log(dt))
        return np.minimum(new, v)

    def advance(self, dt: float) -> None:
        self.v = self._evolve(self.v, self.log_k1, self.k2, dt)

    def pulse(self, idx, polarity, amplitude, duration) -> None:
        idle = self._evolve(self.v, self.log_k1, self.k2, duration)
        node = np.where(np.asarray(polarity) == 1, 0, 1)
        rows = np.asarray(idx)
        step = self.ratio * np.asarray(amplitude)
        lifted = self.v[rows, node] + step
        tunnelled = self._evolve(lifted, self.log_k1[rows, node], self.k2[rows, node], duration)
        idle[rows, node] = tunnelled - step
        self.v = idle

    def weights(self) -> np.ndarray:
        return 1000.0 * (self.v[:, 1] - self.v[:, 0])


def weights_problems(got, want, what: str) -> list[str]:
    got = np.asarray(got, dtype=float)
    err = np.abs(got - want)
    if got.shape != want.shape:
        return [f"{what}: {got.shape} weights, expected {want.shape}"]
    if not np.all(err <= ARRAY_ATOL_MV):
        i = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{what}: cell {i} reads {float(got[i])!r} mV, expected {float(want[i])!r} mV"]
    return []
