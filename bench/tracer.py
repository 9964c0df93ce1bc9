"""Span tracer that wraps public functions of the ``fndam`` modules.

The package imports with ``from .x import f``, so one function object is
bound in several module namespaces (``apply_pulse`` in ``node`` and
``cell``; ``precompensated_amplitude`` in ``cell``, ``calibrate``,
``trainer`` and ``experiments``) and sometimes stored in a module-level
dict (``cli._COMMANDS``).  ``Tracer.install`` replaces every such binding
in every loaded ``fndam.*`` module, plus ``EnergyLedger.record`` on its
class, and ``Tracer.uninstall`` puts every original back.

Each call records its name, start, end, parent span and pass id in
column arrays that stay in memory; ``aggregate`` turns the spans of each
pass into per-layer metrics when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

import numpy as np

# layer -> traced public functions ("Class.method" for methods)
TARGETS = {
    "node": ("evolve", "apply_pulse", "voltage_at"),
    "cell": ("synchronize", "decay", "set_pulse", "reset_pulse", "read_weight",
             "precompensated_amplitude"),
    "energy": ("retention_time", "write_energy", "EnergyLedger.record"),
    "array": ("build_array", "advance", "batch_pulse", "batch_read",
              "state_to_json", "state_from_json"),
    "calibrate": ("fit_device_parameters", "evaluate_calibration",
                  "age_for_retention", "weight_retention", "step_amplitude"),
    "trainer": ("train_perceptron", "train_network_with_dam_decay",
                "gradient_to_pulses"),
    "experiments": ("run_calibrate", "run_characterize", "run_energy_report",
                    "run_retention_report", "run_train"),
    "config": ("load_config",),
}

ARRAY_OPS = tuple(f"array.{name}" for name in TARGETS["array"])

# ratio metric -> (solver span, child spans counted as its evaluations)
EVALS_PER_CALL = {
    "cell.precompensated_amplitude.evals_per_call":
        ("cell.precompensated_amplitude", ("cell.set_pulse", "cell.reset_pulse")),
    "energy.retention_time.evals_per_call":
        ("energy.retention_time", ("cell.decay",)),
}


def _cells(name: str):
    """Per-call cell count for array operations (for ns_per_cell)."""
    if name == "array.build_array":
        return lambda args, result: args[0]
    if name == "array.state_from_json":
        return lambda args, result: len(result)
    return lambda args, result: len(args[0])


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
        self._name_col = array("i")
        self._parent_col = array("q")
        self._pass_col = array("i")
        self._start_col = array("d")
        self._end_col = array("d")
        self._cells_col = array("d")
        self._stack = [-1]
        self._pass = -1
        self._extras: list[dict[str, float]] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass += 1
        self._extras.append({})

    def add(self, metric: str, value: float) -> None:
        """Add to a per-pass counter kept beside the spans."""
        extras = self._extras[self._pass]
        extras[metric] = extras.get(metric, 0.0) + value

    def _wrap(self, nid: int, fn, cells=None, after=None):
        names, parents, passes = self._name_col, self._parent_col, self._pass_col
        starts, ends, cell_col = self._start_col, self._end_col, self._cells_col
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(tracer._pass)
            ends.append(0.0)
            cell_col.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if cells is not None:
                cell_col[i] = cells(args, result)
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("fndam.cli")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "fndam" or key.startswith("fndam."))]
        for nid, full in enumerate(self.names):
            layer, _, attr = full.partition(".")
            home = importlib.import_module(f"fndam.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(nid, original, after=_AFTER.get(full)))
                self._restore.append((setattr, cls, meth, original))
                continue
            original = getattr(home, attr)
            cells = _cells(full) if full in ARRAY_OPS else None
            wrapper = self._wrap(nid, original, cells, _AFTER.get(full))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((setattr, mod, key, original))
                    elif type(value) is dict and key != "__builtins__":
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._restore.append((dict.__setitem__, value, dkey, original))

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass, from its spans and counters."""
        sel = np.frombuffer(self._pass_col, dtype=np.int32) == pass_id
        idx = np.nonzero(sel)[0]
        name = np.frombuffer(self._name_col, dtype=np.int32)[idx]
        parent = np.frombuffer(self._parent_col, dtype=np.int64)[idx]
        dur = (np.frombuffer(self._end_col)[idx] - np.frombuffer(self._start_col)[idx])
        cells = np.frombuffer(self._cells_col)[idx]
        # self time: subtract each span's duration from its traced parent
        own = dur.copy()
        has_parent = parent >= 0
        pos = np.searchsorted(idx, parent[has_parent])
        np.subtract.at(own, pos, dur[has_parent])
        parent_name = np.full(len(idx), -1, dtype=np.int64)
        parent_name[has_parent] = name[pos]

        out: dict[str, float] = {}
        nid_of = {n: i for i, n in enumerate(self.names)}
        for nid, full in enumerate(self.names):
            mine = name == nid
            out[f"{full}.calls"] = float(np.count_nonzero(mine))
            out[f"{full}.self_s"] = float(own[mine].sum())
            if full in ARRAY_OPS:
                n_cells = float(cells[mine].sum())
                out[f"{full}.ns_per_cell"] = (
                    float(dur[mine].sum()) / n_cells * 1e9 if n_cells else 0.0)
        for metric, (solver, evals) in EVALS_PER_CALL.items():
            sid = nid_of[solver]
            n_solves = np.count_nonzero(name == sid)
            n_evals = np.count_nonzero(
                np.isin(name, [nid_of[e] for e in evals]) & (parent_name == sid))
            out[metric] = n_evals / n_solves if n_solves else 0.0
        out["trainer.network_iterations"] = float(np.count_nonzero(
            (name == nid_of["array.advance"])
            & (parent_name == nid_of["trainer.train_network_with_dam_decay"])))
        out.update(self._extras[pass_id])
        return out

    def aggregate(self) -> dict[str, dict]:
        """Counts from the first traced pass; times as medians over passes."""
        per_pass = [self.pass_metrics(p) for p in range(self._pass + 1)]
        if not per_pass:
            return {}
        out = {}
        for key in per_pass[0]:
            values = [m.get(key, 0.0) for m in per_pass]
            timed = key.endswith((".self_s", ".ns_per_cell"))
            out[key] = {"value": statistics.median(values) if timed else values[0],
                        "n": len(values), "repeats": len(set(values)) == 1}
        return out


def _booked(tracer: Tracer, entry) -> None:
    tracer.add("energy.pulses_booked", float(entry.n_pulses))
    tracer.add("energy.booked_j", float(entry.energy_j))


def _state_bytes(tracer: Tracer, text) -> None:
    tracer.add("array.state_bytes", float(len(text.encode("utf-8"))))


_AFTER = {
    "energy.EnergyLedger.record": _booked,
    "array.state_to_json": _state_bytes,
}
