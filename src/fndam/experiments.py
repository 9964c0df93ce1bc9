"""Deterministic experiment runner: device characterization and training
sweeps written out as CSV datasets.

Every runner takes a validated ExperimentConfig, writes one or more CSV
files (RFC-4180 quoting, UTF-8, LF line endings, floats serialized with
repr so values round-trip exactly) plus a ``<name>.meta.json`` sidecar
per output carrying the config hash, schema version, tool version, and
seed.  Nothing depends on wall-clock time or machine identity, so a
rerun with the same config produces byte-identical files.  A runner
writes into a staging directory beside the output directory and moves
its files into place only once every step has succeeded, so a run that
fails or is killed leaves the output directory as it was.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from .array import MismatchSpec, advance, batch_pulse, build_array, state_to_json
from .calibrate import (
    CAL_PULSE_DURATION_S,
    REGIME_RETENTION,
    age_for_retention,
    cell_at_age,
    fit_device_parameters,
)
from .cell import (
    _evolved_nodes,
    _float_nodes,
    _float_weight,
    common_mode_step,
    decay,
    precompensated_amplitude,
    read_weight,
    set_pulse,
    reset_pulse,
)
from .config import (
    CHARACTERIZE_EXPERIMENTS,
    SCHEMA_VERSION,
    TOOL_VERSION,
    TRAIN_KINDS,
    ExperimentConfig,
)
from .energy import retention_time, setpoint_write, trajectory_times
from .errors import ConfigError, DomainError
from .node import Pulse, k0_from_initial
from .tables import csv_table
from .trainer import (
    MlpSpec,
    NetworkConfig,
    TrainerConfig,
    make_blob_dataset,
    make_separable_dataset,
    train_network_with_dam_decay,
    train_perceptron,
)

# Operating points for the characterization protocols.  These are part
# of the protocol definitions (like the grids' defaults), not tunables:
# the pulse-splitting cases share a fixed on-time budget, the amplitude
# sweep probes the late-life regime where multi-volt pulses are the
# working range, and the common-mode test uses a disturbance small
# enough to keep both nodes in-domain.
_SPLIT_AMPLITUDE_V = 0.5
_SPLIT_ON_TIME_S = 0.1
_SPLIT_WINDOW_S = 1.0
_SPLIT_CASES = (1, 2, 4, 8)
_SWEEP_AGE_S = 1e7
_SWEEP_DURATION_S = 1e-4
_COUNT_UNIT_MV = 0.1
_COUNT_DURATION_S = 1e-3
_COUNT_MAX = 20
_COMMON_MODE_STEP_V = 0.1
_COMMON_MODE_WEIGHT_MV = 2.0
_MISMATCH_CELLS = 12
_MISMATCH_PULSES = 5
_TRACE_POINTS = 81


class _OutputWriter:
    """Writes a run's files into a staging directory, names in write order."""

    def __init__(self, cfg: ExperimentConfig, command: str, staging: Path):
        self.cfg = cfg
        self.command = command
        self.staging = staging
        self.names: list[str] = []

    def _meta(self, name: str, extra: dict | None = None) -> None:
        meta = {
            "file": name,
            "command": self.command,
            "config_hash": self.cfg.config_hash(),
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "seed": self.cfg.experiment.seed,
        }
        if extra:
            meta.update(extra)
        self._write(name + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")

    def csv(self, name: str, header: list[str], rows, extra: dict | None = None) -> None:
        self.text(name, csv_table(header, rows), extra)

    def text(self, name: str, content: str, extra: dict | None = None) -> None:
        self._write(name, content)
        self._meta(name, extra)

    def _write(self, name: str, content: str) -> None:
        (self.staging / name).write_text(content, encoding="utf-8", newline="")
        self.names.append(name)


def _run(cfg: ExperimentConfig, command: str, steps) -> list[str]:
    """Run the steps into a staging directory beside output_dir, then move
    every file into output_dir; a run that fails or is killed leaves
    output_dir as it was."""
    out_dir = Path(cfg.output_dir)
    beside = out_dir.resolve()  # on the file system output_dir lives on
    beside.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{beside.name}.", dir=beside.parent))
    writer = _OutputWriter(cfg, command, staging)
    try:
        for step in steps:
            step(cfg, writer)
        out_dir.mkdir(exist_ok=True)
        for name in writer.names:
            os.replace(staging / name, out_dir / name)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    staging.rmdir()
    return [str(out_dir / name) for name in writer.names]


def _fresh_cell(cfg: ExperimentConfig, age_s: float = 0.0):
    return cell_at_age(cfg.device.fn_params(), age_s, cfg.device.v0)


def _weight_trace(cell, window_s: float, n_points: int):
    """(t, weight) samples of undisturbed decay from the cell's state."""
    t_step = window_s / (n_points - 1)
    nodes, ws = _float_nodes(cell)
    samples = [(0.0, _float_weight(nodes, ws))]
    for i in range(1, n_points):
        nodes = _evolved_nodes(nodes, t_step)
        samples.append((i * t_step, _float_weight(nodes, ws)))
    return samples


def _char_regimes(cfg: ExperimentConfig, writer: _OutputWriter, age_at) -> None:
    exp = cfg.experiment
    rows = []
    # the first regime is a fresh cell; the window retains the other fractions
    ages = (0.0,) + tuple(map(age_at, REGIME_RETENTION[1:]))
    for regime, age in enumerate(ages, start=1):
        cell = _fresh_cell(cfg, age)
        amp = precompensated_amplitude(cell, exp.step_mv, CAL_PULSE_DURATION_S)
        pulsed = set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
        w0 = read_weight(pulsed).weight
        for t, w in _weight_trace(pulsed, exp.window_s, _TRACE_POINTS):
            rows.append([regime, age, amp, t, w, w / w0])
    writer.csv(
        "regimes.csv",
        ["regime", "age_s", "amplitude_V", "t_s", "weight_mV", "retention_fraction"],
        rows,
    )


def _char_bidirectional(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    exp = cfg.experiment
    cell = _fresh_cell(cfg)
    amp = precompensated_amplitude(cell, exp.step_mv, CAL_PULSE_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S)
    rows = [[0, "initial", 0.0, read_weight(cell).weight]]
    step = 0
    for phase, apply in (("set", set_pulse), ("reset", reset_pulse)):
        for _ in range(5):
            step += 1
            cell = apply(cell, pulse)
            cell = decay(cell, CAL_PULSE_DURATION_S)
            rows.append([step, phase, cell.global_clock, read_weight(cell).weight])
    writer.csv("bidirectional.csv", ["step", "phase", "t_s", "weight_mV"], rows)


def _char_pulse_split(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    rows = []
    for n in _SPLIT_CASES:
        duration = _SPLIT_ON_TIME_S / n
        period = _SPLIT_WINDOW_S / n
        cell = _fresh_cell(cfg)
        for _ in range(n):
            cell = set_pulse(cell, Pulse(amplitude=_SPLIT_AMPLITUDE_V,
                                         duration=duration))
            cell = decay(cell, period - duration)
        rows.append([n, duration, n / _SPLIT_WINDOW_S, read_weight(cell).weight])
    writer.csv(
        "pulse_splitting.csv",
        ["n_pulses", "pulse_duration_s", "frequency_Hz", "net_dw_mV"],
        rows,
    )


def _char_amplitude_sweep(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    rows = []
    for amp in cfg.experiment.amplitude_grid_v:
        cell = _fresh_cell(cfg, _SWEEP_AGE_S)
        pulsed = set_pulse(cell, Pulse(amplitude=amp, duration=_SWEEP_DURATION_S))
        dw = read_weight(pulsed).weight
        if not dw > 0:
            raise DomainError(f"amplitude {amp!r} V moves the weight by {dw!r} mV, "
                              "which has no logarithm")
        rows.append([amp, _SWEEP_DURATION_S, dw, math.log(dw)])
    writer.csv(
        "amplitude_sweep.csv",
        ["amplitude_V", "pulse_duration_s", "dw_mV", "ln_dw"],
        rows,
        extra={"age_s": _SWEEP_AGE_S},
    )


def _char_pulse_count(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    cell = _fresh_cell(cfg)
    amp = precompensated_amplitude(cell, _COUNT_UNIT_MV, _COUNT_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=_COUNT_DURATION_S)
    period = 2 * _COUNT_DURATION_S
    rows = []
    for n in range(1, _COUNT_MAX + 1):  # one pulse train, read after every pulse
        cell = set_pulse(cell, pulse)
        cell = decay(cell, period - _COUNT_DURATION_S)
        dw = read_weight(cell).weight
        rows.append([n, cell.global_clock, dw, dw / n])
    writer.csv(
        "pulse_count.csv",
        ["n_pulses", "t_s", "net_dw_mV", "per_pulse_mV"],
        rows,
        extra={"amplitude_v": amp},
    )


def _char_common_mode(cfg: ExperimentConfig, writer: _OutputWriter, age_at) -> None:
    exp = cfg.experiment
    age = age_at(REGIME_RETENTION[1])
    cell = _fresh_cell(cfg, age)
    amp = precompensated_amplitude(cell, _COMMON_MODE_WEIGHT_MV,
                                   CAL_PULSE_DURATION_S)
    cell = set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))

    bumped = common_mode_step(cell, _COMMON_MODE_STEP_V)
    lopsided = replace(cell, v=[[cell.v[0, 0] + _COMMON_MODE_STEP_V, cell.v[0, 1]]])
    rows = []
    for arm, start in (("baseline", cell), ("common_mode", bumped),
                       ("single_ended", lopsided)):
        for t, w in _weight_trace(start, exp.window_s, _TRACE_POINTS):
            rows.append([arm, t, w])
    writer.csv(
        "common_mode.csv",
        ["arm", "t_s", "weight_mV"],
        rows,
        extra={"age_s": age, "step_v": _COMMON_MODE_STEP_V},
    )


def _char_mismatch(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    exp = cfg.experiment
    par = cfg.device.fn_params()
    arr = build_array(_MISMATCH_CELLS, par, cfg.device.v0,
                      MismatchSpec(seed=exp.seed))
    initial = arr.weights().tolist()
    amp = precompensated_amplitude(_fresh_cell(cfg), exp.step_mv,
                                   CAL_PULSE_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S)
    for _ in range(_MISMATCH_PULSES):
        targets = [(i, 1, pulse) for i in range(len(arr))]
        arr = batch_pulse(arr, targets)
        arr = advance(arr, CAL_PULSE_DURATION_S)
    final = arr.weights().tolist()
    rows = [
        [i, k1[0], k2[0], k1[1], k2[1], initial[i], final[i]]
        for i, (k1, k2) in enumerate(zip(arr.k1.tolist(), arr.k2.tolist()))
    ]
    writer.csv(
        "mismatch.csv",
        ["cell", "k1_set", "k2_set", "k1_reset", "k2_reset",
         "w_initial_mV", "w_final_mV"],
        rows,
        extra={"relative_sigma": MismatchSpec().relative_sigma,
               "n_pulses": _MISMATCH_PULSES},
    )


def _characterize_steps(cfg: ExperimentConfig) -> dict:
    """The characterization steps by name, for one run.

    regimes and common_mode share one age search per retention fraction.
    """
    par = cfg.device.fn_params()
    age_at = functools.cache(
        lambda fraction: age_for_retention(par, fraction, cfg.experiment.window_s))
    return {
        "regimes": functools.partial(_char_regimes, age_at=age_at),
        "bidirectional": _char_bidirectional,
        "pulse_split": _char_pulse_split,
        "amplitude_sweep": _char_amplitude_sweep,
        "pulse_count": _char_pulse_count,
        "common_mode": functools.partial(_char_common_mode, age_at=age_at),
        "mismatch": _char_mismatch,
    }


def run_characterize(cfg: ExperimentConfig, experiment: str | None = None) -> list[str]:
    """Device characterization CSVs; `experiment` picks one, default all."""
    if experiment is None or experiment == "all":
        names = CHARACTERIZE_EXPERIMENTS
    elif experiment in CHARACTERIZE_EXPERIMENTS:
        names = (experiment,)
    else:
        raise ConfigError(
            f"experiment: unknown characterization {experiment!r}; "
            f"expected one of {', '.join(CHARACTERIZE_EXPERIMENTS)}"
        )
    steps = _characterize_steps(cfg)
    return _run(cfg, "characterize", [steps[n] for n in names])


def _energy_report(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    par = cfg.device.fn_params()
    exp = cfg.experiment
    k0 = k0_from_initial(par, cfg.device.v0)
    v_target = cfg.device.v0 + exp.offset_v
    rows = [[t, *setpoint_write(par, k0, v_target, t, cfg.device.c_in)]
            for t in trajectory_times(exp.horizon_s, exp.n_samples)]
    writer.csv(
        "energy_trajectory.csv",
        ["t_s", "v_fg_V", "v_train_V", "energy_J"],
        rows,
    )


def run_energy_report(cfg: ExperimentConfig) -> list[str]:
    """Per-update write energy over the configured horizon."""
    return _run(cfg, "energy-report", [_energy_report])


def _retention_cell(cfg: ExperimentConfig, bias_v: float, age_s: float,
                    step_mv: float):
    cell = cell_at_age(cfg.device.fn_params(), age_s, bias_v)
    if step_mv == 0.0:
        return cell
    amp = precompensated_amplitude(cell, step_mv, CAL_PULSE_DURATION_S)
    return set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))


def _retention_vs_bias(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    model = cfg.noise.model()
    rows = []
    for bias in cfg.experiment.bias_grid_v:
        for step in cfg.experiment.step_grid_mv:
            cell = _retention_cell(cfg, bias, 0.0, step)
            result = retention_time(cell, model)
            rows.append([bias, step, result.seconds, result.saturated])
    writer.csv(
        "retention_vs_bias.csv",
        ["bias_V", "step_mV", "retention_s", "saturated"],
        rows,
    )


def _retention_vs_age(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    model = cfg.noise.model()
    rows = []
    for age in cfg.experiment.age_grid_s:
        for step in cfg.experiment.step_grid_mv:
            cell = _retention_cell(cfg, cfg.device.v0, age, step)
            result = retention_time(cell, model)
            rows.append([age, step, result.seconds, result.saturated])
    writer.csv(
        "retention_vs_age.csv",
        ["age_s", "step_mV", "retention_s", "saturated"],
        rows,
    )


def run_retention_report(cfg: ExperimentConfig) -> list[str]:
    """Retention time against initial bias and against device age."""
    return _run(cfg, "retention-report", [_retention_vs_bias, _retention_vs_age])


def _train_perceptron(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    st = cfg.experiment.train.perceptron
    dataset = make_separable_dataset(st.n_points, margin=st.margin,
                                     seed=st.dataset_seed)
    par = cfg.device.fn_params()
    arr = build_array(2, par, cfg.device.v0)
    if st.pre_age_s > 0:
        arr = advance(arr, st.pre_age_s)
    tcfg = TrainerConfig(
        learning_rate=st.learning_rate,
        unit_step_mv=st.unit_step_mv,
        epochs=st.epochs,
        c_in=cfg.device.c_in,
        seed=cfg.experiment.seed,
    )
    trace, arr = train_perceptron(dataset, arr, tcfg)
    writer.text("perceptron_steps.csv", trace.step_csv())
    writer.text("perceptron_epochs.csv", trace.epoch_csv())
    writer.text("perceptron_ledger.csv", trace.ledger.to_csv())
    writer.csv(
        "perceptron_summary.csv",
        ["final_w0_mV", "final_w1_mV", "dataset_margin", "final_accuracy",
         "total_energy_J"],
        [[trace.final_weights_mv[0], trace.final_weights_mv[1], trace.margin,
          trace.epochs[-1].accuracy, trace.total_energy_j]],
    )
    writer.text("perceptron_state.json", state_to_json(arr))


def _train_network(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    st = cfg.experiment.train.network
    spec = MlpSpec()
    train_set = make_blob_dataset(st.n_train_per_class, seed=st.train_data_seed)
    test_set = make_blob_dataset(st.n_test_per_class, seed=st.test_data_seed)
    ncfg = NetworkConfig(
        learning_rate=st.learning_rate,
        momentum=st.momentum,
        epochs=st.epochs,
        batch_size=st.batch_size,
        seed=cfg.experiment.seed,
    )
    par = cfg.device.fn_params()

    def make_arm(sigma):
        if sigma is None:
            return None
        arr = build_array(spec.n_params, par, cfg.device.v0,
                          MismatchSpec(relative_sigma=sigma, seed=st.mismatch_seed))
        return advance(arr, st.pre_age_s) if st.pre_age_s > 0 else arr

    epoch_rows, summary_rows = [], []
    dam_array = None
    for arm, sigma in (("standard", None), ("dam", 0.0),
                       ("mismatch", st.mismatch_sigma)):
        trace, arr = train_network_with_dam_decay(
            spec, train_set, test_set, make_arm(sigma), ncfg)
        if arm == "dam":
            dam_array = arr
        for ep in trace.epochs:
            epoch_rows.append([arm, ep.epoch, ep.test_accuracy,
                               ep.mean_abs_weight, ep.decay_only])
        summary_rows.append([arm, trace.final_accuracy])
    writer.csv(
        "network_epochs.csv",
        ["arm", "epoch", "test_accuracy", "mean_abs_weight", "decay_only"],
        epoch_rows,
    )
    writer.csv("network_summary.csv", ["arm", "final_accuracy"], summary_rows)
    writer.text("network_state.json", state_to_json(dam_array))


def run_train(cfg: ExperimentConfig, experiment: str | None = None) -> list[str]:
    """Training run; `experiment` overrides the configured kind."""
    kind = experiment if experiment is not None else cfg.experiment.train.kind
    if kind not in TRAIN_KINDS:
        raise ConfigError(
            f"experiment: unknown training kind {kind!r}; "
            f"expected one of {', '.join(TRAIN_KINDS)}"
        )
    step = _train_perceptron if kind == "perceptron" else _train_network
    return _run(cfg, "train", [step])


def _calibrate(cfg: ExperimentConfig, writer: _OutputWriter) -> None:
    result = fit_device_parameters(v0=cfg.device.v0, c_in=cfg.device.c_in)
    fitted = {
        "device": {
            "k1": result.params.k1,
            "k2": result.params.k2,
            "c_total": result.params.c_total,
            "c_couple": result.params.c_couple,
            "c_in": cfg.device.c_in,
            "v0": cfg.device.v0,
        }
    }
    writer.text("fitted_device.json",
                json.dumps(fitted, indent=2, sort_keys=True) + "\n",
                extra={"cost": result.cost,
                       "within_tolerance": result.within_tolerance()})
    rows = [[name, value] for name, value in sorted(result.metrics.items())]
    rows.append(["fit_cost", result.cost])
    writer.csv("calibration_metrics.csv", ["metric", "value"], rows)


def run_calibrate(cfg: ExperimentConfig) -> list[str]:
    """Fit the tunneling constants and emit a reusable device block."""
    return _run(cfg, "calibrate", [_calibrate])
