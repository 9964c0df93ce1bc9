"""Deterministic experiment runner: device characterization and training
sweeps written out as CSV datasets.

Every runner takes a validated ExperimentConfig and hands each of its
steps one ``write(name, content, extra=None)``, which keeps the file and
its ``<name>.meta.json`` sidecar carrying the config hash, schema
version, tool version, seed and any ``extra`` fields.  This module is the
one owner of the output: every CSV the package writes is
``csv_table(header, rows)`` here (RFC-4180 quoting, UTF-8, LF line
endings, floats serialized with repr so values round-trip exactly, bools
as 0/1).  Nothing depends on wall-clock time or machine identity, so a
rerun with the same config produces byte-identical files.  A runner
keeps its files in memory until every step has succeeded, writes each
under a temporary name in the output directory and then renames them
into place, so a run that fails before the renames, or is killed
before the writes, leaves the output directory as it was.
"""

from __future__ import annotations

import functools
import json
import math
import os
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
from .config import SCHEMA_VERSION, TOOL_VERSION, TRAIN_KINDS, ExperimentConfig
from .energy import retention_time, write_energy_trajectory
from .errors import ConfigError, DomainError, FndamError
from .node import Pulse
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


def _format_field(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))  # canonical shortest round-trip form
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# _format_field of the exact types most fields have, without its checks;
# subclasses, numpy scalars, str and None take _format_field itself
_EXACT = {float: float.__repr__, int: int.__repr__, bool: ("0", "1").__getitem__}


def _csv_line(fields) -> str:
    return ",".join([_EXACT.get(type(value), _format_field)(value) for value in fields])


def csv_table(header, rows) -> str:
    """The header line and one line per row, each ending in LF."""
    lines = [_csv_line(header)]
    lines.extend(_csv_line(row) for row in rows)
    return "\n".join(lines) + "\n"


def _run(cfg: ExperimentConfig, command: str, steps) -> list[str]:
    """Run the steps, each as step(cfg, write), write every file into
    output_dir under a temporary name, then rename each into place; a run
    that fails before the renames, or is killed during the steps, leaves
    output_dir as it was."""
    stamp = {"command": command, "config_hash": cfg.config_hash(),
             "schema_version": SCHEMA_VERSION, "tool_version": TOOL_VERSION,
             "seed": cfg.experiment.seed}
    files = []  # (name, text) in write order

    def write(name: str, content: str, extra: dict | None = None) -> None:
        meta = {"file": name, **stamp, **(extra or {})}
        files.append((name, content))
        files.append((name + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"))

    for step in steps:
        step(cfg, write)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parts = [out_dir / f".{name}.part" for name, _ in files]
    try:
        for part, (_, content) in zip(parts, files):
            part.write_text(content, encoding="utf-8", newline="")
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    for part, (name, _) in zip(parts, files):
        os.replace(part, out_dir / name)
    return [str(out_dir / name) for name, _ in files]


def _fresh_cell(cfg: ExperimentConfig, age_s: float = 0.0):
    return cell_at_age(cfg.device.fn_params(), age_s, cfg.device.v0)


def _weight_trace(cell, window_s: float, n_points: int):
    """(t, weight) samples of undisturbed decay from the cell's state."""
    t_step = window_s / (n_points - 1)
    nodes = _float_nodes(cell)
    samples = [(0.0, _float_weight(nodes))]
    for i in range(1, n_points):
        nodes = _evolved_nodes(nodes, t_step)
        samples.append((i * t_step, _float_weight(nodes)))
    return samples


def _char_regimes(cfg: ExperimentConfig, write, age_at) -> None:
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
    header = ["regime", "age_s", "amplitude_V", "t_s", "weight_mV", "retention_fraction"]
    write("regimes.csv", csv_table(header, rows))


def _char_bidirectional(cfg: ExperimentConfig, write) -> None:
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
    write("bidirectional.csv", csv_table(["step", "phase", "t_s", "weight_mV"], rows))


def _char_pulse_split(cfg: ExperimentConfig, write) -> None:
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
    header = ["n_pulses", "pulse_duration_s", "frequency_Hz", "net_dw_mV"]
    write("pulse_splitting.csv", csv_table(header, rows))


def _char_amplitude_sweep(cfg: ExperimentConfig, write) -> None:
    rows = []
    for amp in cfg.experiment.amplitude_grid_v:
        cell = _fresh_cell(cfg, _SWEEP_AGE_S)
        pulsed = set_pulse(cell, Pulse(amplitude=amp, duration=_SWEEP_DURATION_S))
        dw = read_weight(pulsed).weight
        if not dw > 0:
            raise DomainError(f"amplitude {amp!r} V moves the weight by {dw!r} mV, "
                              "which has no logarithm")
        rows.append([amp, _SWEEP_DURATION_S, dw, math.log(dw)])
    header = ["amplitude_V", "pulse_duration_s", "dw_mV", "ln_dw"]
    write("amplitude_sweep.csv", csv_table(header, rows), extra={"age_s": _SWEEP_AGE_S})


def _char_pulse_count(cfg: ExperimentConfig, write) -> None:
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
    header = ["n_pulses", "t_s", "net_dw_mV", "per_pulse_mV"]
    write("pulse_count.csv", csv_table(header, rows), extra={"amplitude_v": amp})


def _char_common_mode(cfg: ExperimentConfig, write, age_at) -> None:
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
    write("common_mode.csv", csv_table(["arm", "t_s", "weight_mV"], rows),
          extra={"age_s": age, "step_v": _COMMON_MODE_STEP_V})


def _char_mismatch(cfg: ExperimentConfig, write) -> None:
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
    header = ["cell", "k1_set", "k2_set", "k1_reset", "k2_reset", "w_initial_mV", "w_final_mV"]
    write("mismatch.csv", csv_table(header, rows),
          extra={"relative_sigma": MismatchSpec().relative_sigma, "n_pulses": _MISMATCH_PULSES})


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
    steps = _characterize_steps(cfg)
    if experiment is not None and experiment != "all":
        if experiment not in steps:
            raise ConfigError(f"experiment: unknown characterization {experiment!r}; "
                              f"expected one of {', '.join(steps)}")
        steps = {experiment: steps[experiment]}
    return _run(cfg, "characterize", steps.values())


def _energy_report(cfg: ExperimentConfig, write) -> None:
    exp = cfg.experiment
    rows = write_energy_trajectory(cfg.device.fn_params(), cfg.device.v0, exp.offset_v,
                                   exp.horizon_s, exp.n_samples, cfg.device.c_in)
    write("energy_trajectory.csv", csv_table(["t_s", "v_fg_V", "v_train_V", "energy_J"], rows))


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


def _retention_vs_bias(cfg: ExperimentConfig, write) -> None:
    model = cfg.noise.model()
    rows = []
    for bias in cfg.experiment.bias_grid_v:
        for step in cfg.experiment.step_grid_mv:
            cell = _retention_cell(cfg, bias, 0.0, step)
            result = retention_time(cell, model)
            rows.append([bias, step, result.seconds, result.saturated])
    header = ["bias_V", "step_mV", "retention_s", "saturated"]
    write("retention_vs_bias.csv", csv_table(header, rows))


def _retention_vs_age(cfg: ExperimentConfig, write) -> None:
    model = cfg.noise.model()
    rows = []
    for age in cfg.experiment.age_grid_s:
        for step in cfg.experiment.step_grid_mv:
            cell = _retention_cell(cfg, cfg.device.v0, age, step)
            result = retention_time(cell, model)
            rows.append([age, step, result.seconds, result.saturated])
    header = ["age_s", "step_mV", "retention_s", "saturated"]
    write("retention_vs_age.csv", csv_table(header, rows))


def run_retention_report(cfg: ExperimentConfig) -> list[str]:
    """Retention time against initial bias and against device age."""
    return _run(cfg, "retention-report", [_retention_vs_bias, _retention_vs_age])


def _train_perceptron(cfg: ExperimentConfig, write) -> None:
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
    header = ["step", "epoch", "point_index", "t_s", "w0_mV", "w1_mV", "loss", "g0", "g1",
              "n_pulses0", "n_pulses1", "amplitude0_V", "amplitude1_V", "energy_J", "clipped"]
    write("perceptron_steps.csv", csv_table(header, trace.steps))
    header = ["epoch", "accuracy", "mean_abs_update_mV", "energy_J", "n_updates"]
    write("perceptron_epochs.csv", csv_table(header, trace.epochs))
    header = ["cell_id", "t_s", "amplitude_V", "duration_s", "n_pulses", "energy_J"]
    write("perceptron_ledger.csv", csv_table(header, trace.ledger.entries))
    header = ["final_w0_mV", "final_w1_mV", "dataset_margin", "final_accuracy", "total_energy_J"]
    rows = [[*trace.final_weights_mv, trace.margin, trace.epochs[-1].accuracy,
             trace.total_energy_j]]
    write("perceptron_summary.csv", csv_table(header, rows))
    write("perceptron_state.json", state_to_json(arr))


def _train_network(cfg: ExperimentConfig, write) -> None:
    st = cfg.experiment.train.network
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
        arr = build_array(MlpSpec.n_params, par, cfg.device.v0,
                          MismatchSpec(relative_sigma=sigma, seed=st.mismatch_seed))
        return advance(arr, st.pre_age_s) if st.pre_age_s > 0 else arr

    arms = []
    for sigma in (None, 0.0, st.mismatch_sigma):
        try:
            arms.append(make_arm(sigma))
        except FndamError:  # the arms before it fail first, as one at a time
            train_network_with_dam_decay(train_set, test_set, arms, ncfg)
            raise
    runs = train_network_with_dam_decay(train_set, test_set, arms, ncfg)
    epoch_rows, summary_rows = [], []
    for arm, (trace, _) in zip(("standard", "dam", "mismatch"), runs):
        for ep in trace.epochs:
            epoch_rows.append([arm, ep.epoch, ep.test_accuracy,
                               ep.mean_abs_weight, ep.decay_only])
        summary_rows.append([arm, trace.final_accuracy])
    header = ["arm", "epoch", "test_accuracy", "mean_abs_weight", "decay_only"]
    write("network_epochs.csv", csv_table(header, epoch_rows))
    write("network_summary.csv", csv_table(["arm", "final_accuracy"], summary_rows))
    write("network_state.json", state_to_json(runs[1][1]))


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


def _calibrate(cfg: ExperimentConfig, write) -> None:
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
    write("fitted_device.json", json.dumps(fitted, indent=2, sort_keys=True) + "\n",
          extra={"cost": result.cost, "within_tolerance": result.within_tolerance()})
    rows = [[name, value] for name, value in sorted(result.metrics.items())]
    rows.append(["fit_cost", result.cost])
    write("calibration_metrics.csv", csv_table(["metric", "value"], rows))


def run_calibrate(cfg: ExperimentConfig) -> list[str]:
    """Fit the tunneling constants and emit a reusable device block."""
    return _run(cfg, "calibrate", [_calibrate])
