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
before the writes, leaves the output directory as it was.  Every
one-cell protocol runs on ``fndam.cell``'s float nodes, to the bits and
errors of the array operations, except that retention-report solves each
row's amplitudes on its aged one-cell array; ``_char_mismatch`` pulses a
12-cell array.
"""

from __future__ import annotations

import functools
import json
import math
import os
from pathlib import Path

from .array import MismatchSpec, _mismatched, advance, batch_pulse, build_array, state_to_json
from .calibrate import (
    CAL_PULSE_DURATION_S,
    REGIME_RETENTION,
    _age_for,
    _memoized_by_age,
    cell_at_age,
    fit_device_parameters,
)
from .cell import (
    _AMP_TOL_MV,
    _aged_nodes,
    _evolved_nodes,
    _float_nodes,
    _float_weight,
    _solve_amplitude,
    precompensated_amplitude,
)
from .config import SCHEMA_VERSION, TOOL_VERSION, TRAIN_KINDS, ExperimentConfig
from .energy import _retention_time, write_energy_trajectory
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
    output_dir under a temporary name, then rename each into place.

    A run that fails or is interrupted before the renames leaves
    output_dir as it was; one interrupted during them leaves each file as
    the old run or the new one wrote it.  Either way every temporary
    file still present is removed.  A SIGKILL runs no clean-up, so it is
    outside this guarantee once the first temporary file is written.
    """
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
        for part, (name, _) in zip(parts, files):
            os.replace(part, out_dir / name)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    return [str(out_dir / name) for name, _ in files]


def _amplitude(nodes, par, target_dw: float, duration: float) -> float:
    """``precompensated_amplitude`` on a cell's float nodes."""
    return _solve_amplitude(nodes, par.coupling_ratio, target_dw, duration, _AMP_TOL_MV)


def _pulsed(nodes, par, pulse: Pulse, polarity: int = 1):
    """``set_pulse`` (polarity 1) or ``reset_pulse`` (-1) on a cell's float nodes."""
    step = pulse.amplitude * par.coupling_ratio
    return _evolved_nodes(nodes, pulse.duration, (step, 0.0) if polarity == 1 else (0.0, step))


def _weight_trace(nodes, window_s: float, n_points: int):
    """(t, weight) samples of undisturbed decay from a cell's float nodes."""
    t_step = window_s / (n_points - 1)
    samples = [(0.0, _float_weight(nodes))]
    for i in range(1, n_points):
        nodes = _evolved_nodes(nodes, t_step)
        samples.append((i * t_step, _float_weight(nodes)))
    return samples


def _char_regimes(cfg: ExperimentConfig, write, age_at) -> None:
    exp, par = cfg.experiment, cfg.device.fn_params()
    rows = []
    # the first regime is a fresh cell; the window retains the other fractions
    ages = (0.0,) + tuple(map(age_at, REGIME_RETENTION[1:]))
    for regime, age in enumerate(ages, start=1):
        nodes = _aged_nodes(par, cfg.device.v0, age)
        amp = _amplitude(nodes, par, exp.step_mv, CAL_PULSE_DURATION_S)
        pulsed = _pulsed(nodes, par, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
        w0 = _float_weight(pulsed)
        for t, w in _weight_trace(pulsed, exp.window_s, _TRACE_POINTS):
            rows.append([regime, age, amp, t, w, w / w0])
    header = ["regime", "age_s", "amplitude_V", "t_s", "weight_mV", "retention_fraction"]
    write("regimes.csv", csv_table(header, rows))


def _char_bidirectional(cfg: ExperimentConfig, write) -> None:
    exp, par = cfg.experiment, cfg.device.fn_params()
    nodes = _aged_nodes(par, cfg.device.v0, 0.0)
    amp = _amplitude(nodes, par, exp.step_mv, CAL_PULSE_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S)
    rows = [[0, "initial", 0.0, _float_weight(nodes)]]
    step, clock = 0, 0.0
    for phase, polarity in (("set", 1), ("reset", -1)):
        for _ in range(5):
            step += 1
            nodes = _pulsed(nodes, par, pulse, polarity)
            clock += pulse.duration
            nodes = _evolved_nodes(nodes, CAL_PULSE_DURATION_S)
            clock += CAL_PULSE_DURATION_S
            rows.append([step, phase, clock, _float_weight(nodes)])
    write("bidirectional.csv", csv_table(["step", "phase", "t_s", "weight_mV"], rows))


def _char_pulse_split(cfg: ExperimentConfig, write) -> None:
    par = cfg.device.fn_params()
    rows = []
    for n in _SPLIT_CASES:
        duration = _SPLIT_ON_TIME_S / n
        period = _SPLIT_WINDOW_S / n
        nodes = _aged_nodes(par, cfg.device.v0, 0.0)
        for _ in range(n):
            nodes = _pulsed(nodes, par, Pulse(amplitude=_SPLIT_AMPLITUDE_V, duration=duration))
            nodes = _evolved_nodes(nodes, period - duration)
        rows.append([n, duration, n / _SPLIT_WINDOW_S, _float_weight(nodes)])
    header = ["n_pulses", "pulse_duration_s", "frequency_Hz", "net_dw_mV"]
    write("pulse_splitting.csv", csv_table(header, rows))


def _char_amplitude_sweep(cfg: ExperimentConfig, write) -> None:
    par = cfg.device.fn_params()
    rows = []
    for amp in cfg.experiment.amplitude_grid_v:
        nodes = _aged_nodes(par, cfg.device.v0, _SWEEP_AGE_S)
        pulsed = _pulsed(nodes, par, Pulse(amplitude=amp, duration=_SWEEP_DURATION_S))
        dw = _float_weight(pulsed)
        if not dw > 0:
            raise DomainError(f"amplitude {amp!r} V moves the weight by {dw!r} mV, "
                              "which has no logarithm")
        rows.append([amp, _SWEEP_DURATION_S, dw, math.log(dw)])
    header = ["amplitude_V", "pulse_duration_s", "dw_mV", "ln_dw"]
    write("amplitude_sweep.csv", csv_table(header, rows), extra={"age_s": _SWEEP_AGE_S})


def _char_pulse_count(cfg: ExperimentConfig, write) -> None:
    par = cfg.device.fn_params()
    nodes = _aged_nodes(par, cfg.device.v0, 0.0)
    amp = _amplitude(nodes, par, _COUNT_UNIT_MV, _COUNT_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=_COUNT_DURATION_S)
    idle = _COUNT_DURATION_S  # the rest of each 2 ms pulse period
    clock, rows = 0.0, []
    for n in range(1, _COUNT_MAX + 1):  # one pulse train, read after every pulse
        nodes = _pulsed(nodes, par, pulse)
        clock += pulse.duration
        nodes = _evolved_nodes(nodes, idle)
        clock += idle
        dw = _float_weight(nodes)
        rows.append([n, clock, dw, dw / n])
    header = ["n_pulses", "t_s", "net_dw_mV", "per_pulse_mV"]
    write("pulse_count.csv", csv_table(header, rows), extra={"amplitude_v": amp})


def _char_common_mode(cfg: ExperimentConfig, write, age_at) -> None:
    exp, par = cfg.experiment, cfg.device.fn_params()
    age = age_at(REGIME_RETENTION[1])
    nodes = _aged_nodes(par, cfg.device.v0, age)
    amp = _amplitude(nodes, par, _COMMON_MODE_WEIGHT_MV, CAL_PULSE_DURATION_S)
    nodes = _pulsed(nodes, par, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
    # the disturbance lifts both nodes (common mode) or the SET node alone
    bumped = tuple((v + _COMMON_MODE_STEP_V, a, k) for v, a, k in nodes)
    lopsided = (bumped[0], nodes[1])
    rows = []
    for arm, start in (("baseline", nodes), ("common_mode", bumped), ("single_ended", lopsided)):
        for t, w in _weight_trace(start, exp.window_s, _TRACE_POINTS):
            rows.append([arm, t, w])
    write("common_mode.csv", csv_table(["arm", "t_s", "weight_mV"], rows),
          extra={"age_s": age, "step_v": _COMMON_MODE_STEP_V})


def _char_mismatch(cfg: ExperimentConfig, write) -> None:
    exp = cfg.experiment
    par = cfg.device.fn_params()
    spec = MismatchSpec(seed=exp.seed)
    arr = build_array(_MISMATCH_CELLS, par, cfg.device.v0, spec)
    initial = arr.weights().tolist()
    amp = _amplitude(_aged_nodes(par, cfg.device.v0, 0.0), par, exp.step_mv,
                     CAL_PULSE_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S)
    for _ in range(_MISMATCH_PULSES):
        targets = [(i, 1, pulse) for i in range(len(arr))]
        arr = batch_pulse(arr, targets)
        arr = advance(arr, CAL_PULSE_DURATION_S)
    final = arr.weights().tolist()
    # the array keeps log k1 only; the draw gives each node's k1 itself
    k1s, k2s = _mismatched(_MISMATCH_CELLS, par, spec)
    rows = [
        [i, k1[0], k2[0], k1[1], k2[1], initial[i], final[i]]
        for i, (k1, k2) in enumerate(zip(k1s.tolist(), k2s.tolist()))
    ]
    header = ["cell", "k1_set", "k2_set", "k1_reset", "k2_reset", "w_initial_mV", "w_final_mV"]
    write("mismatch.csv", csv_table(header, rows),
          extra={"relative_sigma": MismatchSpec().relative_sigma, "n_pulses": _MISMATCH_PULSES})


def _characterize_steps(cfg: ExperimentConfig) -> dict:
    """The characterization steps by name, for one run.

    regimes and common_mode share one age search per retention fraction.
    """
    par = cfg.device.fn_params()
    retention = _memoized_by_age(par, cfg.experiment.window_s)[1]
    age_at = functools.cache(lambda fraction: _age_for(retention, fraction))
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


def _retention_table(cfg: ExperimentConfig, write, name: str, column: str, cells) -> None:
    """Per (value, bias_v, age_s) of cells and per grid step, the retention_time
    of a cell synchronized at bias_v, aged age_s and raised by a step_mv SET pulse.

    Each row's aged cell is built once, and its solves go through the public
    ``precompensated_amplitude``, so a traced run counts them; the pulse and
    the retention search run on the cell's float nodes.
    """
    par, model = cfg.device.fn_params(), cfg.noise.model()
    rows = []
    for value, bias_v, age_s in cells:
        cell = cell_at_age(par, age_s, bias_v)
        aged = _float_nodes(cell)
        for step_mv in cfg.experiment.step_grid_mv:
            nodes = aged
            if step_mv != 0.0:
                amp = precompensated_amplitude(cell, step_mv, CAL_PULSE_DURATION_S)
                nodes = _pulsed(aged, par, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
            result = _retention_time(nodes, model)
            rows.append([value, step_mv, result.seconds, result.saturated])
    write(name, csv_table([column, "step_mV", "retention_s", "saturated"], rows))


def _retention_vs_bias(cfg: ExperimentConfig, write) -> None:
    _retention_table(cfg, write, "retention_vs_bias.csv", "bias_V",
                     [(bias, bias, 0.0) for bias in cfg.experiment.bias_grid_v])


def _retention_vs_age(cfg: ExperimentConfig, write) -> None:
    _retention_table(cfg, write, "retention_vs_age.csv", "age_s",
                     [(age, cfg.device.v0, age) for age in cfg.experiment.age_grid_s])


def run_retention_report(cfg: ExperimentConfig) -> list[str]:
    """Retention time against initial bias and against device age."""
    return _run(cfg, "retention-report", [_retention_vs_bias, _retention_vs_age])


def _train_perceptron(cfg: ExperimentConfig, write) -> None:
    st = cfg.experiment.train.perceptron
    dataset = make_separable_dataset(st.n_points, margin=st.margin,
                                     seed=st.dataset_seed)
    par = cfg.device.fn_params()
    arr = advance(build_array(2, par, cfg.device.v0), st.pre_age_s)
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
        return advance(arr, st.pre_age_s)

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
