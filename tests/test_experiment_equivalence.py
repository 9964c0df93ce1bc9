"""The one-cell protocols of ``characterize`` and ``retention-report`` on
float nodes against the one-cell array protocols they replace.

The references below are those protocols as they ran on whole cells:
``synchronize`` and ``decay`` for an aged cell, ``set_pulse``,
``reset_pulse``, ``decay`` and ``read_weight`` for each step, the array
clock, ``common_mode_step`` and a replaced SET column for the
common-mode arms, ``retention_time`` of a cell, and one age search
(``age_for_retention`` over the config's window) per searched
fraction.  Each case builds a config from a device block (u, k2 and
v0, with k1 = u*exp(k2/v0), and c_in) and retention grids within the
config's bounds, runs one step of each form and compares what it
writes: the text of every file, whose floats are reprs, and the repr of
its sidecar fields.  A failing step must raise the same exception type
with the same message.
"""

import functools
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from fndam.calibrate import CAL_PULSE_DURATION_S, REGIME_RETENTION, _age_for, _memoized_by_age
from fndam.cell import (
    _evolved_nodes,
    _float_nodes,
    _float_weight,
    common_mode_step,
    decay,
    precompensated_amplitude,
    read_weight,
    reset_pulse,
    set_pulse,
    synchronize,
)
from fndam.config import load_config
from fndam.energy import retention_time
from fndam.errors import DomainError, FndamError
from fndam.experiments import (
    _COMMON_MODE_STEP_V,
    _COMMON_MODE_WEIGHT_MV,
    _COUNT_DURATION_S,
    _COUNT_MAX,
    _COUNT_UNIT_MV,
    _SPLIT_AMPLITUDE_V,
    _SPLIT_CASES,
    _SPLIT_ON_TIME_S,
    _SPLIT_WINDOW_S,
    _SWEEP_AGE_S,
    _SWEEP_DURATION_S,
    _TRACE_POINTS,
    _characterize_steps,
    _retention_vs_age,
    _retention_vs_bias,
    csv_table,
)
from fndam.node import Pulse


# -- the array protocols, as characterize and retention-report ran them ------

def _fresh_cell(cfg, age_s=0.0):
    cell = synchronize(cfg.device.fn_params(), cfg.device.v0)
    return decay(cell, age_s) if age_s > 0 else cell


def _ref_weight_trace(cell, window_s, n_points):
    t_step = window_s / (n_points - 1)
    nodes = _float_nodes(cell)
    samples = [(0.0, _float_weight(nodes))]
    for i in range(1, n_points):
        nodes = _evolved_nodes(nodes, t_step)
        samples.append((i * t_step, _float_weight(nodes)))
    return samples


def ref_regimes(cfg, write, age_at):
    exp = cfg.experiment
    rows = []
    ages = (0.0,) + tuple(map(age_at, REGIME_RETENTION[1:]))
    for regime, age in enumerate(ages, start=1):
        cell = _fresh_cell(cfg, age)
        amp = precompensated_amplitude(cell, exp.step_mv, CAL_PULSE_DURATION_S)
        pulsed = set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
        w0 = read_weight(pulsed)
        for t, w in _ref_weight_trace(pulsed, exp.window_s, _TRACE_POINTS):
            rows.append([regime, age, amp, t, w, w / w0])
    header = ["regime", "age_s", "amplitude_V", "t_s", "weight_mV", "retention_fraction"]
    write("regimes.csv", csv_table(header, rows))


def ref_bidirectional(cfg, write):
    exp = cfg.experiment
    cell = _fresh_cell(cfg)
    amp = precompensated_amplitude(cell, exp.step_mv, CAL_PULSE_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S)
    rows = [[0, "initial", 0.0, read_weight(cell)]]
    step = 0
    for phase, apply in (("set", set_pulse), ("reset", reset_pulse)):
        for _ in range(5):
            step += 1
            cell = apply(cell, pulse)
            cell = decay(cell, CAL_PULSE_DURATION_S)
            rows.append([step, phase, cell.global_clock, read_weight(cell)])
    write("bidirectional.csv", csv_table(["step", "phase", "t_s", "weight_mV"], rows))


def ref_pulse_split(cfg, write):
    rows = []
    for n in _SPLIT_CASES:
        duration = _SPLIT_ON_TIME_S / n
        period = _SPLIT_WINDOW_S / n
        cell = _fresh_cell(cfg)
        for _ in range(n):
            cell = set_pulse(cell, Pulse(amplitude=_SPLIT_AMPLITUDE_V, duration=duration))
            cell = decay(cell, period - duration)
        rows.append([n, duration, n / _SPLIT_WINDOW_S, read_weight(cell)])
    header = ["n_pulses", "pulse_duration_s", "frequency_Hz", "net_dw_mV"]
    write("pulse_splitting.csv", csv_table(header, rows))


def ref_amplitude_sweep(cfg, write):
    rows = []
    for amp in cfg.experiment.amplitude_grid_v:
        cell = _fresh_cell(cfg, _SWEEP_AGE_S)
        pulsed = set_pulse(cell, Pulse(amplitude=amp, duration=_SWEEP_DURATION_S))
        dw = read_weight(pulsed)
        if not dw > 0:
            raise DomainError(f"amplitude {amp!r} V moves the weight by {dw!r} mV, "
                              "which has no logarithm")
        rows.append([amp, _SWEEP_DURATION_S, dw, math.log(dw)])
    header = ["amplitude_V", "pulse_duration_s", "dw_mV", "ln_dw"]
    write("amplitude_sweep.csv", csv_table(header, rows), extra={"age_s": _SWEEP_AGE_S})


def ref_pulse_count(cfg, write):
    cell = _fresh_cell(cfg)
    amp = precompensated_amplitude(cell, _COUNT_UNIT_MV, _COUNT_DURATION_S)
    pulse = Pulse(amplitude=amp, duration=_COUNT_DURATION_S)
    period = 2 * _COUNT_DURATION_S
    rows = []
    for n in range(1, _COUNT_MAX + 1):
        cell = set_pulse(cell, pulse)
        cell = decay(cell, period - _COUNT_DURATION_S)
        dw = read_weight(cell)
        rows.append([n, cell.global_clock, dw, dw / n])
    header = ["n_pulses", "t_s", "net_dw_mV", "per_pulse_mV"]
    write("pulse_count.csv", csv_table(header, rows), extra={"amplitude_v": amp})


def ref_common_mode(cfg, write, age_at):
    exp = cfg.experiment
    age = age_at(REGIME_RETENTION[1])
    cell = _fresh_cell(cfg, age)
    amp = precompensated_amplitude(cell, _COMMON_MODE_WEIGHT_MV, CAL_PULSE_DURATION_S)
    cell = set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
    bumped = common_mode_step(cell, _COMMON_MODE_STEP_V)
    lopsided = replace(cell, v=[[cell.v[0, 0] + _COMMON_MODE_STEP_V, cell.v[0, 1]]])
    rows = []
    for arm, start in (("baseline", cell), ("common_mode", bumped), ("single_ended", lopsided)):
        for t, w in _ref_weight_trace(start, exp.window_s, _TRACE_POINTS):
            rows.append([arm, t, w])
    write("common_mode.csv", csv_table(["arm", "t_s", "weight_mV"], rows),
          extra={"age_s": age, "step_v": _COMMON_MODE_STEP_V})


def _ref_retention_cell(cfg, bias_v, age_s, step_mv):
    cell = synchronize(cfg.device.fn_params(), bias_v)
    cell = decay(cell, age_s) if age_s > 0 else cell
    if step_mv == 0.0:
        return cell
    amp = precompensated_amplitude(cell, step_mv, CAL_PULSE_DURATION_S)
    return set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))


def ref_retention_vs_bias(cfg, write):
    model = cfg.noise.model()
    rows = []
    for bias in cfg.experiment.bias_grid_v:
        for step in cfg.experiment.step_grid_mv:
            result = retention_time(_ref_retention_cell(cfg, bias, 0.0, step), model)
            rows.append([bias, step, result.seconds, result.saturated])
    write("retention_vs_bias.csv",
          csv_table(["bias_V", "step_mV", "retention_s", "saturated"], rows))


def ref_retention_vs_age(cfg, write):
    model = cfg.noise.model()
    rows = []
    for age in cfg.experiment.age_grid_s:
        for step in cfg.experiment.step_grid_mv:
            result = retention_time(_ref_retention_cell(cfg, cfg.device.v0, age, step), model)
            rows.append([age, step, result.seconds, result.saturated])
    write("retention_vs_age.csv",
          csv_table(["age_s", "step_mV", "retention_s", "saturated"], rows))


def reference_steps(cfg):
    par = cfg.device.fn_params()
    age_at = functools.cache(
        lambda fraction: _age_for(_memoized_by_age(par, cfg.experiment.window_s)[1], fraction))
    return {
        "regimes": functools.partial(ref_regimes, age_at=age_at),
        "bidirectional": ref_bidirectional,
        "pulse_split": ref_pulse_split,
        "amplitude_sweep": ref_amplitude_sweep,
        "pulse_count": ref_pulse_count,
        "common_mode": functools.partial(ref_common_mode, age_at=age_at),
        "retention_vs_bias": ref_retention_vs_bias,
        "retention_vs_age": ref_retention_vs_age,
    }


def float_steps(cfg):
    steps = _characterize_steps(cfg)
    del steps["mismatch"]  # the one protocol that stays on an array
    return {**steps, "retention_vs_bias": _retention_vs_bias,
            "retention_vs_age": _retention_vs_age}


# -- the comparison -----------------------------------------------------------

def written(step, cfg):
    """repr of what step writes, or of its exception as (type, message)."""
    files = []
    try:
        step(cfg, lambda name, content, extra=None: files.append((name, content, extra)))
    except (FndamError, ArithmeticError, ValueError) as exc:
        return repr((type(exc), str(exc)))
    return repr(files)


def config(u, k2, v0, c_in, **experiment):
    return load_config({"device": {"k1": u * math.exp(k2 / v0), "k2": k2, "v0": v0,
                                   "c_in": c_in},
                        "experiment": experiment})


# u = k1*exp(-k2/v0) is the fresh node's decay speed; the shipped device has
# u = 0.062, k2 = 2887.8 V at v0 = 7.5 V.  k2/v0 stays below 700, so k1 is
# finite.  Below u = exp(-6) the device grows stiff, and from about 1e-30 the
# solves saturate and the sweep's pulses move no weight.
devices = dict(u=st.one_of(st.floats(-6.0, 3.0), st.floats(-230.0, -6.0)).map(math.exp),
               k2=st.floats(2000.0, 4000.0), v0=st.floats(6.0, 9.0),
               c_in=st.floats(-30.0, -25.0).map(math.exp))
SHIPPED = dict(u=0.06200786432380064, k2=2887.78128, v0=7.5, c_in=1e-12)
PROTOCOLS = ("bidirectional", "pulse_split", "amplitude_sweep", "pulse_count")


@pytest.mark.parametrize("name", PROTOCOLS)
@given(**devices, step_mv=st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
@example(**SHIPPED, step_mv=1.0)
@example(**SHIPPED, step_mv=5e3)  # an unreachable step
@example(**dict(SHIPPED, u=1e-30), step_mv=1.0)  # sweep pulses move no weight
@example(**dict(SHIPPED, u=1e-100), step_mv=1.0)  # every solve saturates
@example(**dict(SHIPPED, u=20.0), step_mv=5.0)  # a fast device
def test_characterization_protocols(name, u, k2, v0, c_in, step_mv):
    cfg = config(u, k2, v0, c_in, step_mv=step_mv)
    assert written(float_steps(cfg)[name], cfg) == written(reference_steps(cfg)[name], cfg)


@pytest.mark.parametrize("name", ("regimes", "common_mode"))
@given(**devices, step_mv=st.floats(0.1, 5.0), window_s=st.floats(1.0, 200.0))
@settings(max_examples=15, deadline=None)
@example(**SHIPPED, step_mv=1.0, window_s=40.0)
@example(**SHIPPED, step_mv=5e3, window_s=40.0)  # an unreachable step
@example(**dict(SHIPPED, u=1e-100), step_mv=1.0, window_s=40.0)  # every solve saturates
def test_protocols_at_searched_ages(name, u, k2, v0, c_in, step_mv, window_s):
    cfg = config(u, k2, v0, c_in, step_mv=step_mv, window_s=window_s)
    assert written(float_steps(cfg)[name], cfg) == written(reference_steps(cfg)[name], cfg)


grid = functools.partial(st.lists, min_size=1, max_size=3)


@pytest.mark.parametrize("name", ("retention_vs_bias", "retention_vs_age"))
@given(**devices, bias_grid_v=grid(st.floats(5.8, 12.0)),
       age_grid_s=grid(st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e))),
       step_grid_mv=grid(st.one_of(st.just(0.0), st.floats(0.01, 50.0))))
@settings(max_examples=30, deadline=None)
@example(**SHIPPED, bias_grid_v=[7.5, 6.5], age_grid_s=[0.0, 1e5], step_grid_mv=[0.0, 2.0])
@example(**SHIPPED, bias_grid_v=[3000.0], age_grid_s=[0.0], step_grid_mv=[1.0])  # v0 > k2
@example(**SHIPPED, bias_grid_v=[7.5], age_grid_s=[0.0], step_grid_mv=[5e3])  # unreachable
def test_retention_grids(name, u, k2, v0, c_in, bias_grid_v, age_grid_s, step_grid_mv):
    cfg = config(u, k2, v0, c_in, bias_grid_v=bias_grid_v, age_grid_s=age_grid_s,
                 step_grid_mv=step_grid_mv)
    assert written(float_steps(cfg)[name], cfg) == written(reference_steps(cfg)[name], cfg)
