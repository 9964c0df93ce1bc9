"""The one-cell float loops against the one-cell array composition.

The calibration characterization (``step_amplitude``,
``weight_retention``, ``age_for_retention`` and the memo behind
``evaluate_calibration``), ``energy.retention_time`` and the
characterization decay traces run on a cell's columns read once as
floats.  The references below are the array operations they replace,
kept here: ``cell_at_age`` -> the amplitude solve at calibration's tolerance ->
``set_pulse`` -> ``read_weight`` -> ``decay`` -> ``read_weight``, and
the ``decay``/``read_weight`` loops of ``retention_time`` and
``_weight_trace``.  Every sampled case must give the same floats, or
raise the same exception type with the same message.
"""

import math
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from fndam.array import WEIGHT_SCALE, rate_matched_voltages
from fndam.calibrate import (
    CAL_PULSE_DURATION_S,
    CAL_STEP_MV,
    RETENTION_WINDOW_S,
    _AMP_TOL_MV,
    _age_for,
    _memoized_by_age,
    age_for_retention,
    cell_at_age,
    default_params,
    step_amplitude,
    weight_retention,
)
from fndam.cell import (
    _evolved_nodes,
    _float_nodes,
    _float_weight,
    _solve_amplitude,
    decay,
    read_weight,
    set_pulse,
    synchronize,
)
from fndam import energy
from fndam.energy import TEN_YEARS_S, NoiseModel, noise_floor, retention_time, RetentionResult
from fndam.errors import FndamError
from fndam.experiments import _weight_trace
from fndam.node import Pulse
from test_array import hand_made

V0 = 7.5


def outcome(fn, *args):
    """repr of fn's value, or of its exception as (type, message).

    repr tells every float apart by its bits (-0.0 from 0.0) and shows
    NaN equal to NaN.
    """
    try:
        return repr(fn(*args))
    except (FndamError, ArithmeticError, ValueError) as exc:
        return repr((type(exc), str(exc)))


def params_at(log_k1_shift, k2_factor):
    p = default_params()
    return default_params(k1=p.k1 * math.exp(log_k1_shift), k2=p.k2 * k2_factor)


def amplitude_within(cell, target_dw):
    """precompensated_amplitude at calibration's tolerance."""
    return _solve_amplitude(_float_nodes(cell), cell.nominal_params.coupling_ratio,
                            target_dw, CAL_PULSE_DURATION_S, _AMP_TOL_MV)


def ref_step_amplitude(params, age_s):
    return amplitude_within(cell_at_age(params, age_s), CAL_STEP_MV)


def ref_weight_retention(params, age_s, window_s):
    cell = cell_at_age(params, age_s)
    amp = amplitude_within(cell, 1.0)
    pulsed = set_pulse(cell, Pulse(amp, CAL_PULSE_DURATION_S))
    w_start = read_weight(pulsed).weight
    w_end = read_weight(decay(pulsed, window_s)).weight
    return w_end / w_start


def ref_retention_time(cell, model, trials):
    """retention_time on whole cells: one decay and one read per trial time.

    Appends each trial time to trials.
    """
    horizon_s = TEN_YEARS_S

    def margin(t):
        trials.append(t)
        w_v = abs(read_weight(decay(cell, t)).weight) / WEIGHT_SCALE
        return w_v - noise_floor(model, t)

    if margin(0.0) <= 0:
        return RetentionResult(seconds=0.0, saturated=False)
    if margin(horizon_s) > 0:
        return RetentionResult(seconds=horizon_s, saturated=True)
    lo, hi = 0.0, horizon_s
    t = 1.0
    while t < horizon_s:
        if margin(t) <= 0:
            hi = t
            break
        lo = t
        t *= 2.0
    while hi - lo > max(1.0, 1e-3 * lo):
        mid = 0.5 * (lo + hi)
        if margin(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return RetentionResult(seconds=hi, saturated=False)


def ref_weight_trace(cell, window_s, n_points):
    t_step = window_s / (n_points - 1)
    samples = [(0.0, read_weight(cell).weight)]
    for i in range(1, n_points):
        cell = decay(cell, t_step)
        samples.append((i * t_step, read_weight(cell).weight))
    return samples


log_k1_shifts = st.floats(-3.0, 3.0)
k2_factors = st.floats(0.97, 1.03)
ages = st.one_of(st.just(0.0), st.floats(0.0, 1e7), st.floats(1e-3, 1e3))
windows = st.one_of(st.sampled_from([0.0, RETENTION_WINDOW_S, -1.0, math.inf, math.nan]),
                    st.floats(1e-3, 1e6))


@given(log_k1_shift=log_k1_shifts, k2_factor=k2_factors, age=ages)
@settings(max_examples=150, deadline=None)
@example(log_k1_shift=0.0, k2_factor=1.0, age=1e7)
@example(log_k1_shift=0.0, k2_factor=1.0, age=-5.0)  # age <= 0
@example(log_k1_shift=0.0, k2_factor=1.0, age=math.inf)
@example(log_k1_shift=0.0, k2_factor=2.0, age=0.0)  # k2/v0 > 709
def test_step_amplitude_matches_the_cell_composition(log_k1_shift, k2_factor, age):
    params = params_at(log_k1_shift, k2_factor)
    want = outcome(ref_step_amplitude, params, age)
    assert outcome(step_amplitude, params, age) == want


@given(log_k1_shift=log_k1_shifts, k2_factor=k2_factors, age=ages, window=windows)
@settings(max_examples=150, deadline=None)
@example(log_k1_shift=0.0, k2_factor=1.0, age=77.66116299505659, window=RETENTION_WINDOW_S)
@example(log_k1_shift=3.0, k2_factor=0.97, age=1e7, window=RETENTION_WINDOW_S)
@example(log_k1_shift=0.0, k2_factor=2.0, age=10.0, window=RETENTION_WINDOW_S)  # no k0
def test_weight_retention_matches_the_cell_composition(log_k1_shift, k2_factor, age, window):
    params = params_at(log_k1_shift, k2_factor)
    want = outcome(ref_weight_retention, params, age, window)
    assert outcome(_memoized_by_age(params, window)[1], age) == want


@given(log_k1_shift=log_k1_shifts, k2_factor=k2_factors,
       ages_s=st.lists(ages, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_calibration_memo_matches_the_cell_composition(log_k1_shift, k2_factor, ages_s):
    params = params_at(log_k1_shift, k2_factor)
    amplitude, retention = _memoized_by_age(params)
    for age in ages_s:
        want_amp = outcome(ref_step_amplitude, params, age)
        assert outcome(amplitude, age) == want_amp
        want = outcome(ref_weight_retention, params, age, RETENTION_WINDOW_S)
        assert outcome(retention, age) == want


@given(log_k1_shift=log_k1_shifts, k2_factor=k2_factors, fraction=st.floats(0.01, 0.99),
       window=st.one_of(st.just(RETENTION_WINDOW_S), st.floats(1.0, 1e3)))
@settings(max_examples=30, deadline=None)
def test_age_for_retention_matches_the_cell_composition(log_k1_shift, k2_factor, fraction,
                                                        window):
    params = params_at(log_k1_shift, k2_factor)
    want = outcome(_age_for, lambda age: ref_weight_retention(params, age, window), fraction)
    assert outcome(age_for_retention, params, fraction, window) == want


def fresh_cell(set_p, reset_p):
    """A fresh one-cell array of two nodes, the RESET node rate-matched at V0."""
    if set_p == reset_p:
        return synchronize(set_p, V0)
    v_reset, = rate_matched_voltages([set_p.log_k1], [set_p.k2], [reset_p.log_k1],
                                     [reset_p.k2], V0).tolist()
    return hand_made([[V0, v_reset]], [[set_p.log_k1, reset_p.log_k1]],
                     [[set_p.k2, reset_p.k2]], set_p, V0)


@st.composite
def mismatched_cells(draw):
    """A cell with SET and RESET nodes of different k1 and k2, aged and pulsed."""
    set_p, reset_p = (params_at(draw(log_k1_shifts), draw(k2_factors)) for _ in range(2))
    if draw(st.booleans()):
        reset_p = set_p
    try:
        cell = fresh_cell(set_p, reset_p)
    except FndamError:
        assume(False)
    age = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e6)))
    if age:
        cell = decay(cell, age)
    amp = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    if amp:
        cell = set_pulse(cell, Pulse(amp, draw(st.floats(1e-4, 1.0))))
    return cell


@given(cell=mismatched_cells(), times=st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e9), st.sampled_from([-1.0, math.inf])),
    min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_float_decay_and_read_match_the_cell(cell, times):
    # the margin of retention_time: the weight after t seconds from the cell's state
    nodes = _float_nodes(cell)
    for t in times:
        want = outcome(lambda: read_weight(decay(cell, t)).weight)
        assert outcome(lambda: _float_weight(_evolved_nodes(nodes, t))) == want


@given(cell=mismatched_cells(), sigma0=st.floats(0.0, 5e-3),
       sigma_coeff=st.floats(0.0, 1e-5))
@settings(max_examples=150, deadline=None)
def test_retention_time_matches_the_cell_composition(cell, sigma0, sigma_coeff):
    model = NoiseModel(sigma0=sigma0, sigma_coeff=sigma_coeff)
    want_trials, trials = [], []
    want = outcome(ref_retention_time, cell, model, want_trials)
    evolve = energy._evolved_nodes

    def spy(nodes, dt):
        trials.append(dt)
        return evolve(nodes, dt)

    with mock.patch.object(energy, "_evolved_nodes", spy):
        assert outcome(retention_time, cell, model) == want
    assert trials == want_trials  # the same bisection, trial for trial


@given(cell=mismatched_cells(), window=st.one_of(st.just(0.0), st.floats(1e-3, 1e7)),
       n_points=st.integers(2, 81))
@settings(max_examples=150, deadline=None)
def test_weight_trace_matches_the_cell_composition(cell, window, n_points):
    want = outcome(ref_weight_trace, cell, window, n_points)
    assert outcome(_weight_trace, _float_nodes(cell), window, n_points) == want
