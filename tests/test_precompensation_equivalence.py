"""The closed-form precompensation solve against the bisection it replaces.

``bisection_amplitude`` below is the earlier ``precompensated_amplitude``
copied unchanged: up to 200 midpoints, each a full two-node
``batch_pulse`` + ``read_weight``.  The solver must return the same float
for every sampled cell and target, and raise the same error with the
same message.  The one intended difference: a reachable target whose
tolerance is finer than the amplitude grid now raises ArgumentError
where the bisection gave up with SaturationError.  A pulse that drives
the SET node non-positive raises DomainError on both sides, naming the
same voltage in the solver's own words.  The solver is the bisection's
SET pulse (polarity +1) at its 32 V amp_max.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from fndam.array import WEIGHT_SCALE, batch_pulse, rate_matched_voltages
from fndam.calibrate import default_params
from fndam.cell import (
    _float_nodes,
    _solve_amplitude,
    decay,
    read_weight,
    synchronize,
)
from fndam.errors import ArgumentError, DomainError, SaturationError
from fndam.node import FnParams, Pulse, decayed, evolve
from test_array import hand_made

V0 = 7.5


def bisection_amplitude(
    cell,
    target_dw: float,
    duration: float,
    polarity: int = 1,
    amp_max: float = 32.0,
    tol_mv: float = 1e-3,
) -> float:
    if target_dw < 0:
        raise DomainError(f"target_dw is a magnitude, got {target_dw!r}")
    if target_dw == 0.0:
        return 0.0
    if amp_max <= 0:
        raise DomainError(f"amp_max must be positive, got {amp_max!r}")

    w0 = read_weight(cell)
    sign = 1.0 if polarity == 1 else -1.0

    def net_change(amp):
        pulsed = batch_pulse(cell, [(0, polarity, Pulse(amplitude=amp, duration=duration))])
        return sign * (read_weight(pulsed) - w0)

    hi_change = net_change(amp_max)
    if hi_change < target_dw - tol_mv:
        raise SaturationError(
            f"target {target_dw!r} mV unreachable: amp_max={amp_max!r} V "
            f"yields {hi_change:.6g} mV"
        )
    lo, hi = 0.0, amp_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        change = net_change(mid)
        if abs(change - target_dw) <= tol_mv:
            return mid
        if change < target_dw:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * amp_max:
            break
    raise SaturationError(
        f"bisection failed to reach {target_dw!r} mV within tolerance {tol_mv!r} mV"
    )


def aged_cell(mismatch, age):
    """Default cell with per-node k2 factors, decayed for age seconds."""
    nominal = default_params()
    set_params = replace(nominal, k2=nominal.k2 * mismatch[0])
    reset_params = replace(nominal, k2=nominal.k2 * mismatch[1])
    cell = synchronize(set_params, V0)
    if reset_params != set_params:  # the RESET node rate-matched at V0
        v_reset, = rate_matched_voltages([set_params.log_k1], [set_params.k2],
                                         [reset_params.log_k1], [reset_params.k2], V0).tolist()
        cell = hand_made([[V0, v_reset]], [[set_params.log_k1] * 2],
                         [[set_params.k2, reset_params.k2]], set_params, V0)
    return decay(cell, age) if age > 0 else cell


def outcome(solve, *args):
    try:
        return solve(*args)
    except (ArgumentError, DomainError, SaturationError) as exc:
        return type(exc), str(exc)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


mismatches = st.tuples(st.floats(0.98, 1.02), st.floats(0.98, 1.02))
ages = st.one_of(st.just(0.0), st.floats(0.0, 1e8), log_uniform(1e-3, 1e8))
polarities = st.sampled_from((1, -1))
targets = log_uniform(1e-3, 30.0)
durations = log_uniform(1e-4, 10.0)
tolerances = log_uniform(1e-12, 1e-2)


@settings(max_examples=300, deadline=None)
@given(mismatches, ages, targets, durations, tolerances)
@example((1.0, 1.0), 0.0, 1.0, 0.5, 1e-6)  # calibration: fresh cell
@example((1.0, 1.0), 500.0, 1.0, 0.5, 1e-12)  # tol below resolution
@example((1.0, 1.0), 1e7, 5e3, 1e-3, 1e-3)  # unreachable at amp_max
@example((1.0, 1.0), 0.0, 1.0, 1e230, 1e-3)  # the 32 V pulse drives the SET node below 0 V
@example((1.0, 1.0), 0.0, 1.0, math.nan, 1e-3)  # invalid durations
@example((1.0, 1.0), 0.0, 1.0, 0.0, 1e-3)
@example((1.0, 1.0), 0.0, 1.0, math.inf, 1e-3)
@example((1.0, 1.0), 0.0, 0.0, math.nan, 1e-3)  # a zero target needs no pulse: 0.0
def test_same_amplitude_as_bisection(mismatch, age, target, duration, tol):
    cell = aged_cell(mismatch, age)
    expected = outcome(bisection_amplitude, cell, target, duration, 1, 32.0, tol)
    got = outcome(_solve_amplitude, _float_nodes(cell), cell.nominal_params.coupling_ratio,
                  target, duration, tol)
    if isinstance(expected, float):
        assert isinstance(got, float) and got == expected
    elif got != expected and expected[0] is DomainError:
        assert got == (DomainError, expected[1].replace(
            "cell 0 SET node driven to", "pulse release drives gate to"))
    elif got != expected:
        # the bisection gave up on a target it could reach: the tolerance
        # is finer than its amplitude grid
        assert expected[0] is SaturationError
        assert expected[1].startswith("bisection failed")
        assert got[0] is ArgumentError
        assert got[1].startswith(
            f"tol_mv={tol!r} mV is below the resolution of the amplitude solve")


def test_a_midpoint_release_at_0_v_fails_as_the_array_pulse_does():
    # A SET node about one ulp of the step above 0 V on a node that does
    # not decay: the 32 V pulse releases it to 4.4e-16 V, but at the 24 V
    # midpoint k2 / (k2 / v) rounds one ulp down and the release lands on
    # 0 V.  The solve fails there, as the array pulse does.
    nominal = FnParams(k1=math.exp(-300.0), k2=2.61)
    cell = hand_made([[6e-16, 6e-16]], [[-300.0] * 2], [[2.61] * 2], nominal, 6e-16)
    nodes = _float_nodes(cell)
    assert decayed(6e-16 + 0.1 * 32.0, -300.0, 2.61, 0.0) - 0.1 * 32.0 > 0
    assert decayed(6e-16 + 0.1 * 24.0, -300.0, 2.61, 0.0) - 0.1 * 24.0 == 0.0
    expected = outcome(bisection_amplitude, cell, 1e-13, 1.0, 1, 32.0, 0.0)
    assert expected == (DomainError, "cell 0 SET node driven to 0 V <= 0")
    assert outcome(_solve_amplitude, nodes, 0.1, 1e-13, 1.0, 0.0) == (
        DomainError, "pulse release drives gate to 0 V <= 0")


@settings(max_examples=200, deadline=None)
@given(mismatches, ages, polarities, st.floats(0.0, 32.0), durations)
def test_closed_form_pulse_is_pulse_cell(mismatch, age, polarity, amp, duration):
    cell = aged_cell(mismatch, age)
    nominal = default_params()
    params = [replace(nominal, k2=nominal.k2 * m) for m in mismatch]  # SET, RESET
    v = cell.v[0].tolist()
    pulsed, idle = (0, 1) if polarity == 1 else (1, 0)
    pulsed_params, idle_params = params[pulsed], params[idle]
    step = pulsed_params.coupling_ratio * amp
    log_dt = math.log(duration)
    v_pulsed = float(decayed(v[pulsed] + step, pulsed_params.log_k1, pulsed_params.k2, log_dt)
                     - step)
    v_idle = float(decayed(v[idle], idle_params.log_k1, idle_params.k2, log_dt))
    # the gate lifted by the step, decayed as a node on its own, released
    lifted = evolve(v[pulsed] + step, pulsed_params, duration)
    assert v_pulsed == lifted - step

    diff = v_idle - v_pulsed if polarity == 1 else v_pulsed - v_idle
    after = batch_pulse(cell, [(0, polarity, Pulse(amplitude=amp, duration=duration))])
    assert read_weight(after) == WEIGHT_SCALE * diff

