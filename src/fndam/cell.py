"""Differential dynamic analog memory cell.

A weight is stored as the voltage difference between two tunneling
nodes programmed by complementary inputs: SET pulses discharge the SET
node (raising the weight), RESET pulses discharge the RESET node
(lowering it).  Because both nodes ride the same global decay, the
difference is first-order immune to common-mode disturbance and decays
toward zero on its own timescale — that decay is the memory's built-in
"forgetting" and doubles as a learning-rate schedule.

Weights are reported in millivolts: weight = weight_scale * (W_R - W_S)
with weight_scale = 1000 by default.

A cell is a one-cell ``DamArray``: its SET and RESET voltages are
``cell.v[0, 0]`` and ``cell.v[0, 1]`` and its clock is
``cell.global_clock``.  ``decay``, ``set_pulse``, ``reset_pulse`` and
``read_weight`` are the array operations on that one cell.  The
solvers (``precompensated_amplitude`` and the schedules) read a cell's
columns once and run on plain floats, because each one-cell array
operation pays several numpy calls.  ``precompensated_amplitude`` is a
plain bisection whose every midpoint is one closed-form pulse evaluated
on ``node.decayed_float``, the float twin of ``node.decayed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .array import (_MATCH_MAXITER, _MATCH_RESIDUAL, WEIGHT_SCALE, DamArray, MismatchSpec,
                    WeightReading, advance, batch_pulse, rate_matched_voltages)
from .errors import ArgumentError, DomainError, InitializationError, SaturationError, StepSizeError
from .node import FnParams, Pulse, decayed_float, k0_from_initial

_NO_MISMATCH = MismatchSpec(relative_sigma=0.0)


def synchronize(
    set_params: FnParams, reset_params: FnParams, v0: float, weight_scale: float = WEIGHT_SCALE
) -> DamArray:
    """Build a cell whose nodes tunnel at identical rates at t = 0.

    With identical parameters both nodes start at exactly v0.  With
    mismatched parameters the RESET node voltage is solved by
    ``array.rate_matched_voltages``; InitializationError when it fails.
    The nodes must share c_total and c_couple.
    """
    if (set_params.c_total, set_params.c_couple) != (reset_params.c_total,
                                                     reset_params.c_couple):
        raise ArgumentError(
            "SET and RESET nodes must share c_total and c_couple, got "
            f"{set_params.c_total!r}/{set_params.c_couple!r} and "
            f"{reset_params.c_total!r}/{reset_params.c_couple!r}"
        )
    k0_from_initial(set_params, v0)
    v_reset = v0  # identical nodes: the RESET node is the SET node, checked above
    if (reset_params.k1, reset_params.k2) != (set_params.k1, set_params.k2):
        v_reset = rate_matched_voltages(
            [set_params.log_k1], [set_params.k2], [reset_params.log_k1], [reset_params.k2], v0
        ).item()
        if math.isnan(v_reset):
            raise InitializationError(
                f"could not rate-match reset node near v0={v0!r}: no root of the rate "
                f"difference within {_MATCH_RESIDUAL:g} in {_MATCH_MAXITER} Brent steps",
                indices=(0,),
            )
        k0_from_initial(reset_params, v_reset)
    columns = np.array([v0, v_reset, set_params.k1, reset_params.k1, set_params.log_k1,
                        reset_params.log_k1, set_params.k2, reset_params.k2, weight_scale],
                       dtype=np.float64)
    columns.flags.writeable = False  # and so are its views, the cell's columns
    v, k1, log_k1, k2 = columns[:8].reshape(4, 1, 2)
    return DamArray._of(v, k1, log_k1, k2, columns[8:], set_params, _NO_MISMATCH, v0, 0.0)


def read_weight(cell: DamArray, noise_sigma: float = 0.0, rng=None) -> WeightReading:
    """Differential weight in mV, optionally with Gaussian read noise.

    noise_sigma is in volts of node difference (the same unit as the
    readout chain sees); default 0 keeps reads deterministic.
    """
    return WeightReading(*cell.weights(noise_sigma, rng).tolist(), cell.global_clock)


def decay(cell: DamArray, dt: float) -> DamArray:
    """Both nodes tunnel undisturbed for dt seconds."""
    return advance(cell, dt)


def set_pulse(cell: DamArray, pulse: Pulse) -> DamArray:
    """Pulse the SET node (raises the weight); RESET node idles."""
    return batch_pulse(cell, [(0, 1, pulse)])


def reset_pulse(cell: DamArray, pulse: Pulse) -> DamArray:
    """Pulse the RESET node (lowers the weight); SET node idles."""
    return batch_pulse(cell, [(0, -1, pulse)])


def pulse_cell(cell: DamArray, pulse: Pulse, polarity: int) -> DamArray:
    """Dispatch on polarity: +1 -> set_pulse, -1 -> reset_pulse."""
    return batch_pulse(cell, [(0, polarity, pulse)])


def common_mode_step(cell: DamArray, dv: float) -> DamArray:
    """Identical instantaneous voltage perturbation on both nodes.

    Models a common-mode environmental disturbance (supply bump, charge
    injection).  The cell clock does not advance.
    """
    if not math.isfinite(dv):
        raise DomainError(f"dv must be finite, got {dv!r}")
    v = cell.v + dv
    if not (v > 0).all():
        raise DomainError(f"common-mode step {dv!r} V drives a node non-positive")
    return replace(cell, v=v)


def discrete_update(
    w_mv: float,
    w_set: float,
    params: FnParams,
    dt: float,
    dv_train: float = 0.0,
    weight_scale: float = WEIGHT_SCALE,
) -> float:
    """One linearized weight step: decay about the SET-node voltage plus input.

        w' = (1 - (k1/k2) * (2*W_S + k2) * exp(-k2/W_S) * dt) * w
             + weight_scale * coupling_ratio * dv_train

    Valid for small weights and steps; the two-node simulation is the
    reference it linearizes (they agree within 1% for |w| <= 5 mV and
    dt <= 1 s).  Raises StepSizeError when the decay term reaches 1.
    """
    if not (math.isfinite(w_set) and w_set > 0):
        raise DomainError(f"w_set must be positive, got {w_set!r}")
    if not (math.isfinite(dt) and dt >= 0):
        raise DomainError(f"dt must be >= 0, got {dt!r}")
    factor = (
        math.exp(params.log_k1 - params.k2 / w_set)
        * (2.0 * w_set + params.k2)
        / params.k2
        * dt
    )
    if factor >= 1.0:
        raise StepSizeError(
            f"decay factor {factor:.3g} >= 1 at dt={dt!r}; reduce the step"
        )
    return (1.0 - factor) * w_mv + weight_scale * params.coupling_ratio * dv_train


def decay_factor(params: FnParams, k0: float, n: int, dt: float) -> float:
    """Per-step weight decay factor at step n of an undisturbed schedule.

        alpha*eta_n = k1 * (2/log(k1*n*dt + k0) + 1) / (k1*n*dt + k0) * dt

    Decreases like 1/n, so the cumulative product behaves like a
    stochastic-approximation learning-rate schedule.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    if not (math.isfinite(k0) and k0 > 1.0):
        raise DomainError(f"k0 must be finite and > 1, got {k0!r}")
    if not (math.isfinite(dt) and dt >= 0):
        raise DomainError(f"dt must be >= 0, got {dt!r}")
    if n == 0 or dt == 0.0:
        log_eff = math.log(k0)
    else:
        log_eff = float(np.logaddexp(params.log_k1 + math.log(n * dt), math.log(k0)))
    return math.exp(params.log_k1 - log_eff) * (2.0 / log_eff + 1.0) * dt


@dataclass(frozen=True)
class DecaySchedule:
    """Precomputed alpha*eta_n sequence for an undisturbed cell."""

    alpha_eta: np.ndarray  # factor at steps 0..n-1
    dt_step: float  # s per step

    @classmethod
    def from_params(cls, params: FnParams, k0: float, dt_step: float, n_steps: int):
        if n_steps <= 0:
            raise DomainError(f"n_steps must be positive, got {n_steps!r}")
        if not (math.isfinite(dt_step) and dt_step > 0):
            raise DomainError(f"dt_step must be positive, got {dt_step!r}")
        if not (math.isfinite(k0) and k0 > 1.0):
            raise DomainError(f"k0 must be finite and > 1, got {k0!r}")
        n = np.arange(n_steps, dtype=float)
        log_eff = np.full(n_steps, math.log(k0))
        if n_steps > 1:
            log_eff[1:] = np.logaddexp(
                params.log_k1 + np.log(n[1:] * dt_step), math.log(k0)
            )
        seq = np.exp(params.log_k1 - log_eff) * (2.0 / log_eff + 1.0) * dt_step
        return cls(alpha_eta=seq, dt_step=dt_step)

    def __len__(self):
        return len(self.alpha_eta)


def precompensated_amplitude(
    cell: DamArray,
    target_dw: float,
    duration: float,
    polarity: int = 1,
    amp_max: float = 32.0,
    tol_mv: float = 1e-3,
) -> float:
    """Pulse amplitude that produces a net weight change of target_dw mV.

    The answer compensates for the cell's current depth into its decay
    trajectory (an older cell needs a larger amplitude for the same
    step).  target_dw is a magnitude; polarity picks the direction.
    Returns 0.0 for a zero target.

    The amplitude is the one a bisection over [0, amp_max] returns: the
    first midpoint whose net change lies within tol_mv of the target,
    the bracket narrowing until it spans 1e-12 * amp_max.  Each midpoint
    is one pulse in closed form: ``node.decayed_float`` on the pulsed
    node lifted by the coupled step, less the step, against
    ``node.decayed_float`` on the idle node, read as ``read_weight``
    reads.  These are the bits a pulsed and read cell gives.

    Raises SaturationError when the target is unreachable at amp_max or
    overshot by the smallest amplitude, and ArgumentError when it is
    reachable but tol_mv is finer than the amplitude grid resolves.
    """
    if not target_dw >= 0:
        raise DomainError(f"target_dw is a magnitude, got {target_dw!r}")
    if target_dw == 0.0:
        return 0.0
    if amp_max <= 0:
        raise DomainError(f"amp_max must be positive, got {amp_max!r}")
    if not tol_mv >= 0:
        raise DomainError(f"tol_mv must be >= 0, got {tol_mv!r}")
    Pulse(amplitude=amp_max, duration=duration)  # every trial pulse is valid
    (v_set, v_reset), = cell.v.tolist()
    set_side, reset_side = zip((v_set, v_reset), *cell.log_k1.tolist(), *cell.k2.tolist())
    if polarity == 1:
        (v, log_k1, k2), (idle_v, idle_log_k1, idle_k2) = set_side, reset_side
    elif polarity == -1:
        (v, log_k1, k2), (idle_v, idle_log_k1, idle_k2) = reset_side, set_side
    else:
        raise ArgumentError(f"polarity must be +1 or -1, got {polarity!r}")

    sign = 1.0 if polarity == 1 else -1.0
    ws, = cell.weight_scale.tolist()
    w0 = ws * (v_reset - v_set)  # read_weight(cell).weight
    r = cell.nominal_params.coupling_ratio
    log_dt = math.log(duration)
    idle = decayed_float(idle_v, idle_log_k1, idle_k2, log_dt)

    def net(amp):
        """Net weight change of one pulse at amp, as read after the pulse."""
        step = r * amp
        v_after = decayed_float(v + step, log_k1, k2, log_dt) - step
        if v_after <= 0:
            raise DomainError(f"pulse release drives gate to {v_after:.6g} V <= 0")
        diff = idle - v_after if polarity == 1 else v_after - idle
        return sign * (ws * diff - w0)

    hi_change = net(amp_max)
    if hi_change < target_dw - tol_mv:
        raise SaturationError(
            f"target {target_dw!r} mV unreachable: amp_max={amp_max!r} V "
            f"yields {hi_change:.6g} mV"
        )
    lo, hi = 0.0, amp_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        change = net(mid)
        if abs(change - target_dw) <= tol_mv:
            return mid
        if change < target_dw:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * amp_max:
            break
    if net(0.0) > target_dw + tol_mv:
        raise SaturationError(
            f"bisection failed to reach {target_dw!r} mV within tolerance {tol_mv!r} mV"
        )
    raise ArgumentError(
        f"tol_mv={tol_mv!r} mV is below the resolution of the amplitude solve: "
        f"near {target_dw!r} mV one {hi - lo:.3g} V step of its amplitude grid "
        f"moves the weight by {net(hi) - net(lo):.3g} mV"
    )
