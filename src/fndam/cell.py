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
operation pays several numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .array import (_MATCH_MAXITER, _MATCH_RESIDUAL, WEIGHT_SCALE, DamArray, MismatchSpec,
                    WeightReading, advance, batch_pulse, rate_matched_voltages)
from .errors import ArgumentError, DomainError, InitializationError, SaturationError, StepSizeError
from .node import FnParams, Pulse, decayed, k0_from_initial, released

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
    the bracket narrowing until it spans 1e-12 * amp_max.  One pulse has
    a closed-form response (``node.released`` on the pulsed node,
    ``node.decayed`` on the idle one) that rises with the amplitude, so
    the two band edges, net change = target -/+ tol_mv, are found first
    by safeguarded Newton steps on its analytic slope.  The bisection is
    then replayed in float arithmetic against the edges; the response is
    evaluated, to the bit, only at midpoints too close to an edge to
    place with certainty.  The result equals the full bisection's.

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
    idle = float(decayed(idle_v, idle_log_k1, idle_k2, log_dt))

    def net(amp):
        """Net weight change of one pulse at amp, as read after the pulse."""
        v_after = float(released(v, r * amp, log_k1, k2, log_dt))
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

    below, above, band = _band_edges(
        v, r, log_k1 + log_dt, k2, idle, ws, w0, sign, amp_max, hi_change,
        target_dw, tol_mv,
    )
    lo, hi = 0.0, amp_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        elif band[0] <= mid <= band[1]:
            return mid
        else:
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


def _band_edges(v, r, log_rate, k2, idle, ws, w0, sign, amp_max, hi_change,
                target_dw, tol_mv):
    """Amplitudes the bisection replay can place without evaluating a pulse.

    Returns (below, above, (first, last)): every amplitude <= below
    changes the weight by less than target_dw - tol_mv, every one >=
    above by more than target_dw + tol_mv, and every one in [first,
    last] lands in the band.  Each claim is checked on ``model`` with a
    margin covering the rounding of both the model and the bit-exact
    response, so it holds for the response the bisection reads; a claim
    that cannot be checked is dropped (-inf, inf or an empty band) and
    the replay falls back to evaluating the pulse.
    """
    if not ws > 0:  # the response only rises with amplitude for ws > 0
        return -math.inf, math.inf, (math.inf, -math.inf)

    def excess(amp):
        """Extra decay x - decayed(x) of the gate lifted to x, and its slope.

        With a = k2/x the decayed gate is k2/ell, ell = logaddexp(a,
        log_rate), so the excess is x * (ell - a) / ell, free of the
        cancellation in x - k2/ell.  Its slope in amp is
        r * (1 - (k2/ell)**2 / x**2 / (1 + exp(log_rate - a))).
        """
        x = v + r * amp
        a = k2 / x
        if a >= log_rate:
            e = math.exp(log_rate - a)
            rise = math.log1p(e)
            ell, sigma = a + rise, 1.0 / (1.0 + e)
        else:
            e = math.exp(a - log_rate)
            ell = log_rate + math.log1p(e)
            rise, sigma = ell - a, e / (1.0 + e)
        return x * rise / ell, r * (1.0 - (k2 / ell / x) ** 2 * sigma)

    # The pulsed gate ends at v - excess, so the net change is the
    # unpulsed drift plus ws times the excess the pulse adds.
    base = excess(0.0)[0]
    diff = idle - (v - base) if sign > 0 else (v - base) - idle
    at_zero = sign * (ws * diff - w0)

    def model(amp):
        return at_zero + ws * (excess(amp)[0] - base)

    # bound on |computed - exact| net change, for the model and for the
    # response alike, with room for the rounding of target -/+ tol_mv
    err = 64 * 2.0**-52 * (ws * (v + r * amp_max + idle) + abs(w0) + target_dw + tol_mv)
    margin = 4 * err
    res = 1e-12 * amp_max

    def crossing(y, amp):
        """(below, above, root) around the amplitude where the net change is y.

        Newton steps on log(excess), which is concave and nearly linear
        in the amplitude, from amp below the crossing; a step that leaves
        the bracket [lo, hi] bisects it instead.
        """
        if at_zero > y + margin:
            return -math.inf, 0.0, 0.0
        if hi_change < y - margin:
            return amp_max, math.inf, amp_max
        goal = base + (y - at_zero) / ws
        lo, hi, slope = 0.0, amp_max, 0.0
        if goal > 0:
            log_goal = math.log(goal)
            for _ in range(200):
                d, slope = excess(amp)
                if d < goal:
                    lo = amp
                elif d > goal:
                    hi = amp
                else:
                    break
                nx = amp - (math.log(d) - log_goal) * d / slope if d > 0 and slope > 0 else lo
                if not lo < nx < hi:
                    nx = 0.5 * (lo + hi)
                done = abs(nx - amp) <= res or hi - lo <= res
                amp = nx
                if done:
                    break
        guard = max(4 * res, 4 * margin / (ws * slope)) if slope > 0 else amp_max
        return certain(y, amp, -guard), certain(y, amp, guard), amp

    def certain(y, root, guard):
        """root + guard, widened until the model is margin past y there."""
        side = 1.0 if guard > 0 else -1.0
        for _ in range(4):
            amp = root + guard
            if amp >= amp_max if side > 0 else amp <= 0.0:
                return amp  # no midpoint lies beyond it
            if side * (model(amp) - y) > margin:
                return amp
            guard *= 16
        return side * math.inf

    below, first, root = crossing(target_dw - tol_mv, 0.0)
    last, above, _ = crossing(target_dw + tol_mv, root)
    return below, above, (first, last)
