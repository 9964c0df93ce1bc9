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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, DomainError, InitializationError, SaturationError, StepSizeError
from .node import (FnParams, NodeState, Pulse, apply_pulse, decayed, evolve, initial_state,
                   log_each, released)

WEIGHT_SCALE = 1000.0  # mV per volt of node difference


@dataclass(frozen=True)
class DamCell:
    """Two-node differential memory cell.

    ``t`` is seconds elapsed since synchronization; every operation that
    consumes wall-clock time advances it.  Instances are immutable —
    operations return updated copies.
    """

    set_node: NodeState
    reset_node: NodeState
    set_params: FnParams
    reset_params: FnParams
    weight_scale: float = WEIGHT_SCALE  # mV per volt of node difference
    t: float = 0.0  # s since synchronization


@dataclass(frozen=True)
class WeightReading:
    weight: float  # mV
    timestamp: float  # s, cell clock at the moment of the read


def _log_rate(log_k1: float, k2: float, v: float) -> float:
    """log of the tunneling rate magnitude |dV/dt| at voltage v.

    The scalar form of the residual ``rate_matched_voltages`` evaluates
    column-wise, operation for operation.
    """
    return log_k1 - math.log(k2) + 2.0 * math.log(v) - k2 / v


_MATCH_XTOL, _MATCH_RTOL, _MATCH_MAXITER = 1e-14, 1e-15, 200
_MATCH_RESIDUAL = 1e-10  # largest log-rate difference accepted at the root


def rate_matched_voltages(set_log_k1, set_k2, reset_log_k1, reset_k2, v0: float) -> np.ndarray:
    """Per cell, the RESET-node voltage whose |dV/dt| equals the SET node's at v0.

    Arguments are (N,) columns.  Each cell's log-rate difference is
    solved on [0.5*v0, min(1.5*v0, 0.999*reset_k2)] by the steps of
    scipy's ``brentq`` (its C routine, ``optimize/Zeros/brentq.c``;
    xtol 1e-14, rtol 1e-15, 200 iterations), run on numpy columns for
    all cells at once: the same float operations in the same order,
    including the interpolate/extrapolate/bisect choice and the minimum
    ``delta`` step, so every root has brentq's bits.  The residual takes
    its logarithms with ``math.log`` (``log_each``), as ``_log_rate``
    does.  A cell leaves the active set once it converges.

    A cell fails, and reads NaN, when the bracket shows no sign change,
    a residual is NaN, 200 iterations pass, or the residual at the root
    exceeds 1e-10.
    """
    set_k2, reset_k2 = np.asarray(set_k2, np.float64), np.asarray(reset_k2, np.float64)
    target = set_log_k1 - log_each(set_k2) + 2.0 * math.log(v0) - set_k2 / v0
    offset = reset_log_k1 - log_each(reset_k2)

    def imbalance(rows, v):
        """_log_rate of the RESET node at v minus target, for the given cells."""
        return offset[rows] + 2.0 * log_each(v) - reset_k2[rows] / v - target[rows]

    n = target.shape[0]
    out = np.full(n, np.nan)
    rows = np.arange(n)
    xpre, xcur = np.full(n, 0.5 * v0), np.minimum(1.5 * v0, 0.999 * reset_k2)
    fpre, fcur = imbalance(rows, xpre), imbalance(rows, xcur)
    # brentq's checks before its first step: a NaN raises, a zero at an
    # end is the root, equal signs at both ends raise
    valid = ~(np.isnan(fpre) | np.isnan(fcur))
    at_lo = valid & (fpre == 0)
    at_hi = valid & ~at_lo & (fcur == 0)
    out[at_lo], out[at_hi] = xpre[at_lo], xcur[at_hi]
    keep = valid & ~at_lo & ~at_hi & (np.signbit(fpre) != np.signbit(fcur))
    zero = np.zeros(n)
    state = (rows, xpre, xcur, zero, fpre, fcur, zero, zero, zero)
    for _ in range(_MATCH_MAXITER):
        rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (a[keep] for a in state)
        if not rows.size:
            break
        # where xpre and xcur straddle the root, xpre becomes the far end xblk
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        # the end with the smaller residual becomes xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (_MATCH_XTOL + _MATCH_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        found = done & (np.abs(fcur) <= _MATCH_RESIDUAL)
        out[rows[found]] = xcur[found]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        limit = 3 * np.abs(sbis) - delta
        limit = np.where(np.abs(spre) < limit, np.abs(spre), limit)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < limit))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        # a step no longer than delta is taken as delta, toward xblk
        step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        xpre, fpre, xcur = xcur, fcur, xcur + step
        # converged cells and NaN residuals leave the active set
        fcur = np.full(rows.size, np.nan)
        fcur[~done] = imbalance(rows[~done], xcur[~done])
        keep = ~np.isnan(fcur)
        state = (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
    return out


def rate_matched_voltage(
    set_log_k1: float, set_k2: float, reset_log_k1: float, reset_k2: float, v0: float
) -> float:
    """RESET-node voltage whose |dV/dt| equals the SET node's at v0.

    The N = 1 case of ``rate_matched_voltages``, which replays scipy's
    ``brentq`` step for step.  Raises InitializationError when the cell
    fails there: no sign change over the bracket, a NaN residual, no
    convergence in 200 iterations, or a residual above 1e-10.
    """
    v_reset = float(rate_matched_voltages(
        [set_log_k1], [set_k2], [reset_log_k1], [reset_k2], v0
    )[0])
    if math.isnan(v_reset):
        raise InitializationError(
            f"could not rate-match reset node near v0={v0!r}: no root of the rate "
            f"difference within {_MATCH_RESIDUAL:g} in {_MATCH_MAXITER} Brent steps",
            indices=(0,),
        )
    return v_reset


def synchronize(
    set_params: FnParams, reset_params: FnParams, v0: float, weight_scale: float = WEIGHT_SCALE
) -> DamCell:
    """Build a cell whose nodes tunnel at identical rates at t = 0.

    With identical parameters both nodes start at exactly v0.  With
    mismatched parameters the RESET node voltage is solved by
    ``rate_matched_voltage``.
    """
    set_node = initial_state(set_params, v0)
    if (reset_params.k1, reset_params.k2) == (set_params.k1, set_params.k2):
        v_reset = v0
    else:
        v_reset = rate_matched_voltage(
            set_params.log_k1, set_params.k2, reset_params.log_k1, reset_params.k2, v0
        )
    reset_node = initial_state(reset_params, v_reset)
    return DamCell(set_node, reset_node, set_params, reset_params, weight_scale)


def read_weight(cell: DamCell, noise_sigma: float = 0.0, rng=None) -> WeightReading:
    """Differential weight in mV, optionally with Gaussian read noise.

    noise_sigma is in volts of node difference (the same unit as the
    readout chain sees); default 0 keeps reads deterministic.
    """
    diff = cell.reset_node.v_fg - cell.set_node.v_fg
    if noise_sigma:
        if noise_sigma < 0:
            raise DomainError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
        rng = rng if rng is not None else np.random.default_rng()
        diff += noise_sigma * rng.standard_normal()
    return WeightReading(weight=cell.weight_scale * diff, timestamp=cell.t)


def _moved(cell: DamCell, set_node: NodeState, reset_node: NodeState, dt: float) -> DamCell:
    return DamCell(set_node, reset_node, cell.set_params, cell.reset_params,
                   cell.weight_scale, cell.t + dt)


def decay(cell: DamCell, dt: float) -> DamCell:
    """Both nodes tunnel undisturbed for dt seconds."""
    return _moved(
        cell,
        evolve(cell.set_node, cell.set_params, dt),
        evolve(cell.reset_node, cell.reset_params, dt),
        dt,
    )


def set_pulse(cell: DamCell, pulse: Pulse) -> DamCell:
    """Pulse the SET node (raises the weight); RESET node idles."""
    return _moved(
        cell,
        apply_pulse(cell.set_node, cell.set_params, pulse, polarity=1),
        evolve(cell.reset_node, cell.reset_params, pulse.duration),
        pulse.duration,
    )


def reset_pulse(cell: DamCell, pulse: Pulse) -> DamCell:
    """Pulse the RESET node (lowers the weight); SET node idles."""
    return _moved(
        cell,
        evolve(cell.set_node, cell.set_params, pulse.duration),
        apply_pulse(cell.reset_node, cell.reset_params, pulse, polarity=1),
        pulse.duration,
    )


def pulse_cell(cell: DamCell, pulse: Pulse, polarity: int) -> DamCell:
    """Dispatch on polarity: +1 -> set_pulse, -1 -> reset_pulse."""
    if polarity == 1:
        return set_pulse(cell, pulse)
    if polarity == -1:
        return reset_pulse(cell, pulse)
    raise ArgumentError(f"polarity must be +1 or -1, got {polarity!r}")


def common_mode_step(cell: DamCell, dv: float) -> DamCell:
    """Identical instantaneous voltage perturbation on both nodes.

    Models a common-mode environmental disturbance (supply bump, charge
    injection).  The cell clock does not advance.
    """
    if not math.isfinite(dv):
        raise DomainError(f"dv must be finite, got {dv!r}")
    v_set = cell.set_node.v_fg + dv
    v_reset = cell.reset_node.v_fg + dv
    if v_set <= 0 or v_reset <= 0:
        raise DomainError(f"common-mode step {dv!r} V drives a node non-positive")
    return replace(
        cell,
        set_node=replace(cell.set_node, v_fg=v_set),
        reset_node=replace(cell.reset_node, v_fg=v_reset),
    )


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
    cell: DamCell,
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
    if polarity == 1:
        node, params, idle_node, idle_params = (
            cell.set_node, cell.set_params, cell.reset_node, cell.reset_params)
    elif polarity == -1:
        node, params, idle_node, idle_params = (
            cell.reset_node, cell.reset_params, cell.set_node, cell.set_params)
    else:
        raise ArgumentError(f"polarity must be +1 or -1, got {polarity!r}")

    sign = 1.0 if polarity == 1 else -1.0
    ws = cell.weight_scale
    w0 = read_weight(cell).weight
    v, r, log_k1, k2 = node.v_fg, params.coupling_ratio, params.log_k1, params.k2
    log_dt = math.log(duration)
    idle = float(decayed(idle_node.v_fg, idle_params.log_k1, idle_params.k2, log_dt))

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
