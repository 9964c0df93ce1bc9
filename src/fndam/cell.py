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
``read_weight`` are the array operations on that one cell.  Solvers
and loops over one cell read its columns once and run on floats, as
each one-cell array operation pays several numpy calls:
``_evolved_nodes`` and ``_float_weight`` are ``batch_pulse``, ``decay``
and ``read_weight`` on ``node.decayed_float``, to the same bits and
errors.  ``precompensated_amplitude`` is a bisection on such pulses.
``decay_factor`` and ``DecaySchedule`` evaluate one elementwise
alpha*eta_n expression, on one step or on all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .array import (WEIGHT_SCALE, DamArray, MismatchSpec, WeightReading, _driven, advance,
                    batch_pulse)
from .errors import ArgumentError, DomainError, SaturationError, StepSizeError
from .node import FnParams, Pulse, _require_dt, decayed_float, k0_from_initial, released

_NO_MISMATCH = MismatchSpec(relative_sigma=0.0)
_AMP_MAX_V = 32.0  # the largest amplitude a precompensation solve tries
_AMP_TOL_MV = 1e-3  # precompensated_amplitude's tolerance on the weight step


def synchronize(params: FnParams, v0: float) -> DamArray:
    """A fresh cell: two nodes of params at v0, tunneling at identical rates.

    Cells with mismatched nodes come from ``array.build_array``.
    """
    k0_from_initial(params, v0)
    columns = np.array([v0, v0, params.k1, params.k1, params.log_k1, params.log_k1,
                        params.k2, params.k2, WEIGHT_SCALE], dtype=np.float64)
    columns.flags.writeable = False  # and so are its views, the cell's columns
    v, k1, log_k1, k2 = columns[:8].reshape(4, 1, 2)
    return DamArray._of(v, k1, log_k1, k2, columns[8:], params, _NO_MISMATCH, v0, 0.0)


def read_weight(cell: DamArray) -> WeightReading:
    """Differential weight in mV and the clock it was read at."""
    return WeightReading(*cell.weights().tolist(), cell.global_clock)


def decay(cell: DamArray, dt: float) -> DamArray:
    """Both nodes tunnel undisturbed for dt seconds."""
    return advance(cell, dt)


def set_pulse(cell: DamArray, pulse: Pulse) -> DamArray:
    """Pulse the SET node (raises the weight); RESET node idles."""
    return batch_pulse(cell, [(0, 1, pulse)])


def reset_pulse(cell: DamArray, pulse: Pulse) -> DamArray:
    """Pulse the RESET node (lowers the weight); SET node idles."""
    return batch_pulse(cell, [(0, -1, pulse)])


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


def discrete_update(w_mv: float, w_set: float, params: FnParams, dt: float) -> float:
    """One linearized step of undisturbed decay about the SET-node voltage.

        w' = (1 - (k1/k2) * (2*W_S + k2) * exp(-k2/W_S) * dt) * w

    Valid for small weights and steps; the two-node simulation is the
    reference it linearizes (they agree within 1% for |w| <= 5 mV and
    dt <= 1 s).  Raises StepSizeError when the decay term reaches 1.
    """
    if not (math.isfinite(w_set) and w_set > 0):
        raise DomainError(f"w_set must be positive, got {w_set!r}")
    _require_dt(dt)
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
    return (1.0 - factor) * w_mv


def _alpha_eta(log_k1, k0, n, dt):
    """alpha*eta_n, elementwise over the step index n (see decay_factor)."""
    # at n*dt = 0, log gives -inf and logaddexp(-inf, log k0) is log k0 exactly
    with np.errstate(divide="ignore"):
        log_eff = np.logaddexp(log_k1 + np.log(n * dt), math.log(k0))
    return np.exp(log_k1 - log_eff) * (2.0 / log_eff + 1.0) * dt


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
    _require_dt(dt)
    return float(_alpha_eta(params.log_k1, k0, n, dt))


@dataclass(frozen=True)
class DecaySchedule:
    """Precomputed alpha*eta_n sequence for an undisturbed cell."""

    alpha_eta: np.ndarray  # factor at steps 0..n-1
    dt_step: float  # s per step

    @classmethod
    def from_params(cls, params: FnParams, k0: float, dt_step: float, n_steps: int):
        """The factors ``decay_factor`` gives at steps 0..n_steps-1."""
        if n_steps <= 0:
            raise DomainError(f"n_steps must be positive, got {n_steps!r}")
        if not (math.isfinite(dt_step) and dt_step > 0):
            raise DomainError(f"dt_step must be positive, got {dt_step!r}")
        if not (math.isfinite(k0) and k0 > 1.0):
            raise DomainError(f"k0 must be finite and > 1, got {k0!r}")
        n = np.arange(n_steps, dtype=float)
        return cls(alpha_eta=_alpha_eta(params.log_k1, k0, n, dt_step), dt_step=dt_step)

    def __len__(self):
        return len(self.alpha_eta)


def _float_nodes(cell: DamArray):
    """A one-cell array's ((v, log_k1, k2) SET, same RESET) nodes and weight_scale."""
    ws, = cell.weight_scale.tolist()
    return tuple(zip(*cell.v.tolist(), *cell.log_k1.tolist(), *cell.k2.tolist())), ws


def _aged_nodes(params: FnParams, v0: float, age_s: float):
    """The float nodes (``_float_nodes``) of ``synchronize(params, v0)`` after
    ``decay`` by age_s seconds; an age_s that is not positive leaves them fresh."""
    k0_from_initial(params, v0)
    nodes = ((v0, params.log_k1, params.k2),) * 2
    return _evolved_nodes(nodes, age_s) if age_s > 0 else nodes


def _float_weight(nodes, ws: float) -> float:
    """``read_weight(cell).weight`` of a cell's float nodes."""
    return ws * (nodes[1][0] - nodes[0][0])


def _evolved_nodes(nodes, dt: float, steps=None):
    """``batch_pulse`` by per-node steps, ``advance`` without them, on float nodes.

    nodes are the (v, log_k1, k2) of the SET and RESET nodes of one or
    more cells in row-major order, as ``_float_nodes`` gives one cell's.
    An idle node's zero step leaves its decay bit-identical to no step.
    The first node left non-positive raises ``array._driven``.
    """
    _require_dt(dt)
    if dt == 0.0:
        return nodes
    log_dt = math.log(dt)
    if steps is None:
        nodes = tuple([(decayed_float(v, log_k1, k2, log_dt), log_k1, k2)
                       for v, log_k1, k2 in nodes])
    else:
        nodes = tuple([(released(v, step, log_k1, k2, log_dt, decayed_float), log_k1, k2)
                       for (v, log_k1, k2), step in zip(nodes, steps)])
    for i, (v, _, _) in enumerate(nodes):
        if not v > 0:
            raise _driven(*divmod(i, 2), v)
    return nodes


def precompensated_amplitude(cell: DamArray, target_dw: float, duration: float) -> float:
    """SET-pulse amplitude that raises the weight by target_dw mV.

    The answer compensates for the cell's current depth into its decay
    trajectory (an older cell needs a larger amplitude for the same
    step).  target_dw is a magnitude.  Returns 0.0 for a zero target.

    The amplitude is the one a bisection over [0, 32 V] returns: the
    first midpoint whose net change lies within 1e-3 mV of the target,
    the bracket narrowing until it spans 1e-12 * 32 V.  Each midpoint
    is one pulse in closed form: ``node.released`` on floats for the
    SET node against ``node.decayed_float`` on the idle RESET node,
    read as ``read_weight`` reads.  These are the bits a pulsed and read
    cell gives.

    Raises SaturationError when the target is unreachable at 32 V or
    overshot by the smallest amplitude, and ArgumentError when it is
    reachable but the amplitude grid cannot resolve 1e-3 mV near it.
    """
    return _solve_amplitude(*_float_nodes(cell), cell.nominal_params.coupling_ratio,
                            target_dw, duration, _AMP_TOL_MV)


def _solve_amplitude(nodes, ws, r, target_dw, duration, tol_mv):
    """precompensated_amplitude on ``_float_nodes``, weight_scale ws and
    coupling ratio r, within tol_mv of the target.

    Raises ArgumentError when the target is reachable but tol_mv is
    finer than the amplitude grid resolves.
    """
    if not target_dw >= 0:
        raise DomainError(f"target_dw is a magnitude, got {target_dw!r}")
    if target_dw == 0.0:
        return 0.0
    if not tol_mv >= 0:
        raise DomainError(f"tol_mv must be >= 0, got {tol_mv!r}")
    Pulse(amplitude=_AMP_MAX_V, duration=duration)  # every trial pulse is valid
    (v, log_k1, k2), (idle_v, idle_log_k1, idle_k2) = nodes
    w0 = _float_weight(nodes, ws)
    log_dt = math.log(duration)
    idle = decayed_float(idle_v, idle_log_k1, idle_k2, log_dt)

    def net(amp):
        """Net weight change of one pulse at amp, as read after the pulse."""
        v_after = released(v, r * amp, log_k1, k2, log_dt, decayed_float)
        if v_after <= 0:
            raise DomainError(f"pulse release drives gate to {v_after:.6g} V <= 0")
        return ws * (idle - v_after) - w0

    hi_change = net(_AMP_MAX_V)
    if hi_change < target_dw - tol_mv:
        raise SaturationError(
            f"target {target_dw!r} mV unreachable: amp_max={_AMP_MAX_V!r} V "
            f"yields {hi_change:.6g} mV"
        )
    lo, hi = 0.0, _AMP_MAX_V
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        change = net(mid)
        if abs(change - target_dw) <= tol_mv:
            return mid
        if change < target_dw:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * _AMP_MAX_V:
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
