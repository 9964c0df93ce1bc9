"""Differential dynamic analog memory cell.

A weight is stored as the voltage difference between two tunneling
nodes programmed by complementary inputs: SET pulses discharge the SET
node (raising the weight), RESET pulses discharge the RESET node
(lowering it).  Because both nodes ride the same global decay, the
difference is first-order immune to common-mode disturbance and decays
toward zero on its own timescale — that decay is the memory's built-in
"forgetting" and doubles as a learning-rate schedule.

Weights are reported in millivolts: weight = WEIGHT_SCALE * (W_R - W_S),
with WEIGHT_SCALE = 1000 mV per volt.

A cell is a one-cell ``DamArray``: its SET and RESET voltages are
``cell.v[0, 0]`` and ``cell.v[0, 1]`` and its clock is
``cell.global_clock``.  Each operation on a cell (``decay``,
``set_pulse``, ``reset_pulse``, ``common_mode_step``, ``read_weight``,
``precompensated_amplitude``, ``energy.retention_time``) raises
ArgumentError for anything but a one-cell array before any work, naming
its type or size; ``read_weight`` returns the weight, a float in mV.  Solvers
and loops over one cell read its columns once and run on floats, as each
one-cell array operation pays several numpy calls (a command builds one
only for ``retention-report``'s public solves, one per grid row):
``_evolved_nodes`` and ``_float_weight`` are ``batch_pulse``, ``decay``
and ``read_weight`` on ``node.decayed_float``, to the same bits and
errors.  A pulsed node is ``decayed_float(v + step, ...) - step``, as
in ``node.apply_pulse``, so each node evaluation is one call.
``precompensated_amplitude`` is a bisection on such pulses.
"""

from __future__ import annotations

import math

import numpy as np

from .array import (NO_MISMATCH, WEIGHT_SCALE, DamArray, _driven, _with_voltages, advance,
                    batch_pulse)
from .errors import ArgumentError, DomainError, SaturationError
from .node import (FnParams, Pulse, _require_finite_positive, _require_nonnegative,
                   _require_record, decayed_float, k0_from_initial)

_AMP_MAX_V = 32.0  # the largest amplitude a precompensation solve tries
_AMP_TOL_MV = 1e-3  # precompensated_amplitude's tolerance on the weight step


def synchronize(params: FnParams, v0: float) -> DamArray:
    """A fresh cell: two nodes of params at v0, tunneling at identical rates.

    Cells with mismatched nodes come from ``array.build_array``.
    """
    k0_from_initial(params, v0)
    columns = np.array([v0, v0, params.log_k1, params.log_k1, params.k2, params.k2],
                       dtype=np.float64)
    columns.flags.writeable = False  # and so are its views, the cell's columns
    v, log_k1, k2 = columns.reshape(3, 1, 2)
    return DamArray._of(v, log_k1, k2, params, NO_MISMATCH, v0, 0.0)


def _one_cell(cell: DamArray) -> DamArray:
    """cell, if it is a one-cell array; ArgumentError naming its type or size if not."""
    _require_record("cell", cell, DamArray)
    if len(cell) != 1:
        raise ArgumentError(f"expected a one-cell array, got {len(cell)} cells")
    return cell


def read_weight(cell: DamArray) -> float:
    """Differential weight in mV, as read at ``cell.global_clock``."""
    return _one_cell(cell).weights().tolist()[0]


def decay(cell: DamArray, dt: float) -> DamArray:
    """Both nodes tunnel undisturbed for dt seconds."""
    return advance(_one_cell(cell), dt)


def set_pulse(cell: DamArray, pulse: Pulse) -> DamArray:
    """Pulse the SET node (raises the weight); RESET node idles."""
    return batch_pulse(_one_cell(cell), [(0, 1, pulse)])


def reset_pulse(cell: DamArray, pulse: Pulse) -> DamArray:
    """Pulse the RESET node (lowers the weight); SET node idles."""
    return batch_pulse(_one_cell(cell), [(0, -1, pulse)])


def common_mode_step(cell: DamArray, dv: float) -> DamArray:
    """Identical instantaneous voltage perturbation on both nodes.

    Models a common-mode environmental disturbance (supply bump, charge
    injection).  The cell clock does not advance.
    """
    if not math.isfinite(dv):
        raise DomainError(f"dv must be finite, got {dv!r}")
    v = _one_cell(cell).v + dv
    if not (v > 0).all():
        raise DomainError(f"common-mode step {dv!r} V drives a node non-positive")
    return _with_voltages(cell, v, cell.global_clock)


def _float_nodes(array: DamArray):
    """An array's (v, log_k1, k2) nodes as floats, SET then RESET per cell, row-major."""
    return tuple(zip(array.v.ravel().tolist(), array.log_k1.ravel().tolist(),
                     array.k2.ravel().tolist()))


def _aged_nodes(params: FnParams, v0: float, age_s: float):
    """The float nodes (``_float_nodes``) of ``synchronize(params, v0)`` after
    ``decay`` by age_s seconds."""
    k0_from_initial(params, v0)
    return _evolved_nodes(((v0, params.log_k1, params.k2),) * 2, age_s)


def _float_weight(nodes) -> float:
    """``read_weight(cell)`` of a cell's float nodes."""
    return WEIGHT_SCALE * (nodes[1][0] - nodes[0][0])


def _evolved_nodes(nodes, dt: float, steps=None):
    """``batch_pulse`` by per-node steps, ``advance`` without them, on float nodes.

    nodes are the (v, log_k1, k2) of the SET and RESET nodes of one or
    more cells in row-major order, as ``_float_nodes`` gives one cell's.
    An idle node's zero step leaves its decay bit-identical to no step.
    The first node left non-positive raises ``array._driven``.
    """
    if not 0.0 < dt < math.inf:  # dt and the nodes are checked off their fast paths
        _require_nonnegative("dt", dt)
        return nodes
    log_dt = math.log(dt)
    if steps is None:
        nodes = tuple([(decayed_float(v, a, k, log_dt), a, k) for v, a, k in nodes])
    else:
        nodes = tuple([(decayed_float(v + s, a, k, log_dt) - s, a, k)
                       for (v, a, k), s in zip(nodes, steps)])
    for v, _, _ in nodes:
        if not v > 0:
            _require_driven([v for v, _, _ in nodes])
    return nodes


def _require_driven(voltages) -> None:
    """``array._driven`` for the first node voltage, in ``_float_nodes`` order, not positive."""
    for i, v in enumerate(voltages):
        if not v > 0:
            raise _driven(*divmod(i, 2), v)


def precompensated_amplitude(cell: DamArray, target_dw: float, duration: float) -> float:
    """SET-pulse amplitude that raises the weight by target_dw mV.

    The answer compensates for the cell's current depth into its decay
    trajectory (an older cell needs a larger amplitude for the same
    step).  target_dw is a magnitude.  Returns 0.0 for a zero target.

    The amplitude is the one a bisection over [0, 32 V] returns: the
    first midpoint whose net change lies within 1e-3 mV of the target,
    the bracket narrowing until it spans 1e-12 * 32 V.  Each midpoint
    is one pulse in closed form: ``node.decayed_float`` of the lifted
    SET node less its step, against the idle RESET node's decay,
    read as ``read_weight`` reads.  These are the bits a pulsed and read
    cell gives.

    Raises SaturationError when the target is unreachable at 32 V or
    overshot by the smallest amplitude, and ArgumentError when it is
    reachable but the amplitude grid cannot resolve 1e-3 mV near it.
    """
    return _solve_amplitude(_float_nodes(_one_cell(cell)), cell.nominal_params.coupling_ratio,
                            target_dw, duration, _AMP_TOL_MV)


def _solve_amplitude(nodes, r, target_dw, duration, tol_mv):
    """precompensated_amplitude on ``_float_nodes`` and coupling ratio r,
    within tol_mv of the target.

    The duration gets ``Pulse``'s check, so every trial pulse is valid.
    The loop writes ``net`` out: one ``decayed_float`` call per midpoint.

    Raises ArgumentError when the target is reachable but tol_mv is
    finer than the amplitude grid resolves.
    """
    if not target_dw >= 0:
        raise DomainError(f"target_dw is a magnitude, got {target_dw!r}")
    if target_dw == 0.0:
        return 0.0
    if not tol_mv >= 0:
        raise DomainError(f"tol_mv must be >= 0, got {tol_mv!r}")
    _require_finite_positive("pulse duration", duration)
    (v, log_k1, k2), (idle_v, idle_log_k1, idle_k2) = nodes
    w0 = _float_weight(nodes)
    log_dt = math.log(duration)
    idle = decayed_float(idle_v, idle_log_k1, idle_k2, log_dt)

    def net(amp):
        """Net weight change of one pulse at amp, as read after the pulse."""
        step = r * amp
        v_after = decayed_float(v + step, log_k1, k2, log_dt) - step
        if v_after <= 0:
            raise DomainError(f"pulse release drives gate to {v_after:.6g} V <= 0")
        return WEIGHT_SCALE * (idle - v_after) - w0

    hi_change = net(_AMP_MAX_V)
    if hi_change < target_dw - tol_mv:
        raise SaturationError(
            f"target {target_dw!r} mV unreachable: amp_max={_AMP_MAX_V!r} V "
            f"yields {hi_change:.6g} mV"
        )
    lo, hi = 0.0, _AMP_MAX_V
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        step = r * mid
        v_after = decayed_float(v + step, log_k1, k2, log_dt) - step
        if v_after <= 0:
            raise DomainError(f"pulse release drives gate to {v_after:.6g} V <= 0")
        change = WEIGHT_SCALE * (idle - v_after) - w0
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
