"""The paper's linearized discrete-time model of a differential cell.

The paper reads FN decay as a learning-rate schedule through a
linearized update, ``w' = (1 - alpha*eta_n) * w``, whose factor
alpha*eta_n falls like 1/n.  The library simulates the two nodes
instead, so these formulas are test oracles: acceptance checks 05 and 06
and ``tests/test_cell.py`` hold the model and the simulation to each
other.  The module name does not match ``test_*.py``, so pytest imports
it from the tests that use it and collects nothing from it.
"""

from __future__ import annotations

import math

import numpy as np

from fndam.errors import DomainError, FndamError
from fndam.node import FnParams, _require_finite_positive, _require_int, _require_nonnegative


class StepSizeError(FndamError, ValueError):
    """A discrete update step is too large for the linearized form to hold."""


def discrete_update(w_mv: float, w_set: float, params: FnParams, dt: float) -> float:
    """One linearized step of undisturbed decay about the SET-node voltage.

        w' = (1 - (k1/k2) * (2*W_S + k2) * exp(-k2/W_S) * dt) * w

    Valid for small weights and steps; the two-node simulation is the
    reference it linearizes (they agree within 1% for |w| <= 5 mV and
    dt <= 1 s).  A zero step returns w_mv.  Raises StepSizeError when the
    decay term reaches 1, and DomainError where it is NaN.
    """
    if not math.isfinite(w_mv):
        raise DomainError(f"w_mv must be finite, got {w_mv!r}")
    _require_finite_positive("w_set", w_set)
    _require_nonnegative("dt", dt)
    if dt == 0.0:  # the rate may overflow, and inf * 0 is NaN
        return w_mv
    rate = math.exp(params.log_k1 - params.k2 / w_set)
    factor = rate * (2.0 * w_set + params.k2) / params.k2 * dt
    if factor == math.inf:  # 2*w_set + k2 may overflow where the factor does not
        factor = rate * (2.0 * (w_set / params.k2) + 1.0) * dt
    if not factor < 1.0:
        if math.isnan(factor):  # an exp that underflows meets a 2*w_set + k2 that overflows
            raise DomainError(f"decay factor at w_set={w_set!r} V is out of float range")
        raise StepSizeError(
            f"decay factor {factor:.3g} >= 1 at dt={dt!r}; reduce the step"
        )
    return (1.0 - factor) * w_mv


def decay_schedule(params: FnParams, k0: float, dt_step: float, n_steps: int) -> np.ndarray:
    """Per-step weight decay factors at steps n = 0..n_steps-1 of an undisturbed cell.

        alpha*eta_n = k1 * (2/log(k1*n*dt + k0) + 1) / (k1*n*dt + k0) * dt

    Decreases like 1/n, so the cumulative product behaves like a
    stochastic-approximation learning-rate schedule.
    """
    _require_int("n_steps", n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be positive, got {n_steps!r}")
    _require_finite_positive("dt_step", dt_step)
    if not (math.isfinite(k0) and k0 > 1.0):
        raise DomainError(f"k0 must be finite and > 1, got {k0!r}")
    log_k1 = params.log_k1
    # at n = 0, log gives -inf and logaddexp(-inf, log k0) is log k0 exactly
    with np.errstate(divide="ignore"):
        log_eff = np.logaddexp(log_k1 + np.log(np.arange(n_steps) * dt_step), math.log(k0))
    return np.exp(log_k1 - log_eff) * (2.0 / log_eff + 1.0) * dt_step
