"""Single Fowler-Nordheim tunneling node.

A floating gate coupled to a tunneling junction discharges through the
FN barrier.  Starting from voltage ``v0`` the open-circuit gate voltage
follows

    V(t) = k2 / log(k1 * t + k0),        k0 = exp(k2 / v0)

which solves

    dV/dt = -(k1 / k2) * V^2 * exp(-k2 / V)

The right-hand side magnitude times ``c_total`` is the tunneling
current.  ``k1`` (1/s) and ``k2`` (V) are fitted device constants; see
``fndam.calibrate`` for the defaults shipped with the package.

All state transitions are computed in log space: the closed form above
composes exactly under ``log(exp(a) + k1*dt)`` and evaluating that as a
log-sum-exp keeps full precision even when ``exp(k2/v)`` is far outside
float range.  A node's state is its gate voltage, a plain float; k0 is the
initial condition of an undisturbed trajectory (``voltage_at``) and is
not stored.  The closed form has two kernels, one per shape: ``decayed``
is elementwise on numpy columns, so the cell arrays of ``fndam.array``
evolve every node by one expression, and ``decayed_float`` gives its
bits on one Python float, with the float log-sum-exp in its own body.
``evolve``, ``apply_pulse``, the one-cell solvers and loops of
``fndam.cell`` and its callers run on it, one call per node evaluation,
and write a pulse as ``decayed_float(v + step, ...) - step``; the
array's ``batch_pulse`` writes the same on ``decayed``.  ``voltage_at``
writes the log-sum-exp out again, as a shared helper would add a call to
each ``decayed_float``.  ``tests/test_array_equivalence.py`` holds every
array operation and every function of ``fndam.cell`` to the bits of
``evolve`` and ``apply_pulse``, node by node, and ``tests/test_node.py``
holds ``evolve`` to the ODE above through ``solve_ivp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError

# exp() overflows float64 beyond this; k2/v must stay below it wherever a
# bare exp(k2/v) is materialized (k0_from_initial).
_MAX_EXP_ARG = math.log(np.finfo(float).max)  # ~709.78
_LOG2 = math.log(2.0)  # numpy's NPY_LOGE2, the logaddexp of two equal arguments


# The range checks of the package's functions and classes raise DomainError
# naming the input, and the record type check ArgumentError.  The state and
# config loaders keep their own checks, which name the JSON or config path.
def _require_finite_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_nonnegative(name, value):
    """value must be finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be >= 0, got {value!r}")


def _require_int(name, value):
    """A count must be an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _require_seed(seed):
    """A generator seed is an int in [0, 2**64); a bool is not one."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned int, got {seed!r}")


def _require_record(name, value, cls):
    """A record argument must be an instance of its class; ArgumentError names it."""
    if not isinstance(value, cls):
        raise ArgumentError(f"{name} must be of type {cls.__name__}, got {value!r}")


def _pulse_count(n_pulses) -> int:
    """n_pulses as an int; DomainError unless it is a whole number >= 0."""
    if not (n_pulses >= 0 and math.isfinite(n_pulses) and n_pulses == int(n_pulses)):
        raise DomainError(f"n_pulses must be a whole number >= 0, got {n_pulses!r}")
    return int(n_pulses)


@dataclass(frozen=True)
class FnParams:
    """Constants of one tunneling node.

    k1 sets the tunneling timescale and k2 the barrier exponent; both
    come from fitting measured V(t) curves rather than first principles.
    c_total is the total floating-gate capacitance and c_couple the
    input coupling capacitance, so ``c_couple / c_total`` is the
    fraction of an input step that appears on the gate.
    """

    k1: float  # 1/s
    k2: float  # V
    c_total: float = 1e-12  # F
    c_couple: float = 1e-13  # F, so the default coupling ratio is 0.1

    def __post_init__(self):
        _require_finite_positive("k1", self.k1)
        _require_finite_positive("k2", self.k2)
        _require_finite_positive("c_total", self.c_total)
        _require_finite_positive("c_couple", self.c_couple)
        if self.c_couple >= self.c_total:
            raise DomainError(
                "c_couple must be smaller than c_total "
                f"(got {self.c_couple!r} >= {self.c_total!r})"
            )

    @property
    def coupling_ratio(self) -> float:
        return self.c_couple / self.c_total

    @property
    def log_k1(self) -> float:
        return math.log(self.k1)


@dataclass(frozen=True)
class Pulse:
    """Rectangular input pulse: unipolar amplitude (V) and duration (s)."""

    amplitude: float
    duration: float

    def __post_init__(self):
        _require_nonnegative("pulse amplitude", self.amplitude)
        _require_finite_positive("pulse duration", self.duration)


def k0_from_initial(params: FnParams, v0: float) -> float:
    """Initial-condition constant exp(k2 / v0) for a node that starts at v0."""
    if not (math.isfinite(v0) and 0 < v0 < params.k2):
        raise DomainError(f"v0 must satisfy 0 < v0 < k2, got {v0!r}")
    if params.k2 / v0 > _MAX_EXP_ARG:
        raise DomainError(
            f"k2/v0 = {params.k2 / v0:.1f} exceeds float64 range for k0; "
            "this parameterization cannot be represented"
        )
    return math.exp(params.k2 / v0)


def programmable(k2, v0):
    """Elementwise form of the domain ``k0_from_initial`` accepts.

    True where a node with barrier k2 can be programmed to v0:
    0 < v0 < k2 and exp(k2/v0) within float64 range.
    """
    # a zero or subnormal v0 makes k2/v0 infinite, which fails the comparison
    with np.errstate(over="ignore", divide="ignore"):
        return (0 < v0) & (v0 < k2) & (k2 / v0 <= _MAX_EXP_ARG)


def log_each(a) -> np.ndarray:
    """math.log per element: the scalar path's logarithm, bit for bit.

    np.log may round differently from math.log (numpy picks its SIMD
    routine by CPU), so every array logarithm that must reproduce a
    scalar one goes through here.
    """
    a = np.asarray(a, dtype=np.float64)
    logs = np.fromiter(map(math.log, a.ravel().tolist()), np.float64, count=a.size)
    return logs.reshape(a.shape)


def voltage_at(params: FnParams, k0: float, t: float) -> float:
    """Open-circuit gate voltage after t seconds of undisturbed decay."""
    _require_nonnegative("t", t)
    if not (math.isfinite(k0) and k0 >= 1.0):
        raise DomainError(f"k0 must be finite and >= 1, got {k0!r}")
    if t == 0.0:
        log_arg = math.log(k0)
    else:
        # log(k1*t + k0) without forming k1*t + k0: decayed_float's log-sum-exp
        x, y = params.log_k1 + math.log(t), math.log(k0)
        hi, lo = (x, y) if x > y else (y, x)
        log_arg = x + _LOG2 if x == y else hi + math.log1p(math.exp(lo - hi))
    if log_arg <= 0.0:
        raise DomainError("log(k1*t + k0) must be positive")
    return params.k2 / log_arg


def tunneling_current(params: FnParams, v_fg: float) -> float:
    """Magnitude of the FN tunneling current at gate voltage v_fg.

    The gate discharges: dV/dt = -tunneling_current(v)/c_total.  Returns
    amps; underflows to 0.0 once the true value drops below float range,
    and raises DomainError where the current itself overflows.
    """
    _require_finite_positive("v_fg", v_fg)
    # c_total * (k1/k2) * v^2 * exp(-k2/v), exponent assembled in log space
    # so that huge k1 and tiny exp(-k2/v) never meet as bare floats.
    exponent = params.log_k1 - params.k2 / v_fg
    current = params.c_total * v_fg * v_fg / params.k2 * math.exp(exponent)
    if not current < math.inf:  # inf, or nan where inf meets an exp that underflows
        # a product overflowed on the way: the whole current in log space
        log_current = (math.log(params.c_total) + 2.0 * math.log(v_fg) - math.log(params.k2)
                       + exponent)
        if not log_current <= _MAX_EXP_ARG:
            raise DomainError(f"v_fg {v_fg!r} V needs a tunneling current out of float range")
        current = math.exp(log_current)
    return current


def decayed(v, log_k1, k2, log_dt):
    """Gate voltage after exp(log_dt) seconds of undisturbed tunneling decay.

    With a = k2/v the new log-argument is log(exp(a) + k1*dt), computed
    as a log-sum-exp.  The column kernel: every array operation calls
    this one expression, elementwise, and ``decayed_float`` gives its bits
    on one float, so a cell in an array decays as the cell on its own.
    """
    # sub-resolution decay: k2/(k2/v) can land one ulp above v, and
    # tunneling must never raise the gate voltage
    return np.minimum(k2 / np.logaddexp(k2 / v, log_k1 + log_dt), v)


def decayed_float(v, log_k1, k2, log_dt):
    """The float kernel: ``decayed`` on one Python float, to the same bits.

    The log-sum-exp is numpy's ``npy_logaddexp``: its float operations
    in its order, through ``math`` instead of numpy's scalar ufunc
    dispatch, written out here so that one node evaluation is one call.
    Its domain is finite v > 0; where numpy would return inf, ``math``
    may raise instead.
    """
    x, y = k2 / v, log_k1 + log_dt
    if x == y:
        log_arg = x + _LOG2
    else:
        tmp = x - y
        if tmp > 0:
            log_arg = x + math.log1p(math.exp(-tmp))
        else:
            log_arg = y + math.log1p(math.exp(tmp))
    decayed_v = k2 / log_arg
    return v if v < decayed_v else decayed_v  # min(decayed_v, v) without its call


def evolve(v_fg: float, params: FnParams, dt: float) -> float:
    """Gate voltage v_fg after dt seconds of undisturbed tunneling decay.

    Uses the closed form (see ``decayed_float``).  Exact semigroup:
    evolve(dt1) then evolve(dt2) equals evolve(dt1+dt2) to rounding.
    dt = 0 returns v_fg unchanged, bit for bit.  DomainError where k2/v_fg
    and k1*dt both underflow, so the log-argument rounds to 0.
    """
    _require_record("params", params, FnParams)
    _require_finite_positive("v_fg", v_fg)
    _require_nonnegative("dt", dt)
    if dt == 0.0:
        return v_fg
    try:
        return float(decayed_float(v_fg, params.log_k1, params.k2, math.log(dt)))
    except ZeroDivisionError:
        raise DomainError(f"decay of v_fg={v_fg!r} V by dt={dt!r} s with {params!r} "
                          "is out of float range") from None


def apply_pulse(v_fg: float, params: FnParams, pulse: Pulse) -> float:
    """Gate voltage v_fg after one rectangular input pulse coupled onto the gate.

    The gate is lifted by coupling_ratio * amplitude, tunnels at the
    lifted voltage for the pulse duration, and is released.  The net
    effect is purely the extra tunneling while the pulse was high: the
    node ends *below* an unpulsed reference.  DomainError where the
    lifted k2/v and k1*duration both underflow, as in ``evolve``.
    """
    _require_record("params", params, FnParams)
    _require_record("pulse", pulse, Pulse)
    _require_finite_positive("v_fg", v_fg)
    step = params.coupling_ratio * pulse.amplitude
    try:
        v_down = decayed_float(v_fg + step, params.log_k1, params.k2,
                               math.log(pulse.duration)) - step
    except ZeroDivisionError:
        raise DomainError(f"{pulse!r} on v_fg={v_fg!r} V with {params!r} "
                          "is out of float range") from None
    if v_down <= 0:
        raise DomainError(f"pulse release drives gate to {v_down:.6g} V <= 0")
    return v_down
