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
not stored.  ``decayed`` and ``released`` are elementwise, so the cell
arrays of ``fndam.array`` evolve every node by these same expressions.
``decayed_float`` is ``decayed`` on one Python float, bit for bit; the
one-cell solvers and loops of ``fndam.cell`` and its callers run on it.
It and ``voltage_at`` share one float log-sum-exp, ``_logaddexp``.
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


def _require_finite_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_dt(dt):
    if not (math.isfinite(dt) and dt >= 0):
        raise DomainError(f"dt must be >= 0, got {dt!r}")


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
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise DomainError(f"pulse amplitude must be >= 0, got {self.amplitude!r}")
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

    True where a node with barrier k2 can be programmed to v0 > 0:
    v0 < k2 and exp(k2/v0) within float64 range.
    """
    with np.errstate(over="ignore"):  # an infinite k2/v0 fails the comparison
        return (v0 < k2) & (k2 / v0 <= _MAX_EXP_ARG)


def log_each(a) -> np.ndarray:
    """math.log per element: the scalar path's logarithm, bit for bit.

    np.log may round differently from math.log (numpy picks its SIMD
    routine by CPU), so every array logarithm that must reproduce a
    scalar one goes through here.
    """
    a = np.asarray(a, dtype=np.float64)
    return np.array(list(map(math.log, a.ravel().tolist()))).reshape(a.shape)


def voltage_at(params: FnParams, k0: float, t: float) -> float:
    """Open-circuit gate voltage after t seconds of undisturbed decay."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"t must be >= 0, got {t!r}")
    if not (math.isfinite(k0) and k0 >= 1.0):
        raise DomainError(f"k0 must be finite and >= 1, got {k0!r}")
    if t == 0.0:
        log_arg = math.log(k0)
    else:
        # log(k1*t + k0), evaluated without forming k1*t + k0
        log_arg = _logaddexp(params.log_k1 + math.log(t), math.log(k0))
    if log_arg <= 0.0:
        raise DomainError("log(k1*t + k0) must be positive")
    return params.k2 / log_arg


def tunneling_current(params: FnParams, v_fg: float) -> float:
    """Magnitude of the FN tunneling current at gate voltage v_fg.

    The gate discharges: dV/dt = -tunneling_current(v)/c_total.  Returns
    amps; underflows to 0.0 once the true value drops below float range.
    """
    _require_finite_positive("v_fg", v_fg)
    # c_total * (k1/k2) * v^2 * exp(-k2/v), exponent assembled in log space
    # so that huge k1 and tiny exp(-k2/v) never meet as bare floats.
    exponent = params.log_k1 - params.k2 / v_fg
    return params.c_total * v_fg * v_fg / params.k2 * math.exp(exponent)


def decayed(v, log_k1, k2, log_dt):
    """Gate voltage after exp(log_dt) seconds of undisturbed tunneling decay.

    With a = k2/v the new log-argument is log(exp(a) + k1*dt), computed
    as a log-sum-exp.  Elementwise on floats and numpy arrays alike:
    ``evolve`` and every array operation call this one expression, so a
    cell in an array decays to the same bits as the cell on its own.
    """
    # sub-resolution decay: k2/(k2/v) can land one ulp above v, and
    # tunneling must never raise the gate voltage
    return np.minimum(k2 / np.logaddexp(k2 / v, log_k1 + log_dt), v)


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` on two Python floats, to the same bits.

    Performs numpy's ``npy_logaddexp`` float operations in numpy's
    order, through ``math`` instead of numpy's scalar ufunc dispatch
    (about a quarter of the cost).
    """
    if x == y:
        return x + _LOG2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    return y + math.log1p(math.exp(tmp))


def decayed_float(v, log_k1, k2, log_dt):
    """``decayed`` on one Python float, to the same bits.

    The log-sum-exp is ``_logaddexp``.  Its domain is finite v > 0;
    where numpy would return inf, ``math`` may raise instead.
    """
    decayed_v = k2 / _logaddexp(k2 / v, log_k1 + log_dt)
    return v if v < decayed_v else decayed_v  # min(decayed_v, v) without its call


def released(v, step, log_k1, k2, log_dt, decay=decayed):
    """Gate voltage after one pulse: lifted by step, decayed, released.

    The gate tunnels at v + step for exp(log_dt) seconds and the coupled
    step is then taken off again.  Elementwise like ``decayed``, or on
    Python floats to the same bits with ``decay=decayed_float``: every
    pulse, on an array, a node or a cell's floats, is this expression.
    """
    return decay(v + step, log_k1, k2, log_dt) - step


def evolve(v_fg: float, params: FnParams, dt: float) -> float:
    """Gate voltage v_fg after dt seconds of undisturbed tunneling decay.

    Uses the closed form (see ``decayed``).  Exact semigroup:
    evolve(dt1) then evolve(dt2) equals evolve(dt1+dt2) to rounding.
    dt = 0 returns v_fg unchanged, bit for bit.
    """
    _require_finite_positive("v_fg", v_fg)
    _require_dt(dt)
    if dt == 0.0:
        return v_fg
    return float(decayed(v_fg, params.log_k1, params.k2, math.log(dt)))


def apply_pulse(v_fg: float, params: FnParams, pulse: Pulse, polarity: int = 1) -> float:
    """Gate voltage v_fg after one rectangular input pulse coupled onto the gate.

    The gate is displaced by polarity * coupling_ratio * amplitude,
    tunnels at the displaced voltage for the pulse duration, and is
    released.  The net effect is purely the extra (polarity +1) or
    suppressed (polarity -1) tunneling while the pulse was high: for a
    positive pulse the node ends *below* an unpulsed reference.
    """
    _require_finite_positive("v_fg", v_fg)
    if polarity not in (1, -1):
        raise ArgumentError(f"polarity must be +1 or -1, got {polarity!r}")
    step = polarity * params.coupling_ratio * pulse.amplitude
    v_up = v_fg + step
    if v_up <= 0:
        raise DomainError(
            f"pulse drives gate to {v_up:.6g} V <= 0 (amplitude {pulse.amplitude!r})"
        )
    v_down = float(released(v_fg, step, params.log_k1, params.k2, math.log(pulse.duration)))
    if v_down <= 0:
        raise DomainError(f"pulse release drives gate to {v_down:.6g} V <= 0")
    return v_down
