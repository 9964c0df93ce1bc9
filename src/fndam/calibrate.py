"""Default device calibration and the fitting procedure behind it.

The tunneling constants k1 and k2 cannot be read off a datasheet; they
are fitted so that the simulated device reproduces five measured
behaviors of a cell initialized at v0 = 7.5 V with a 0.1 coupling
ratio:

* a fresh cell programs a 1 mV weight with a ~0.1 V, 500 ms pulse and
  retains ~30% of that weight over a 40 s window;
* at the device ages where the 40 s retention has risen to 70% and to
  95%, the same 1 mV update requires ~0.5 V and ~1 V pulses;
* with a 1 pF input capacitor, the energy of a write that lifts the
  gate 10 mV above its decay trajectory grows from 5 fJ at t = 0 to
  ~2.5 pJ after 12 days.

``DEFAULT_K1`` / ``DEFAULT_K2`` are the frozen least-squares solution;
``fit_device_parameters`` re-runs the fit (also exposed as the
``fndam calibrate`` subcommand).  The fit is two-dimensional: k1 spans
~160 decades over plausible k2, so it is parameterized as
(u, k2) with k1 = u * exp(k2 / v0), making u the dimensionless initial
decay speed and decoupling the two axes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from scipy import optimize

from .array import DamArray
from .cell import decay, precompensated_amplitude, read_weight, set_pulse, synchronize
from .errors import DomainError
from .node import FnParams, Pulse, k0_from_initial
from .energy import setpoint_write

DEFAULT_V0 = 7.5  # V, fresh floating-gate voltage
DEFAULT_C_TOTAL = 1e-12  # F
DEFAULT_C_COUPLE = 1e-13  # F, so the coupling ratio is 0.1
DEFAULT_C_IN = 1e-12  # F, input capacitor charged by each write

# Frozen output of fit_device_parameters() with the default targets.
DEFAULT_K1 = 1.2425503666119493e+166  # 1/s
DEFAULT_K2 = 2887.78128  # V

# Characterization protocol: 1 mV steps from 500 ms pulses, retention
# measured over a 40 s window.
CAL_STEP_MV = 1.0
CAL_PULSE_DURATION_S = 0.5
RETENTION_WINDOW_S = 40.0

# 40 s retention fractions defining the three operating regimes, and
# the device ages (seconds since initialization) where the default
# calibration reaches them.  Regime 1 is a fresh cell; its achieved
# retention is 0.260 against the 0.30 target (inside the fit band).
REGIME_RETENTION = (0.30, 0.70, 0.95)
REGIME_AGES_S = (0.0, 77.66116299505659, 730.4733270073168)

_AMP_TOL_MV = 1e-6  # precompensation tolerance used for calibration


@dataclass(frozen=True)
class CalibrationTargets:
    """The five fit targets and their acceptance half-bands.

    Amplitude and energy targets carry multiplicative bands (value must
    land within ``rel_band`` times / divided-by the target); the fresh
    retention fraction carries an additive band.
    """

    amp_fresh_v: float = 0.1
    retention_fresh: float = 0.30
    amp_mid_v: float = 0.5
    amp_late_v: float = 1.0
    energy_at_horizon_j: float = 2.5e-12
    energy_horizon_s: float = 12 * 86400.0
    energy_offset_v: float = 0.01
    rel_band: float = 2.0
    retention_band: float = 0.10

    def __post_init__(self):
        for name in ("amp_fresh_v", "amp_mid_v", "amp_late_v",
                     "energy_at_horizon_j", "energy_horizon_s",
                     "energy_offset_v", "retention_band"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not 0 < self.retention_fresh < 1:
            raise DomainError("retention_fresh must lie in (0, 1)")
        if self.rel_band <= 1:
            raise DomainError("rel_band must exceed 1")


@dataclass(frozen=True)
class CalibrationResult:
    params: FnParams
    cost: float
    residuals: tuple[float, ...]
    metrics: dict = field(compare=False)

    def within_tolerance(self, targets: CalibrationTargets) -> bool:
        m = self.metrics
        b = targets.rel_band
        checks = [
            targets.amp_fresh_v / b <= m["amp_fresh_v"] <= targets.amp_fresh_v * b,
            abs(m["retention_fresh"] - targets.retention_fresh) <= targets.retention_band,
            targets.amp_mid_v / b <= m["amp_mid_v"] <= targets.amp_mid_v * b,
            targets.amp_late_v / b <= m["amp_late_v"] <= targets.amp_late_v * b,
            targets.energy_at_horizon_j / b
            <= m["energy_at_horizon_j"]
            <= targets.energy_at_horizon_j * b,
        ]
        return all(checks)


def default_params(**overrides) -> FnParams:
    """FnParams carrying the shipped calibration (fields overridable)."""
    base = dict(k1=DEFAULT_K1, k2=DEFAULT_K2,
                c_total=DEFAULT_C_TOTAL, c_couple=DEFAULT_C_COUPLE)
    base.update(overrides)
    return FnParams(**base)


def cell_at_age(params: FnParams, age_s: float, v0: float = DEFAULT_V0) -> DamArray:
    """Synchronized cell that has decayed undisturbed for age_s seconds."""
    cell = synchronize(params, params, v0)
    return decay(cell, age_s) if age_s > 0 else cell


def default_cell(age_s: float = 0.0) -> DamArray:
    return cell_at_age(default_params(), age_s)


def step_amplitude(params: FnParams, age_s: float,
                   target_mv: float = CAL_STEP_MV,
                   duration_s: float = CAL_PULSE_DURATION_S) -> float:
    """Pulse amplitude that programs target_mv on a cell of the given age."""
    return _amplitude(cell_at_age(params, age_s), target_mv, duration_s)


def _amplitude(cell: DamArray, target_mv: float = CAL_STEP_MV,
               duration_s: float = CAL_PULSE_DURATION_S) -> float:
    """step_amplitude on the aged cell itself."""
    return precompensated_amplitude(cell, target_mv, duration_s, tol_mv=_AMP_TOL_MV)


def weight_retention(params: FnParams, age_s: float,
                     window_s: float = RETENTION_WINDOW_S) -> float:
    """Fraction of a freshly programmed 1 mV weight left after window_s."""
    cell = cell_at_age(params, age_s)
    return _retained(cell, _amplitude(cell), window_s)


def _retained(cell: DamArray, amp: float, window_s: float) -> float:
    """weight_retention on the aged cell, given its amplitude _amplitude(cell)."""
    pulsed = set_pulse(cell, Pulse(amp, CAL_PULSE_DURATION_S))
    w_start = read_weight(pulsed).weight
    w_end = read_weight(decay(pulsed, window_s)).weight
    return w_end / w_start


def age_for_retention(params: FnParams, fraction: float,
                      window_s: float = RETENTION_WINDOW_S) -> float:
    """Device age at which the window retention first reaches `fraction`.

    Retention rises monotonically with age (the device stiffens as the
    gate discharges), so the crossing is bracketed by doubling and then
    bisected.
    """
    return _age_for(lambda age: weight_retention(params, age, window_s), fraction)


def _age_for(retention, fraction: float) -> float:
    """age_for_retention over retention(age), a window retention by age."""
    if not 0 < fraction < 1:
        raise DomainError(f"fraction must lie in (0, 1), got {fraction!r}")

    def shortfall(age):
        return retention(age) - fraction

    if shortfall(0.0) >= 0:
        return 0.0
    lo, hi = 0.0, 50.0
    while shortfall(hi) < 0:
        lo, hi = hi, hi * 2
        if hi > 1e12:
            raise DomainError(
                f"retention never reaches {fraction} within 1e12 s"
            )
    return optimize.brentq(shortfall, lo, hi, xtol=1e-6)


def energy_per_update(params: FnParams, t_s: float,
                      offset_v: float = 0.01,
                      c_in: float = DEFAULT_C_IN,
                      v0: float = DEFAULT_V0) -> float:
    """Energy of a write lifting the gate offset_v above its trajectory."""
    return setpoint_write(params, k0_from_initial(params, v0), v0 + offset_v, t_s, c_in)[2]


def evaluate_calibration(params: FnParams,
                         targets: CalibrationTargets | None = None) -> dict:
    """All five characterization metrics for a parameter set."""
    t = targets or CalibrationTargets()
    amplitude, retention = _memoized_by_age(params)
    age_mid = _age_for(retention, 0.70)
    age_late = _age_for(retention, 0.95)
    return {
        "amp_fresh_v": amplitude(0.0),
        "retention_fresh": retention(0.0),
        "age_mid_s": age_mid,
        "age_late_s": age_late,
        "amp_mid_v": amplitude(age_mid),
        "amp_late_v": amplitude(age_late),
        "energy_at_horizon_j": energy_per_update(
            params, t.energy_horizon_s, t.energy_offset_v
        ),
    }


def _memoized_by_age(params: FnParams):
    """step_amplitude and weight_retention of params, each age solved once.

    Both age searches start from the fresh cell and double their bracket
    over the same ages, and the root each returns is an age it has
    already solved, so without the memo evaluate_calibration repeats
    solves it has made.  Each age's cell is built once and serves both.
    """

    @functools.cache
    def aged(age_s):
        return cell_at_age(params, age_s)

    @functools.cache
    def amplitude(age_s):
        return _amplitude(aged(age_s))

    @functools.cache
    def retention(age_s):
        return _retained(aged(age_s), amplitude(age_s), RETENTION_WINDOW_S)

    return amplitude, retention


def fit_device_parameters(targets: CalibrationTargets | None = None,
                          initial_u: float = 0.06,
                          initial_k2: float = 2500.0,
                          v0: float = DEFAULT_V0) -> CalibrationResult:
    """Least-squares fit of (k1, k2) to the characterization targets.

    Residuals are dimensionless deviations scaled so that one unit
    corresponds to one tolerance band: log2 ratios for the three
    amplitudes and the energy (band = factor rel_band), additive
    deviation over retention_band for the fresh retention fraction.
    """
    t = targets or CalibrationTargets()
    log2 = math.log(2.0)

    def residuals(x):
        u, k2 = math.exp(x[0]), math.exp(x[1])
        p = FnParams(k1=u * math.exp(k2 / v0), k2=k2,
                     c_total=DEFAULT_C_TOTAL, c_couple=DEFAULT_C_COUPLE)
        m = evaluate_calibration(p, t)
        return [
            math.log(m["amp_fresh_v"] / t.amp_fresh_v) / log2,
            (m["retention_fresh"] - t.retention_fresh) / t.retention_band,
            math.log(m["amp_mid_v"] / t.amp_mid_v) / log2,
            math.log(m["amp_late_v"] / t.amp_late_v) / log2,
            math.log(m["energy_at_horizon_j"] / t.energy_at_horizon_j) / log2,
        ]

    x0 = [math.log(initial_u), math.log(initial_k2)]
    sol = optimize.least_squares(residuals, x0, diff_step=1e-4,
                                 xtol=1e-12, ftol=1e-12, gtol=1e-12)
    u, k2 = math.exp(sol.x[0]), math.exp(sol.x[1])
    params = FnParams(k1=u * math.exp(k2 / v0), k2=k2,
                      c_total=DEFAULT_C_TOTAL, c_couple=DEFAULT_C_COUPLE)
    return CalibrationResult(
        params=params,
        cost=float(sol.cost),
        residuals=tuple(float(r) for r in sol.fun),
        metrics=evaluate_calibration(params, t),
    )
