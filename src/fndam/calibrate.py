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

``DEFAULT_K1`` / ``DEFAULT_K2`` are the frozen least-squares solution
for the default capacitances of ``FnParams`` and the input capacitor
``energy.DEFAULT_C_IN``; ``fit_device_parameters`` re-runs the fit for
a given input capacitor (also exposed as the ``fndam calibrate``
subcommand, at the configured ``device.c_in``).  The fit is
two-dimensional: k1 spans ~160 decades over plausible k2, so it is
parameterized as (u, k2) with k1 = u * exp(k2 / v0), making u the
dimensionless initial decay speed and decoupling the two axes.
The characterization builds no cell: it runs on the float nodes of
``fndam.cell``, to the bits and errors of the one-cell array.  One
memoized composition, aged nodes -> step amplitude -> window retention,
serves ``step_amplitude``, ``weight_retention``, ``age_for_retention``
and ``evaluate_calibration``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .array import DamArray, _brentq
from .cell import _aged_nodes, _evolved_nodes, _float_weight, _solve_amplitude, decay, synchronize
from .errors import DomainError, SaturationError
from .node import _MAX_EXP_ARG, FnParams, k0_from_initial
from .energy import DEFAULT_C_IN, setpoint_write

DEFAULT_V0 = 7.5  # V, fresh floating-gate voltage

# Frozen output of fit_device_parameters().
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

# The fit targets besides the fresh retention REGIME_RETENTION[0]: the
# amplitude of the 1 mV step in each regime, and the energy of a write
# ENERGY_OFFSET_V above the trajectory after ENERGY_HORIZON_S.  Each
# must land within a factor REL_BAND of its target, the fresh retention
# within RETENTION_BAND of its own.
FACTOR_TARGETS = {"amp_fresh_v": 0.1, "amp_mid_v": 0.5, "amp_late_v": 1.0,
                  "energy_at_horizon_j": 2.5e-12}
ENERGY_HORIZON_S = 12 * 86400.0
ENERGY_OFFSET_V = 0.01
REL_BAND = 2.0
RETENTION_BAND = 0.10

_AMP_TOL_MV = 1e-6  # precompensation tolerance used for calibration
_FIT_START = (0.06, 2500.0)  # the fit's starting (u, k2)


class CalibrationResult(NamedTuple):
    params: FnParams
    cost: float
    metrics: dict

    def within_tolerance(self) -> bool:
        m = self.metrics
        return (abs(m["retention_fresh"] - REGIME_RETENTION[0]) <= RETENTION_BAND
                and all(t / REL_BAND <= m[k] <= t * REL_BAND
                        for k, t in FACTOR_TARGETS.items()))


def default_params(**overrides) -> FnParams:
    """FnParams carrying the shipped calibration (fields overridable)."""
    return FnParams(**(dict(k1=DEFAULT_K1, k2=DEFAULT_K2) | overrides))


def cell_at_age(params: FnParams, age_s: float, v0: float = DEFAULT_V0) -> DamArray:
    """Synchronized cell that has decayed undisturbed for age_s seconds."""
    return decay(synchronize(params, v0), age_s)


def step_amplitude(params: FnParams, age_s: float) -> float:
    """Pulse amplitude that programs CAL_STEP_MV on a cell of the given age."""
    return _memoized_by_age(params)[0](age_s)


def weight_retention(params: FnParams, age_s: float) -> float:
    """Fraction of a freshly programmed 1 mV weight left after RETENTION_WINDOW_S."""
    return _memoized_by_age(params)[1](age_s)


def age_for_retention(params: FnParams, fraction: float) -> float:
    """Device age at which the retention over RETENTION_WINDOW_S first reaches `fraction`.

    Retention rises monotonically with age (the device stiffens as the
    gate discharges), so the crossing is bracketed by doubling and then
    solved by Brent's method.
    """
    return _age_for(_memoized_by_age(params)[1], fraction)


def _age_for(retention, fraction: float) -> float:
    """age_for_retention over retention(age), a window retention by age.

    The root is the one ``scipy.optimize.brentq(shortfall, lo, hi,
    xtol=1e-6)`` returns on the doubled bracket, bit for bit: it comes
    from ``array._brentq``, the float replay of scipy's routine, at
    scipy's default rtol (4 eps) and maxiter (100).  A NaN retention or
    a search that does not converge raises DomainError.
    """
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
    age, why = _brentq(shortfall, lo, hi, xtol=1e-6)
    if why:
        raise DomainError(f"age search for retention {fraction!r} on [{lo!r}, {hi!r}] s "
                          f"failed: {why}")
    return age


def energy_per_update(params: FnParams, t_s: float, c_in: float) -> float:
    """Energy of a write through c_in lifting a DEFAULT_V0 gate ENERGY_OFFSET_V
    above its trajectory."""
    return setpoint_write(params, k0_from_initial(params, DEFAULT_V0),
                          DEFAULT_V0 + ENERGY_OFFSET_V, t_s, c_in)[2]


def evaluate_calibration(params: FnParams, c_in: float) -> dict:
    """All five characterization metrics for a parameter set, the energy
    written through the input capacitor c_in."""
    amplitude, retention = _memoized_by_age(params)
    age_mid = _age_for(retention, REGIME_RETENTION[1])
    age_late = _age_for(retention, REGIME_RETENTION[2])
    return {
        "amp_fresh_v": amplitude(0.0),
        "retention_fresh": retention(0.0),
        "age_mid_s": age_mid,
        "age_late_s": age_late,
        "amp_mid_v": amplitude(age_mid),
        "amp_late_v": amplitude(age_late),
        "energy_at_horizon_j": energy_per_update(params, ENERGY_HORIZON_S, c_in),
    }


def _memoized_by_age(params: FnParams, window_s: float = RETENTION_WINDOW_S):
    """step_amplitude and weight_retention (over window_s) of params, each
    age solved once.

    The one composition of aged nodes, amplitude and retention.  An age
    search evaluates its bracket's ends again as Brent's method starts,
    and the two searches of evaluate_calibration double their brackets
    over the same ages and return roots they have solved, so without
    the memo they would repeat solves.  Each age's nodes are computed
    once for both.  The memo is plain dicts, so a one-off call of
    step_amplitude or weight_retention pays no cache construction.
    """
    aged, amplitudes, retentions = {}, {}, {}

    def amplitude(age_s):
        if age_s not in amplitudes:
            aged[age_s] = _aged_nodes(params, DEFAULT_V0, age_s)
            amplitudes[age_s] = _solve_amplitude(aged[age_s], params.coupling_ratio,
                                                 CAL_STEP_MV, CAL_PULSE_DURATION_S, _AMP_TOL_MV)
        return amplitudes[age_s]

    def retention(age_s):
        if age_s not in retentions:
            step = amplitude(age_s) * params.coupling_ratio
            pulsed = _evolved_nodes(aged[age_s], CAL_PULSE_DURATION_S, (step, 0.0))
            retentions[age_s] = (_float_weight(_evolved_nodes(pulsed, window_s))
                                 / _float_weight(pulsed))
        return retentions[age_s]

    return amplitude, retention


def fit_device_parameters(v0: float = DEFAULT_V0, c_in: float = DEFAULT_C_IN) -> CalibrationResult:
    """Least-squares fit of (k1, k2) to the characterization targets.

    Residuals are dimensionless deviations: log2 ratios for the three
    amplitudes and the energy (one unit per factor REL_BAND), additive
    deviation over RETENTION_BAND for the fresh retention fraction.
    The fit starts from u = 0.06, k2 = 2500 V.
    The targets are characterized at DEFAULT_V0 (7.5 V) whatever v0 is:
    v0 only parameterizes k1 = u*exp(k2/v0).  A v0 at which the fit's
    starting k1 overflows is rejected before the fit starts (DomainError).
    The energy target is met for writes through the input capacitor c_in.
    """
    x0 = [math.log(u) for u in _FIT_START]
    _fit_params(x0, v0)  # reject a v0 the fit cannot start from

    # each point's metrics by x, so the fitted point, which the fit has
    # evaluated, is not evaluated again
    @functools.cache
    def metrics(x):
        return evaluate_calibration(_fit_params(x, v0), c_in=c_in)

    fit = _least_squares(lambda x: _residuals(metrics(tuple(x)), c_in), x0)
    return CalibrationResult(
        params=_fit_params(fit.x, v0),
        cost=float(fit.cost),
        metrics=metrics(tuple(fit.x)),
    )


def _residuals(m: dict, c_in: float) -> list[float]:
    """The fit's five residuals of the metrics m that evaluate_calibration gives."""

    def factor(key):
        ratio = m[key] / FACTOR_TARGETS[key]
        if ratio <= 0:  # an energy that underflows, at a tiny c_in
            raise DomainError(f"{key} = {m[key]!r} at c_in = {c_in!r} F is too small "
                              f"to compare with its target {FACTOR_TARGETS[key]!r}")
        return math.log(ratio) / math.log(REL_BAND)

    return [
        factor("amp_fresh_v"),
        (m["retention_fresh"] - REGIME_RETENTION[0]) / RETENTION_BAND,
        factor("amp_mid_v"),
        factor("amp_late_v"),
        factor("energy_at_horizon_j"),
    ]


def _fit_params(x, v0: float) -> FnParams:
    """FnParams at the fit's point x = (log u, log k2), k1 = u*exp(k2/v0)."""
    u, k2 = math.exp(x[0]), math.exp(x[1])
    if k2 / v0 > _MAX_EXP_ARG:
        raise DomainError(
            f"v0 = {v0!r} V: k1 = u*exp(k2/v0) exceeds float64 range at k2 = {k2:.6g} V "
            f"(k2/v0 = {k2 / v0:.1f}); the fit cannot represent this device"
        )
    return FnParams(k1=u * math.exp(k2 / v0), k2=k2)


class _LeastSquaresFit(NamedTuple):
    x: np.ndarray
    cost: float
    fun: np.ndarray
    status: int
    nfev: int


_EPS = np.finfo(float).eps
_DIFF_STEP = 1e-4  # relative step of the fit's forward-difference Jacobian
_TOL = 1e-12  # the fit's xtol, ftol and gtol


def _least_squares(fun, x0) -> _LeastSquaresFit:
    """``scipy.optimize.least_squares(fun, x0, diff_step=_DIFF_STEP,
    xtol=_TOL, ftol=_TOL, gtol=_TOL)``, replayed in numpy.

    Only the path those arguments take: method 'trf' with no bounds
    (``trf_no_bounds``), a forward-difference Jacobian with relative
    step _DIFF_STEP, x_scale 1, the linear loss, the exact trust-region
    solver (one SVD per Jacobian) and the default limit of 100 * n
    evaluations for n = len(x0).  The float operations are scipy's in
    scipy's order and on arrays of scipy's memory layout, so x, cost,
    fun, status and nfev carry its bits.  status is scipy's: 0
    evaluation limit reached, 1 gtol, 2 ftol, 3 xtol, 4 ftol and
    xtol.  A non-finite residual at a trial point, or a DomainError or
    SaturationError there, shrinks the trust region to a quarter of the
    step; one at x0, or a non-finite Jacobian that the solver must
    factor, raises DomainError where scipy raises ValueError.
    """
    norm = np.linalg.norm
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    f = np.atleast_1d(fun(x.copy()))
    if not np.all(np.isfinite(f)):
        raise DomainError("least squares: residuals are not finite at the starting point")
    J = _forward_jacobian(fun, x, f)
    m, n = J.shape
    max_nfev = 100 * n
    nfev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = norm(x)
    if delta == 0:
        delta = 1.0
    alpha = 0.0  # Levenberg-Marquardt parameter
    status = None
    while True:
        if norm(g, ord=np.inf) < _TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        if not np.all(np.isfinite(J)):
            raise DomainError(f"least squares: the Jacobian at x = {x.tolist()} is not finite")
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        # scipy.linalg.svd returns Fortran-ordered factors; the products
        # below round differently on C-ordered ones
        u, v = np.asfortranarray(u), np.asfortranarray(vt).T
        uf = u.T.dot(f)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_region_step(n, m, uf, s, v, delta, alpha)
            js = J.dot(step)
            predicted_reduction = -(0.5 * np.dot(js, js) + np.dot(step, g))
            x_new = x + step
            try:
                f_new = np.atleast_1d(fun(x_new.copy()))
            except (DomainError, SaturationError):  # no device at x_new
                f_new = np.array([math.nan])
            nfev += 1
            step_norm = norm(step)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # update_tr_radius
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta_new = delta * 2.0
            # check_termination
            ftol_met = actual_reduction < _TOL * cost and ratio > 0.25
            xtol_met = step_norm < _TOL * (_TOL + norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= delta / delta_new
            delta = delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _forward_jacobian(fun, x, f)
            g = J.T.dot(f)
    return _LeastSquaresFit(x, cost, f, 0 if status is None else status, nfev)


def _forward_jacobian(fun, x, f) -> np.ndarray:
    """scipy's 2-point ``approx_derivative`` without bounds, Fortran-ordered as scipy's."""
    sign = (x >= 0).astype(float) * 2 - 1
    h = _DIFF_STEP * sign * np.abs(x)
    h = np.where((x + h) - x == 0, _EPS**0.5 * sign * np.maximum(1.0, np.abs(x)), h)
    jt = np.empty((x.size, f.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] = x[i] + h[i]
        jt[i] = (np.atleast_1d(fun(xi)) - f) / ((x[i] + h[i]) - x[i])
    return jt.T


def _trust_region_step(n, m, uf, s, v, delta, alpha):
    """scipy's ``solve_lsq_trust_region`` from a previous alpha: (step, alpha)."""
    norm = np.linalg.norm

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -v.dot(uf / s)
        if norm(p) <= delta:
            return p, 0.0
    alpha_upper = norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -v.dot(suf / (s**2 + alpha))
    p *= delta / norm(p)
    return p, alpha
