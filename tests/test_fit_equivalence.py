"""The numpy replay of scipy's least_squares against scipy itself.

``calibrate._least_squares`` replays the path ``fit_device_parameters``
takes through ``scipy.optimize.least_squares`` (trf without bounds, a
2-point Jacobian, the exact trust-region solver), so ``calibrate`` does
not import scipy.  The oracle is ``least_squares`` on the same
residuals; x, cost, fun, status and nfev are compared with ``==``.
Calibration fits start from random points; cheap synthetic residuals
reach the paths the default fit does not: rejected steps, non-finite
residuals at a trial point and the limit of 100 * n evaluations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import optimize

from fndam import calibrate
from fndam.calibrate import _fit_params, _least_squares, _residuals, evaluate_calibration
from fndam.energy import DEFAULT_C_IN
from fndam.errors import DomainError, FndamError


def fit_residuals(x, v0, c_in):
    """The fit's five residuals at x = (log u, log k2), as fit_device_parameters
    computes them."""
    return _residuals(evaluate_calibration(_fit_params(x, v0), c_in=c_in), c_in)


def outcome(solve):
    """(x, cost, fun, status, nfev) of a solve, or the kind of error it raised."""
    try:
        r = solve()
    except ValueError:  # scipy's ValueError, or the replay's DomainError
        return "ValueError"
    except FndamError as exc:
        return type(exc).__name__, str(exc)
    return r.x.tolist(), float(r.cost), r.fun.tolist(), int(r.status), int(r.nfev)


def both(fun, x0):
    """The replay's outcome and scipy's; numpy's floating-point warnings are not compared."""
    tol = calibrate._TOL
    with np.errstate(all="ignore"):
        replay = outcome(lambda: _least_squares(fun, x0))
        scipy = outcome(lambda: optimize.least_squares(
            fun, x0, diff_step=calibrate._DIFF_STEP, xtol=tol, ftol=tol, gtol=tol))
    return replay, scipy


@given(u0=st.floats(0.03, 0.12), k2=st.floats(2000.0, 3200.0))
@example(u0=0.06, k2=2500.0)  # the default fit
@settings(max_examples=6, deadline=None)
def test_calibration_fit_matches_least_squares(u0, k2):
    replay, scipy = both(lambda x: fit_residuals(x, 7.5, DEFAULT_C_IN), [math.log(u0), math.log(k2)])
    assert replay == scipy


def valley(a, wall, m, fill):
    """Rosenbrock's valley of steepness a plus m - 2 wavy terms; `fill` beyond radius wall."""
    def fun(x):
        if math.hypot(x[0], x[1]) > wall:
            return np.full(m, fill)
        waves = [0.5 * math.sin(k * x[0] + x[1]) for k in range(1, m - 1)]
        return np.array([a * (x[1] - x[0] ** 2), 1 - x[0], *waves])
    return fun


problems = dict(
    a=st.floats(1.0, 100.0), wall=st.floats(1.2, 6.0), m=st.integers(2, 5),
    fill=st.sampled_from([math.inf, math.nan]),
    x0=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
# one problem per path the default fit does not take
REJECTS = dict(a=100.0, wall=10.0, m=2, fill=math.inf, x0=(-1.2, 1.0))
WALL = dict(REJECTS, wall=3.9163743580730666, fill=math.nan,
            x0=(-2.724076915976906, -1.9509867726142582))
ZERO_START = dict(REJECTS, m=4, x0=(0.0, 0.0))


@given(**problems)
@example(**REJECTS)
@example(**WALL)
@example(**ZERO_START)
@settings(max_examples=150, deadline=None)
def test_synthetic_residuals_match_least_squares(a, wall, m, fill, x0):
    assume(math.hypot(*x0) < wall)
    replay, scipy = both(valley(a, wall, m, fill), list(x0))
    assert replay == scipy


def runaway(wall, fill):
    """One residual 1e45*exp(-x) whose minimum lies at x = +inf; `fill` beyond x = wall.

    From x = 2 each Gauss-Newton step of about +1 is accepted, and the
    gradient stays above gtol until x is about 117, so without a wall
    only the limit of 100 evaluations stops the fit.  A wall below
    that is met with shrinking steps, and the limit often falls on a
    non-finite trial.
    """
    def fun(x):
        return np.array([fill if x[0] > wall else 1e45 * math.exp(-x[0])])
    return fun


NO_WALL = dict(wall=math.inf, fill=math.inf)
LIMIT_AT_WALL = dict(wall=95.12169747803817, fill=math.inf)


@given(wall=st.floats(80.0, 110.0), fill=st.sampled_from([math.inf, math.nan]))
@example(**NO_WALL)
@example(**LIMIT_AT_WALL)
@settings(max_examples=60, deadline=None)
def test_evaluation_limit_matches_least_squares(wall, fill):
    replay, scipy = both(runaway(wall, fill), [2.0])
    assert replay == scipy


def path_counts(monkeypatch, fun, x0):
    """The replay on a problem: rejected finite and non-finite trial steps, the fit, and
    whether each evaluation outside the Jacobian was finite."""
    jacobian = calibrate._forward_jacobian
    state = {"in_jacobian": False, "jacobians": 0}
    evaluations = []

    def spy(*args):
        state["in_jacobian"] = True
        state["jacobians"] += 1
        try:
            return jacobian(*args)
        finally:
            state["in_jacobian"] = False

    monkeypatch.setattr(calibrate, "_forward_jacobian", spy)

    def counted(x):
        f = fun(x)
        if not state["in_jacobian"]:
            evaluations.append(bool(np.all(np.isfinite(f))))
        return f

    fit = _least_squares(counted, list(x0))
    trials = evaluations[1:]  # the first evaluation is x0
    accepted = state["jacobians"] - 1
    non_finite = trials.count(False)
    return len(trials) - accepted - non_finite, non_finite, fit, evaluations


def valley_counts(monkeypatch, problem):
    fun = valley(problem["a"], problem["wall"], problem["m"], problem["fill"])
    return path_counts(monkeypatch, fun, problem["x0"])


def test_examples_reach_each_path(monkeypatch):
    rejected, _, fit, _ = valley_counts(monkeypatch, REJECTS)
    assert rejected > 0 and fit.status > 0
    _, non_finite, _, _ = valley_counts(monkeypatch, WALL)
    assert non_finite > 0
    # every trial step accepted until the limit stops the outer loop
    rejected, non_finite, fit, _ = path_counts(monkeypatch, runaway(**NO_WALL), [2.0])
    assert (rejected, non_finite, fit.status, fit.nfev) == (0, 0, 0, 100)
    # the limit stops the inner loop on a non-finite trial
    _, _, fit, evaluations = path_counts(monkeypatch, runaway(**LIMIT_AT_WALL), [2.0])
    assert (fit.status, fit.nfev, evaluations[-1]) == (0, 100, False)


def test_non_finite_start_raises_domain_error():
    fun = valley(10.0, 1.0, 3, math.inf)
    with pytest.raises(DomainError, match="starting point"):
        _least_squares(fun, [2.0, 0.0])
    with pytest.raises(ValueError, match="not finite in the initial point"), \
            np.errstate(all="ignore"):
        optimize.least_squares(fun, [2.0, 0.0], diff_step=1e-4)


def test_a_step_that_rounds_to_zero_meets_ftol():
    """A residual of 1e-150 on a slope of 1e200: the Gauss-Newton step of
    -1e-350 rounds to 0, so the predicted and the actual reduction are both
    0.  least_squares then takes the step's ratio as 1, which meets ftol as
    well as xtol: status 4, where a ratio of 0 would give 3."""
    def fun(x):
        return np.array([1e-150 + 1e200 * (x[0] - 1.0)])

    replay, scipy = both(fun, [1.0])
    assert replay == scipy
    assert replay[3] == 4
