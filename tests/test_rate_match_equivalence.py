"""The vectorized rate match against scipy's brentq, cell by cell.

``array.rate_matched_voltages`` replays the steps of scipy's ``brentq``
on numpy columns.  The oracle here is a plain ``scipy.optimize.brentq``
call per cell on ``_log_rate``, with the bracket, tolerances and
residual limit the rate match has always used.  Roots must agree bit
for bit (``==``) and failing cells by index.  Every failure path (no
sign change, a NaN residual, a residual above 1e-10, the iteration
limit) reads NaN from the solver and is reported by ``build_array`` as
an InitializationError carrying exactly the failing indices, in
ascending order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from fndam import array
from fndam.array import MismatchSpec, build_array, rate_matched_voltages
from fndam.calibrate import default_params
from fndam.errors import InitializationError
from fndam.node import FnParams

MAX_EXP_ARG = math.log(np.finfo(float).max)


def _log_rate(log_k1: float, k2: float, v: float) -> float:
    """log of the tunneling rate magnitude |dV/dt| at voltage v.

    The scalar form of the residual ``rate_matched_voltages`` evaluates
    column-wise, operation for operation.
    """
    return log_k1 - math.log(k2) + 2.0 * math.log(v) - k2 / v

sizes = st.sampled_from([1, 2, 37, 1000])
sigmas = st.floats(0.0, 0.5)
v0s = st.floats(4.5, 10.0)
seeds = st.integers(0, 2**32 - 1)


def brentq_match(set_log_k1, set_k2, reset_log_k1, reset_k2, v0, maxiter=200):
    """RESET voltage from scipy's brentq and the 1e-10 residual check; NaN on failure."""
    target = _log_rate(set_log_k1, set_k2, v0)

    def imbalance(v):
        return _log_rate(reset_log_k1, reset_k2, v) - target

    lo, hi = 0.5 * v0, min(1.5 * v0, 0.999 * reset_k2)
    try:
        root = optimize.brentq(imbalance, lo, hi, xtol=1e-14, rtol=1e-15, maxiter=maxiter)
    except (ValueError, RuntimeError):
        return math.nan
    return root if abs(imbalance(root)) <= 1e-10 else math.nan


def mismatch_factors(n, spec):
    """The documented PCG64 draw: (cell, node, [k1, k2]) multiplicative factors."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return 1.0 + spec.relative_sigma * rng.standard_normal((n, 2, 2))


def nan_positions(values):
    return [i for i, x in enumerate(values) if math.isnan(x)]


def assert_same_roots(got, want):
    assert nan_positions(got) == nan_positions(want)
    assert all(g == w for g, w in zip(got, want) if not math.isnan(w))


def oracle_array(n, nominal, v0, spec):
    """(RESET voltages, failing indices) of build_array, one brentq per cell."""
    v_reset, failed = [], []
    for i, f in enumerate(mismatch_factors(n, spec).tolist()):
        (k1s, k2s), (k1r, k2r) = (nominal.k1 * f[0][0], nominal.k2 * f[0][1]), (
            nominal.k1 * f[1][0], nominal.k2 * f[1][1])
        v = math.nan
        if min(k1s, k2s, k1r, k2r) > 0 and v0 < k2s and k2s / v0 <= MAX_EXP_ARG:
            if (k1s, k2s) == (k1r, k2r):
                v = v0
            else:
                v = brentq_match(math.log(k1s), k2s, math.log(k1r), k2r, v0)
        if not (v < k2r and k2r / v <= MAX_EXP_ARG):
            failed.append(i)
        v_reset.append(v)
    return v_reset, failed


@given(n=sizes, sigma=sigmas, v0=v0s, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_solver_matches_brentq(n, sigma, v0, seed):
    spec = MismatchSpec(relative_sigma=sigma, seed=seed)
    p = default_params()
    # keep every node physical; the solver takes any positive k1 and k2
    f = np.maximum(mismatch_factors(n, spec), 1e-3)
    log_k1 = np.array([[math.log(p.k1 * x) for x in row] for row in f[:, :, 0].tolist()])
    k2 = p.k2 * f[:, :, 1]
    got = rate_matched_voltages(log_k1[:, 0], k2[:, 0], log_k1[:, 1], k2[:, 1], v0).tolist()
    want = [brentq_match(a, b, c, d, v0)
            for a, b, c, d in zip(log_k1[:, 0].tolist(), k2[:, 0].tolist(),
                                  log_k1[:, 1].tolist(), k2[:, 1].tolist())]
    assert_same_roots(got, want)


@given(n=sizes, sigma=sigmas, v0=v0s, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_build_array_matches_brentq(n, sigma, v0, seed):
    spec = MismatchSpec(relative_sigma=sigma, seed=seed)
    nominal = default_params()
    want, failed = oracle_array(n, nominal, v0, spec)
    if failed:
        with pytest.raises(InitializationError) as info:
            build_array(n, nominal, v0, spec)
        assert list(info.value.indices) == failed
    else:
        assert_same_roots(build_array(n, nominal, v0, spec).v[:, 1].tolist(), want)


def test_upper_ends_shared_and_cut_per_cell():
    # 0.999*reset_k2 < 1.5*v0 cuts the upper end for the first cells only;
    # the others share 1.5*v0 and its one logarithm
    v0, set_k2 = 7.5, 12.0
    reset_k2 = np.array([10.5, 11.0, 11.2, 11.25, 11.4, 12.0, 13.0, 20.0])
    target = _log_rate(1.0, set_k2, v0)
    got, want = [], []
    for root in (6.0, 8.0, 10.9):
        # the RESET log_k1 that puts each cell's root at `root`
        reset_log_k1 = [target - _log_rate(0.0, k2, root) for k2 in reset_k2.tolist()]
        got += rate_matched_voltages(np.ones(reset_k2.size), np.full(reset_k2.size, set_k2),
                                     reset_log_k1, reset_k2, v0).tolist()
        want += [brentq_match(1.0, set_k2, a, k2, v0)
                 for a, k2 in zip(reset_log_k1, reset_k2.tolist())]
    cut = np.tile(0.999 * reset_k2 < 1.5 * v0, 3)
    assert cut.any() and not cut.all()
    assert not np.isnan(np.array(got)[cut]).all() and not np.isnan(np.array(got)[~cut]).all()
    assert_same_roots(got, want)


class TestFailurePaths:
    def test_no_sign_change(self):
        p = default_params()
        args = (p.log_k1, p.k2, p.log_k1, 2.0 * p.k2, 7.5)
        with pytest.raises(ValueError, match="different signs"):
            optimize.brentq(lambda v: _log_rate(*args[2:4], v) - _log_rate(*args[:2], 7.5),
                            3.75, 11.25, xtol=1e-14, rtol=1e-15, maxiter=200)
        assert np.isnan(rate_matched_voltages(*([x] for x in args[:4]), 7.5)).all()

    def test_nan_residual(self):
        # no FnParams has a NaN log_k1, so this one goes to the solver directly
        p = default_params()
        args = (math.nan, p.k2, p.log_k1, 1.01 * p.k2, 7.5)
        assert math.isnan(brentq_match(*args))
        assert np.isnan(rate_matched_voltages(*([x] for x in args[:4]), 7.5)).all()

    def test_residual_above_limit(self):
        # at v0 = 1 uV the absolute xtol of 1e-14 V stops brentq where the
        # steep log-rate difference is still far above 1e-10
        v0, k2 = 1e-6, 2e-5
        args = (0.0, k2, math.log(1.01), 1.02 * k2, v0)
        target = _log_rate(*args[:2], v0)
        root = optimize.brentq(lambda v: _log_rate(*args[2:4], v) - target,
                               0.5 * v0, 1.5 * v0, xtol=1e-14, rtol=1e-15, maxiter=200)
        assert abs(_log_rate(*args[2:4], root) - target) > 1e-10
        assert np.isnan(rate_matched_voltages(*([x] for x in args[:4]), v0)).all()

    def test_iteration_limit(self, monkeypatch):
        p = default_params()
        args = (p.log_k1, p.k2, p.log_k1 + 0.01, 1.001 * p.k2, 7.5)
        with pytest.raises(RuntimeError, match="converge"):
            optimize.brentq(lambda v: _log_rate(*args[2:4], v) - _log_rate(*args[:2], 7.5),
                            3.75, 11.25, xtol=1e-14, rtol=1e-15, maxiter=3)
        monkeypatch.setattr(array, "_MATCH_MAXITER", 3)
        assert np.isnan(rate_matched_voltages(*([x, x] for x in args[:4]), 7.5)).all()

    @pytest.mark.parametrize("nominal, v0, sigma, seed", [
        (default_params(), 7.5, 0.3, 4),  # no sign change over some brackets
        (FnParams(k1=1.0, k2=6e-4), 3e-5, 0.01, 1),  # residuals above 1e-10
    ])
    def test_mixed_array_reports_only_failing_cells(self, nominal, v0, sigma, seed):
        spec = MismatchSpec(relative_sigma=sigma, seed=seed)
        _, failed = oracle_array(40, nominal, v0, spec)
        assert 0 < len(failed) < 40
        with pytest.raises(InitializationError) as info:
            build_array(40, nominal, v0, spec)
        assert list(info.value.indices) == failed
        assert info.value.indices == tuple(sorted(info.value.indices))
