"""The float replay of scipy's brentq against scipy itself.

``array._brentq`` replays the steps of scipy's C ``brentq`` on Python
floats, so the calibration age search (``calibrate._age_for``) does not
import scipy.  The oracle here is ``scipy.optimize.brentq`` on the same
function and bracket; roots are compared with ``==`` and failures by
kind.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

from fndam.array import _BRENT_RTOL, _brentq
from fndam.calibrate import _age_for, _memoized_by_age, default_params
from fndam.errors import DomainError, FndamError


def scipy_root(f, lo, hi, **kw):
    """brentq's root, or the exception type it raises."""
    try:
        return optimize.brentq(f, lo, hi, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def scipy_age_for(retention, fraction):
    """_age_for's doubling bracket, then scipy's brentq at xtol 1e-6."""
    def shortfall(age):
        return retention(age) - fraction

    if shortfall(0.0) >= 0:
        return 0.0
    lo, hi = 0.0, 50.0
    while shortfall(hi) < 0:
        lo, hi = hi, hi * 2
        if hi > 1e12:
            return DomainError
    return scipy_root(shortfall, lo, hi, xtol=1e-6)


def outcome(fn, *args):
    """fn's value, or its exception as (type, message)."""
    try:
        return fn(*args)
    except (FndamError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


fractions = st.floats(0.01, 0.99)


@given(log_k1_shift=st.floats(-3.0, 3.0), k2_factor=st.floats(0.97, 1.03),
       fraction=fractions)
@settings(max_examples=40, deadline=None)
def test_age_search_matches_brentq_on_device_retention(log_k1_shift, k2_factor, fraction):
    p = default_params()
    try:
        params = default_params(k1=p.k1 * math.exp(log_k1_shift), k2=p.k2 * k2_factor)
    except DomainError:
        assume(False)
    _, retention = _memoized_by_age(params)  # one memo, so both sides see the same floats
    want = outcome(scipy_age_for, retention, fraction)
    got = outcome(_age_for, retention, fraction)
    if want in (ValueError, RuntimeError):
        assert got[0] is DomainError and repr(fraction) in got[1]
    elif want is DomainError:
        assert got[0] is DomainError and "never reaches" in got[1]
    else:
        assert got == want


@given(scale=st.floats(1e-3, 1e9), power=st.floats(0.2, 5.0), floor=st.floats(0.0, 0.5),
       fraction=fractions)
@settings(max_examples=200, deadline=None)
def test_age_search_matches_brentq_on_smooth_retention(scale, power, floor, fraction):
    def retention(age):
        return floor + (1.0 - floor) * (age / scale) ** power / (1.0 + (age / scale) ** power)

    want = scipy_age_for(retention, fraction)
    got = outcome(_age_for, retention, fraction)
    if want in (ValueError, RuntimeError, DomainError):
        assert got[0] is DomainError
    else:
        assert got == want


@given(root=st.floats(-10.0, 10.0), power=st.sampled_from([1, 3, 5]),
       lo=st.floats(-1e6, -10.0), hi=st.floats(10.0, 1e6),
       xtol=st.floats(1e-14, 1e-2), rtol_factor=st.floats(1.0, 1e6),
       maxiter=st.integers(0, 120), flip=st.booleans())
@settings(max_examples=300, deadline=None)
def test_replay_matches_brentq_on_odd_powers(root, power, lo, hi, xtol, rtol_factor, maxiter,
                                             flip):
    sign = -1.0 if flip else 1.0

    def f(x):
        return sign * (x - root) ** power

    rtol = _BRENT_RTOL * rtol_factor
    want = scipy_root(f, lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter)
    got, why = _brentq(f, lo, hi, xtol, rtol, maxiter)
    if want is RuntimeError:
        assert math.isnan(got) and "no convergence" in why
    else:
        assert (got, why) == (want, None)


def test_replay_reports_no_sign_change_and_nan():
    assert scipy_root(lambda x: x * x + 1.0, -1.0, 1.0) is ValueError
    root, why = _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, _BRENT_RTOL, 100)
    assert math.isnan(root) and "no sign change" in why
    values = []

    def nan_inside(x):
        values.append(math.nan if 0 < x < 1 else x - 0.5)
        return values[-1]

    assert scipy_root(nan_inside, 0.0, 2.0) is ValueError
    values.clear()
    root, why = _brentq(nan_inside, 0.0, 2.0, 1e-12, _BRENT_RTOL, 100)
    assert math.isnan(root) and "NaN" in why
    assert [math.isnan(v) for v in values] == [False] * (len(values) - 1) + [True]


def test_a_nan_residual_at_the_lower_end_stops_the_search():
    calls = []

    def f(x):
        calls.append(x)
        return math.nan if x == 0.0 else x - 0.5

    assert scipy_root(f, 0.0, 2.0) is ValueError
    assert calls == [0.0]
    calls.clear()
    root, why = _brentq(f, 0.0, 2.0, 1e-12)
    assert math.isnan(root) and why == "residual at 0.0 is NaN"
    assert calls == [0.0]


def test_a_root_at_the_lower_end_is_returned():
    def f(x):
        return x + 1.25

    assert _brentq(f, -1.25, 3.0, 1e-12) == (optimize.brentq(f, -1.25, 3.0, xtol=1e-12), None)
    assert _brentq(f, -1.25, 3.0, 1e-12) == (-1.25, None)


def test_an_extrapolation_that_divides_by_zero_bisects():
    """Residuals of about 1e-250 make the product of the two slopes underflow
    to 0: Python raises ZeroDivisionError where C's quotient is inf or NaN,
    and both then bisect."""
    def f(x):
        return 1e-250 * (x - 0.3) ** 3

    assert _brentq(f, -2.0, 3.0, 1e-12) == (optimize.brentq(f, -2.0, 3.0, xtol=1e-12), None)


class TestAgeSearchErrors:
    def test_nan_retention_names_the_fraction(self):
        def retention(age):
            return 0.2 if age == 0.0 else math.nan

        assert scipy_age_for(retention, 0.7) is ValueError
        with pytest.raises(DomainError, match=r"retention 0\.7 .*NaN"):
            _age_for(retention, 0.7)

    def test_no_convergence_names_the_fraction(self):
        # a steep cubic crossing in the doubled bracket [819200, 1638400] s:
        # brentq spends its 100 steps near the flat inflection
        def retention(age):
            return 0.5 + (age - 1.2345e6) ** 3

        assert scipy_age_for(retention, 0.5) is RuntimeError
        with pytest.raises(DomainError, match=r"retention 0\.5 .*no convergence in 100 steps"):
            _age_for(retention, 0.5)

    def test_errors_of_the_retention_itself_pass_through(self):
        def retention(age):
            if age > 60:
                raise FndamError("retention failed")
            return age / 100

        with pytest.raises(FndamError, match="retention failed"):
            _age_for(retention, 0.7)
