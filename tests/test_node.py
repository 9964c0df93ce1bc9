"""Single-node physics: closed form vs independent oracles, semigroup
property, pulse mechanics."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from fndam.calibrate import DEFAULT_K1, DEFAULT_K2, DEFAULT_V0, default_params
from fndam.errors import DomainError
from fndam.node import (
    FnParams,
    Pulse,
    apply_pulse,
    decayed,
    decayed_float,
    evolve,
    k0_from_initial,
    tunneling_current,
    voltage_at,
)

# Reference voltages computed independently with decimal at 60 digits:
# v(t) = k2 / ln(k1*t + exp(k2/v0)).  The nearest-float values below
# pin the closed form against a non-float evaluation path.
ORACLE_V40_DEFAULT = 7.473107480264144  # shipped calibration, t = 40 s
ORACLE_V1E6_DEFAULT = 7.287558801014483  # shipped calibration, t = 1e6 s
ORACLE_ANCHOR = 7.499999999931177  # k1=1e3, k2=300, v0=7.5, t=86400


def small_params(**overrides):
    base = dict(k1=1e3, k2=300.0)
    base.update(overrides)
    return FnParams(**base)


class TestClosedForm:
    def test_initial_state_round_trips_v0(self):
        p = default_params()
        assert k0_from_initial(p, DEFAULT_V0) == math.exp(p.k2 / DEFAULT_V0)
        assert voltage_at(p, k0_from_initial(p, DEFAULT_V0), 0.0) == DEFAULT_V0

    def test_decimal_oracle_anchor(self):
        p = small_params()
        v = evolve(7.5, p, 86400.0)
        assert abs(v - ORACLE_ANCHOR) <= 2 * math.ulp(ORACLE_ANCHOR)

    def test_decimal_oracle_shipped_calibration(self):
        p = default_params()
        v40 = evolve(7.5, p, 40.0)
        v1e6 = evolve(7.5, p, 1e6)
        assert abs(v40 - ORACLE_V40_DEFAULT) <= 2 * math.ulp(ORACLE_V40_DEFAULT)
        assert abs(v1e6 - ORACLE_V1E6_DEFAULT) <= 2 * math.ulp(ORACLE_V1E6_DEFAULT)

    def test_sub_ulp_decay_rounds_away(self):
        # k1*t = 86.4 against k0 = e^40 ~ 2.4e17 shifts the log argument
        # by ~4e-16, far below the ulp of 40; the closed form returns the
        # starting voltage bit-for-bit instead of accumulating noise.
        p = small_params(k1=1e-3)
        assert evolve(7.5, p, 86400.0) == 7.5

    def test_voltage_at_matches_evolve(self):
        p = default_params()
        for t in (0.0, 1.0, 40.0, 86400.0, 1e6):
            v_direct = voltage_at(p, k0_from_initial(p, DEFAULT_V0), t)
            v_evolved = evolve(DEFAULT_V0, p, t)
            np.testing.assert_allclose(v_evolved, v_direct, rtol=1e-14)

    def test_zero_dt_is_identity(self):
        p = default_params()
        v = math.nextafter(DEFAULT_V0, 0.0)
        assert evolve(v, p, 0.0) == v
        assert type(evolve(v, p, 0.0)) is type(evolve(v, p, 1.0)) is float


class TestOdeOracle:
    """The closed form must solve dV/dt = -(k1/k2) V^2 exp(-k2/V).

    The integrator never sees the closed form: it steps the raw ODE with
    the exponent assembled in log space (k1 alone overflows float64).
    """

    @staticmethod
    def _integrate(p, v0, t_end):
        def rhs(t, v):
            return [-(v[0] * v[0] / p.k2) * math.exp(p.log_k1 - p.k2 / v[0])]

        sol = solve_ivp(rhs, (0.0, t_end), [v0], method="RK45",
                        rtol=1e-11, atol=1e-14, dense_output=False)
        assert sol.success
        return sol.y[0, -1]

    def test_forty_seconds(self):
        p = default_params()
        v_ode = self._integrate(p, DEFAULT_V0, 40.0)
        v_closed = evolve(DEFAULT_V0, p, 40.0)
        np.testing.assert_allclose(v_closed, v_ode, rtol=1e-8)

    def test_million_seconds(self):
        p = default_params()
        v_ode = self._integrate(p, DEFAULT_V0, 1e6)
        v_closed = evolve(DEFAULT_V0, p, 1e6)
        np.testing.assert_allclose(v_closed, v_ode, rtol=1e-6)


class TestSemigroup:
    @settings(max_examples=200, deadline=None)
    @given(
        dt1=st.floats(min_value=1e-6, max_value=1e6),
        dt2=st.floats(min_value=1e-6, max_value=1e6),
        v0=st.floats(min_value=4.5, max_value=7.5),
    )
    def test_split_evolution_composes(self, dt1, dt2, v0):
        p = default_params()
        one_shot = evolve(v0, p, dt1 + dt2)
        two_step = evolve(evolve(v0, p, dt1), p, dt2)
        np.testing.assert_allclose(two_step, one_shot, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.floats(min_value=1e-3, max_value=1e7),
        v0=st.floats(min_value=4.5, max_value=7.5),
    )
    def test_voltage_never_increases(self, dt, v0):
        p = default_params()
        assert evolve(v0, p, dt) <= v0

    @settings(max_examples=100, deadline=None)
    @given(
        v0=st.floats(min_value=4.5, max_value=7.5),
        dt=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_older_node_decays_less(self, v0, dt):
        # d|dV|/dage < 0: the same window costs a stale node less voltage.
        # Below ~7.1 V the drop over short windows shrinks to tens of ulps
        # of v_fg, where the ordering can invert by one rounding step, so
        # the comparison gets a few ulps of slack.
        p = default_params()
        aged = evolve(v0, p, 1e5)
        drop_fresh = v0 - evolve(v0, p, dt)
        drop_aged = aged - evolve(aged, p, dt)
        assert drop_aged <= drop_fresh + 4 * math.ulp(v0)


# the solver's domain: finite v > 0, with log_k1 + log_dt from -50 to 800
twin_v = st.floats(min_value=1e-3, max_value=1e3)
twin_k2 = st.floats(min_value=1e-2, max_value=1e4)
twin_log_k1 = st.floats(min_value=-20.0, max_value=700.0)
twin_log_dt = st.floats(min_value=-30.0, max_value=100.0)


class TestFloatTwin:
    """``decayed_float`` gives ``decayed``'s bits on one Python float."""

    @settings(max_examples=500, deadline=None)
    @given(v=twin_v, log_k1=twin_log_k1, k2=twin_k2, log_dt=twin_log_dt)
    @example(v=7.5, log_k1=30.0, k2=300.0, log_dt=10.0)  # tie: k2/v == log_k1 + log_dt
    @example(v=0.5, log_k1=383.0, k2=350.0, log_dt=-2.0)  # k2/v = 700
    @example(v=0.5, log_k1=700.0, k2=349.9, log_dt=100.0)  # k2/v just below 700
    @example(v=5.0, log_k1=-20.0, k2=10.0, log_dt=-30.0)  # log_k1 + log_dt = -50
    @example(v=5.0, log_k1=700.0, k2=10.0, log_dt=100.0)  # log_k1 + log_dt = 800
    @example(v=3.7913281238739938, log_k1=0.0, k2=300.0, log_dt=0.0)  # min clamp acts
    def test_scalar_matches_decayed(self, v, log_k1, k2, log_dt):
        got = decayed_float(v, log_k1, k2, log_dt)
        assert type(got) is float
        assert got == float(decayed(v, log_k1, k2, log_dt))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(twin_v, twin_log_k1, twin_k2, twin_log_dt),
                    min_size=1, max_size=20))
    def test_array_elements_match_decayed(self, rows):
        v, log_k1, k2, log_dt = (np.array(c) for c in zip(*rows))
        expected = decayed(v, log_k1, k2, log_dt).tolist()
        assert [decayed_float(*row) for row in rows] == expected

    def test_tie_takes_the_log2_branch(self):
        v, log_k1, k2, log_dt = 7.5, 30.0, 300.0, 10.0
        assert k2 / v == log_k1 + log_dt
        assert decayed_float(v, log_k1, k2, log_dt) == k2 / (k2 / v + math.log(2.0))

    def test_sub_resolution_decay_is_clamped(self):
        # k2/(k2/v) rounds one ulp above v, and the decay of exp(-79) is
        # far below resolution: the gate must not rise
        v, k2 = 3.7913281238739938, 300.0
        assert k2 / (k2 / v) > v
        assert decayed_float(v, 0.0, k2, 0.0) == v


def logaddexp_via_math(x, y):
    """numpy's ``npy_logaddexp`` operations in numpy's order, through ``math``."""
    if x == y:
        return x + math.log(2.0)
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    return y + math.log1p(math.exp(tmp))


def reference_voltage_at(params, k0, t):
    """``voltage_at`` on ``logaddexp_via_math``, for a valid k0 and t."""
    if t == 0.0:
        log_arg = math.log(k0)
    else:
        log_arg = logaddexp_via_math(params.log_k1 + math.log(t), math.log(k0))
    if log_arg <= 0.0:
        raise DomainError("log(k1*t + k0) must be positive")
    return params.k2 / log_arg


def numpy_voltage_at(params, k0, t):
    """``voltage_at`` as it was on numpy's scalar ``logaddexp``, for a valid k0 and t."""
    if t == 0.0:
        log_arg = math.log(k0)
    else:
        log_arg = float(np.logaddexp(params.log_k1 + math.log(t), math.log(k0)))
    if log_arg <= 0.0:
        raise DomainError("log(k1*t + k0) must be positive")
    return params.k2 / log_arg


def value_or_error(fn, *args):
    """repr of fn's value (it tells every float apart), or (type, message) of its error."""
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return type(exc), str(exc)


class TestVoltageAtLogSumExp:
    """``voltage_at``'s float log-sum-exp gives the bits of numpy's scalar
    ``logaddexp``, which it ran on before, and of the ``math`` reference."""

    @settings(max_examples=500, deadline=None)
    @given(k1=st.floats(-50.0, 690.0).map(math.exp), k2=twin_k2,
           k0=st.floats(0.0, 709.0).map(math.exp),
           t=st.one_of(st.just(0.0), st.floats(-50.0, 700.0).map(math.exp)))
    @example(k1=1.0, k2=300.0, k0=5.0, t=5.0)  # tie: log k1 + log t == log k0
    @example(k1=1e3, k2=300.0, k0=math.exp(40.0), t=1.0)  # log k1 + log t < log k0
    @example(k1=1e300, k2=300.0, k0=2.0, t=1e300)  # log k1 + log t > log k0, about 1381
    @example(k1=1e3, k2=300.0, k0=math.exp(700.0), t=0.0)  # t = 0 takes log k0 alone
    @example(k1=1e3, k2=300.0, k0=1.0, t=0.0)  # log k0 = 0: no positive log-argument
    def test_matches_the_math_log_sum_exp(self, k1, k2, k0, t):
        params = FnParams(k1=k1, k2=k2)
        got = value_or_error(voltage_at, params, k0, t)
        assert got == value_or_error(reference_voltage_at, params, k0, t)
        assert got == value_or_error(numpy_voltage_at, params, k0, t)


class TestTunnelingCurrent:
    def test_matches_finite_difference(self):
        p = default_params()
        h = 1e-4
        v_minus = evolve(DEFAULT_V0, p, 1.0 - h)
        v_plus = evolve(DEFAULT_V0, p, 1.0 + h)
        dv_dt = (v_plus - v_minus) / (2 * h)
        i_model = tunneling_current(p, evolve(DEFAULT_V0, p, 1.0))
        np.testing.assert_allclose(i_model, -p.c_total * dv_dt, rtol=1e-6)

    def test_positive_and_increasing_in_voltage(self):
        p = default_params()
        currents = [tunneling_current(p, v) for v in (6.0, 6.5, 7.0, 7.5)]
        assert all(i > 0 for i in currents)
        assert currents == sorted(currents)

    def test_underflows_to_zero_not_error(self):
        p = default_params()
        assert tunneling_current(p, 1.0) == 0.0

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^v_fg 1e\+160 V needs a tunneling current "):
            tunneling_current(default_params(), 1e160)
        with pytest.raises(DomainError, match=r"^v_fg 1e\+160 V needs a tunneling current "):
            tunneling_current(FnParams(k1=1.0, k2=1e10, c_total=1.0, c_couple=0.1), 1e160)

    @pytest.mark.parametrize("params, v_fg", [
        # c_total * v_fg * v_fg overflows for a current of about 1e300 A
        (FnParams(k1=1.0, k2=1e10, c_total=1.0, c_couple=0.1), 1e155),
        # c_total * v_fg * v_fg / k2 overflows where exp(log k1 - k2/v_fg) underflows
        (FnParams(k1=5e-324, k2=2e300, c_total=1e10, c_couple=1.0), 1e300),
    ])
    def test_an_intermediate_overflow_returns_the_current(self, params, v_fg):
        with localcontext(prec=40):
            k1, k2, v = Decimal(params.k1), Decimal(params.k2), Decimal(v_fg)
            exact = Decimal(params.c_total) * v * v / k2 * (k1.ln() - k2 / v).exp()
        assert tunneling_current(params, v_fg) == pytest.approx(float(exact), rel=1e-12)

    def test_a_finite_product_keeps_its_bits(self):
        params = FnParams(k1=1.0, k2=1e10, c_total=1.0, c_couple=0.1)
        assert tunneling_current(params, 1e150) == 9.999999999999999e289


class TestPulses:
    def test_positive_pulse_accelerates_discharge(self):
        p = default_params()
        pulsed = apply_pulse(DEFAULT_V0, p, Pulse(amplitude=1.0, duration=0.5))
        idle = evolve(DEFAULT_V0, p, 0.5)
        assert pulsed < idle

    def test_zero_amplitude_pulse_is_idle_decay(self):
        p = default_params()
        pulsed = apply_pulse(DEFAULT_V0, p, Pulse(amplitude=0.0, duration=2.0))
        np.testing.assert_allclose(pulsed, evolve(DEFAULT_V0, p, 2.0), rtol=1e-15)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(k1=0.0, k2=300.0),
        dict(k1=-1.0, k2=300.0),
        dict(k1=1e3, k2=0.0),
        dict(k1=1e3, k2=300.0, c_total=0.0),
        dict(k1=1e3, k2=300.0, c_couple=2e-12),  # exceeds c_total
        dict(k1=math.inf, k2=300.0),
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FnParams(**kwargs)

    def test_v0_must_be_below_k2(self):
        with pytest.raises(DomainError):
            k0_from_initial(small_params(), 300.0)

    def test_unrepresentable_k0_rejected(self):
        # k2/v0 = 3000 would need exp(3000); float64 stops near 709
        with pytest.raises(DomainError):
            k0_from_initial(small_params(k2=3000.0), 1.0)

    def test_negative_dt_rejected(self):
        p = small_params()
        with pytest.raises(DomainError):
            evolve(7.5, p, -1.0)

    def test_negative_time_rejected(self):
        p = small_params()
        with pytest.raises(DomainError):
            voltage_at(p, k0_from_initial(p, 7.5), -0.1)

    def test_state_validates_fields(self):
        # a node's state is its gate voltage: positive and finite
        p = small_params()
        for v_fg in (-1.0, 0.0, math.nan, math.inf):
            message = re.escape(f"v_fg must be positive and finite, got {v_fg!r}")
            for dt in (1.0, 0.0):
                with pytest.raises(DomainError, match=message):
                    evolve(v_fg, p, dt)
            with pytest.raises(DomainError, match=message):
                apply_pulse(v_fg, p, Pulse(amplitude=0.1, duration=0.1))

    def test_release_below_zero_rejected(self):
        # at 107.5 V for 1e6 s the gate tunnels down near 7.3 V; releasing
        # the 100 V step leaves it far below zero
        with pytest.raises(DomainError, match=r"^pulse release drives gate to -92\.7\d* V <= 0$"):
            apply_pulse(7.5, default_params(), Pulse(amplitude=1000.0, duration=1e6))

    @pytest.mark.parametrize("step, message", [
        (lambda p: evolve(1e300, p, 1e-300),
         "decay of v_fg=1e+300 V by dt=1e-300 s with {p!r} is out of float range"),
        (lambda p: apply_pulse(7.5, p, Pulse(1e300, 1e-300)),
         "Pulse(amplitude=1e+300, duration=1e-300) on v_fg=7.5 V with {p!r} "
         "is out of float range"),
    ])
    def test_a_log_argument_that_underflows_to_zero_is_a_domain_error(self, step, message):
        # k2/v and k1*dt both underflow, so log(exp(k2/v) + k1*dt) rounds to 0
        p = FnParams(k1=5e-324, k2=1e-300)
        with pytest.raises(DomainError) as exc_info:
            step(p)
        assert str(exc_info.value) == message.format(p=p)

    @pytest.mark.parametrize("k0", [0.5, math.nan, math.inf])
    def test_voltage_at_rejects_k0(self, k0):
        with pytest.raises(DomainError, match=re.escape(f"k0 must be finite and >= 1, got {k0!r}")):
            voltage_at(small_params(), k0, 1.0)

    def test_pulse_validates_fields(self):
        with pytest.raises(DomainError):
            Pulse(amplitude=-0.1, duration=0.1)
        with pytest.raises(DomainError):
            Pulse(amplitude=0.1, duration=0.0)
