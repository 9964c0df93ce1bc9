"""Differential cell mechanics: synchronization, pulse symmetry, decay
schedules, the linearized update, and amplitude precompensation."""

import math
import re
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fndam.array import NO_MISMATCH, MismatchSpec, batch_pulse, build_array, rate_matched_voltages
from fndam.calibrate import DEFAULT_K1, REGIME_AGES_S, cell_at_age, default_params
from fndam.cell import (
    _evolved_nodes,
    _float_nodes,
    _solve_amplitude,
    common_mode_step,
    decay,
    decay_schedule,
    discrete_update,
    precompensated_amplitude,
    read_weight,
    reset_pulse,
    set_pulse,
    synchronize,
)
from fndam.errors import ArgumentError, DomainError, SaturationError, StepSizeError
from fndam.node import FnParams, Pulse, k0_from_initial, voltage_at


def small_params(**overrides):
    kw = dict(k1=1e3, k2=300.0)
    kw.update(overrides)
    return FnParams(**kw)


def log_rate(params, v):
    return params.log_k1 - math.log(params.k2) + 2.0 * math.log(v) - params.k2 / v


def rate_matched(set_p, reset_p, v0):
    """The RESET voltage at which reset_p tunnels as fast as set_p at v0; NaN if none."""
    return rate_matched_voltages([set_p.log_k1], [set_p.k2], [reset_p.log_k1], [reset_p.k2],
                                 v0).item()


def cell_with_weight(params, w_set, weight_mv):
    """Two-node cell at explicit voltages: weight = 1000 * (v_reset - v_set)."""
    return replace(synchronize(params, w_set), v=[[w_set, w_set + weight_mv / 1000.0]])


class TestSynchronize:
    def test_identical_params_start_balanced(self):
        params = default_params()
        cell = synchronize(params, 7.5)
        assert cell.v[0, 0] == 7.5
        assert cell.v[0, 1] == 7.5
        assert read_weight(cell) == 0.0
        assert cell.global_clock == 0.0

    @pytest.mark.parametrize("eps", [1e-4, -1e-4, 1e-3])
    def test_mismatched_k2_rates_match(self, eps):
        set_p = default_params()
        reset_p = default_params(k2=set_p.k2 * (1.0 + eps))
        r_set = log_rate(set_p, 7.5)
        r_reset = log_rate(reset_p, rate_matched(set_p, reset_p, 7.5))
        assert abs(r_reset - r_set) < 1e-10

    def test_mismatched_k2_offset_first_order(self):
        # balance dV/dt for k2 -> k2*(1+eps): v_reset = v0 * (1 + eps*(1+R)/(2+R))
        # to first order, with R = k2/v0
        eps = 1e-4
        v0 = 7.5
        set_p = default_params()
        reset_p = default_params(k2=set_p.k2 * (1.0 + eps))
        ratio = set_p.k2 / v0
        predicted = v0 * eps * (1.0 + ratio) / (2.0 + ratio)
        np.testing.assert_allclose(rate_matched(set_p, reset_p, v0) - v0, predicted, rtol=1e-2)

    def test_mismatched_k1_offset_first_order(self):
        # k1 -> k1*(1+eps) balances at v_reset = v0 * (1 - eps/(2+R)): a much
        # smaller offset than the k2 case because k1 enters the rate linearly
        eps = 1e-3
        v0 = 7.5
        set_p = default_params()
        reset_p = default_params(k1=set_p.k1 * (1.0 + eps))
        v_reset = rate_matched(set_p, reset_p, v0)
        ratio = set_p.k2 / v0
        predicted = -v0 * eps / (2.0 + ratio)
        np.testing.assert_allclose(v_reset - v0, predicted, rtol=1e-2)
        assert abs(v_reset - v0) < abs(
            rate_matched(set_p, default_params(k2=set_p.k2 * (1.0 + eps)), v0) - v0
        )

    def test_unmatchable_mismatch_rejected(self):
        set_p = default_params()
        reset_p = default_params(k2=set_p.k2 * 2.0)
        assert math.isnan(rate_matched(set_p, reset_p, 7.5))

    def test_cell_is_a_one_cell_array(self):
        p = default_params(k1=DEFAULT_K1 * 1.001)
        cell = synchronize(p, 7.5)
        assert len(cell) == 1
        assert cell.nominal_params == p
        assert cell.mismatch == MismatchSpec(relative_sigma=0.0)
        assert cell.v0 == 7.5
        assert cell.log_k1.tolist() == [[p.log_k1, p.log_k1]]
        assert cell.k2.tolist() == [[p.k2, p.k2]]
        assert not cell.v.flags.writeable
        assert cell == build_array(1, p, 7.5)

    def test_both_nodes_are_validated(self):
        p = small_params()
        with pytest.raises(DomainError, match="v0 must satisfy"):
            synchronize(p, 300.0)  # v0 = k2
        with pytest.raises(DomainError, match="exceeds float64 range"):
            synchronize(small_params(k2=3000.0), 1.0)


class TestReadWeight:
    def test_timestamp_tracks_cell_clock(self):
        cell = cell_at_age(default_params(), 0.0)
        assert cell.global_clock == 0.0
        aged = decay(cell, 12.5)
        assert aged.global_clock == 12.5

    @pytest.mark.parametrize("mismatch", [NO_MISMATCH, MismatchSpec(relative_sigma=0.01, seed=5)])
    def test_the_reading_is_the_weight_column_as_a_float(self, mismatch):
        cell = build_array(1, default_params(), 7.5, mismatch)
        cell = set_pulse(decay(cell, 77.0), Pulse(amplitude=0.5, duration=0.5))
        weight = read_weight(cell)
        assert type(weight) is float and weight != 0.0
        assert weight.hex() == cell.weights().tolist()[0].hex()

    def test_multi_cell_array_rejected(self):
        # every one-cell operation checks the size first; precompensated_amplitude
        # and energy.retention_time have their own cases
        pair = build_array(2, default_params(), 7.5)
        pulse = Pulse(amplitude=0.17, duration=0.5)
        for operation in (read_weight, lambda a: decay(a, 1.0), lambda a: set_pulse(a, pulse),
                          lambda a: reset_pulse(a, pulse), lambda a: common_mode_step(a, 0.01)):
            with pytest.raises(ArgumentError, match="expected a one-cell array, got 2 cells"):
                operation(pair)


class TestPulseSymmetry:
    def test_set_and_reset_are_mirror_images_when_balanced(self):
        cell = cell_at_age(default_params(), 0.0)
        pulse = Pulse(amplitude=0.17, duration=0.5)
        dw_set = read_weight(set_pulse(cell, pulse))
        dw_reset = read_weight(reset_pulse(cell, pulse))
        assert dw_set > 0.0
        assert dw_reset < 0.0
        np.testing.assert_allclose(dw_set, -dw_reset, rtol=1e-9)

    def test_set_then_reset_cancels(self):
        # same amplitude back-to-back: residual well under 1% of the step
        cell = cell_at_age(default_params(), 0.0)
        pulse = Pulse(amplitude=0.17473983764648438, duration=0.5)
        step = read_weight(set_pulse(cell, pulse))
        after = reset_pulse(set_pulse(cell, pulse), pulse)
        assert abs(read_weight(after)) < 0.01 * step

    def test_polarity_dispatch(self):
        cell = cell_at_age(default_params(), 0.0)
        pulse = Pulse(amplitude=0.2, duration=0.1)
        assert batch_pulse(cell, [(0, 1, pulse)]) == set_pulse(cell, pulse)
        assert batch_pulse(cell, [(0, -1, pulse)]) == reset_pulse(cell, pulse)
        for polarity in (0, True, False, np.True_):  # True == 1, but a bool is no polarity
            with pytest.raises(ArgumentError, match="polarity must be"):
                batch_pulse(cell, [(0, polarity, pulse)])

    def test_clock_advances_by_pulse_duration(self):
        cell = cell_at_age(default_params(), 0.0)
        pulse = Pulse(amplitude=0.2, duration=0.25)
        assert set_pulse(cell, pulse).global_clock == 0.25
        assert reset_pulse(cell, pulse).global_clock == 0.25
        assert decay(cell, 3.0).global_clock == 3.0


class TestCommonMode:
    def test_balanced_cell_is_exactly_immune(self):
        cell = cell_at_age(default_params(), 0.0)
        bumped = common_mode_step(cell, 0.1)
        assert read_weight(bumped) == 0.0
        assert bumped.global_clock == cell.global_clock

    @given(dv=st.floats(-0.5, 0.5), w_mv=st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_preserved_to_rounding(self, dv, w_mv):
        cell = cell_with_weight(default_params(), 7.5, w_mv)
        before = read_weight(cell)
        after = read_weight(common_mode_step(cell, dv))
        assert abs(after - before) < 1e-9

    def test_non_positive_voltage_rejected(self):
        with pytest.raises(DomainError):
            common_mode_step(cell_at_age(default_params(), 0.0), -7.5)
        with pytest.raises(DomainError):
            common_mode_step(cell_at_age(default_params(), 0.0), math.inf)


class TestDecay:
    @given(
        dt=st.floats(0.0, 1e6),
        v0=st.floats(4.5, 7.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_weight_is_a_fixed_point(self, dt, v0):
        params = default_params()
        cell = synchronize(params, v0)
        assert read_weight(decay(cell, dt)) == 0.0

    def test_weight_magnitude_shrinks(self):
        cell = cell_with_weight(default_params(), 7.5, 5.0)
        w0 = read_weight(cell)
        w1 = read_weight(decay(cell, 10.0))
        assert 0.0 < w1 < w0

    def test_sign_preserved(self):
        cell = cell_with_weight(default_params(), 7.5, -5.0)
        w1 = read_weight(decay(cell, 10.0))
        assert -5.0 < w1 < 0.0

    @pytest.mark.parametrize("dt", [0.0, -0.0])
    def test_float_evolve_by_zero_returns_the_nodes(self, dt):
        nodes = _float_nodes(cell_with_weight(default_params(), 7.5, 5.0))
        assert _evolved_nodes(nodes, dt) is nodes

    @pytest.mark.parametrize("dt", [-5e-324, -1.0, math.nan, math.inf, -math.inf])
    def test_float_evolve_rejects_dt_as_decay_does(self, dt):
        cell = cell_with_weight(default_params(), 7.5, 5.0)
        with pytest.raises(DomainError) as on_cell:
            decay(cell, dt)
        with pytest.raises(DomainError, match=re.escape(str(on_cell.value))):
            _evolved_nodes(_float_nodes(cell), dt)

    @pytest.mark.parametrize("cell, polarity", [(0, 1), (1, -1)])
    def test_float_pulse_names_the_node_it_drives_negative(self, cell, polarity):
        array = build_array(2, default_params(), 7.5)
        pulse = Pulse(100.0, 1.0)  # a 10 V coupled step, released below 0 V
        with pytest.raises(DomainError) as on_array:
            batch_pulse(array, [(cell, polarity, pulse)])
        steps = [0.0] * 4
        steps[2 * cell + (polarity < 0)] = array.nominal_params.coupling_ratio * pulse.amplitude
        with pytest.raises(DomainError, match=f"^{re.escape(str(on_array.value))}$"):
            _evolved_nodes(_float_nodes(array), pulse.duration, steps)


class TestDiscreteUpdate:
    def test_matches_two_node_simulation(self):
        # the linearized step tracks the full differential pair within 1%
        # for |w| <= 5 mV, W_S >= 6 V, dt <= 1 s
        params = default_params()
        rng = np.random.default_rng(42)
        for _ in range(25):
            w_mv = float(rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0]))
            w_set = float(rng.uniform(6.0, 7.5))
            dt = float(rng.uniform(0.01, 1.0))
            cell = cell_with_weight(params, w_set, w_mv)
            w_sim = read_weight(decay(cell, dt))
            w_lin = discrete_update(w_mv, w_set, params, dt)
            assert abs(w_lin - w_sim) <= 0.01 * abs(w_sim)

    def test_zero_dt_is_identity(self):
        params = default_params()
        assert discrete_update(3.0, 7.5, params, 0.0) == 3.0

    def test_oversized_step_rejected(self):
        with pytest.raises(StepSizeError):
            discrete_update(1.0, 7.5, default_params(), 100.0)

    def test_zero_dt_is_identity_where_the_rate_overflows(self):
        # exp(log k1 - k2/w_set) * (2*w_set + k2) / k2 overflows, and inf * 0 s is NaN
        params = FnParams(k1=1e308, k2=1.0)
        for w_mv in (1.0, -0.0):
            assert repr(discrete_update(w_mv, 1e300, params, 0.0)) == repr(w_mv)

    def test_a_sum_that_overflows_in_a_factor_below_1_is_no_step_size_error(self):
        # 2*w_set + k2 overflows before the division by k2; the factor is
        # exp(-1) * (2*(w_set/k2) + 1) * 0.1
        w = discrete_update(1.0, 1e308, FnParams(k1=1.0, k2=1e308), 0.1)
        assert w == pytest.approx((1 - 0.11036383235143271) * 1.0, rel=1e-12)
        # the same sum in a factor above 1 is still one
        with pytest.raises(StepSizeError, match=r"^decay factor 1.1e\+299 >= 1 at dt=0.1"):
            discrete_update(1.0, 1e308, FnParams(k1=1e300, k2=1e308), 0.1)

    def test_nan_factor_is_a_domain_error(self):
        # exp(log k1 - k2/w_set) underflows to 0 and 2*w_set + k2 overflows to inf
        params = FnParams(k1=5e-324, k2=1e308)
        with pytest.raises(DomainError, match=r"^decay factor at w_set=5e\+307 V is out of "):
            discrete_update(1.0, 5e307, params, 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(w_set=0.0),
        dict(w_set=-1.0),
        dict(w_set=math.nan),
        dict(dt=-1.0),
        dict(dt=math.nan),
        dict(w_mv=math.nan),
    ])
    def test_domain_validation(self, kwargs):
        args = dict(w_mv=1.0, w_set=7.5, params=default_params(), dt=0.1)
        args.update(kwargs)
        with pytest.raises(DomainError, match=f"^{next(iter(kwargs))} must be "):
            discrete_update(**args)


def decay_factor(params, k0, n, dt):
    """alpha*eta_n, step n of the decay schedule."""
    return float(decay_schedule(params, k0, dt, n + 1)[n])


def alpha_eta(params, k0, n, dt):
    """alpha*eta_n from its formula, on one float: a reference for decay_schedule."""
    if n == 0:  # logaddexp(log 0, log k0) is log k0
        log_eff = math.log(k0)
    else:
        log_eff = float(np.logaddexp(params.log_k1 + math.log(n * dt), math.log(k0)))
    return math.exp(params.log_k1 - log_eff) * (2.0 / log_eff + 1.0) * dt


class TestDecayFactor:
    def test_matches_linearization_along_trajectory(self):
        # at step n the factor equals the discrete_update decay term
        # evaluated at the undisturbed node voltage v_n
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        dt = 1.0
        for n in [0, 1, 2, 10, 100, 10_000]:
            v_n = voltage_at(params, k0, n * dt)
            expected = (
                math.exp(params.log_k1 - params.k2 / v_n)
                * (2.0 * v_n + params.k2)
                / params.k2
                * dt
            )
            np.testing.assert_allclose(
                decay_factor(params, k0, n, dt), expected, rtol=1e-12
            )

    def test_strictly_decreasing(self):
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        seq = decay_schedule(params, k0, 1.0, 200).tolist()
        assert all(b < a for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("n", [1, 10, 1_000, 1_000_000])
    def test_learning_rate_bound(self, n):
        # n * factor(n) <= 1 + 2/log(k1*n*dt + k0)
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        dt = 1.0
        log_eff = np.logaddexp(params.log_k1 + math.log(n * dt), math.log(k0))
        bound = 1.0 + 2.0 / log_eff
        assert n * decay_factor(params, k0, n, dt) <= bound * (1.0 + 1e-12)

    def test_zero_dt_and_zero_n(self):
        # step 0 decays; a schedule of zero-length steps is not one
        params = small_params()
        k0 = math.exp(40.0)
        assert decay_factor(params, k0, 0, 1.0) > 0.0
        with pytest.raises(DomainError, match="^dt_step must be positive and finite, got 0.0$"):
            decay_schedule(params, k0, 0.0, 5)

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=-1),
        dict(k0=1.0),
        dict(k0=math.nan),
        dict(dt_step=-0.5),
    ])
    def test_domain_validation(self, kwargs):
        args = dict(params=small_params(), k0=math.exp(40.0), dt_step=1.0, n_steps=2)
        args.update(kwargs)
        with pytest.raises(DomainError):
            decay_schedule(**args)


class TestDecaySchedule:
    def test_agrees_with_scalar_factors(self):
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        sched = decay_schedule(params, k0, dt_step=0.5, n_steps=64)
        scalar = [alpha_eta(params, k0, n, 0.5) for n in range(64)]
        np.testing.assert_allclose(sched, scalar, rtol=1e-14)
        assert len(sched) == 64

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=0),
        dict(n_steps=-3),
        dict(dt_step=0.0),
        dict(dt_step=math.inf),
        dict(k0=0.5),
        dict(n_steps=2.5),
    ])
    def test_validation(self, kwargs):
        args = dict(params=small_params(), k0=math.exp(40.0), dt_step=1.0, n_steps=4)
        args.update(kwargs)
        with pytest.raises(DomainError):
            decay_schedule(**args)


class TestRobbinsMonro:
    """The decay schedule is a Robbins-Monro step size: the sum of
    alpha*eta_n grows like log n and the sum of its squares converges.

    With default params, v0 = 7.5 V and dt = 1 s, alpha*eta_n equals
    g_n / (n + c) with c = k0/(k1*dt) and g_n = 1 + 2/log(k1*n*dt + k0),
    which falls slowly from 1 + 2/log(k0).  The expected sums come from
    decimal arithmetic, not from the schedule: the first HEAD terms
    exactly, every later range [a, b) bounded below by g_(b-1) times the
    integral of 1/(x + c) over [a, b] and above by g_a times its
    integral over [a - 1, b - 1], and likewise for 1/(x + c)^2.
    """

    N = 10**6
    HEAD = 1000

    @pytest.fixture(scope="class")
    def case(self):
        params = default_params()
        k0 = k0_from_initial(params, 7.5)
        seq = decay_schedule(params, k0, 1.0, self.N)
        k1, k0d = Decimal(params.k1), Decimal(k0)  # decimal's 28 digits throughout

        def g(n):
            return 1 + 2 / (k1 * n + k0d).ln()

        return params, k0, seq, g, k0d / k1

    def test_terms_match_decimal(self, case):
        _, _, seq, g, c = case
        # exp(log k1 - log(k1*n*dt + k0)) cancels two logs near 385, so a
        # term carries a few hundred ulp of relative error
        for n in (0, 1, 10, 1_000, self.N - 1):
            exact = float(g(n) / (n + c))
            assert seq[n] == pytest.approx(exact, rel=2e-13, abs=0)

    def test_sum_grows_by_about_ln10_per_decade(self, case):
        _, _, seq, g, c = case
        for a in (10**2, 10**3, 10**4, 10**5):
            b = 10 * a
            lower = float(g(b - 1) * ((b + c) / (a + c)).ln())
            upper = float(g(a) * ((b - 1 + c) / (a - 1 + c)).ln())
            grown = math.fsum(seq[a:b])
            assert lower * (1 - 1e-13) <= grown <= upper * (1 + 1e-13)
            if a >= 10**3:  # past the offset c, each decade adds (1 + 2/log) * ln 10
                assert abs(grown - math.log(10)) < 0.015
        head = sum(g(n) / (n + c) for n in range(self.HEAD))
        assert math.fsum(seq[:self.HEAD]) == pytest.approx(float(head), rel=1e-13, abs=0)

    def test_sum_of_squares_converges(self, case):
        _, _, seq, g, c = case
        a, b = self.HEAD, self.N
        head = sum((g(n) / (n + c)) ** 2 for n in range(a))
        lower = float(head + g(b - 1) ** 2 * (1 / (a + c) - 1 / (b + c)))
        upper = float(head + g(a) ** 2 * (1 / (a - 1 + c) - 1 / (b - 1 + c)))
        total = math.fsum(seq**2)
        assert lower * (1 - 1e-13) <= total <= upper * (1 + 1e-13)
        assert total == pytest.approx(0.0786, abs=1e-4)
        # every term beyond N adds less than the whole tail bound
        assert float(g(b) ** 2 / (b - 1 + c)) < 2e-6

def amplitude_within(cell, target_dw, duration, tol_mv):
    """precompensated_amplitude at tolerance tol_mv instead of 1e-3 mV."""
    return _solve_amplitude(_float_nodes(cell), cell.nominal_params.coupling_ratio,
                            target_dw, duration, tol_mv)


class TestPrecompensatedAmplitude:
    def test_zero_target_needs_no_pulse(self):
        assert precompensated_amplitude(cell_at_age(default_params(), 0.0), 0.0, 0.5) == 0.0

    def test_achieves_target_within_tolerance(self):
        cell = cell_at_age(default_params(), 0.0)
        amp = precompensated_amplitude(cell, 1.0, 0.5)
        dw = read_weight(set_pulse(cell, Pulse(amplitude=amp, duration=0.5)))
        assert abs(dw - 1.0) <= 1e-3 + 1e-9

    def test_reset_polarity_lowers_weight(self):
        # the SET amplitude serves RESET pulses too: on a balanced cell the
        # two polarities are mirror images
        cell = cell_at_age(default_params(), 0.0)
        amp = precompensated_amplitude(cell, 2.0, 0.5)
        after = batch_pulse(cell, [(0, -1, Pulse(amplitude=amp, duration=0.5))])
        np.testing.assert_allclose(read_weight(after), -2.0, atol=2e-3)

    def test_amplitude_grows_with_age(self):
        # deeper into the decay the same 1 mV step needs a stronger pulse;
        # the three retention regimes land near 0.1 / 0.5 / 1.0 V
        params = default_params()
        amps = [
            precompensated_amplitude(cell_at_age(params, age), 1.0, 0.5)
            for age in REGIME_AGES_S
        ]
        assert amps[0] < amps[1] < amps[2]
        for amp, nominal in zip(amps, (0.1, 0.5, 1.0)):
            assert nominal / 2.0 <= amp <= nominal * 2.0

    def test_unreachable_target_raises(self):
        with pytest.raises(SaturationError):
            precompensated_amplitude(cell_at_age(default_params(), 1e7), 5e3, 1e-3)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            precompensated_amplitude(cell_at_age(default_params(), 0.0), -1.0, 0.5)

    def test_multi_cell_array_rejected(self):
        with pytest.raises(ArgumentError, match="expected a one-cell array, got 2 cells"):
            precompensated_amplitude(build_array(2, default_params(), 7.5), 1.0, 0.5)

    def test_unreachable_target_keeps_its_message(self):
        with pytest.raises(SaturationError) as exc_info:
            precompensated_amplitude(cell_at_age(default_params(), 1e7), 5e3, 1e-3)
        assert str(exc_info.value).startswith(
            "target 5000.0 mV unreachable: amp_max=32.0 V yields ")

    def test_target_overshot_by_decay_alone_is_unreachable(self):
        # a -5 mV weight rises by about 0.2 mV in 0.5 s on its own, so a
        # 0.01 mV step is overshot at every amplitude
        cell = cell_with_weight(default_params(), 7.5, -5.0)
        with pytest.raises(SaturationError, match=(
                r"^bisection failed to reach 0\.01 mV within tolerance 0\.0001 mV$")):
            amplitude_within(cell, 0.01, 0.5, 1e-4)

    def test_tolerance_below_resolution_is_an_argument_error(self):
        # 32 V moves a 500 s old cell far past 1 mV, but one step of the
        # 1e-12 * 32 V amplitude grid moves it by more than 1e-12 mV
        with pytest.raises(ArgumentError, match=(
                r"^tol_mv=1e-12 mV is below the resolution of the amplitude solve: "
                r"near 1\.0 mV one 2\.91e-11 V step of its amplitude grid moves "
                r"the weight by \S+ mV$")):
            amplitude_within(cell_at_age(default_params(), 500.0), 1.0, 0.5, 1e-12)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(target_dw=math.nan), "target_dw is a magnitude, got nan"),
        (dict(tol_mv=-1e-3), "tol_mv must be >= 0, got -0.001"),
        (dict(tol_mv=math.nan), "tol_mv must be >= 0, got nan"),
        (dict(duration=0.0), "pulse duration must be positive and finite, got 0.0"),
        (dict(duration=math.inf), "pulse duration must be positive and finite, got inf"),
    ])
    def test_invalid_arguments_are_domain_errors(self, kwargs, message):
        args = dict(cell=cell_at_age(default_params(), 0.0), target_dw=1.0, duration=0.5,
                    tol_mv=1e-3)
        args.update(kwargs)
        with pytest.raises(DomainError) as exc_info:
            amplitude_within(**args)
        assert str(exc_info.value) == message

    def test_infinite_tolerance_takes_the_first_midpoint(self):
        cell = cell_at_age(default_params(), 0.0)
        assert amplitude_within(cell, 1.0, 0.5, math.inf) == 16.0



class TestShortPulseLinearity:
    def test_small_steps_accumulate_linearly(self):
        # 0.1 mV steps from 1 ms pulses at 500 Hz: k pulses land within 5%
        # of k times one step for k <= 10
        cell = cell_at_age(default_params(), 0.0)
        amp = precompensated_amplitude(cell, 0.1, 1e-3)
        pulse = Pulse(amplitude=amp, duration=1e-3)
        step = read_weight(set_pulse(cell, pulse))
        for k in (2, 5, 10):
            c = cell
            for _ in range(k):
                c = set_pulse(c, pulse)
                c = decay(c, 1e-3)  # rest of the 2 ms period
            net = read_weight(c)
            assert abs(net - k * step) <= 0.05 * k * step
