"""The shipped device calibration: frozen metrics, regime ages, target
bands, and reproducibility of the fit itself."""

import math

import numpy as np
import pytest

from fndam.calibrate import (
    CAL_PULSE_DURATION_S,
    CAL_STEP_MV,
    DEFAULT_K1,
    DEFAULT_K2,
    ENERGY_HORIZON_S,
    ENERGY_OFFSET_V,
    FACTOR_TARGETS,
    REGIME_AGES_S,
    REGIME_RETENTION,
    RETENTION_BAND,
    RETENTION_WINDOW_S,
    CalibrationResult,
    age_for_retention,
    cell_at_age,
    default_params,
    energy_per_update,
    evaluate_calibration,
    fit_device_parameters,
    step_amplitude,
    weight_retention,
)
from fndam.energy import DEFAULT_C_IN
from fndam.errors import DomainError

# evaluate_calibration(default_params()) — frozen so that any drift in
# the physics or the solvers shows up as a diff against these numbers
FROZEN_METRICS = {
    "amp_fresh_v": 0.17473983764648438,
    "retention_fresh": 0.2602721270779763,
    "age_mid_s": 77.66116299505659,
    "age_late_s": 730.4733270073168,
    "amp_mid_v": 0.4582352638244629,
    "amp_late_v": 0.8437185287475586,
    "energy_at_horizon_j": 2.4888088836782583e-12,
}


class TestShippedCalibration:
    def test_metrics_are_frozen(self):
        metrics = evaluate_calibration(default_params(), DEFAULT_C_IN)
        assert set(metrics) == set(FROZEN_METRICS)
        for key, frozen in FROZEN_METRICS.items():
            np.testing.assert_allclose(metrics[key], frozen, rtol=1e-9, err_msg=key)

    def test_metrics_sit_inside_the_target_bands(self):
        m = FROZEN_METRICS
        assert FACTOR_TARGETS == {"amp_fresh_v": 0.1, "amp_mid_v": 0.5, "amp_late_v": 1.0,
                                  "energy_at_horizon_j": 2.5e-12}
        for key, target in FACTOR_TARGETS.items():
            assert target / 2 <= m[key] <= target * 2, key
        assert abs(m["retention_fresh"] - REGIME_RETENTION[0]) <= RETENTION_BAND == 0.10

    def test_regime_ages_match_retention_crossings(self):
        params = default_params()
        assert REGIME_AGES_S[0] == 0.0
        for fraction, age in zip(REGIME_RETENTION[1:], REGIME_AGES_S[1:]):
            np.testing.assert_allclose(
                age_for_retention(params, fraction), age, rtol=1e-6
            )
            np.testing.assert_allclose(
                weight_retention(params, age), fraction, atol=1e-4
            )

    def test_retention_rises_with_age(self):
        params = default_params()
        r = [weight_retention(params, age) for age in (0.0, 77.66, 730.47, 5000.0)]
        assert all(b > a for a, b in zip(r, r[1:]))

    def test_step_amplitude_rises_with_age(self):
        params = default_params()
        amps = [step_amplitude(params, age) for age in REGIME_AGES_S]
        assert amps[0] < amps[1] < amps[2]

    def test_fresh_cell_state(self):
        cell = cell_at_age(default_params(), 0.0)
        assert cell.v[0, 0] == 7.5
        assert cell.global_clock == 0.0
        aged = cell_at_age(default_params(), 100.0)
        assert aged.global_clock == 100.0
        assert aged.v[0, 0] < 7.5

    def test_energy_per_update_grows(self):
        params = default_params()
        e = [energy_per_update(params, t, DEFAULT_C_IN) for t in (0.0, 1e4, 1e5, 12 * 86400.0)]
        assert all(b > a for a, b in zip(e, e[1:]))
        np.testing.assert_allclose(e[0], 5e-15, rtol=1e-12)

    def test_protocol_constants(self):
        assert CAL_STEP_MV == 1.0
        assert CAL_PULSE_DURATION_S == 0.5
        assert RETENTION_WINDOW_S == 40.0
        assert REGIME_RETENTION == (0.30, 0.70, 0.95)
        assert ENERGY_HORIZON_S == 12 * 86400.0
        assert ENERGY_OFFSET_V == 0.01


class TestAgeForRetention:
    def test_already_satisfied_returns_zero(self):
        # fresh retention is 0.26, so any smaller fraction is met at age 0
        assert age_for_retention(default_params(), 0.10) == 0.0

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(DomainError):
            age_for_retention(default_params(), fraction)


class TestTargetValidation:
    """The targets are constants; what they validate is a fit's metrics."""

    @pytest.mark.parametrize("kwargs", [
        dict(amp_fresh_v=0.0),
        dict(retention_fresh=0.15),
        dict(retention_fresh=0.45),
        dict(energy_at_horizon_j=-1e-12),
        dict(amp_mid_v=0.24),
        dict(amp_late_v=2.1),
    ])
    def test_bad_targets_rejected(self, kwargs):
        metrics = dict(FROZEN_METRICS, **kwargs)
        assert not CalibrationResult(default_params(), 0.0, (), metrics).within_tolerance()


class TestFit:
    def test_refit_reproduces_the_shipped_constants(self):
        # start from the documented initial guess, not from the answer
        result = fit_device_parameters()
        np.testing.assert_allclose(result.params.k2, DEFAULT_K2, rtol=1e-3)
        np.testing.assert_allclose(
            math.log(result.params.k1), math.log(DEFAULT_K1), rtol=1e-3
        )
        assert result.within_tolerance()
        assert len(result.residuals) == 5
        assert result.cost < 1.0

    def test_within_tolerance_rejects_bad_metrics(self):
        result = fit_device_parameters()
        bad = dict(result.metrics, amp_fresh_v=1.0)  # 10x the fresh target
        degraded = type(result)(
            params=result.params, cost=result.cost,
            residuals=result.residuals, metrics=bad,
        )
        assert not degraded.within_tolerance()

    def test_energy_that_underflows_is_a_domain_error(self):
        # at the smallest subnormal c_in the energy target reads 0.0, which
        # the fit's log residual cannot take
        with pytest.raises(DomainError, match="energy_at_horizon_j = 0.0 at c_in = 5e-324 F"):
            fit_device_parameters(c_in=5e-324)


class TestEvaluationSolvesEachAgeOnce:
    def test_no_precompensation_solve_repeats(self, monkeypatch):
        import fndam.calibrate as calibrate

        solved = []
        solve = calibrate._solve_amplitude  # the float solve, on the cell's float nodes

        def counting(*args, **kwargs):
            solved.append((args, tuple(sorted(kwargs.items()))))
            return solve(*args, **kwargs)

        monkeypatch.setattr(calibrate, "_solve_amplitude", counting)
        evaluate_calibration(default_params(), DEFAULT_C_IN)
        assert solved
        assert len(set(solved)) == len(solved)

    def test_metrics_equal_the_public_solvers(self):
        params = default_params()
        m = evaluate_calibration(params, DEFAULT_C_IN)
        assert m["age_mid_s"] == age_for_retention(params, 0.70)
        assert m["age_late_s"] == age_for_retention(params, 0.95)
        assert m["amp_fresh_v"] == step_amplitude(params, 0.0)
        assert m["retention_fresh"] == weight_retention(params, 0.0)
        assert m["amp_mid_v"] == step_amplitude(params, m["age_mid_s"])
        assert m["amp_late_v"] == step_amplitude(params, m["age_late_s"])
