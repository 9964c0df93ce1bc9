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
    REGIME_AGES_S,
    REGIME_RETENTION,
    RETENTION_WINDOW_S,
    CalibrationTargets,
    age_for_retention,
    cell_at_age,
    default_cell,
    default_params,
    energy_per_update,
    evaluate_calibration,
    fit_device_parameters,
    step_amplitude,
    weight_retention,
)
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
        metrics = evaluate_calibration(default_params())
        assert set(metrics) == set(FROZEN_METRICS)
        for key, frozen in FROZEN_METRICS.items():
            np.testing.assert_allclose(metrics[key], frozen, rtol=1e-9, err_msg=key)

    def test_metrics_sit_inside_the_target_bands(self):
        targets = CalibrationTargets()
        m = FROZEN_METRICS
        assert targets.amp_fresh_v / 2 <= m["amp_fresh_v"] <= targets.amp_fresh_v * 2
        assert abs(m["retention_fresh"] - targets.retention_fresh) <= targets.retention_band
        assert targets.amp_mid_v / 2 <= m["amp_mid_v"] <= targets.amp_mid_v * 2
        assert targets.amp_late_v / 2 <= m["amp_late_v"] <= targets.amp_late_v * 2
        assert (targets.energy_at_horizon_j / 2
                <= m["energy_at_horizon_j"]
                <= targets.energy_at_horizon_j * 2)

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
        cell = default_cell()
        assert cell.v[0, 0] == 7.5
        assert cell.global_clock == 0.0
        aged = cell_at_age(default_params(), 100.0)
        assert aged.global_clock == 100.0
        assert aged.v[0, 0] < 7.5

    def test_energy_per_update_grows(self):
        params = default_params()
        e = [energy_per_update(params, t) for t in (0.0, 1e4, 1e5, 12 * 86400.0)]
        assert all(b > a for a, b in zip(e, e[1:]))
        np.testing.assert_allclose(e[0], 5e-15, rtol=1e-12)

    def test_protocol_constants(self):
        assert CAL_STEP_MV == 1.0
        assert CAL_PULSE_DURATION_S == 0.5
        assert RETENTION_WINDOW_S == 40.0


class TestAgeForRetention:
    def test_already_satisfied_returns_zero(self):
        # fresh retention is 0.26, so any smaller fraction is met at age 0
        assert age_for_retention(default_params(), 0.10) == 0.0

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(DomainError):
            age_for_retention(default_params(), fraction)


class TestTargetValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(amp_fresh_v=0.0),
        dict(retention_fresh=0.0),
        dict(retention_fresh=1.0),
        dict(energy_at_horizon_j=-1e-12),
        dict(rel_band=1.0),
        dict(retention_band=0.0),
    ])
    def test_bad_targets_rejected(self, kwargs):
        with pytest.raises(DomainError):
            CalibrationTargets(**kwargs)


class TestFit:
    def test_refit_reproduces_the_shipped_constants(self):
        # start from the documented initial guess, not from the answer
        result = fit_device_parameters()
        np.testing.assert_allclose(result.params.k2, DEFAULT_K2, rtol=1e-3)
        np.testing.assert_allclose(
            math.log(result.params.k1), math.log(DEFAULT_K1), rtol=1e-3
        )
        assert result.within_tolerance(CalibrationTargets())
        assert len(result.residuals) == 5
        assert result.cost < 1.0

    def test_within_tolerance_rejects_bad_metrics(self):
        result = fit_device_parameters()
        bad = dict(result.metrics, amp_fresh_v=1.0)  # 10x the fresh target
        degraded = type(result)(
            params=result.params, cost=result.cost,
            residuals=result.residuals, metrics=bad,
        )
        assert not degraded.within_tolerance(CalibrationTargets())


class TestEvaluationSolvesEachAgeOnce:
    def test_no_precompensation_solve_repeats(self, monkeypatch):
        import fndam.calibrate as calibrate

        solved = []
        solve = calibrate.precompensated_amplitude

        def counting(cell, *args, **kwargs):
            solved.append((cell.v.tobytes(), cell.global_clock, args,
                           tuple(sorted(kwargs.items()))))
            return solve(cell, *args, **kwargs)

        monkeypatch.setattr(calibrate, "precompensated_amplitude", counting)
        evaluate_calibration(default_params())
        assert solved
        assert len(set(solved)) == len(solved)

    def test_metrics_equal_the_public_solvers(self):
        params = default_params()
        m = evaluate_calibration(params)
        assert m["age_mid_s"] == age_for_retention(params, 0.70)
        assert m["age_late_s"] == age_for_retention(params, 0.95)
        assert m["amp_fresh_v"] == step_amplitude(params, 0.0)
        assert m["retention_fresh"] == weight_retention(params, 0.0)
        assert m["amp_mid_v"] == step_amplitude(params, m["age_mid_s"])
        assert m["amp_late_v"] == step_amplitude(params, m["age_late_s"])
