"""The shipped device calibration: frozen metrics, regime ages, target
bands, and reproducibility of the fit itself."""

import math
from pathlib import Path

import numpy as np
import pytest

from fndam.array import state_to_json
from fndam.calibrate import (
    CAL_PULSE_DURATION_S,
    CAL_STEP_MV,
    DEFAULT_K1,
    DEFAULT_K2,
    DEFAULT_V0,
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
from fndam.cell import synchronize
from fndam.config import load_config
from fndam.energy import DEFAULT_C_IN
from fndam.errors import DomainError
from fndam.experiments import run_calibrate

# every file the six default commands write at seed 0 (tools/record_goldens.py)
SEED_0 = Path(__file__).resolve().parent / "data" / "golden" / "seed-0"

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


class TestCellAge:
    """An age is the time a fresh cell has decayed; 0 s is the fresh cell."""

    @pytest.mark.parametrize("age_s", [-1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("at_age", [cell_at_age, step_amplitude, weight_retention])
    def test_an_age_that_is_no_time_is_rejected(self, at_age, age_s):
        with pytest.raises(DomainError, match=f"^dt must be >= 0, got {age_s!r}$"):
            at_age(default_params(), age_s)

    def test_age_0_is_the_fresh_cell(self):
        params = default_params()
        cell, fresh = cell_at_age(params, 0.0), synchronize(params, DEFAULT_V0)
        assert state_to_json(cell) == state_to_json(fresh)
        assert repr(cell.global_clock) == "0.0"
        assert repr(step_amplitude(params, 0.0)) == repr(FROZEN_METRICS["amp_fresh_v"])
        assert repr(weight_retention(params, 0.0)) == repr(FROZEN_METRICS["retention_fresh"])


class TestAgeForRetention:
    def test_each_searched_age_is_solved_once(self, monkeypatch):
        import fndam.calibrate as calibrate

        ages, solves = [], []
        aged, solve = calibrate._aged_nodes, calibrate._solve_amplitude

        def aging(params, v0, age_s):
            ages.append(age_s)
            return aged(params, v0, age_s)

        def counting(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(calibrate, "_aged_nodes", aging)
        monkeypatch.setattr(calibrate, "_solve_amplitude", counting)
        assert repr(age_for_retention(default_params(), 0.7)) == "77.66116299505659"
        assert len(solves) == len(set(ages)) == len(ages)

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
        assert not CalibrationResult(default_params(), 0.0, metrics).within_tolerance()


class TestFit:
    def test_refit_reproduces_the_shipped_constants(self):
        # start from the documented initial guess, not from the answer
        result = fit_device_parameters()
        np.testing.assert_allclose(result.params.k2, DEFAULT_K2, rtol=1e-3)
        np.testing.assert_allclose(
            math.log(result.params.k1), math.log(DEFAULT_K1), rtol=1e-3
        )
        assert result.within_tolerance()
        assert result.cost < 1.0

    def test_within_tolerance_rejects_bad_metrics(self):
        result = fit_device_parameters()
        bad = dict(result.metrics, amp_fresh_v=1.0)  # 10x the fresh target
        degraded = type(result)(
            params=result.params, cost=result.cost, metrics=bad,
        )
        assert not degraded.within_tolerance()

    def test_each_point_is_evaluated_once(self, monkeypatch, tmp_path):
        """The fitted point's metrics are the fit's own evaluation, and the
        files a calibrate writes keep their reference bytes."""
        import fndam.calibrate as calibrate

        points = []
        evaluate = calibrate.evaluate_calibration

        def counting(params, c_in):
            points.append((params.k1, params.k2, c_in))
            return evaluate(params, c_in)

        monkeypatch.setattr(calibrate, "evaluate_calibration", counting)
        run_calibrate(load_config({"output_dir": str(tmp_path)}))
        assert points
        assert len(points) == len(set(points))
        for name in ("fitted_device.json", "calibration_metrics.csv"):
            assert (tmp_path / name).read_bytes() == (SEED_0 / name).read_bytes()

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
