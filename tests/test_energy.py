"""Write-energy accounting, the lifetime energy trajectory, noise floors,
retention search, and the pulse ledger."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fndam.array import build_array
from fndam.calibrate import cell_at_age, default_params
from fndam.config import load_config
from fndam.cell import decay, read_weight, synchronize
from fndam.energy import (
    DEFAULT_C_IN,
    DEFAULT_N_SAMPLES,
    TEN_YEARS_S,
    EnergyLedger,
    NoiseModel,
    min_read_power,
    noise_floor,
    read_noise,
    retention_time,
    setpoint_write,
    v_train_required,
    write_energy,
    write_energy_trajectory,
)
from fndam.errors import ArgumentError, DomainError
from fndam.experiments import run_train


def cell_with_weight(params, w_set, weight_mv):
    return replace(synchronize(params, w_set), v=[[w_set, w_set + weight_mv / 1000.0]])


class TestWriteEnergy:
    def test_hundred_millivolt_write_costs_five_femtojoules(self):
        np.testing.assert_allclose(write_energy(1e-12, 0.1), 5e-15, rtol=1e-12)

    def test_half_volt_write_is_exact(self):
        assert write_energy(1e-12, 0.5) == 1.25e-13

    def test_zero_amplitude_costs_nothing(self):
        assert write_energy(1e-12, 0.0) == 0.0

    def test_sign_of_amplitude_is_irrelevant(self):
        assert write_energy(1e-12, -0.3) == write_energy(1e-12, 0.3)

    @pytest.mark.parametrize("c_in,v_in", [(0.0, 0.1), (-1e-12, 0.1), (1e-12, math.inf)])
    def test_validation(self, c_in, v_in):
        with pytest.raises(DomainError):
            write_energy(c_in, v_in)

    def test_energy_out_of_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^v_in 1e\+300 V at c_in 1e-12 F needs a write "):
            write_energy(1e-12, 1e300)


class TestVTrainRequired:
    def test_divider_relationship(self):
        np.testing.assert_allclose(v_train_required(7.6, 7.5, 0.1), 0.1 / 0.1, rtol=1e-12)

    def test_doubling_coupling_halves_amplitude(self):
        a1 = v_train_required(7.55, 7.5, 0.1)
        a2 = v_train_required(7.55, 7.5, 0.2)
        np.testing.assert_allclose(a1, 2.0 * a2, rtol=1e-12)

    def test_target_below_gate_rejected(self):
        with pytest.raises(DomainError):
            v_train_required(7.4, 7.5, 0.1)

    @pytest.mark.parametrize("cr", [0.0, 1.0, -0.1, 1.5])
    def test_coupling_ratio_bounds(self, cr):
        with pytest.raises(DomainError):
            v_train_required(7.6, 7.5, cr)

    @pytest.mark.parametrize("v_target,v_fg,name", [(math.nan, 7.0, "v_target"),
                                                     (8.0, math.nan, "v_fg")])
    def test_voltages_must_be_finite(self, v_target, v_fg, name):
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got nan"):
            v_train_required(v_target, v_fg, 0.1)

    def test_amplitude_out_of_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at coupling_ratio 5e-324 needs an input amplitude"):
            v_train_required(8.0, 7.0, 5e-324)


class TestWriteEnergyTrajectory:
    def horizon(self):
        return 12 * 86400.0

    def test_starts_at_five_femtojoules(self):
        traj = write_energy_trajectory(default_params(), 7.5, 0.01, self.horizon(),
                                       DEFAULT_N_SAMPLES, DEFAULT_C_IN)
        t0, v_fg, v_train, e0 = traj[0]
        assert (t0, v_fg) == (0.0, 7.5)
        np.testing.assert_allclose(e0, 5e-15, rtol=1e-12)

    def test_twelve_day_endpoint_near_two_and_a_half_picojoules(self):
        traj = write_energy_trajectory(default_params(), 7.5, 0.01, self.horizon(),
                                       DEFAULT_N_SAMPLES, DEFAULT_C_IN)
        t_end, _, _, e_end = traj[-1]
        assert t_end == self.horizon()
        assert 2.5e-12 / 2.0 <= e_end <= 2.5e-12 * 2.0

    def test_energy_rises_monotonically(self):
        traj = write_energy_trajectory(default_params(), 7.5, 0.01, self.horizon(), 50,
                                       DEFAULT_C_IN)
        assert len(traj) == 50
        times = [t for t, _, _, _ in traj]
        energies = [e for _, _, _, e in traj]
        assert times == sorted(times)
        assert all(b >= a for a, b in zip(energies, energies[1:]))

    def test_energy_scales_with_input_capacitor(self):
        # each row is the setpoint write through c_in to v0 + offset; the
        # same setpoint on twice the capacitor costs twice the energy
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        small = write_energy_trajectory(params, 7.5, 0.01, 1e4, 10, DEFAULT_C_IN)
        double = write_energy_trajectory(params, 7.5, 0.01, 1e4, 10, 2 * DEFAULT_C_IN)
        for (t, *write), (t2, *write2) in zip(small, double):
            assert tuple(write) == setpoint_write(params, k0, 7.5 + 0.01, t, DEFAULT_C_IN)
            assert t2 == t and write2[:2] == write[:2]
            np.testing.assert_allclose(write2[2], 2.0 * write[2], rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(n_samples=1),
        dict(horizon_s=0.0),
        dict(horizon_s=math.inf),
        dict(offset_v=0.0),
        dict(offset_v=-0.01),
        dict(horizon_s=5e-324),  # the first sample time underflows to 0
        dict(horizon_s=sys.float_info.max),  # the last sample time overflows
        dict(n_samples=2.5),
    ])
    def test_validation(self, kwargs):
        args = dict(params=default_params(), v0=7.5, offset_v=0.01, horizon_s=1e4,
                    n_samples=10, c_in=DEFAULT_C_IN)
        args.update(kwargs)
        with pytest.raises(DomainError):
            write_energy_trajectory(**args)


class TestNoiseFloor:
    def test_instantaneous_floor_is_sigma0_exactly(self):
        assert noise_floor(NoiseModel(), 0.0) == 100e-6

    def test_floor_after_ten_thousand_seconds(self):
        np.testing.assert_allclose(noise_floor(NoiseModel(), 1e4), 240e-6, rtol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            noise_floor(NoiseModel(), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError, match="t must be >= 0"):
            noise_floor(NoiseModel(), t)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DomainError):
            NoiseModel(sigma0=-1e-6)
        with pytest.raises(DomainError):
            NoiseModel(sigma_coeff=-1e-9)

    @pytest.mark.parametrize("field", ["sigma0", "sigma_coeff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficients_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be >= 0, got {value!r}$"):
            NoiseModel(**{field: value})


class TestRetentionTime:
    def test_weight_below_floor_retains_nothing(self):
        cell = cell_with_weight(default_params(), 7.5, 0.05)  # 50 uV < 100 uV floor
        result = retention_time(cell, NoiseModel())
        assert result.seconds == 0.0
        assert not result.saturated

    def test_zero_weight_retains_nothing(self):
        result = retention_time(cell_at_age(default_params(), 0.0), NoiseModel())
        assert result.seconds == 0.0

    def test_multi_cell_array_rejected(self):
        # cell 0 alone would retain nothing; the array is not one cell
        with pytest.raises(ArgumentError, match="expected a one-cell array, got 2 cells"):
            retention_time(build_array(2, default_params(), 7.5), NoiseModel())

    def test_crossing_is_bracketed(self):
        cell = cell_with_weight(default_params(), 7.5, 1.0)
        model = NoiseModel()
        result = retention_time(cell, model)
        assert not result.saturated
        t = result.seconds
        w_after = abs(read_weight(decay(cell, t)).weight) / 1000.0
        assert w_after <= noise_floor(model, t)
        t_before = t - 2.0 * max(1.0, 1e-3 * t)
        w_before = abs(read_weight(decay(cell, t_before)).weight) / 1000.0
        assert w_before > noise_floor(model, t_before)

    def test_larger_weight_lives_longer(self):
        params = default_params()
        model = NoiseModel()
        r1 = retention_time(cell_with_weight(params, 7.5, 1.0), model)
        r2 = retention_time(cell_with_weight(params, 7.5, 2.0), model)
        assert r2.seconds > r1.seconds

    def test_short_horizon_saturates(self):
        # with no noise floor the weight outlives the ten-year horizon
        cell = cell_with_weight(default_params(), 7.5, 1.0)
        result = retention_time(cell, NoiseModel(sigma0=0.0, sigma_coeff=0.0))
        assert result.saturated
        assert result.seconds == TEN_YEARS_S

    def test_default_horizon_is_ten_years(self):
        assert TEN_YEARS_S == 10 * 365.25 * 86400.0


class TestReadoutTrade:
    def test_noise_power_round_trip(self):
        for target in (1e-4, 1e-3, 5e-3):
            p = min_read_power(target, bandwidth=1e3)
            np.testing.assert_allclose(read_noise(p, 1e3), target, rtol=1e-12)

    def test_more_power_means_less_noise(self):
        assert read_noise(1e-6, 1e3) < read_noise(1e-9, 1e3)

    def test_quadrupling_power_halves_noise(self):
        np.testing.assert_allclose(read_noise(4e-9, 1e3), 0.5 * read_noise(1e-9, 1e3),
                                   rtol=1e-12)

    @pytest.mark.parametrize("p,bw", [(0.0, 1e3), (-1e-9, 1e3), (1e-9, 0.0)])
    def test_read_noise_validation(self, p, bw):
        with pytest.raises(DomainError):
            read_noise(p, bw)

    @pytest.mark.parametrize("target,bw", [(0.0, 1e3), (1e-4, -1.0), (math.nan, 1e3)])
    def test_min_power_validation(self, target, bw):
        with pytest.raises(DomainError):
            min_read_power(target, bw)

    @pytest.mark.parametrize("target,bw", [(1e300, 1e3), (1e-300, 1e3), (5e-324, 1e3),
                                           (1e154, 1e3), (2e-162, 1e300)])
    def test_min_power_out_of_float_range(self, target, bw):
        # target**2 overflows (1e300) or underflows to zero (1e-300, 5e-324);
        # the power underflows to zero (1e154) or overflows to inf (2e-162)
        with pytest.raises(DomainError, match="^noise_target "):
            min_read_power(target, bw)


class TestEnergyLedger:
    def test_entry_energy(self):
        ledger = EnergyLedger(c_in=1e-12)
        entry = ledger.record("c0", 0.0, 0.5, 1e-3, n_pulses=4)
        assert entry.energy_j == 4 * write_energy(1e-12, 0.5)

    def test_totals_match_external_resummation_exactly(self):
        ledger = EnergyLedger(c_in=1e-12)
        rng = np.random.default_rng(3)
        for i in range(200):
            ledger.record(f"c{i % 5}", float(i), float(rng.uniform(0.05, 2.0)),
                          1e-3, n_pulses=int(rng.integers(1, 6)))
        resummed = 0.0  # left to right: sum() of floats is compensated since 3.12
        for e in ledger.entries:
            resummed += e.energy_j
        assert ledger.total_energy() == resummed

    def test_total_adds_left_to_right_from_0_0_on_every_python(self):
        assert repr(EnergyLedger().total_energy()) == "0.0"
        # ten 1e-16 J entries after 1.0 J, each below half an ulp of 1.0: the
        # compensated sum() of Python 3.12 and later gives 1.000000000000001
        ledger = EnergyLedger(c_in=2.0)
        ledger.record("c0", 0.0, 1.0, 1e-3)
        for _ in range(10):
            ledger.record("c0", 0.0, 1e-8, 1e-3)
        assert repr(ledger.total_energy()) == "1.0"

    def test_zero_pulse_entry_costs_nothing(self):
        ledger = EnergyLedger()
        assert ledger.record("c0", 0.0, 1.0, 1e-3, n_pulses=0).energy_j == 0.0

    def test_csv_layout(self, tmp_path):
        # the ledger's one table: perceptron_ledger.csv, one row per entry
        cfg = load_config({"output_dir": str(tmp_path), "experiment": {
            "train": {"perceptron": {"n_points": 6, "epochs": 1}}}})
        run_train(cfg, "perceptron")
        lines = (tmp_path / "perceptron_ledger.csv").read_text().splitlines()
        assert lines[0] == "cell_id,t_s,amplitude_V,duration_s,n_pulses,energy_J"
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] in ("0", "1")
            assert float(fields[5]) == int(fields[4]) * write_energy(1e-12, float(fields[2]))

    @pytest.mark.parametrize("n_pulses", [2.5, -1, math.nan, math.inf])
    def test_pulse_count_must_be_a_whole_number(self, n_pulses):
        ledger = EnergyLedger()
        with pytest.raises(DomainError, match="n_pulses must be a whole number >= 0"):
            ledger.record("c0", 0.0, 1.0, 1e-3, n_pulses=n_pulses)
        assert ledger.entries == ()

    def test_whole_float_count_books_its_integer(self):
        entry = EnergyLedger().record("c0", 0.0, 0.5, 1e-3, n_pulses=3.0)
        assert entry.n_pulses == 3 and type(entry.n_pulses) is int
        assert entry.energy_j == 3 * write_energy(1e-12, 0.5)

    @pytest.mark.parametrize("t_s,duration_s,message", [
        (math.nan, 1e-3, "t_s must be >= 0, got nan"),
        (0.0, math.nan, "duration_s must be positive and finite, got nan"),
    ])
    def test_time_and_duration_are_checked(self, t_s, duration_s, message):
        ledger = EnergyLedger()
        with pytest.raises(DomainError, match=f"^{message}$"):
            ledger.record("c0", t_s, 1.0, duration_s)
        assert ledger.entries == ()

    def test_validation(self):
        with pytest.raises(DomainError):
            EnergyLedger(c_in=0.0)
        with pytest.raises(DomainError):
            EnergyLedger().record("c0", 0.0, 1.0, 1e-3, n_pulses=-1)
