"""Write-energy accounting, the lifetime energy trajectory, noise floors,
retention search, and the pulse ledger."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fndam.calibrate import cell_at_age, default_params
from fndam.cell import decay, read_weight, synchronize
from fndam.energy import (
    DEFAULT_C_IN,
    TEN_YEARS_S,
    EnergyLedger,
    NoiseModel,
    ReadModel,
    min_read_power,
    noise_floor,
    read_noise,
    retention_time,
    setpoint_write,
    v_train_required,
    write_energy,
    write_energy_trajectory,
)
from fndam.errors import DomainError


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


class TestWriteEnergyTrajectory:
    def horizon(self):
        return 12 * 86400.0

    def test_starts_at_five_femtojoules(self):
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        traj = write_energy_trajectory(params, k0, 0.01, self.horizon())
        t0, e0 = traj[0]
        assert t0 == 0.0
        np.testing.assert_allclose(e0, 5e-15, rtol=1e-12)

    def test_twelve_day_endpoint_near_two_and_a_half_picojoules(self):
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        traj = write_energy_trajectory(params, k0, 0.01, self.horizon())
        t_end, e_end = traj[-1]
        assert t_end == self.horizon()
        assert 2.5e-12 / 2.0 <= e_end <= 2.5e-12 * 2.0

    def test_energy_rises_monotonically(self):
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        traj = write_energy_trajectory(params, k0, 0.01, self.horizon(), n_samples=50)
        assert len(traj) == 50
        times = [t for t, _ in traj]
        energies = [e for _, e in traj]
        assert times == sorted(times)
        assert all(b >= a for a, b in zip(energies, energies[1:]))

    def test_energy_scales_with_input_capacitor(self):
        # the trajectory charges DEFAULT_C_IN; the same setpoint on twice
        # the capacitor costs twice the energy
        params = default_params()
        k0 = math.exp(params.k2 / 7.5)
        small = write_energy_trajectory(params, k0, 0.01, 1e4, n_samples=10)
        for t, e1 in small:
            assert e1 == setpoint_write(params, k0, 7.5 + 0.01, t, DEFAULT_C_IN)[2]
            e2 = setpoint_write(params, k0, 7.5 + 0.01, t, 2 * DEFAULT_C_IN)[2]
            np.testing.assert_allclose(e2, 2.0 * e1, rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(n_samples=1),
        dict(horizon_s=0.0),
        dict(horizon_s=math.inf),
        dict(v_target_offset=0.0),
        dict(v_target_offset=-0.01),
        dict(horizon_s=5e-324),  # the first sample time underflows to 0
        dict(horizon_s=sys.float_info.max),  # the last sample time overflows
    ])
    def test_validation(self, kwargs):
        params = default_params()
        args = dict(params=params, k0=math.exp(params.k2 / 7.5),
                    v_target_offset=0.01, horizon_s=1e4)
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

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DomainError):
            NoiseModel(sigma0=-1e-6)
        with pytest.raises(DomainError):
            NoiseModel(sigma_coeff=-1e-9)

    @pytest.mark.parametrize("field", ["sigma0", "sigma_coeff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficients_rejected(self, field, value):
        with pytest.raises(DomainError, match="must be finite and >= 0"):
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
        model = ReadModel()
        for target in (1e-4, 1e-3, 5e-3):
            p = min_read_power(model, target, bandwidth=1e3)
            np.testing.assert_allclose(read_noise(model, p, 1e3), target, rtol=1e-12)

    def test_more_power_means_less_noise(self):
        model = ReadModel()
        assert read_noise(model, 1e-6, 1e3) < read_noise(model, 1e-9, 1e3)

    def test_quadrupling_power_halves_noise(self):
        model = ReadModel()
        np.testing.assert_allclose(
            read_noise(model, 4e-9, 1e3), 0.5 * read_noise(model, 1e-9, 1e3), rtol=1e-12
        )

    @pytest.mark.parametrize("p,bw", [(0.0, 1e3), (-1e-9, 1e3), (1e-9, 0.0)])
    def test_read_noise_validation(self, p, bw):
        with pytest.raises(DomainError):
            read_noise(ReadModel(), p, bw)

    @pytest.mark.parametrize("target,bw", [(0.0, 1e3), (1e-4, -1.0), (math.nan, 1e3)])
    def test_min_power_validation(self, target, bw):
        with pytest.raises(DomainError):
            min_read_power(ReadModel(), target, bw)


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
        assert ledger.total_energy() == sum(e.energy_j for e in ledger.entries)

    def test_zero_pulse_entry_costs_nothing(self):
        ledger = EnergyLedger()
        assert ledger.record("c0", 0.0, 1.0, 1e-3, n_pulses=0).energy_j == 0.0

    def test_csv_layout(self):
        ledger = EnergyLedger(c_in=1e-12)
        ledger.record("c0", 1.5, 0.25, 1e-3, n_pulses=2)
        lines = ledger.to_csv().splitlines()
        assert lines[0] == "cell_id,t_s,amplitude_V,duration_s,n_pulses,energy_J"
        fields = lines[1].split(",")
        assert fields[0] == "c0"
        assert float(fields[1]) == 1.5
        assert int(fields[4]) == 2
        assert float(fields[5]) == 2 * write_energy(1e-12, 0.25)

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

    def test_validation(self):
        with pytest.raises(DomainError):
            EnergyLedger(c_in=0.0)
        with pytest.raises(DomainError):
            EnergyLedger().record("c0", 0.0, 1.0, 1e-3, n_pulses=-1)
