"""Content of the experiment CSVs: schemas, physics sanity of each
characterization, and the writer's formatting rules."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fndam.experiments
from fndam.calibrate import REGIME_RETENTION
from fndam.config import load_config
from fndam.errors import ConfigError
from fndam.experiments import (
    _csv_line,
    _format_field,
    run_characterize,
    run_energy_report,
    run_retention_report,
    run_train,
)


def cfg_at(tmp_path, **overrides):
    data = {"output_dir": str(tmp_path)}
    data.update(overrides)
    return load_config(data)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return list(reader)


class TestCsvFormatting:
    def test_plain_fields(self):
        assert _csv_line(["a", 1, 2.5]) == "a,1,2.5"

    def test_floats_round_trip(self):
        value = 0.1 + 0.2
        line = _csv_line([value])
        assert float(line) == value

    def test_bools_become_ints(self):
        assert _csv_line([True, False]) == "1,0"

    def test_quoting(self):
        assert _csv_line(["a,b"]) == '"a,b"'
        assert _csv_line(['say "hi"']) == '"say ""hi"""'
        assert _csv_line(["line\nbreak"]) == '"line\nbreak"'

    @given(st.lists(
        st.floats(allow_subnormal=True)
        | st.integers() | st.booleans()
        | st.floats().map(np.float64)
        | st.integers(-2**63, 2**63 - 1).map(np.int64)
        | st.booleans().map(np.bool_)
        | st.text(st.sampled_from('a,"\n\r ')) | st.none()
    ))
    @example([-0.0, 0.0, math.nan, -math.inf, math.inf, 5e-324, 2.2250738585072014e-308])
    @example([0, -1, 2**80, True, False])
    @example([np.float64(-0.0), np.float64("nan"), np.int64(-7), np.bool_(True), np.bool_(False)])
    @example(['a,b', 'say "hi"', "line\nbreak", "cr\r", ""])
    def test_exact_type_dispatch_formats_as_format_field(self, fields):
        assert _csv_line(fields) == ",".join(map(_format_field, fields))


class TestRegimes:
    def test_three_regimes_hit_their_retention_fractions(self, tmp_path):
        run_characterize(cfg_at(tmp_path), "regimes")
        rows = read_rows(tmp_path / "regimes.csv")
        by_regime = {}
        for row in rows:
            by_regime.setdefault(row["regime"], []).append(row)
        assert set(by_regime) == {"1", "2", "3"}
        finals = {}
        for regime, entries in by_regime.items():
            assert float(entries[0]["retention_fraction"]) == 1.0
            last = entries[-1]
            assert float(last["t_s"]) == 40.0
            finals[regime] = float(last["retention_fraction"])
        assert abs(finals["1"] - 0.30) <= 0.10
        assert abs(finals["2"] - 0.70) <= 0.10
        assert abs(finals["3"] - 0.95) <= 0.05

    def test_amplitudes_track_the_regime_targets(self, tmp_path):
        run_characterize(cfg_at(tmp_path), "regimes")
        rows = read_rows(tmp_path / "regimes.csv")
        amps = sorted({float(r["amplitude_V"]) for r in rows})
        assert len(amps) == 3
        for amp, nominal in zip(amps, (0.1, 0.5, 1.0)):
            assert nominal / 2 <= amp <= nominal * 2


class TestPulseSplitting:
    def test_net_change_is_on_time_invariant(self, tmp_path):
        # same amplitude and total on-time, split 1/2/4/8 ways: the net
        # weight change must not depend on the split
        run_characterize(cfg_at(tmp_path), "pulse_split")
        rows = read_rows(tmp_path / "pulse_splitting.csv")
        assert [int(r["n_pulses"]) for r in rows] == [1, 2, 4, 8]
        net = [float(r["net_dw_mV"]) for r in rows]
        mean = sum(net) / len(net)
        assert (max(net) - min(net)) / mean < 0.05
        for row in rows:
            n = int(row["n_pulses"])
            assert float(row["pulse_duration_s"]) == 0.1 / n
            assert float(row["frequency_Hz"]) == n / 1.0


class TestAmplitudeSweep:
    def test_log_response_spans_the_grid(self, tmp_path):
        cfg = cfg_at(tmp_path)
        run_characterize(cfg, "amplitude_sweep")
        rows = read_rows(tmp_path / "amplitude_sweep.csv")
        assert len(rows) == len(cfg.experiment.amplitude_grid_v)
        dw = [float(r["dw_mV"]) for r in rows]
        assert all(v > 0 for v in dw)
        assert dw == sorted(dw)
        for row in rows:
            assert math.isclose(float(row["ln_dw"]),
                                math.log(float(row["dw_mV"])), rel_tol=1e-12)
        meta = json.loads((tmp_path / "amplitude_sweep.csv.meta.json").read_text())
        assert meta["age_s"] == 1e7


class TestPulseCount:
    def test_small_counts_accumulate_linearly(self, tmp_path):
        run_characterize(cfg_at(tmp_path), "pulse_count")
        rows = read_rows(tmp_path / "pulse_count.csv")
        assert [int(r["n_pulses"]) for r in rows] == list(range(1, 21))
        unit = float(rows[0]["net_dw_mV"])
        for row in rows[:10]:
            n = int(row["n_pulses"])
            net = float(row["net_dw_mV"])
            assert abs(net - n * unit) <= 0.05 * n * unit
            assert math.isclose(float(row["per_pulse_mV"]), net / n, rel_tol=1e-12)


class TestCommonMode:
    def test_differential_reading_shrugs_off_the_bump(self, tmp_path):
        run_characterize(cfg_at(tmp_path), "common_mode")
        rows = read_rows(tmp_path / "common_mode.csv")
        arms = {}
        for row in rows:
            arms.setdefault(row["arm"], []).append(
                (float(row["t_s"]), float(row["weight_mV"]))
            )
        assert set(arms) == {"baseline", "common_mode", "single_ended"}
        assert all(len(v) == 81 for v in arms.values())
        w_base = arms["baseline"][0][1]
        w_common = arms["common_mode"][0][1]
        w_single = arms["single_ended"][0][1]
        # both nodes bumped: the stored weight barely moves
        assert abs(w_common - w_base) < 0.1 * abs(w_base)
        # one node bumped: the 0.1 V hit lands on the weight in full
        assert abs(w_single - w_base) > 50.0


class TestMismatch:
    def test_population_spread(self, tmp_path):
        run_characterize(cfg_at(tmp_path), "mismatch")
        rows = read_rows(tmp_path / "mismatch.csv")
        assert len(rows) == 12
        assert len({row["k2_set"] for row in rows}) == 12
        for row in rows:
            assert float(row["w_final_mV"]) > float(row["w_initial_mV"])


class TestCharacterizeSelection:
    def test_all_is_the_default(self, tmp_path):
        a = run_characterize(cfg_at(tmp_path / "a"))
        b = run_characterize(cfg_at(tmp_path / "b"), "all")
        assert [Path(p).name for p in a] == [Path(p).name for p in b]

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown characterization"):
            run_characterize(cfg_at(tmp_path), "impedance")

    def test_each_retention_age_is_solved_once_per_run(self, tmp_path, monkeypatch):
        solved, memos = [], []
        solve, memoize = fndam.experiments._age_for, fndam.experiments._memoized_by_age

        def counted(retention, fraction):
            solved.append(fraction)
            return solve(retention, fraction)

        def counted_memo(params, window_s):
            memos.append(window_s)
            return memoize(params, window_s)

        monkeypatch.setattr(fndam.experiments, "_age_for", counted)
        monkeypatch.setattr(fndam.experiments, "_memoized_by_age", counted_memo)
        # a second full run solves again: nothing is kept between runs
        for out, experiment in (("a", None), ("b", None), ("c", "common_mode")):
            solved.clear()
            memos.clear()
            run_characterize(cfg_at(tmp_path / out), experiment)
            expected = REGIME_RETENTION[1:] if experiment is None else REGIME_RETENTION[1:2]
            assert tuple(solved) == expected
            assert memos == [load_config({}).experiment.window_s]  # one memo for both searches


class TestEnergyReport:
    def test_trajectory_schema_and_shape(self, tmp_path):
        cfg = cfg_at(tmp_path, experiment={"n_samples": 40})
        run_energy_report(cfg)
        rows = read_rows(tmp_path / "energy_trajectory.csv")
        assert len(rows) == 40
        times = [float(r["t_s"]) for r in rows]
        energies = [float(r["energy_J"]) for r in rows]
        gates = [float(r["v_fg_V"]) for r in rows]
        assert times[0] == 0.0
        assert times[-1] == cfg.experiment.horizon_s
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        assert all(b <= a for a, b in zip(gates, gates[1:]))


class TestRetentionReport:
    def test_tables_cover_the_grids(self, tmp_path):
        cfg = cfg_at(tmp_path, experiment={
            "bias_grid_v": [7.5, 7.0],
            "age_grid_s": [0.0, 1000.0],
            "step_grid_mv": [0.0, 1.0],
        })
        run_retention_report(cfg)
        bias_rows = read_rows(tmp_path / "retention_vs_bias.csv")
        age_rows = read_rows(tmp_path / "retention_vs_age.csv")
        assert len(bias_rows) == 4
        assert len(age_rows) == 4
        for row in bias_rows:
            assert row["saturated"] in ("0", "1")
            if float(row["step_mV"]) == 0.0:
                assert float(row["retention_s"]) == 0.0
            else:
                assert float(row["retention_s"]) > 0.0
        by_age = {
            float(r["age_s"]): float(r["retention_s"])
            for r in age_rows if float(r["step_mV"]) == 1.0
        }
        assert by_age[1000.0] > by_age[0.0]


class TestTrainRunner:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown training kind"):
            run_train(cfg_at(tmp_path), "hopfield")

    def test_state_file_is_valid_array_state(self, tmp_path):
        from fndam.array import state_from_json

        cfg = cfg_at(tmp_path, experiment={
            "train": {"perceptron": {"n_points": 6, "epochs": 1}}
        })
        run_train(cfg)
        restored = state_from_json((tmp_path / "perceptron_state.json").read_text())
        assert len(restored) == 2
        assert restored.global_clock > 0.0
