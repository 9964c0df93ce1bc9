"""End-to-end command-line behavior: exit codes, JSON error records,
output trees, sidecar metadata, and rerun determinism."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fndam import experiments
from fndam.calibrate import ENERGY_HORIZON_S, FACTOR_TARGETS, REL_BAND
from fndam.cli import main
from fndam.config import SCHEMA_VERSION, TOOL_VERSION, load_config

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestSuccessPaths:
    def test_energy_report_writes_and_lists_outputs(self, tmp_path, capsys):
        out = tmp_path / "energy"
        code, stdout, stderr = run_cli(capsys, "energy-report", "--out", str(out))
        assert code == 0
        assert stderr == ""
        paths = stdout.splitlines()
        assert paths, "expected at least one output path"
        for p in paths:
            assert Path(p).is_file()
        assert (out / "energy_trajectory.csv").is_file()
        assert (out / "energy_trajectory.csv.meta.json").is_file()

    def test_sidecar_records_run_identity(self, tmp_path, capsys):
        out = tmp_path / "energy"
        code, _, _ = run_cli(capsys, "energy-report", "--seed", "5", "--out", str(out))
        assert code == 0
        meta = json.loads((out / "energy_trajectory.csv.meta.json").read_text())
        assert meta["file"] == "energy_trajectory.csv"
        assert meta["command"] == "energy-report"
        assert meta["seed"] == 5
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["tool_version"] == TOOL_VERSION
        assert meta["config_hash"] == load_config({}).with_seed(5).config_hash()

    def test_single_characterize_experiment(self, tmp_path, capsys):
        out = tmp_path / "char"
        code, stdout, _ = run_cli(
            capsys, "characterize", "--experiment", "regimes", "--out", str(out)
        )
        assert code == 0
        names = {Path(p).name for p in stdout.splitlines()}
        assert "regimes.csv" in names
        assert "bidirectional.csv" not in names

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ("characterize", "--experiment", "regimes")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert ta.keys() == tb.keys()
        assert ta == tb

    def test_train_perceptron_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": {"train": {"perceptron": {"n_points": 8, "epochs": 2}}}
        }))
        out = tmp_path / "train"
        code, stdout, _ = run_cli(
            capsys, "train", "--config", str(cfg_path), "--out", str(out)
        )
        assert code == 0
        names = {Path(p).name for p in stdout.splitlines()}
        assert {"perceptron_steps.csv", "perceptron_epochs.csv",
                "perceptron_ledger.csv", "perceptron_summary.csv",
                "perceptron_state.json"} <= names
        summary = (out / "perceptron_summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        values = dict(zip(header, summary[1].split(",")))
        assert float(values["final_accuracy"]) == 1.0
        assert float(values["total_energy_J"]) > 0.0

    def test_options_may_come_before_the_command(self, tmp_path, capsys):
        first, last = tmp_path / "first", tmp_path / "last"
        assert run_cli(capsys, "energy-report", "--seed", "1", "--out", str(first))[0] == 0
        assert run_cli(capsys, "--seed", "1", "energy-report", "--out", str(last))[0] == 0
        assert tree_bytes(first) == tree_bytes(last)

    def test_fitted_device_block_is_loadable_config(self, tmp_path, capsys):
        cal_out = tmp_path / "cal"
        code, _, _ = run_cli(capsys, "calibrate", "--out", str(cal_out))
        assert code == 0
        fitted = cal_out / "fitted_device.json"
        assert fitted.is_file()
        meta = json.loads((cal_out / "fitted_device.json.meta.json").read_text())
        assert meta["within_tolerance"] is True

        code, stdout, _ = run_cli(
            capsys, "energy-report", "--config", str(fitted),
            "--out", str(tmp_path / "reuse"),
        )
        assert code == 0
        assert stdout.splitlines()

    @pytest.mark.parametrize("v0, k2", [(7.0, 2942.68), (8.0, 2930.35), (10.0, 2860.82)])
    def test_calibrate_fits_across_v0(self, v0, k2, tmp_path, capsys):
        # the fit's path crosses points with no device (k1 overflows, a
        # pulse drives a node negative, k2/7.5 exceeds float range); they
        # shrink its trust region instead of failing the run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": {"v0": v0}}))
        out = tmp_path / "o"
        code, _, stderr = run_cli(capsys, "calibrate", "--config", str(cfg), "--out", str(out))
        assert (code, stderr) == (0, "")
        device = json.loads((out / "fitted_device.json").read_text())["device"]
        assert device["v0"] == v0
        assert device["k2"] == pytest.approx(k2, rel=1e-5)
        meta = json.loads((out / "fitted_device.json.meta.json").read_text())
        assert meta["within_tolerance"] is True

    @pytest.mark.parametrize("c_in", [2e-12, 5e-13])
    def test_calibrate_fits_the_energy_at_the_configured_c_in(self, c_in, tmp_path, capsys):
        # the fitted device, written through the c_in it is written with,
        # must spend the energy calibrate reports, near the 2.5 pJ target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": {"c_in": c_in}}))
        cal, report = tmp_path / "cal", tmp_path / "report"
        assert run_cli(capsys, "calibrate", "--config", str(cfg), "--out", str(cal))[0] == 0
        assert json.loads((cal / "fitted_device.json").read_text())["device"]["c_in"] == c_in
        metrics = dict(line.split(",") for line in
                       (cal / "calibration_metrics.csv").read_text().splitlines()[1:])
        assert run_cli(capsys, "energy-report", "--config", str(cal / "fitted_device.json"),
                       "--out", str(report))[0] == 0
        last = (report / "energy_trajectory.csv").read_text().splitlines()[-1]
        t_s, *_, energy_j = last.split(",")
        assert float(t_s) == ENERGY_HORIZON_S
        assert energy_j == metrics["energy_at_horizon_j"]
        target = FACTOR_TARGETS["energy_at_horizon_j"]
        assert target / REL_BAND <= float(energy_j) <= target * REL_BAND


class TestFailurePaths:
    def test_unknown_config_key_exits_2_with_json_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"device": {"k3": 1.0}}')
        code, stdout, stderr = run_cli(
            capsys, "energy-report", "--config", str(bad), "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert stdout == ""
        record = json.loads(stderr)
        assert record["error"] == "ConfigError"
        assert "device.k3" in record["message"]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, stderr = run_cli(capsys, "calibrate", "--config", str(bad))
        assert code == 2
        assert json.loads(stderr)["error"] == "ConfigError"

    @pytest.mark.parametrize("text, message", [
        ('{"device": {"v0": 1' + "0" * 400 + "}}", "device.v0: number out of float range"),
        ('{"experiment": {"age_grid_s": [0, 1' + "0" * 400 + "]}}",
         "experiment.age_grid_s[1]: number out of float range"),
    ], ids=["scalar", "grid"])
    def test_number_out_of_float_range_exits_2(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, stdout, stderr = run_cli(
            capsys, "energy-report", "--config", str(bad), "--out", str(tmp_path / "o")
        )
        assert (code, stdout) == (2, "")
        assert json.loads(stderr) == {"error": "ConfigError", "message": message}

    @pytest.mark.parametrize("data, words", [
        (b'{"output_dir": "\xff"}', "is not UTF-8: invalid start byte at byte 16"),
        (b'{"device": {"v0": ' + b"1" * 5000 + b"}}", "config is not valid JSON"),
    ], ids=["not-utf8", "int-past-str-limit"])
    def test_unreadable_config_text_exits_2(self, data, words, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        code, stdout, stderr = run_cli(
            capsys, "energy-report", "--config", str(bad), "--out", str(tmp_path / "o")
        )
        assert (code, stdout) == (2, "")
        record = json.loads(stderr)
        assert record["error"] == "ConfigError"
        assert words in record["message"]
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "calibrate", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot read" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("experiment, block, message", [
        ("network", {"mismatch_seed": 2**64},
         "experiment.train.network.mismatch_seed: must be <= 18446744073709551615"),
        ("perceptron", {"margin": 0.95}, "experiment.train.perceptron.margin: must be < 0.9"),
    ])
    def test_train_settings_out_of_range_exit_2(self, tmp_path, capsys, experiment, block,
                                                message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": {"train": {experiment: block}}}))
        code, stdout, stderr = run_cli(
            capsys, "train", "--experiment", experiment, "--config", str(bad),
            "--out", str(tmp_path / "o"),
        )
        assert (code, stdout) == (2, "")
        assert json.loads(stderr) == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "energy-report", "--seed", "-1", "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert "--seed" in json.loads(stderr)["message"]

    def test_experiment_flag_rejected_where_meaningless(self, tmp_path, capsys):
        for command in ("calibrate", "energy-report", "retention-report"):
            code, _, stderr = run_cli(
                capsys, command, "--experiment", "regimes",
                "--out", str(tmp_path / command),
            )
            assert code == 2
            assert "not applicable" in json.loads(stderr)["message"]

    def test_unknown_characterize_experiment_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "characterize", "--experiment", "flux",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "flux" in json.loads(stderr)["message"]

    def test_unknown_train_kind_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--experiment", "autoencoder",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "autoencoder" in json.loads(stderr)["message"]

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["decalcify"])

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["-h"])
        assert exc_info.value.code == 0
        text = capsys.readouterr().out
        for name, description in (
            ("calibrate", "fit the tunneling constants and write a device block"),
            ("characterize", "device response CSVs (regimes, pulses, mismatch)"),
            ("energy-report", "per-update write energy over the device's life"),
            ("retention-report", "retention time vs bias and vs age"),
            ("train", "perceptron or network training on simulated cells"),
        ):
            assert re.search(rf"^  {name} +{re.escape(description)}$", text, re.MULTILINE)

    def test_unknown_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["calibrate", "--bogus"])
        assert exc_info.value.code == 2

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys):
        # an unreachable step amplitude inside the run must clean up
        # everything already written for that command
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"step_mv": 5000.0}}))
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(
            capsys, "characterize", "--experiment", "regimes",
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(stderr)["error"] == "SaturationError"
        assert not list(out.rglob("*.csv"))

    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys):
        # a good run's files, and one no run writes, survive a failed rerun
        out = tmp_path / "o"
        assert run_cli(capsys, "characterize", "--out", str(out))[0] == 0
        (out / "notes.txt").write_text("kept\n")
        before = tree_bytes(out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"amplitude_grid_v": [1e-300]}}))
        code, stdout, stderr = run_cli(capsys, "characterize", "--config", str(cfg),
                                       "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert json.loads(stderr)["error"] == "DomainError"
        assert tree_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o"]

    def test_failed_write_leaves_out_as_it_was(self, monkeypatch, tmp_path, capsys):
        # the second file fails to write, as on a full disk: the first one,
        # already written under its temporary name, is removed again
        out = tmp_path / "o"
        assert run_cli(capsys, "energy-report", "--out", str(out))[0] == 0
        before = tree_bytes(out)
        write_text, writes = Path.write_text, []

        def full_disk(path, *args, **kwargs):
            writes.append(path.name)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        code, stdout, stderr = run_cli(capsys, "energy-report", "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert json.loads(stderr)["error"] == "OSError"
        assert writes == [".energy_trajectory.csv.part", ".energy_trajectory.csv.meta.json.part"]
        assert tree_bytes(out) == before

    def test_interrupted_rename_leaves_no_part_file(self, monkeypatch, tmp_path, capsys):
        # a rerun at another seed into a good tree, interrupted at its k-th
        # rename: every file is the old run's or the new run's, and no
        # temporary file is left
        out, new_out = tmp_path / "o", tmp_path / "new"
        assert run_cli(capsys, "retention-report", "--out", str(out))[0] == 0
        assert run_cli(capsys, "retention-report", "--seed", "5", "--out", str(new_out))[0] == 0
        old, new = tree_bytes(out), tree_bytes(new_out)
        assert sorted(old) == sorted(new) and old != new
        replace = os.replace
        for k in range(1, len(old) + 1):
            renames = []

            def interrupted(src, dst):
                renames.append(dst)
                if len(renames) == k:
                    raise KeyboardInterrupt
                return replace(src, dst)

            monkeypatch.setattr(experiments.os, "replace", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main(["retention-report", "--seed", "5", "--out", str(out)])
            monkeypatch.undo()
            got = tree_bytes(out)
            assert sorted(got) == sorted(old), k
            assert all(got[name] in (old[name], new[name]) for name in got), k
            for name, content in old.items():
                (out / name).write_bytes(content)

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_run_leaves_out_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(capsys, "energy-report", "--out", str(out))[0] == 0
        before = tree_bytes(out)
        # a run that writes a file over a good one, then blocks on its stdin
        script = (
            "import sys\n"
            "from fndam import experiments\n"
            "from fndam.config import load_config\n"
            "def first(cfg, write):\n"
            "    write('energy_trajectory.csv', 'staged\\n')\n"
            "def blocked(cfg, write):\n"
            "    print('staged', flush=True)\n"
            "    sys.stdin.read()\n"
            "experiments._run(load_config({}).with_output_dir(sys.argv[1]), 'energy-report',\n"
            "                 [first, blocked])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with subprocess.Popen([sys.executable, "-c", script, str(out)], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline() == "staged\n"
            proc.kill()
            assert proc.wait(timeout=60) == -signal.SIGKILL
        assert tree_bytes(out) == before
        assert [p for p in tmp_path.iterdir() if p != out] == []

    @pytest.mark.parametrize("network, error, words", [
        ({"learning_rate": 1e6}, "DomainError", "diverged at learning_rate 1000000.0"),
        ({"mismatch_sigma": 1e300}, "InitializationError", "failed to initialize"),
        ({"mismatch_sigma": 1.7e308}, "InitializationError", "failed to initialize"),
    ])
    def test_network_overflow_fails_typed_without_warnings(self, network, error, words,
                                                           tmp_path, capsys):
        # numpy warnings are errors under pytest, so a warning fails this test
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"train": {"network": network}}}))
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(capsys, "train", "--experiment", "network",
                                       "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        record = json.loads(stderr)
        assert record["error"] == error
        assert words in record["message"]
        assert not out.exists() or not list(out.rglob("*"))

    @pytest.mark.parametrize("network, record", [
        # the standard arm diverges before the mismatch arm's cells fail to initialize
        ({"learning_rate": 1e6, "mismatch_sigma": 1e308},
         '{"error": "DomainError", "message": "network training diverged at learning_rate '
         '1000000.0: overflow encountered in matmul"}'),
        # the dam arm fails to park a weight before the mismatch arm is built
        ({"learning_rate": 5.0, "mismatch_sigma": 0.3},
         '{"error": "DomainError", "message": "weight -10531.67371206704 too large to park '
         'on a 3.806859232147121 V cell"}'),
    ])
    def test_network_reports_the_first_failing_arm(self, network, record, tmp_path, capsys):
        # the arms train together but fail as if they ran one after another
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"train": {"network": network}}}))
        code, stdout, stderr = run_cli(capsys, "train", "--experiment", "network",
                                       "--config", str(cfg), "--out", str(out))
        assert (code, stdout, stderr) == (1, "", record + "\n")
        assert tree_bytes(out) == {"notes.txt": b"kept\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o"]

    def test_out_of_memory_keeps_the_json_record(self, monkeypatch, tmp_path, capsys):
        # sizes are not capped, so a large enough run exhausts memory; it
        # fails as a runtime error after its first outputs were written
        def exhausted(array):
            raise MemoryError

        monkeypatch.setattr(experiments, "state_to_json", exhausted)
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(capsys, "train", "--experiment", "perceptron",
                                       "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert json.loads(stderr) == {"error": "MemoryError", "message": ""}
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("v0", [2.0, 3.0, 3.5])
    def test_calibrate_rejects_a_v0_the_fit_cannot_start_from(self, v0, tmp_path, capsys):
        # k1 = u*exp(k2/v0) overflows at the fit's start, k2 = 2500 V
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": {"v0": v0}}))
        out = tmp_path / "o"
        code, stdout, stderr = run_cli(capsys, "calibrate", "--config", str(cfg),
                                       "--out", str(out))
        assert code == 1
        assert stdout == ""
        record = json.loads(stderr)
        assert record["error"] == "DomainError"
        assert f"v0 = {v0!r} V" in record["message"]
        assert not out.exists() or not list(out.rglob("*"))
