"""Strict config schema: defaults, unknown-key rejection with key paths,
type discipline, and the reproducibility hash."""

import json

import pytest

from fndam.config import (
    TRAIN_KINDS,
    ExperimentConfig,
    load_config,
    read_config_file,
)
from fndam.errors import ConfigError
from fndam.experiments import _characterize_steps


class TestDefaults:
    def test_empty_object_is_complete(self):
        assert load_config({}) == ExperimentConfig()
        assert load_config(None) == ExperimentConfig()

    def test_shipped_device_defaults(self):
        cfg = load_config({})
        assert cfg.device.v0 == 7.5
        assert cfg.device.c_couple / cfg.device.c_total == 0.1
        assert cfg.noise.sigma0 == 100e-6
        assert cfg.experiment.train.kind == "perceptron"
        assert cfg.output_dir == "out"

    def test_fn_params_bridge(self):
        params = load_config({}).device.fn_params()
        assert params.k2 == 2887.78128
        assert params.coupling_ratio == 0.1

    def test_known_experiment_names(self):
        assert TRAIN_KINDS == ("perceptron", "network")
        steps = _characterize_steps(load_config({}))  # the names --experiment takes
        assert "regimes" in steps
        assert "mismatch" in steps


class TestOverrides:
    def test_nested_override(self):
        cfg = load_config({"experiment": {"train": {"kind": "network",
                                                    "network": {"epochs": 3}}}})
        assert cfg.experiment.train.kind == "network"
        assert cfg.experiment.train.network.epochs == 3
        # untouched siblings keep their defaults
        assert cfg.experiment.train.network.momentum == 0.9
        assert cfg.experiment.train.perceptron.n_points == 50

    def test_grids_become_tuples(self):
        cfg = load_config({"experiment": {"age_grid_s": [0, 10, 100]}})
        assert cfg.experiment.age_grid_s == (0.0, 10.0, 100.0)

    def test_integers_accepted_for_floats(self):
        cfg = load_config({"device": {"v0": 7}})
        assert cfg.device.v0 == 7.0
        assert isinstance(cfg.device.v0, float)


class TestRejection:
    @pytest.mark.parametrize("data,needle", [
        ({"devise": {}}, "devise"),
        ({"device": {"k3": 1.0}}, "device.k3"),
        ({"experiment": {"train": {"perceptron": {"unit": 1}}}},
         "experiment.train.perceptron.unit"),
        ({"noise": {"sigma0": "quiet"}}, "noise.sigma0"),
        ({"device": {"k1": True}}, "device.k1"),
        ({"experiment": {"n_samples": 2.5}}, "experiment.n_samples"),
        ({"experiment": {"n_samples": 1}}, "experiment.n_samples"),
        ({"experiment": {"seed": -1}}, "experiment.seed"),
        ({"experiment": {"seed": 2**64}}, "experiment.seed"),
        ({"experiment": {"horizon_s": 0}}, "experiment.horizon_s"),
        ({"experiment": {"amplitude_grid_v": []}}, "experiment.amplitude_grid_v"),
        ({"experiment": {"amplitude_grid_v": [1.0, 0.0]}},
         "experiment.amplitude_grid_v[1]"),
        ({"experiment": {"train": {"kind": "svm"}}}, "experiment.train.kind"),
        ({"device": {"c_couple": 2e-12}}, "device.c_couple"),
        ({"experiment": {"train": {"network": {"momentum": 1.0}}}},
         "experiment.train.network.momentum"),
        ({"output_dir": 7}, "output_dir"),
        ({"device": []}, "device"),
    ])
    def test_bad_input_names_the_key_path(self, data, needle):
        with pytest.raises(ConfigError) as exc_info:
            load_config(data)
        assert needle in str(exc_info.value)

    def test_first_unknown_key_reported_deterministically(self):
        with pytest.raises(ConfigError) as exc_info:
            load_config({"zebra": 1, "aardvark": 2})
        assert "aardvark" in str(exc_info.value)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"device": {"v0": float("nan")}})


# Exact loader messages.  The inputs with two faults fix which one is
# reported: fields in declaration order, then unknown keys, then the
# cross-field checks.
GOLDEN_MESSAGES = [
    ({"devise": {}}, "devise: unknown key"),
    ({"device": {"k3": 1.0}}, "device.k3: unknown key"),
    ({"experiment": {"train": {"perceptron": {"unit": 1}}}},
     "experiment.train.perceptron.unit: unknown key"),
    ({"noise": {"sigma0": "quiet"}}, "noise.sigma0: expected a number, got str"),
    ({"device": {"k1": True}}, "device.k1: expected a number, got bool"),
    ({"experiment": {"n_samples": 2.5}},
     "experiment.n_samples: expected an integer, got float"),
    ({"experiment": {"n_samples": 1}}, "experiment.n_samples: must be >= 2"),
    ({"experiment": {"seed": -1}}, "experiment.seed: must be >= 0"),
    ({"experiment": {"seed": 2**64}},
     "experiment.seed: must be <= 18446744073709551615"),
    ({"experiment": {"horizon_s": 0}}, "experiment.horizon_s: must be > 0.0"),
    ({"experiment": {"amplitude_grid_v": []}},
     "experiment.amplitude_grid_v: must not be empty"),
    ({"experiment": {"amplitude_grid_v": [1.0, 0.0]}},
     "experiment.amplitude_grid_v[1]: must be > 0.0"),
    ({"experiment": {"train": {"kind": "svm"}}},
     "experiment.train.kind: must be one of perceptron, network"),
    ({"device": {"c_couple": 2e-12}}, "device.c_couple: must be smaller than c_total"),
    ({"experiment": {"train": {"network": {"momentum": 1.0}}}},
     "experiment.train.network.momentum: must be < 1"),
    ({"output_dir": 7}, "output_dir: expected a string, got int"),
    ({"device": []}, "device: expected an object, got list"),
    ({"zebra": 1, "aardvark": 2}, "aardvark: unknown key"),
    ({"device": {"v0": float("nan")}}, "device.v0: must be finite"),
    ([], "<config>: expected an object, got list"),
    ({"device": {"c_total": 0}}, "device.c_total: must be > 0.0"),
    ({"noise": {"sigma_coeff": -1.0}}, "noise.sigma_coeff: must be >= 0.0"),
    ({"experiment": {"step_grid_mv": 5}},
     "experiment.step_grid_mv: expected a list of numbers, got int"),
    ({"device": {"c_couple": 1e-12, "c_total": 1e-12}},
     "device.c_couple: must be smaller than c_total"),
    ({"read": {}}, "read: unknown key"),  # the unused read block is gone
    # two faults
    ({"device": {"c_couple": 2e-12, "zz": 1}}, "device.zz: unknown key"),
    ({"experiment": {"train": {"network": {"momentum": 1.0, "aa": 1}}}},
     "experiment.train.network.aa: unknown key"),
    ({"device": {"k2": "x", "k1": -1}}, "device.k1: must be > 0.0"),
    ({"zz": 1, "device": {"k1": -1}}, "device.k1: must be > 0.0"),
    ({"device": {"zz": 1}, "noise": {"sigma0": -1}}, "device.zz: unknown key"),
    ({"output_dir": 7, "experiment": {"seed": -1}}, "experiment.seed: must be >= 0"),
    ({"experiment": {"train": [], "seed": -1}}, "experiment.seed: must be >= 0"),
    ({"experiment": {"train": {"kind": "svm", "perceptron": {"epochs": 0}}}},
     "experiment.train.kind: must be one of perceptron, network"),
    ({"experiment": {"bias_grid_v": [1, "a"], "age_grid_s": [-1]}},
     "experiment.bias_grid_v[1]: expected a number, got str"),
    ({"experiment": {"train": {"network": {"batch_size": 0, "momentum": -0.1}}}},
     "experiment.train.network.momentum: must be >= 0.0"),
    # every seed is a 64-bit unsigned int, and a dataset margin lies in (0, 0.9)
    ({"experiment": {"train": {"perceptron": {"dataset_seed": 2**64}}}},
     "experiment.train.perceptron.dataset_seed: must be <= 18446744073709551615"),
    ({"experiment": {"train": {"network": {"train_data_seed": 2**64}}}},
     "experiment.train.network.train_data_seed: must be <= 18446744073709551615"),
    ({"experiment": {"train": {"network": {"test_data_seed": 2**64}}}},
     "experiment.train.network.test_data_seed: must be <= 18446744073709551615"),
    ({"experiment": {"train": {"network": {"mismatch_seed": 2**64}}}},
     "experiment.train.network.mismatch_seed: must be <= 18446744073709551615"),
    ({"experiment": {"train": {"perceptron": {"margin": 0.95}}}},
     "experiment.train.perceptron.margin: must be < 0.9"),
    ({"experiment": {"train": {"perceptron": {"margin": 0.9}}}},
     "experiment.train.perceptron.margin: must be < 0.9"),
]


class TestGoldenMessages:
    @pytest.mark.parametrize("data,message", GOLDEN_MESSAGES)
    def test_exact_message(self, data, message):
        with pytest.raises(ConfigError) as exc_info:
            load_config(data)
        assert str(exc_info.value) == message


class TestJsonEntryPoints:
    def test_round_trip_through_text(self, tmp_path):
        # the resolved document is itself a complete config file
        cfg = load_config({"experiment": {"seed": 9, "age_grid_s": [0.0, 5.0]}})
        path = tmp_path / "resolved.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert read_config_file(str(path)) == cfg

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            read_config_file(str(path))

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_file(str(tmp_path / "absent.json"))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"output_dir": "results"}', encoding="utf-8")
        assert read_config_file(str(path)).output_dir == "results"


class TestHash:
    def test_stable_across_loads(self):
        a = load_config({"experiment": {"seed": 3}})
        b = load_config({"experiment": {"seed": 3}})
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 64

    def test_sensitive_to_physics_fields(self):
        base = load_config({})
        assert base.config_hash() != base.with_seed(1).config_hash()
        tweaked = load_config({"device": {"v0": 7.4}})
        assert base.config_hash() != tweaked.config_hash()

    def test_output_dir_does_not_change_identity(self):
        base = load_config({})
        assert base.config_hash() == base.with_output_dir("elsewhere").config_hash()

    def test_default_hash_is_pinned(self):
        # every output's .meta.json carries this; it changes only with the
        # schema (e837ddb0... while the config still carried a read block)
        assert load_config({}).config_hash() == (
            "6c228b4e700ae18d583519155da611653f55f6c976b4a7d0aabe03c97f6da582")

    def test_to_dict_is_json_ready(self):
        import json

        text = json.dumps(load_config({}).to_dict())
        assert load_config(json.loads(text)) == load_config({})

    def test_to_dict_is_asdict(self):
        """to_dict walks the blocks without asdict's deep copy, to the same dict."""
        from dataclasses import asdict

        tweaked = load_config({"device": {"v0": 7.4}, "noise": {"sigma0": 0.0},
                               "experiment": {"age_grid_s": [0.0, 5.0], "train": {
                                   "kind": "network", "network": {"batch_size": 7}}},
                               "output_dir": "elsewhere"})
        for cfg in (load_config({}), tweaked):
            plain = cfg.to_dict()
            assert plain == asdict(cfg)
            assert json.dumps(plain, sort_keys=True) == json.dumps(asdict(cfg), sort_keys=True)


class TestHelpers:
    def test_with_seed_and_output_dir(self):
        cfg = load_config({})
        assert cfg.with_seed(7).experiment.seed == 7
        assert cfg.with_output_dir("x").output_dir == "x"
        # originals are untouched (frozen dataclasses)
        assert cfg.experiment.seed == 0
        assert cfg.output_dir == "out"
