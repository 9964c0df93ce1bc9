"""Strict configuration schema for the experiment runner.

A config file is a JSON object with up to five top-level entries:
``device``, ``noise``, ``read``, ``experiment``, and ``output_dir``.
Every field has a default, so ``{}`` is a complete configuration.
Unknown keys anywhere in the tree are rejected with the offending key
path, so drift between parameter names here and in the physics modules
fails loudly instead of being silently ignored.

The resolved configuration hashes deterministically (sha256 over its
canonical JSON form); the hash is stamped into every output's metadata
sidecar so result trees can be traced back to exact settings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from .calibrate import (
    DEFAULT_C_COUPLE,
    DEFAULT_C_IN,
    DEFAULT_C_TOTAL,
    DEFAULT_K1,
    DEFAULT_K2,
    DEFAULT_V0,
)
from .energy import NoiseModel, ReadModel
from .errors import ConfigError
from .node import FnParams

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"  # the package version: fndam.__version__ and pyproject.toml read it here

TRAIN_KINDS = ("perceptron", "network")
CHARACTERIZE_EXPERIMENTS = (
    "regimes",
    "bidirectional",
    "pulse_split",
    "amplitude_sweep",
    "pulse_count",
    "common_mode",
    "mismatch",
)


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _as_float(value: Any, path: str, *, minimum: float | None = None,
              strict_min: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    out = float(value)
    if out != out or out in (float("inf"), float("-inf")):
        raise _fail(path, "must be finite")
    if minimum is not None:
        if strict_min and not out > minimum:
            raise _fail(path, f"must be > {minimum}")
        if not strict_min and not out >= minimum:
            raise _fail(path, f"must be >= {minimum}")
    return out


def _as_int(value: Any, path: str, *, minimum: int | None = None,
            maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise _fail(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise _fail(path, f"must be <= {maximum}")
    return value


def _as_str(value: Any, path: str, *, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise _fail(path, f"expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise _fail(path, f"must be one of {', '.join(choices)}")
    return value


def _as_float_tuple(value: Any, path: str, *, minimum: float | None = None,
                    strict_min: bool = False) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise _fail(path, f"expected a list of numbers, got {type(value).__name__}")
    if not value:
        raise _fail(path, "must not be empty")
    return tuple(
        _as_float(item, f"{path}[{i}]", minimum=minimum, strict_min=strict_min)
        for i, item in enumerate(value)
    )


def _as_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    return dict(value)


def _reject_unknown(mapping: Mapping[str, Any], path: str) -> None:
    if mapping:
        key = sorted(str(k) for k in mapping)[0]
        where = f"{path}.{key}" if path else key
        raise _fail(where, "unknown key")


@dataclass(frozen=True)
class DeviceConfig:
    """Physics block: tunneling constants and capacitances."""

    k1: float = DEFAULT_K1
    k2: float = DEFAULT_K2
    c_total: float = DEFAULT_C_TOTAL
    c_couple: float = DEFAULT_C_COUPLE
    c_in: float = DEFAULT_C_IN
    v0: float = DEFAULT_V0

    def fn_params(self) -> FnParams:
        return FnParams(k1=self.k1, k2=self.k2, c_total=self.c_total,
                        c_couple=self.c_couple)


@dataclass(frozen=True)
class NoiseConfig:
    sigma0: float = 100e-6
    sigma_coeff: float = 1.4e-6

    def model(self) -> NoiseModel:
        return NoiseModel(sigma0=self.sigma0, sigma_coeff=self.sigma_coeff)


@dataclass(frozen=True)
class ReadConfig:
    u_t: float = 0.026
    kappa: float = 0.7
    v_dd: float = 5.0

    def model(self) -> ReadModel:
        return ReadModel(u_t=self.u_t, kappa=self.kappa, v_dd=self.v_dd)


@dataclass(frozen=True)
class PerceptronSettings:
    """Linear-classifier run: 50 separable points on two differential cells."""

    n_points: int = 50
    margin: float = 0.25
    dataset_seed: int = 0
    epochs: int = 5
    learning_rate: float = 0.4
    unit_step_mv: float = 0.05
    pre_age_s: float = 0.0


@dataclass(frozen=True)
class NetworkSettings:
    """Three-arm network run: plain SGDM vs decaying cells vs mismatched cells."""

    n_train_per_class: int = 100
    n_test_per_class: int = 200
    train_data_seed: int = 11
    test_data_seed: int = 12
    epochs: int = 10
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 10
    mismatch_sigma: float = 0.001
    mismatch_seed: int = 0
    pre_age_s: float = 0.0


@dataclass(frozen=True)
class TrainSettings:
    kind: str = "perceptron"
    perceptron: PerceptronSettings = field(default_factory=PerceptronSettings)
    network: NetworkSettings = field(default_factory=NetworkSettings)


@dataclass(frozen=True)
class ExperimentSettings:
    """Run block: seed, horizons, and the sweep grids experiments iterate over."""

    seed: int = 0
    horizon_s: float = 12 * 86400.0
    n_samples: int = 200
    offset_v: float = 0.01
    window_s: float = 40.0
    step_mv: float = 1.0
    amplitude_grid_v: tuple[float, ...] = (
        4.1, 4.15, 4.2, 4.25, 4.3, 4.35, 4.4, 4.45, 4.5)
    bias_grid_v: tuple[float, ...] = (7.5, 7.25, 7.0, 6.75, 6.5)
    age_grid_s: tuple[float, ...] = (0.0, 100.0, 1000.0, 1e4, 1e5)
    step_grid_mv: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    train: TrainSettings = field(default_factory=TrainSettings)


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceConfig = field(default_factory=DeviceConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    read: ReadConfig = field(default_factory=ReadConfig)
    experiment: ExperimentSettings = field(default_factory=ExperimentSettings)
    output_dir: str = "out"

    def to_dict(self) -> dict:
        """Resolved configuration as plain JSON-compatible data."""
        data = asdict(self)
        exp = data["experiment"]
        for key in ("amplitude_grid_v", "bias_grid_v", "age_grid_s", "step_grid_mv"):
            exp[key] = list(exp[key])
        return data

    def config_hash(self) -> str:
        """sha256 over the experiment-defining fields.

        output_dir is excluded: where results land does not change what
        they are, and trees written to two locations should match
        byte-for-byte, sidecars included.
        """
        data = self.to_dict()
        del data["output_dir"]
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, experiment=replace(self.experiment, seed=seed))

    def with_output_dir(self, output_dir: str) -> "ExperimentConfig":
        return replace(self, output_dir=output_dir)


def _load_device(data: dict, path: str) -> DeviceConfig:
    out = DeviceConfig(
        k1=_as_float(data.pop("k1", DEFAULT_K1), f"{path}.k1", minimum=0.0,
                     strict_min=True),
        k2=_as_float(data.pop("k2", DEFAULT_K2), f"{path}.k2", minimum=0.0,
                     strict_min=True),
        c_total=_as_float(data.pop("c_total", DEFAULT_C_TOTAL),
                          f"{path}.c_total", minimum=0.0, strict_min=True),
        c_couple=_as_float(data.pop("c_couple", DEFAULT_C_COUPLE),
                           f"{path}.c_couple", minimum=0.0, strict_min=True),
        c_in=_as_float(data.pop("c_in", DEFAULT_C_IN), f"{path}.c_in",
                       minimum=0.0, strict_min=True),
        v0=_as_float(data.pop("v0", DEFAULT_V0), f"{path}.v0", minimum=0.0,
                     strict_min=True),
    )
    _reject_unknown(data, path)
    if out.c_couple >= out.c_total:
        raise _fail(f"{path}.c_couple", "must be smaller than c_total")
    return out


def _load_noise(data: dict, path: str) -> NoiseConfig:
    out = NoiseConfig(
        sigma0=_as_float(data.pop("sigma0", 100e-6), f"{path}.sigma0",
                         minimum=0.0),
        sigma_coeff=_as_float(data.pop("sigma_coeff", 1.4e-6),
                              f"{path}.sigma_coeff", minimum=0.0),
    )
    _reject_unknown(data, path)
    return out


def _load_read(data: dict, path: str) -> ReadConfig:
    out = ReadConfig(
        u_t=_as_float(data.pop("u_t", 0.026), f"{path}.u_t", minimum=0.0,
                      strict_min=True),
        kappa=_as_float(data.pop("kappa", 0.7), f"{path}.kappa", minimum=0.0,
                        strict_min=True),
        v_dd=_as_float(data.pop("v_dd", 5.0), f"{path}.v_dd", minimum=0.0,
                       strict_min=True),
    )
    _reject_unknown(data, path)
    return out


def _load_perceptron(data: dict, path: str) -> PerceptronSettings:
    out = PerceptronSettings(
        n_points=_as_int(data.pop("n_points", 50), f"{path}.n_points", minimum=2),
        margin=_as_float(data.pop("margin", 0.25), f"{path}.margin",
                         minimum=0.0, strict_min=True),
        dataset_seed=_as_int(data.pop("dataset_seed", 0),
                             f"{path}.dataset_seed", minimum=0),
        epochs=_as_int(data.pop("epochs", 5), f"{path}.epochs", minimum=1),
        learning_rate=_as_float(data.pop("learning_rate", 0.4),
                                f"{path}.learning_rate", minimum=0.0,
                                strict_min=True),
        unit_step_mv=_as_float(data.pop("unit_step_mv", 0.05),
                               f"{path}.unit_step_mv", minimum=0.0,
                               strict_min=True),
        pre_age_s=_as_float(data.pop("pre_age_s", 0.0), f"{path}.pre_age_s",
                            minimum=0.0),
    )
    _reject_unknown(data, path)
    return out


def _load_network(data: dict, path: str) -> NetworkSettings:
    out = NetworkSettings(
        n_train_per_class=_as_int(data.pop("n_train_per_class", 100),
                                  f"{path}.n_train_per_class", minimum=1),
        n_test_per_class=_as_int(data.pop("n_test_per_class", 200),
                                 f"{path}.n_test_per_class", minimum=1),
        train_data_seed=_as_int(data.pop("train_data_seed", 11),
                                f"{path}.train_data_seed", minimum=0),
        test_data_seed=_as_int(data.pop("test_data_seed", 12),
                               f"{path}.test_data_seed", minimum=0),
        epochs=_as_int(data.pop("epochs", 10), f"{path}.epochs", minimum=1),
        learning_rate=_as_float(data.pop("learning_rate", 0.1),
                                f"{path}.learning_rate", minimum=0.0,
                                strict_min=True),
        momentum=_as_float(data.pop("momentum", 0.9), f"{path}.momentum",
                           minimum=0.0),
        batch_size=_as_int(data.pop("batch_size", 10), f"{path}.batch_size",
                           minimum=1),
        mismatch_sigma=_as_float(data.pop("mismatch_sigma", 0.001),
                                 f"{path}.mismatch_sigma", minimum=0.0),
        mismatch_seed=_as_int(data.pop("mismatch_seed", 0),
                              f"{path}.mismatch_seed", minimum=0),
        pre_age_s=_as_float(data.pop("pre_age_s", 0.0), f"{path}.pre_age_s",
                            minimum=0.0),
    )
    _reject_unknown(data, path)
    if out.momentum >= 1.0:
        raise _fail(f"{path}.momentum", "must be < 1")
    return out


def _load_train(data: dict, path: str) -> TrainSettings:
    out = TrainSettings(
        kind=_as_str(data.pop("kind", "perceptron"), f"{path}.kind",
                     choices=TRAIN_KINDS),
        perceptron=_load_perceptron(
            _as_mapping(data.pop("perceptron", {}), f"{path}.perceptron"),
            f"{path}.perceptron"),
        network=_load_network(
            _as_mapping(data.pop("network", {}), f"{path}.network"),
            f"{path}.network"),
    )
    _reject_unknown(data, path)
    return out


def _load_experiment(data: dict, path: str) -> ExperimentSettings:
    out = ExperimentSettings(
        seed=_as_int(data.pop("seed", 0), f"{path}.seed", minimum=0,
                     maximum=2**64 - 1),
        horizon_s=_as_float(data.pop("horizon_s", 12 * 86400.0),
                            f"{path}.horizon_s", minimum=0.0, strict_min=True),
        n_samples=_as_int(data.pop("n_samples", 200), f"{path}.n_samples",
                          minimum=2),
        offset_v=_as_float(data.pop("offset_v", 0.01), f"{path}.offset_v",
                           minimum=0.0, strict_min=True),
        window_s=_as_float(data.pop("window_s", 40.0), f"{path}.window_s",
                           minimum=0.0, strict_min=True),
        step_mv=_as_float(data.pop("step_mv", 1.0), f"{path}.step_mv",
                          minimum=0.0, strict_min=True),
        amplitude_grid_v=_as_float_tuple(
            data.pop("amplitude_grid_v",
                     list(ExperimentSettings.amplitude_grid_v)),
            f"{path}.amplitude_grid_v", minimum=0.0, strict_min=True),
        bias_grid_v=_as_float_tuple(
            data.pop("bias_grid_v", list(ExperimentSettings.bias_grid_v)),
            f"{path}.bias_grid_v", minimum=0.0, strict_min=True),
        age_grid_s=_as_float_tuple(
            data.pop("age_grid_s", list(ExperimentSettings.age_grid_s)),
            f"{path}.age_grid_s", minimum=0.0),
        step_grid_mv=_as_float_tuple(
            data.pop("step_grid_mv", list(ExperimentSettings.step_grid_mv)),
            f"{path}.step_grid_mv", minimum=0.0),
        train=_load_train(_as_mapping(data.pop("train", {}), f"{path}.train"),
                          f"{path}.train"),
    )
    _reject_unknown(data, path)
    return out


def load_config(data: Mapping[str, Any] | None = None) -> ExperimentConfig:
    """Validate raw config data; raise ConfigError naming the bad key path."""
    top = _as_mapping(data if data is not None else {}, "<config>")
    cfg = ExperimentConfig(
        device=_load_device(_as_mapping(top.pop("device", {}), "device"),
                            "device"),
        noise=_load_noise(_as_mapping(top.pop("noise", {}), "noise"), "noise"),
        read=_load_read(_as_mapping(top.pop("read", {}), "read"), "read"),
        experiment=_load_experiment(
            _as_mapping(top.pop("experiment", {}), "experiment"), "experiment"),
        output_dir=_as_str(top.pop("output_dir", "out"), "output_dir"),
    )
    _reject_unknown(top, "")
    return cfg


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return load_config(data)


def read_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return config_from_json(text)
