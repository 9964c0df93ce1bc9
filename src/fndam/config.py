"""Strict configuration schema for the experiment runner.

A config file is a JSON object with up to four top-level entries:
``device``, ``noise``, ``experiment``, and ``output_dir``.  Every field
has a default, so ``{}`` is a complete configuration.  The schema is
the dataclasses below: each field's type and bounds (its metadata)
decide how a given value is checked.  Unknown keys anywhere in the tree
are rejected with the offending key path, so drift between parameter
names here and in the physics modules fails loudly instead of being
silently ignored.

The resolved configuration hashes deterministically (sha256 over its
canonical JSON form); the hash is stamped into every output's metadata
sidecar so result trees can be traced back to exact settings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Mapping, get_type_hints

from .array import MismatchSpec
from .calibrate import (
    CAL_STEP_MV,
    DEFAULT_K1,
    DEFAULT_K2,
    DEFAULT_V0,
    ENERGY_HORIZON_S,
    ENERGY_OFFSET_V,
    RETENTION_WINDOW_S,
)
from .energy import DEFAULT_C_IN, DEFAULT_N_SAMPLES, NoiseModel
from .errors import ConfigError
from .node import FnParams
from .trainer import (DATASET_MARGIN, DATASET_POINTS, MAX_DATASET_MARGIN, NetworkConfig,
                      TrainerConfig)

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"  # the package version: fndam.__version__ and pyproject.toml read it here

TRAIN_KINDS = ("perceptron", "network")


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _as_float(value: Any, path: str, *, minimum: float | None = None,
              strict_min: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an int literal beyond float range
        raise _fail(path, "number out of float range") from None
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


def _bounded(default, **bounds):
    """A setting with its default; bounds are keyword arguments of its _as_* check."""
    return field(default=default, metadata=bounds)


def _positive(default):
    return _bounded(default, minimum=0.0, strict_min=True)


def _seed(default):
    """A generator seed: a 64-bit unsigned int, as MismatchSpec takes it."""
    return _bounded(default, minimum=0, maximum=2**64 - 1)


@dataclass(frozen=True)
class DeviceConfig:
    """Physics block: tunneling constants and capacitances."""

    k1: float = _positive(DEFAULT_K1)
    k2: float = _positive(DEFAULT_K2)
    c_total: float = _positive(FnParams.c_total)
    c_couple: float = _positive(FnParams.c_couple)
    c_in: float = _positive(DEFAULT_C_IN)
    v0: float = _positive(DEFAULT_V0)

    def fn_params(self) -> FnParams:
        return FnParams(k1=self.k1, k2=self.k2, c_total=self.c_total,
                        c_couple=self.c_couple)

    def _check(self, path: str) -> None:
        if self.c_couple >= self.c_total:
            raise _fail(f"{path}.c_couple", "must be smaller than c_total")


@dataclass(frozen=True)
class NoiseConfig:
    sigma0: float = _bounded(NoiseModel.sigma0, minimum=0.0)
    sigma_coeff: float = _bounded(NoiseModel.sigma_coeff, minimum=0.0)

    def model(self) -> NoiseModel:
        return NoiseModel(sigma0=self.sigma0, sigma_coeff=self.sigma_coeff)


@dataclass(frozen=True)
class PerceptronSettings:
    """Linear-classifier run: separable points on two differential cells."""

    n_points: int = _bounded(DATASET_POINTS, minimum=2)
    margin: float = _positive(DATASET_MARGIN)
    dataset_seed: int = _seed(0)
    epochs: int = _bounded(TrainerConfig.epochs, minimum=1)
    learning_rate: float = _positive(TrainerConfig.learning_rate)
    unit_step_mv: float = _positive(TrainerConfig.unit_step_mv)
    pre_age_s: float = _bounded(0.0, minimum=0.0)

    def _check(self, path: str) -> None:
        if self.margin >= MAX_DATASET_MARGIN:
            raise _fail(f"{path}.margin", f"must be < {MAX_DATASET_MARGIN}")


@dataclass(frozen=True)
class NetworkSettings:
    """Three-arm network run: plain SGDM vs decaying cells vs mismatched cells."""

    n_train_per_class: int = _bounded(100, minimum=1)
    n_test_per_class: int = _bounded(200, minimum=1)
    train_data_seed: int = _seed(11)
    test_data_seed: int = _seed(12)
    epochs: int = _bounded(NetworkConfig.epochs, minimum=1)
    learning_rate: float = _positive(NetworkConfig.learning_rate)
    momentum: float = _bounded(NetworkConfig.momentum, minimum=0.0)
    batch_size: int = _bounded(NetworkConfig.batch_size, minimum=1)
    mismatch_sigma: float = _bounded(MismatchSpec.relative_sigma, minimum=0.0)
    mismatch_seed: int = _seed(0)
    pre_age_s: float = _bounded(0.0, minimum=0.0)

    def _check(self, path: str) -> None:
        if self.momentum >= 1.0:
            raise _fail(f"{path}.momentum", "must be < 1")


@dataclass(frozen=True)
class TrainSettings:
    kind: str = _bounded("perceptron", choices=TRAIN_KINDS)
    perceptron: PerceptronSettings = field(default_factory=PerceptronSettings)
    network: NetworkSettings = field(default_factory=NetworkSettings)


@dataclass(frozen=True)
class ExperimentSettings:
    """Run block: seed, horizons, and the sweep grids experiments iterate over."""

    seed: int = _seed(0)
    horizon_s: float = _positive(ENERGY_HORIZON_S)
    n_samples: int = _bounded(DEFAULT_N_SAMPLES, minimum=2)
    offset_v: float = _positive(ENERGY_OFFSET_V)
    window_s: float = _positive(RETENTION_WINDOW_S)
    step_mv: float = _positive(CAL_STEP_MV)
    amplitude_grid_v: tuple[float, ...] = _positive(
        (4.1, 4.15, 4.2, 4.25, 4.3, 4.35, 4.4, 4.45, 4.5))
    bias_grid_v: tuple[float, ...] = _positive((7.5, 7.25, 7.0, 6.75, 6.5))
    age_grid_s: tuple[float, ...] = _bounded(
        (0.0, 100.0, 1000.0, 1e4, 1e5), minimum=0.0)
    step_grid_mv: tuple[float, ...] = _bounded((0.0, 0.5, 1.0, 2.0), minimum=0.0)
    train: TrainSettings = field(default_factory=TrainSettings)


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceConfig = field(default_factory=DeviceConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    experiment: ExperimentSettings = field(default_factory=ExperimentSettings)
    output_dir: str = "out"

    def to_dict(self) -> dict:
        """Resolved configuration as plain data; json.dumps writes its tuples as lists."""
        return _plain(self)

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


def _plain(block) -> dict:
    """``asdict`` of a config block (all plain fields), without its deep copy."""
    return {name: _plain(value) if hasattr(value := getattr(block, name), "__dataclass_fields__")
            else value for name in block.__dataclass_fields__}


_CHECKS = {float: _as_float, int: _as_int, str: _as_str,
           tuple[float, ...]: _as_float_tuple}


def _load(cls, data: Any, path: str):
    """cls from raw data: each given field checked by its type and bounds.

    Fields are checked in declaration order, nested blocks recursively;
    then unknown keys are rejected, then the class's cross-field
    ``_check`` runs.  Absent fields keep their defaults.
    """
    data = _as_mapping(data, path or "<config>")
    hints = get_type_hints(cls)
    given = {}
    for f in fields(cls):
        if f.name in data:
            where = f"{path}.{f.name}" if path else f.name
            kind = hints[f.name]
            if is_dataclass(kind):
                given[f.name] = _load(kind, data.pop(f.name), where)
            else:
                given[f.name] = _CHECKS[kind](data.pop(f.name), where, **f.metadata)
    _reject_unknown(data, path)
    out = cls(**given)
    if hasattr(out, "_check"):
        out._check(path)
    return out


def load_config(data: Mapping[str, Any] | None = None) -> ExperimentConfig:
    """Validate raw config data; raise ConfigError naming the bad key path."""
    return _load(ExperimentConfig, data if data is not None else {}, "")


def read_config_file(path: str) -> ExperimentConfig:
    """load_config of a JSON file; ConfigError if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} at byte "
                          f"{exc.start}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal past str-to-int's limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return load_config(data)
