"""Differential floating-gate memory simulator and training harness.

A two-node tunneling cell stores an analog weight in the controlled
desynchronization of two self-discharging floating gates.  This package
models single nodes (closed-form decay, pulse programming), differential
cells (each a one-cell array), mismatched cell arrays with persistence, the energy/noise/retention
bookkeeping around them, and training loops that keep their weights on
simulated cells.
"""

from .errors import (
    ArgumentError,
    ConfigError,
    DomainError,
    FndamError,
    InitializationError,
    SaturationError,
    StateFormatError,
)
from .node import (
    FnParams,
    Pulse,
    apply_pulse,
    evolve,
    k0_from_initial,
    tunneling_current,
    voltage_at,
)
from .cell import (
    common_mode_step,
    decay,
    precompensated_amplitude,
    read_weight,
    reset_pulse,
    set_pulse,
    synchronize,
)
from .energy import (
    EnergyLedger,
    LedgerEntry,
    NoiseModel,
    RetentionResult,
    min_read_power,
    noise_floor,
    read_noise,
    retention_time,
    v_train_required,
    write_energy,
    write_energy_trajectory,
)
from .calibrate import (
    CalibrationResult,
    DEFAULT_K1,
    DEFAULT_K2,
    DEFAULT_V0,
    REGIME_AGES_S,
    cell_at_age,
    default_params,
    evaluate_calibration,
    fit_device_parameters,
    step_amplitude,
    weight_retention,
)
from .array import (
    DamArray,
    MismatchSpec,
    WeightReading,
    advance,
    batch_pulse,
    batch_read,
    build_array,
    state_from_json,
    state_to_json,
)
from .trainer import (
    LabeledPoint,
    MlpSpec,
    NetworkConfig,
    NetworkTrace,
    TrainerConfig,
    TrainingTrace,
    best_margin,
    decision_fn,
    gradient_to_pulses,
    hinge_gradient,
    hinge_loss,
    make_blob_dataset,
    make_separable_dataset,
    train_network_with_dam_decay,
    train_perceptron,
)
from .config import TOOL_VERSION as __version__
from .config import ExperimentConfig, load_config, read_config_file
