"""Training on DAM weights: a pulse-programmed perceptron and a small
network arm where the array's physics supplies the weight decay.

The perceptron keeps its two weights on two cells of a DamArray.  Each
training point costs one sample interval of wall-clock time; a violated
margin turns into a gradient, the gradient into a polarity, a pulse
count and a precompensated amplitude, and the pulses into array
operations whose energy lands in an EnergyLedger.

The network trainer runs ordinary SGD-with-momentum in software but
parks every parameter on a DAM cell between iterations, so weights
shrink by the device's own resynchronization instead of an explicit
regularization term.  With ``array=None`` the parking step is skipped
and the loop is plain SGDM, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .array import DamArray, _with_voltages, advance, batch_pulse
from .cell import decay, precompensated_amplitude, synchronize
from .energy import EnergyLedger
from .errors import ArgumentError, DomainError
from .node import Pulse

_AMP_TOL_MV = 1e-4  # precompensation tolerance for issued amplitudes


@dataclass(frozen=True)
class LabeledPoint:
    x: tuple[float, float]
    y: int

    def __post_init__(self):
        if len(self.x) != 2 or not all(math.isfinite(v) for v in self.x):
            raise DomainError(f"x must be two finite floats, got {self.x!r}")
        if self.y not in (-1, 1):
            raise DomainError(f"y must be -1 or +1, got {self.y!r}")


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs of the pulse-programmed perceptron loop.

    learning_rate may be a constant or a callable of the global step
    index; the device's own decay already supplies the shrinking-step
    behavior, so a constant is the usual choice.  unit_step_mv is the
    weight change one pulse is precompensated to produce.
    """

    learning_rate: float | Callable[[int], float] = 0.4
    unit_step_mv: float = 0.05
    pulse_frequency_hz: float = 1000.0
    pulse_duration_s: float = 0.0005  # 50% duty at the default frequency
    sample_interval_s: float = 2.0
    epochs: int = 5
    max_pulses_per_update: int = 1000
    amp_max_v: float = 32.0
    c_in: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        for name in ("unit_step_mv", "pulse_frequency_hz", "pulse_duration_s",
                     "sample_interval_s", "amp_max_v", "c_in"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive, got {value!r}")
        if self.epochs < 1 or self.max_pulses_per_update < 1:
            raise DomainError("epochs and max_pulses_per_update must be >= 1")
        if self.pulse_duration_s * self.pulse_frequency_hz > 1.0:
            raise DomainError(
                f"pulse duration {self.pulse_duration_s!r} s does not fit the "
                f"{self.pulse_frequency_hz!r} Hz period"
            )
        if self.max_pulses_per_update / self.pulse_frequency_hz > self.sample_interval_s:
            raise DomainError(
                "the longest pulse train must fit one sample interval; lower "
                "max_pulses_per_update or raise sample_interval_s"
            )
        if not callable(self.learning_rate) and not (
            math.isfinite(self.learning_rate) and self.learning_rate > 0
        ):
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate!r}")

    def rate_at(self, step: int) -> float:
        if callable(self.learning_rate):
            return float(self.learning_rate(step))
        return float(self.learning_rate)


def decision_fn(x: Sequence[float], w: Sequence[float]) -> float:
    """f(x) = x2 + w1*x1 + w0 — boundary is the line x2 = -w1*x1 - w0."""
    return x[1] + w[1] * x[0] + w[0]


def hinge_loss(x: Sequence[float], y: int, w: Sequence[float]) -> float:
    return max(0.0, 1.0 - y * decision_fn(x, w))


def hinge_gradient(x: Sequence[float], y: int, w: Sequence[float]) -> tuple[float, float]:
    """d(hinge)/d(w0, w1); zero on and beyond the margin (y*f >= 1)."""
    if y * decision_fn(x, w) >= 1.0:
        return (0.0, 0.0)
    return (-float(y), -float(y) * x[0])


@dataclass(frozen=True)
class PulseCommand:
    polarity: int
    n_pulses: int
    amplitude_v: float
    clipped: bool = False


def gradient_to_pulses(update_mv: float, config: TrainerConfig, cell: DamArray) -> PulseCommand:
    """Quantize a desired weight change into pulses on the given cell.

    update_mv is the signed post-learning-rate weight change.  Its sign
    picks SET (+) or RESET (-); its magnitude is rounded to the nearest
    whole number of unit steps; the amplitude is solved on `cell` so
    one pulse at the cell's current age moves the weight by one unit
    step.  Counts beyond max_pulses_per_update are clipped and flagged.
    """
    n_exact = abs(update_mv) / config.unit_step_mv
    n_pulses = int(round(n_exact))
    if n_pulses == 0:
        return PulseCommand(polarity=1, n_pulses=0, amplitude_v=0.0)
    clipped = n_pulses > config.max_pulses_per_update
    if clipped:
        n_pulses = config.max_pulses_per_update
    amplitude = precompensated_amplitude(
        cell,
        config.unit_step_mv,
        config.pulse_duration_s,
        amp_max=config.amp_max_v,
        tol_mv=_AMP_TOL_MV,
    )
    return PulseCommand(
        polarity=1 if update_mv > 0 else -1,
        n_pulses=n_pulses,
        amplitude_v=amplitude,
        clipped=clipped,
    )


@dataclass(frozen=True)
class StepRecord:
    step: int
    epoch: int
    point_index: int
    t_s: float  # array clock when the sample was taken
    w0_mv: float  # weights after any pulses this step
    w1_mv: float
    loss: float
    g0: float
    g1: float
    n_pulses0: int
    n_pulses1: int
    amplitude0_v: float
    amplitude1_v: float
    energy_j: float
    clipped: bool


@dataclass(frozen=True)
class EpochSummary:
    epoch: int
    accuracy: float
    mean_abs_update_mv: float
    energy_j: float
    n_updates: int


@dataclass
class TrainingTrace:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochSummary] = field(default_factory=list)
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    final_weights_mv: tuple[float, float] = (0.0, 0.0)
    margin: float = 0.0  # best achievable margin of the dataset under f

    @property
    def total_energy_j(self) -> float:
        return self.ledger.total_energy()

    def amplitudes_issued(self) -> list[float]:
        """Every pulse-train amplitude in issue order (for drift checks)."""
        out = []
        for rec in self.steps:
            if rec.n_pulses0 > 0:
                out.append(rec.amplitude0_v)
            if rec.n_pulses1 > 0:
                out.append(rec.amplitude1_v)
        return out

    def step_csv(self) -> str:
        lines = [
            "step,epoch,point_index,t_s,w0_mV,w1_mV,loss,g0,g1,"
            "n_pulses0,n_pulses1,amplitude0_V,amplitude1_V,energy_J,clipped"
        ]
        for r in self.steps:
            lines.append(
                f"{r.step},{r.epoch},{r.point_index},{r.t_s!r},{r.w0_mv!r},"
                f"{r.w1_mv!r},{r.loss!r},{r.g0!r},{r.g1!r},{r.n_pulses0},"
                f"{r.n_pulses1},{r.amplitude0_v!r},{r.amplitude1_v!r},"
                f"{r.energy_j!r},{int(r.clipped)}"
            )
        return "\n".join(lines) + "\n"

    def epoch_csv(self) -> str:
        lines = ["epoch,accuracy,mean_abs_update_mV,energy_J,n_updates"]
        for e in self.epochs:
            lines.append(
                f"{e.epoch},{e.accuracy!r},{e.mean_abs_update_mv!r},"
                f"{e.energy_j!r},{e.n_updates}"
            )
        return "\n".join(lines) + "\n"


def best_margin(dataset: Sequence[LabeledPoint]) -> float:
    """Largest m with y*(x2 + w1*x1 + w0) >= m for some (w0, w1).

    Linear program over (w0, w1, m).  Positive m means the dataset is
    separable by the perceptron's decision family; note the family
    fixes the x2 coefficient to +1, so this is stricter than general
    linear separability.
    """
    labels = {p.y for p in dataset}
    if labels != {-1, 1}:
        raise ArgumentError("dataset must contain both classes")
    # maximize m  s.t.  -y*w0 - y*x1*w1 + m <= y*x2
    a_ub = [[-p.y, -p.y * p.x[0], 1.0] for p in dataset]
    b_ub = [p.y * p.x[1] for p in dataset]
    res = optimize.linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None), (None, None), (None, None)],
        method="highs",
    )
    if not res.success:
        raise ArgumentError(f"margin LP failed: {res.message}")
    return float(res.x[2])


def make_separable_dataset(
    n: int = 50, margin: float = 0.25, seed: int = 0
) -> tuple[LabeledPoint, ...]:
    """n class-balanced points in [-1, 1]^2 with a guaranteed margin.

    A ground-truth boundary x2 = -g1*x1 - g0 is drawn from the seed and
    candidate points inside the margin band are rejected, so the result
    is separable by construction (and double-checked before returning).
    """
    if n < 2:
        raise ArgumentError(f"need at least 2 points, got {n!r}")
    if not 0 < margin < 0.9:
        raise ArgumentError(f"margin must lie in (0, 0.9), got {margin!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    g1 = rng.uniform(-0.8, 0.8)
    g0 = rng.uniform(-0.05, 0.05)
    need = {1: n - n // 2, -1: n // 2}
    points: list[LabeledPoint] = []
    while need[1] or need[-1]:
        x1, x2 = rng.uniform(-1.0, 1.0, size=2)
        m = x2 + g1 * x1 + g0
        if abs(m) < margin:
            continue
        y = 1 if m > 0 else -1
        if need[y] == 0:
            continue
        need[y] -= 1
        points.append(LabeledPoint(x=(float(x1), float(x2)), y=y))
    for p in points:
        assert p.y * (p.x[1] + g1 * p.x[0] + g0) >= margin
    return tuple(points)


def _accuracy(dataset: Sequence[LabeledPoint], w: Sequence[float]) -> float:
    hits = sum(1 for p in dataset if p.y * decision_fn(p.x, w) > 0)
    return hits / len(dataset)


def train_perceptron(
    dataset: Sequence[LabeledPoint], array: DamArray, config: TrainerConfig
) -> tuple[TrainingTrace, DamArray]:
    """Margin-perceptron training with both weights living on DAM cells.

    Cell 0 carries w0, cell 1 carries w1.  Every training point costs
    one sample interval; a margin violation (y*f < 1) issues pulse
    trains whose amplitudes come from a pristine reference cell aged in
    lockstep with the array, so amplitudes depend on device age, not on
    the momentary weight values.  Refuses datasets that the decision
    family cannot separate.
    """
    if len(array) != 2:
        raise ArgumentError(f"perceptron needs a 2-cell array, got {len(array)}")
    if not dataset:
        raise ArgumentError("dataset is empty")
    margin = best_margin(dataset)
    if margin <= 1e-9:
        raise ArgumentError(
            f"dataset is not separable by f = x2 + w1*x1 + w0 (best margin {margin:.3g})"
        )

    trace = TrainingTrace(ledger=EnergyLedger(c_in=config.c_in), margin=margin)
    reference = synchronize(array.nominal_params, array.nominal_params, array.v0)
    if array.global_clock > 0:
        reference = decay(reference, array.global_clock)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    period = 1.0 / config.pulse_frequency_hz
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_energy_start = len(trace.ledger.entries)
        abs_updates: list[float] = []
        for point_index in order:
            point = dataset[int(point_index)]
            t_sample = array.global_clock
            w = tuple(array.weights().tolist())
            loss = hinge_loss(point.x, point.y, w)
            grad = hinge_gradient(point.x, point.y, w)
            commands = (PulseCommand(1, 0, 0.0), PulseCommand(1, 0, 0.0))
            step_energy = 0.0
            if grad != (0.0, 0.0):
                rate = config.rate_at(step)
                commands = tuple(
                    gradient_to_pulses(-rate * g, config, reference) for g in grad
                )
                longest = max(c.n_pulses for c in commands)
                for k in range(longest):
                    targets = [
                        (j, c.polarity, Pulse(c.amplitude_v, config.pulse_duration_s))
                        for j, c in enumerate(commands)
                        if k < c.n_pulses
                    ]
                    array = batch_pulse(array, targets)
                    array = advance(array, period - config.pulse_duration_s)
                for j, c in enumerate(commands):
                    if c.n_pulses > 0:
                        trace.ledger.record(
                            cell_id=j,
                            t_s=t_sample,
                            amplitude_v=c.amplitude_v,
                            duration_s=config.pulse_duration_s,
                            n_pulses=c.n_pulses,
                        )
                        step_energy += trace.ledger.entries[-1].energy_j
                reference = decay(reference, longest * period)
                remainder = config.sample_interval_s - longest * period
            else:
                remainder = config.sample_interval_s
            array = advance(array, remainder)
            reference = decay(reference, remainder)

            new_w = tuple(array.weights().tolist())
            if grad != (0.0, 0.0):
                abs_updates.append(abs(new_w[0] - w[0]) + abs(new_w[1] - w[1]))
            trace.steps.append(
                StepRecord(
                    step=step,
                    epoch=epoch,
                    point_index=int(point_index),
                    t_s=t_sample,
                    w0_mv=new_w[0],
                    w1_mv=new_w[1],
                    loss=loss,
                    g0=grad[0],
                    g1=grad[1],
                    n_pulses0=commands[0].n_pulses,
                    n_pulses1=commands[1].n_pulses,
                    amplitude0_v=commands[0].amplitude_v,
                    amplitude1_v=commands[1].amplitude_v,
                    energy_j=step_energy,
                    clipped=commands[0].clipped or commands[1].clipped,
                )
            )
            step += 1

        w_now = tuple(array.weights().tolist())
        epoch_entries = trace.ledger.entries[epoch_energy_start:]
        trace.epochs.append(
            EpochSummary(
                epoch=epoch,
                accuracy=_accuracy(dataset, w_now),
                mean_abs_update_mv=(
                    float(np.mean(abs_updates)) if abs_updates else 0.0
                ),
                energy_j=sum(e.energy_j for e in epoch_entries),
                n_updates=len(abs_updates),
            )
        )

    trace.final_weights_mv = tuple(array.weights().tolist())
    return trace, array


# --- network arm: software SGDM with device-backed weight decay ---


@dataclass(frozen=True)
class MlpSpec:
    n_inputs: int = 2
    n_hidden: int = 16
    n_classes: int = 3

    def __post_init__(self):
        if min(self.n_inputs, self.n_hidden, self.n_classes) < 1:
            raise DomainError("all layer sizes must be >= 1")

    @property
    def n_params(self) -> int:
        return (
            self.n_inputs * self.n_hidden
            + self.n_hidden
            + self.n_hidden * self.n_classes
            + self.n_classes
        )


@dataclass(frozen=True)
class NetworkConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 10
    decay_interval_s: float = 2.0  # array decay charged per iteration
    decay_only_final_epoch: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        for name in ("learning_rate", "decay_interval_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")


def make_blob_dataset(
    n_per_class: int,
    centers: Sequence[tuple[float, float]] = ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.6)),
    spread: float = 0.55,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs: returns (X, labels) with labels 0..K-1."""
    if n_per_class < 1:
        raise ArgumentError("n_per_class must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(np.asarray(center) + spread * rng.standard_normal((n_per_class, 2)))
        ys.append(np.full(n_per_class, label, dtype=int))
    return np.concatenate(xs), np.concatenate(ys)


def _init_mlp(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    w1 = rng.standard_normal((spec.n_inputs, spec.n_hidden)) * math.sqrt(2.0 / spec.n_inputs)
    w2 = rng.standard_normal((spec.n_hidden, spec.n_classes)) * math.sqrt(2.0 / spec.n_hidden)
    return np.concatenate(
        [w1.ravel(), np.zeros(spec.n_hidden), w2.ravel(), np.zeros(spec.n_classes)]
    )


def _unpack(spec: MlpSpec, theta: np.ndarray):
    i, h, c = spec.n_inputs, spec.n_hidden, spec.n_classes
    a = 0
    w1 = theta[a : a + i * h].reshape(i, h); a += i * h
    b1 = theta[a : a + h]; a += h
    w2 = theta[a : a + h * c].reshape(h, c); a += h * c
    b2 = theta[a : a + c]
    return w1, b1, w2, b2


def mlp_logits(spec: MlpSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    w1, b1, w2, b2 = _unpack(spec, theta)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def mlp_accuracy(spec: MlpSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.argmax(mlp_logits(spec, theta, x), axis=1) == y))


def _mlp_grad(spec: MlpSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean softmax cross-entropy gradient over the batch."""
    w1, b1, w2, b2 = _unpack(spec, theta)
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ w2 + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    g_w2 = hidden.T @ delta
    g_b2 = delta.sum(axis=0)
    back = (delta @ w2.T) * (pre > 0)
    g_w1 = x.T @ back
    g_b1 = back.sum(axis=0)
    return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def _write_params_to_array(array: DamArray, theta: np.ndarray) -> DamArray:
    """Park each parameter on its cell as a mean-preserving node split.

    The split is centered on the cell's current node mean, so writing
    preserves the device's position along its decay trajectory and only
    the differential (the weight) is overwritten.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (len(array),):
        raise ArgumentError(f"need one value per cell: {theta.shape} for {len(array)} cells")
    mid = 0.5 * (array.v[:, 0] + array.v[:, 1])
    half = 0.5 * theta / array.weight_scale
    too_large = ~(mid - np.abs(half) > 0)  # NaN included
    if too_large.any():
        i = int(np.argmax(too_large))
        raise DomainError(
            f"weight {float(theta[i])!r} too large to park on a {float(mid[i])!r} V cell"
        )
    return _with_voltages(array, np.stack((mid - half, mid + half), axis=1), array.global_clock)


def _read_params_from_array(array: DamArray) -> np.ndarray:
    return array.weights()


@dataclass(frozen=True)
class NetworkEpoch:
    epoch: int
    test_accuracy: float
    mean_abs_weight: float
    decay_only: bool


@dataclass
class NetworkTrace:
    epochs: list[NetworkEpoch] = field(default_factory=list)
    final_accuracy: float = 0.0
    theta: np.ndarray | None = None


def train_network_with_dam_decay(
    spec: MlpSpec,
    train_set: tuple[np.ndarray, np.ndarray],
    test_set: tuple[np.ndarray, np.ndarray],
    array: DamArray | None,
    config: NetworkConfig,
) -> tuple[NetworkTrace, DamArray | None]:
    """SGDM training with optional device-backed decay between iterations.

    With an array, every parameter is written onto a cell after each
    SGDM step, the array decays for decay_interval_s, and the weights
    are read back — decay and (if the array is mismatched) per-cell
    drift come from the device physics.  With ``array=None`` the loop
    is standard SGDM.  The final epoch skips gradient updates when
    decay_only_final_epoch is set: device-backed weights keep decaying,
    software-only weights stay frozen.
    """
    x_train, y_train = train_set
    x_test, y_test = test_set
    if array is not None and len(array) != spec.n_params:
        raise ArgumentError(
            f"need one cell per parameter: {spec.n_params} params, "
            f"{len(array)} cells"
        )
    rng = np.random.Generator(np.random.PCG64(config.seed))
    theta = _init_mlp(spec, rng)
    velocity = np.zeros_like(theta)
    trace = NetworkTrace()
    for epoch in range(config.epochs):
        decay_only = config.decay_only_final_epoch and epoch == config.epochs - 1
        order = rng.permutation(len(x_train))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            if not decay_only:
                grad = _mlp_grad(spec, theta, x_train[batch], y_train[batch])
                velocity = config.momentum * velocity - config.learning_rate * grad
                theta = theta + velocity
            if array is not None:
                array = _write_params_to_array(array, theta)
                array = advance(array, config.decay_interval_s)
                theta = _read_params_from_array(array)
        trace.epochs.append(
            NetworkEpoch(
                epoch=epoch,
                test_accuracy=mlp_accuracy(spec, theta, x_test, y_test),
                mean_abs_weight=float(np.mean(np.abs(theta))),
                decay_only=decay_only,
            )
        )
    trace.final_accuracy = trace.epochs[-1].test_accuracy
    trace.theta = theta
    return trace, array
