"""Training on DAM weights: a pulse-programmed perceptron and a small
network arm where the array's physics supplies the weight decay.

The perceptron keeps its two weights on two cells of a DamArray.  Each
training point costs one sample interval of wall-clock time; a violated
margin turns into a gradient, the gradient into a polarity, a pulse
count and a precompensated amplitude, and the pulses into array
operations whose energy lands in an EnergyLedger.  The loop runs those
operations on the cells' float nodes (``cell._evolved_nodes``), to the
bits and errors of ``batch_pulse`` and ``advance``, and builds the
trained array once at the end.

The network trainer runs ordinary SGD-with-momentum in software but
parks every parameter on a DAM cell between iterations, so weights
shrink by the device's own resynchronization instead of an explicit
regularization term.  With ``array=None`` the parking step is skipped
and the loop is plain SGDM, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .array import WEIGHT_SCALE, DamArray, _with_voltages, advance
from .cell import _aged_nodes, _evolved_nodes, _float_weight, _solve_amplitude
from .energy import DEFAULT_C_IN, EnergyLedger
from .errors import ArgumentError, DomainError
from .tables import csv_table, record_row

_AMP_TOL_MV = 1e-4  # precompensation tolerance for issued amplitudes
DATASET_POINTS = 50  # default size and margin of make_separable_dataset
DATASET_MARGIN = 0.25
# the perceptron's pulse timing: a pulse must fit its period, and the longest
# train, MAX_PULSES_PER_UPDATE periods, must fit one sample interval
PULSE_FREQUENCY_HZ = 1000.0
PULSE_DURATION_S = 0.0005
SAMPLE_INTERVAL_S = 2.0
MAX_PULSES_PER_UPDATE = 1000
DECAY_INTERVAL_S = 2.0  # array decay charged per network iteration
# the network's three gaussian classes: their centers and common spread
BLOB_CENTERS = ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.6))
BLOB_SPREAD = 0.55


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

    learning_rate is constant: the device's own decay already supplies
    the shrinking-step behavior.  unit_step_mv is the weight change one
    pulse is precompensated to produce.
    """

    learning_rate: float = 0.4
    unit_step_mv: float = 0.05
    epochs: int = 5
    c_in: float = DEFAULT_C_IN
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "unit_step_mv", "c_in"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive, got {value!r}")
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")


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


def gradient_to_pulses(
    update_mv: float, config: TrainerConfig, amplitude: Callable[[], float]
) -> PulseCommand:
    """Quantize a desired weight change into pulses.

    update_mv is the signed post-learning-rate weight change.  Its sign
    picks SET (+) or RESET (-); its magnitude is rounded to the nearest
    whole number of unit steps.  `amplitude()` gives the pulse amplitude
    that moves the weight by one unit step at the cell's current age; it
    is called only when there are pulses to issue.  Counts beyond
    MAX_PULSES_PER_UPDATE are clipped and flagged.
    """
    n_exact = abs(update_mv) / config.unit_step_mv
    # round(n_exact) exceeds the cap exactly when n_exact does by more than
    # half a step; deciding on the float first never rounds an infinite count
    clipped = n_exact > MAX_PULSES_PER_UPDATE + 0.5
    n_pulses = MAX_PULSES_PER_UPDATE if clipped else int(round(n_exact))
    if n_pulses == 0:
        return PulseCommand(polarity=1, n_pulses=0, amplitude_v=0.0)
    return PulseCommand(
        polarity=1 if update_mv > 0 else -1,
        n_pulses=n_pulses,
        amplitude_v=amplitude(),
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
        header = ("step,epoch,point_index,t_s,w0_mV,w1_mV,loss,g0,g1,"
                  "n_pulses0,n_pulses1,amplitude0_V,amplitude1_V,energy_J,clipped")
        return csv_table(header.split(","), map(record_row, self.steps))

    def epoch_csv(self) -> str:
        header = "epoch,accuracy,mean_abs_update_mV,energy_J,n_updates"
        return csv_table(header.split(","), map(record_row, self.epochs))


def best_margin(dataset: Sequence[LabeledPoint]) -> float:
    """Largest m with y*(x2 + w1*x1 + w0) >= m for some (w0, w1), correctly rounded.

    For a fixed w1 the best w0 centres the band between the classes, so
    the margin is F(w1) = (min over positive points of x2 + w1*x1, minus
    the max over negative points of the same) / 2: a concave
    piecewise-linear function.  Any positive line minus any negative
    line bounds 2F from above, so F's maximum lies at or below the
    crossing of a rising bound and a falling one.  The search starts
    from bounds with F's slopes as w1 -> -inf and +inf and evaluates F
    at their crossing in exact integer arithmetic (each coordinate is an
    integer over one common power of two).  If F's one-sided slopes
    there bracket zero, the crossing is the maximizer; otherwise the
    piece of F leaving it replaces the rising or the falling bound.
    Each step retires a slope of F, so there are at most about
    len(dataset) steps of O(len(dataset)) work each, and memory stays
    O(len(dataset)).  Positive m means the dataset is separable by the
    perceptron's decision family; note the family fixes the x2
    coefficient to +1, so this is stricter than general linear
    separability.
    """
    labels = {p.y for p in dataset}
    if labels != {-1, 1}:
        raise ArgumentError("dataset must contain both classes")
    ratios = [[float(v).as_integer_ratio() for v in p.x] for p in dataset]
    scale = max(d for r in ratios for _, d in r)
    exact = {y: [tuple(n * (scale // d) for n, d in r) for p, r in zip(dataset, ratios)
                 if p.y == y] for y in (1, -1)}
    pos, neg = exact[1], exact[-1]
    # F's slope is (min positive x1 - max negative x1) / 2 for large w1
    # and (max positive x1 - min negative x1) / 2 for very negative w1
    if min(pos)[0] > max(neg)[0] or max(pos)[0] < min(neg)[0]:
        raise ArgumentError("margin is unbounded: no x1 slope separates the classes")

    def bound(p: tuple[int, int], n: tuple[int, int]) -> tuple[int, int]:
        """Positive line p minus negative line n, each (x1, x2): (slope, intercept)."""
        return p[0] - n[0], p[1] - n[1]

    # F's slopes at -inf and +inf, so >= 0 and <= 0
    rising = bound(max(pos), min(neg))
    falling = bound(min(pos), max(neg))
    while True:
        # the crossing w1 = a/b, b > 0; two flat bounds mean F is constant
        (s_r, c_r), (s_f, c_f) = rising, falling
        a, b = (c_f - c_r, s_r - s_f) if s_r != s_f else (0, 1)
        lines_pos = [x2 * b + x1 * a for x1, x2 in pos]
        lines_neg = [x2 * b + x1 * a for x1, x2 in neg]
        lo, hi = min(lines_pos), max(lines_neg)
        active_pos = [l for l, v in zip(pos, lines_pos) if v == lo]
        active_neg = [l for l, v in zip(neg, lines_neg) if v == hi]
        if min(active_pos)[0] > max(active_neg)[0]:  # F rises right of a/b
            rising = bound(min(active_pos), max(active_neg))
        elif max(active_pos)[0] < min(active_neg)[0]:  # F falls left of a/b
            falling = bound(max(active_pos), min(active_neg))
        else:
            return (lo - hi) / (2 * b * scale)  # int division rounds correctly


def make_separable_dataset(
    n: int = DATASET_POINTS, margin: float = DATASET_MARGIN, seed: int = 0
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
    # the pristine reference cell and the array, as float nodes
    reference = _aged_nodes(array.nominal_params, array.v0, array.global_clock)
    nodes = tuple(zip(array.v.ravel().tolist(), array.log_k1.ravel().tolist(),
                      array.k2.ravel().tolist()))
    ws = array.weight_scale.tolist()
    clock = array.global_clock
    ratio = array.nominal_params.coupling_ratio

    def weights():
        return tuple(_float_weight(nodes[2 * i:2 * i + 2], w) for i, w in enumerate(ws))

    rng = np.random.Generator(np.random.PCG64(config.seed))
    period = 1.0 / PULSE_FREQUENCY_HZ
    idle = period - PULSE_DURATION_S
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_energy_start = len(trace.ledger.entries)
        abs_updates: list[float] = []
        for point_index in order:
            point = dataset[int(point_index)]
            t_sample = clock
            w = weights()
            loss = hinge_loss(point.x, point.y, w)
            grad = hinge_gradient(point.x, point.y, w)
            commands = (PulseCommand(1, 0, 0.0), PulseCommand(1, 0, 0.0))
            step_energy = 0.0
            if grad != (0.0, 0.0):
                # one solve serves both commands: it depends on the reference alone
                amplitude = functools.cache(functools.partial(
                    _solve_amplitude, reference, WEIGHT_SCALE, ratio, config.unit_step_mv,
                    PULSE_DURATION_S, _AMP_TOL_MV))
                commands = tuple(
                    gradient_to_pulses(-config.learning_rate * g, config, amplitude)
                    for g in grad
                )
                # per node in row-major order: its pulse step and pulse count
                pulse_steps, counts = [0.0] * 4, [0] * 4
                for j, c in enumerate(commands):
                    node = 2 * j + (c.polarity == -1)
                    pulse_steps[node] = c.amplitude_v * ratio
                    counts[node] = c.n_pulses
                longest = max(counts)
                for k in range(longest):
                    nodes = _evolved_nodes(nodes, PULSE_DURATION_S, [
                        s if k < n else 0.0 for s, n in zip(pulse_steps, counts)])
                    clock += PULSE_DURATION_S
                    nodes = _evolved_nodes(nodes, idle)
                    clock += idle
                for j, c in enumerate(commands):
                    if c.n_pulses > 0:
                        entry = trace.ledger.record(
                            cell_id=j,
                            t_s=t_sample,
                            amplitude_v=c.amplitude_v,
                            duration_s=PULSE_DURATION_S,
                            n_pulses=c.n_pulses,
                        )
                        step_energy += entry.energy_j
                reference = _evolved_nodes(reference, longest * period)
                remainder = SAMPLE_INTERVAL_S - longest * period
            else:
                remainder = SAMPLE_INTERVAL_S
            nodes = _evolved_nodes(nodes, remainder)
            clock += remainder
            reference = _evolved_nodes(reference, remainder)

            new_w = weights()
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

        w_now = weights()
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

    trace.final_weights_mv = weights()
    voltages = np.array([v for v, _, _ in nodes]).reshape(2, 2)
    return trace, _with_voltages(array, voltages, clock)


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
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")


def make_blob_dataset(n_per_class: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs around BLOB_CENTERS: returns (X, labels), labels 0..2."""
    if n_per_class < 1:
        raise ArgumentError("n_per_class must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [], []
    for label, center in enumerate(BLOB_CENTERS):
        xs.append(np.asarray(center) + BLOB_SPREAD * rng.standard_normal((n_per_class, 2)))
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
    SGDM step, the array decays for DECAY_INTERVAL_S, and the weights
    are read back — decay and (if the array is mismatched) per-cell
    drift come from the device physics.  With ``array=None`` the loop
    is standard SGDM.  The final epoch skips gradient updates:
    device-backed weights keep decaying, software-only weights stay
    frozen.  A float overflow or invalid value, the sign of a
    learning_rate too large to converge, raises DomainError.
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
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                decay_only = epoch == config.epochs - 1
                order = rng.permutation(len(x_train))
                for start in range(0, len(order), config.batch_size):
                    batch = order[start : start + config.batch_size]
                    if not decay_only:
                        grad = _mlp_grad(spec, theta, x_train[batch], y_train[batch])
                        velocity = config.momentum * velocity - config.learning_rate * grad
                        theta = theta + velocity
                    if array is not None:
                        array = _write_params_to_array(array, theta)
                        array = advance(array, DECAY_INTERVAL_S)
                        theta = array.weights()
                trace.epochs.append(
                    NetworkEpoch(
                        epoch=epoch,
                        test_accuracy=mlp_accuracy(spec, theta, x_test, y_test),
                        mean_abs_weight=float(np.mean(np.abs(theta))),
                        decay_only=decay_only,
                    )
                )
    except FloatingPointError as exc:
        raise DomainError(
            f"network training diverged at learning_rate {config.learning_rate!r}: {exc}"
        ) from None
    trace.final_accuracy = trace.epochs[-1].test_accuracy
    trace.theta = theta
    return trace, array
