"""Training on DAM weights: a pulse-programmed perceptron and a small
network arm where the array's physics supplies the weight decay.

The perceptron keeps its two weights on two cells of a DamArray.  Each
training point costs one sample interval of wall-clock time; a violated
margin turns into a gradient and the gradient into a polarity and a
pulse count per weight.  Once both counts are known, one precompensated
amplitude is solved for the step, only if it has pulses, and the pulses
become array operations whose energy lands in an EnergyLedger.  Every
step takes this one path; a step without pulses only ages.  The loop
runs those operations on the cells' float nodes
(``cell._evolved_nodes``, and ``_pulse_train`` for each segment of a
pulse train, one call per segment), to the bits and errors of
``batch_pulse`` and ``advance``, and builds the trained array once at
the end.

The network trainer runs ordinary SGD-with-momentum in software but
parks every parameter on a DAM cell between iterations, so weights
shrink by the device's own resynchronization instead of an explicit
regularization term.  Its arms share their start and minibatches and
train in lockstep on stacked columns, to the bits of one arm at a time;
an arm without an array is plain SGDM.  Its parameters, velocity and
gradient are updated in place, through views taken once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .array import WEIGHT_SCALE, DamArray, _require_positive, _with_voltages
from .cell import (_aged_nodes, _evolved_nodes, _float_nodes, _float_weight, _require_driven,
                   _solve_amplitude)
from .energy import DEFAULT_C_IN, EnergyLedger
from .errors import ArgumentError, DomainError, FndamError
from .node import _require_finite_positive, _require_int, _require_seed, decayed, decayed_float

_AMP_TOL_MV = 1e-4  # precompensation tolerance for issued amplitudes
DATASET_POINTS = 50  # default size and margin of make_separable_dataset
DATASET_MARGIN = 0.25
MAX_DATASET_MARGIN = 0.9  # a dataset's margin lies in (0, MAX_DATASET_MARGIN)
# the perceptron's pulse timing: a pulse must fit its period, and the longest
# train, MAX_PULSES_PER_UPDATE periods, must fit one sample interval
PULSE_FREQUENCY_HZ = 1000.0
PULSE_DURATION_S = 0.0005
SAMPLE_INTERVAL_S = 2.0
MAX_PULSES_PER_UPDATE = 1000
DECAY_INTERVAL_S = 2.0  # array decay charged per network iteration
_LOG_DECAY_DT = math.log(DECAY_INTERVAL_S)
_SPLIT = np.array([-1.0, 1.0])  # a parked weight's half, signed per node
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
            _require_finite_positive(name, getattr(self, name))
        _require_int("epochs", self.epochs)
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        _require_seed(self.seed)


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


class PulseCommand(NamedTuple):
    polarity: int
    n_pulses: int
    clipped: bool = False


def gradient_to_pulses(update_mv: float, unit_step_mv: float) -> PulseCommand:
    """Quantize a desired weight change into a count of unit-step pulses.

    update_mv is the signed post-learning-rate weight change.  Its sign
    picks SET (+) or RESET (-); its magnitude is rounded to the nearest
    whole number of unit steps of unit_step_mv.  The command holds no
    amplitude: the trainer solves one per step, after both counts are
    known.  Counts beyond MAX_PULSES_PER_UPDATE are clipped and flagged;
    a NaN update, or a unit step that is not positive and finite, raises
    DomainError.
    """
    if not 0.0 < unit_step_mv < math.inf:  # checked off the fast path
        _require_finite_positive("unit_step_mv", unit_step_mv)
    if math.isnan(update_mv):
        raise DomainError(f"update_mv must not be NaN, got {update_mv!r}")
    n_exact = abs(update_mv) / unit_step_mv
    # round(n_exact) exceeds the cap exactly when n_exact does by more than
    # half a step; deciding on the float first never rounds an infinite count
    clipped = n_exact > MAX_PULSES_PER_UPDATE + 0.5
    n_pulses = MAX_PULSES_PER_UPDATE if clipped else int(round(n_exact))
    if n_pulses == 0:
        return PulseCommand(polarity=1, n_pulses=0)
    return PulseCommand(polarity=1 if update_mv > 0 else -1, n_pulses=n_pulses, clipped=clipped)


class StepRecord(NamedTuple):
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


class EpochSummary(NamedTuple):
    epoch: int
    accuracy: float
    mean_abs_update_mv: float
    energy_j: float
    n_updates: int


class TrainingTrace(NamedTuple):
    steps: list[StepRecord]
    epochs: list[EpochSummary]
    ledger: EnergyLedger
    margin: float  # best achievable margin of the dataset under f

    @property
    def final_weights_mv(self) -> tuple[float, float]:
        return self.steps[-1].w0_mv, self.steps[-1].w1_mv

    @property
    def total_energy_j(self) -> float:
        return self.ledger.total_energy()


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
    _require_int("n", n)
    if n < 2:
        raise ArgumentError(f"need at least 2 points, got {n!r}")
    if not 0 < margin < MAX_DATASET_MARGIN:
        raise ArgumentError(f"margin must lie in (0, {MAX_DATASET_MARGIN}), got {margin!r}")
    _require_seed(seed)
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


def _pulse_train(nodes, steps, n, clock, log_on, log_off, on, off):
    """n pulse periods on four float nodes: ``_evolved_nodes`` by the
    per-node steps for the pulse, then without them for the idle rest,
    given the logarithms of both durations; the clock moves by on, then
    off, each period.  Same bits and errors, each phase raising
    ``array._driven`` for its first node left non-positive.  The nodes
    are local floats for the whole train, and each node evaluation is
    one ``decayed_float`` call: the pulse is
    ``decayed_float(v + step, ...) - step``, as in ``node.apply_pulse``.
    Returns the nodes and the clock.
    """
    (v0, a0, b0), (v1, a1, b1), (v2, a2, b2), (v3, a3, b3) = nodes
    s0, s1, s2, s3 = steps
    for _ in range(n):
        v0 = decayed_float(v0 + s0, a0, b0, log_on) - s0
        v1 = decayed_float(v1 + s1, a1, b1, log_on) - s1
        v2 = decayed_float(v2 + s2, a2, b2, log_on) - s2
        v3 = decayed_float(v3 + s3, a3, b3, log_on) - s3
        if not (v0 > 0 and v1 > 0 and v2 > 0 and v3 > 0):
            _require_driven((v0, v1, v2, v3))
        v0 = decayed_float(v0, a0, b0, log_off)
        v1 = decayed_float(v1, a1, b1, log_off)
        v2 = decayed_float(v2, a2, b2, log_off)
        v3 = decayed_float(v3, a3, b3, log_off)
        if not (v0 > 0 and v1 > 0 and v2 > 0 and v3 > 0):
            _require_driven((v0, v1, v2, v3))
        clock += on
        clock += off
    return ((v0, a0, b0), (v1, a1, b1), (v2, a2, b2), (v3, a3, b3)), clock


def train_perceptron(
    dataset: Sequence[LabeledPoint], array: DamArray, config: TrainerConfig
) -> tuple[TrainingTrace, DamArray]:
    """Margin-perceptron training with both weights living on DAM cells.

    Cell 0 carries w0, cell 1 carries w1.  Every training point costs
    one sample interval; a margin violation (y*f < 1) issues pulse
    trains of one amplitude, solved once the step's counts are known on
    a pristine reference cell aged in lockstep with the array, so
    amplitudes depend on device age, not on the momentary weight values.
    Refuses datasets that the decision family cannot separate.

    Each segment of a pulse train is one ``_pulse_train`` call: a node
    pulses while the period index is below its count, so the per-node
    steps change only at the distinct counts, and are taken once per
    segment.  The logarithms of the pulse and idle durations are taken
    once per run.
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

    steps: list[StepRecord] = []
    epochs: list[EpochSummary] = []
    ledger = EnergyLedger(c_in=config.c_in)
    # the pristine reference cell and the array, as float nodes
    reference = _aged_nodes(array.nominal_params, array.v0, array.global_clock)
    nodes = _float_nodes(array)
    clock = array.global_clock
    ratio = array.nominal_params.coupling_ratio

    def weights():
        return _float_weight(nodes[:2]), _float_weight(nodes[2:])

    rng = np.random.Generator(np.random.PCG64(config.seed))
    period = 1.0 / PULSE_FREQUENCY_HZ
    idle = period - PULSE_DURATION_S
    log_on, log_off = math.log(PULSE_DURATION_S), math.log(idle)
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_energy = 0.0  # summed as booked, so no Python version's sum() rounds it
        abs_updates: list[float] = []
        for point_index in order:
            point = dataset[int(point_index)]
            t_sample = clock
            w = weights()
            loss = hinge_loss(point.x, point.y, w)
            grad = hinge_gradient(point.x, point.y, w)
            commands = [gradient_to_pulses(-config.learning_rate * g, config.unit_step_mv)
                        for g in grad]
            # per node in row-major order: its pulse count
            counts = [0] * 4
            for j, c in enumerate(commands):
                counts[2 * j + (c.polarity == -1)] = c.n_pulses
            longest = max(counts)
            # one solve serves both commands: it depends on the reference alone
            amplitude = _solve_amplitude(reference, ratio, config.unit_step_mv, PULSE_DURATION_S,
                                         _AMP_TOL_MV) if longest else 0.0
            pulse_step = amplitude * ratio
            # one segment of periods ends at each distinct count
            start = 0
            for end in sorted(set(counts) - {0}):
                segment = [pulse_step if n >= end else 0.0 for n in counts]
                nodes, clock = _pulse_train(nodes, segment, end - start, clock, log_on,
                                            log_off, PULSE_DURATION_S, idle)
                start = end
            step_energy = 0.0
            for j, c in enumerate(commands):
                if c.n_pulses > 0:
                    entry = ledger.record(cell_id=j, t_s=t_sample, amplitude_v=amplitude,
                                          duration_s=PULSE_DURATION_S, n_pulses=c.n_pulses)
                    step_energy += entry.energy_j
                    epoch_energy += entry.energy_j
            # a step without pulses ages the reference by 0 s, which leaves it as it is
            reference = _evolved_nodes(reference, longest * period)
            remainder = SAMPLE_INTERVAL_S - longest * period
            nodes = _evolved_nodes(nodes, remainder)
            clock += remainder
            reference = _evolved_nodes(reference, remainder)

            new_w = weights()
            if grad != (0.0, 0.0):
                abs_updates.append(abs(new_w[0] - w[0]) + abs(new_w[1] - w[1]))
            steps.append(
                StepRecord(
                    step=len(steps),
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
                    amplitude0_v=amplitude if commands[0].n_pulses else 0.0,
                    amplitude1_v=amplitude if commands[1].n_pulses else 0.0,
                    energy_j=step_energy,
                    clipped=commands[0].clipped or commands[1].clipped,
                )
            )

        epochs.append(
            EpochSummary(
                epoch=epoch,
                accuracy=_accuracy(dataset, weights()),
                mean_abs_update_mv=(
                    float(np.mean(abs_updates)) if abs_updates else 0.0
                ),
                energy_j=epoch_energy,
                n_updates=len(abs_updates),
            )
        )

    voltages = np.array([v for v, _, _ in nodes]).reshape(2, 2)
    return TrainingTrace(steps, epochs, ledger, margin), _with_voltages(array, voltages, clock)


# --- network arm: software SGDM with device-backed weight decay ---


class MlpSpec:
    """The network arm's classifier: 2 inputs, 16 ReLU hidden units, 3 classes."""

    n_inputs = 2
    n_hidden = 16
    n_classes = 3
    n_params = n_inputs * n_hidden + n_hidden + n_hidden * n_classes + n_classes


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
        _require_finite_positive("learning_rate", self.learning_rate)
        _require_int("epochs", self.epochs)
        _require_int("batch_size", self.batch_size)
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")
        _require_seed(self.seed)


def make_blob_dataset(n_per_class: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs around BLOB_CENTERS: returns (X, labels), labels 0..2."""
    _require_int("n_per_class", n_per_class)
    if n_per_class < 1:
        raise ArgumentError("n_per_class must be >= 1")
    _require_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [], []
    for label, center in enumerate(BLOB_CENTERS):
        xs.append(np.asarray(center) + BLOB_SPREAD * rng.standard_normal((n_per_class, 2)))
        ys.append(np.full(n_per_class, label, dtype=int))
    return np.concatenate(xs), np.concatenate(ys)


def _init_mlp(rng: np.random.Generator) -> np.ndarray:
    i, h, c = MlpSpec.n_inputs, MlpSpec.n_hidden, MlpSpec.n_classes
    w1 = rng.standard_normal((i, h)) * math.sqrt(2.0 / i)
    w2 = rng.standard_normal((h, c)) * math.sqrt(2.0 / h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def _unpack(theta: np.ndarray):
    i, h, c = MlpSpec.n_inputs, MlpSpec.n_hidden, MlpSpec.n_classes
    lead = theta.shape[:-1]
    a = 0
    w1 = theta[..., a : a + i * h].reshape(lead + (i, h)); a += i * h
    b1 = theta[..., a : a + h]; a += h
    w2 = theta[..., a : a + h * c].reshape(lead + (h, c)); a += h * c
    b2 = theta[..., a : a + c]
    return w1, b1, w2, b2


def mlp_logits(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    w1, b1, w2, b2 = _unpack(theta)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def mlp_accuracy(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.argmax(mlp_logits(theta, x), axis=1) == y))


def _mlp_grads_into(grad, params, x: np.ndarray, target: np.ndarray) -> None:
    """Mean softmax cross-entropy gradients over the batch, one per row of
    theta (K, n_params), into the ``_unpack`` views grad, from the views
    params of theta and the batch's one-hot targets (B, n_classes).

    Products run per row with the one-row shapes and transposes; all else
    is elementwise or within a row, so each row gets its one-row bits.
    Subtracting a one-hot row subtracts 1.0 at the label and 0.0, which
    changes no bit, elsewhere.  Of the calls here, only the five products
    and the exponential give bits that can depend on the CPU.
    """
    w1, b1, w2, b2 = params
    g_w1, g_b1, g_w2, g_b2 = grad
    pre = x @ w1 + b1[:, None]
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ w2 + b2[:, None]
    logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
    delta = np.exp(logits)
    delta /= np.add.reduce(delta, axis=2, keepdims=True)
    delta -= target
    delta /= len(target)
    np.matmul(hidden.transpose(0, 2, 1), delta, out=g_w2)
    np.add.reduce(delta, axis=1, out=g_b2)
    back = delta @ w2.transpose(0, 2, 1)
    back *= pre > 0
    np.matmul(x.T, back, out=g_w1)
    np.add.reduce(back, axis=1, out=g_b1)


def _parked(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Node voltages v (..., N, 2) with the weights theta (..., N) parked on them.

    Each split is centered on the cell's current node mean, so parking
    preserves the device's position along its decay trajectory and only
    the differential (the weight) is overwritten.
    """
    mid = 0.5 * (v[..., 0] + v[..., 1])
    half = 0.5 * theta / WEIGHT_SCALE
    parked = mid[..., None] + half[..., None] * _SPLIT  # mid + (-half) is mid - half
    if not np.minimum.reduce(parked, axis=None) > 0:  # NaN included
        # the first such cell in row-major order
        i = int(np.argmax(~(np.minimum.reduce(parked, axis=-1) > 0)))
        raise DomainError(
            f"weight {float(theta.flat[i])!r} too large to park on a {float(mid.flat[i])!r} V cell"
        )
    return parked


class NetworkEpoch(NamedTuple):
    epoch: int
    test_accuracy: float
    mean_abs_weight: float
    decay_only: bool


class NetworkTrace(NamedTuple):
    epochs: list[NetworkEpoch]
    theta: np.ndarray

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].test_accuracy


def train_network_with_dam_decay(
    train_set: tuple[np.ndarray, np.ndarray],
    test_set: tuple[np.ndarray, np.ndarray],
    arrays: Sequence[DamArray | None],
    config: NetworkConfig,
) -> list[tuple[NetworkTrace, DamArray | None]]:
    """SGDM training of one arm per entry of arrays; an array adds device-backed decay.

    The arms start from the same parameters and see the same minibatches,
    so they train in lockstep: one gradient pass and one device step per
    iteration serve them all.  A device arm parks every parameter on a
    cell after each SGDM step, decays the cells for DECAY_INTERVAL_S and
    reads the weights back, so decay and any mismatch drift come from the
    device physics.  The final epoch skips gradient updates.  A float
    overflow or invalid value, the sign of a learning_rate too large to
    converge, raises DomainError.  Returns one (trace, array) per arm; a
    failure raises the error of the first arm that fails, in arm order.

    Around its products the loop keeps its state in place: the
    parameters, the velocity and one gradient buffer are (K, n_params)
    arrays updated in place (``velocity *= momentum``, ``grad *= learning_rate``,
    ``velocity -= grad``, ``theta += velocity``: the float operations of
    ``theta + (momentum * velocity - learning_rate * grad)``),
    ``_unpack``'s views of theta and of the buffer are taken once per
    run, and each epoch gathers its shuffled inputs and one-hot targets
    once, so a minibatch is a slice.  The rows returned are copies.
    """
    if not arrays:
        return []
    x_train, y_train = train_set
    x_test, y_test = test_set
    device = [k for k, array in enumerate(arrays) if array is not None]
    device_arrays = [arrays[k] for k in device]
    # adjacent device rows are a slice of theta, read and written without a copy
    rows = device
    if device and device[-1] - device[0] == len(device) - 1:
        rows = slice(device[0], device[-1] + 1)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    theta = np.tile(_init_mlp(rng), (len(arrays), 1))
    velocity = np.zeros_like(theta)
    grad = np.empty_like(theta)
    params, grads = _unpack(theta), _unpack(grad)
    epochs: list[list[NetworkEpoch]] = [[] for _ in arrays]
    try:
        for array in device_arrays:
            if len(array) != MlpSpec.n_params:
                raise ArgumentError(
                    f"need one cell per parameter: {MlpSpec.n_params} params, {len(array)} cells"
                )
        # the device arms' columns, stacked (D, n_params, 2) for the whole run
        v, log_k1, k2 = (np.array([getattr(a, c) for a in device_arrays])
                         for c in ("v", "log_k1", "k2"))
        clocks = np.array([a.global_clock for a in device_arrays], dtype=np.float64)
        one_hot = np.eye(MlpSpec.n_classes)[y_train]
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                decay_only = epoch == config.epochs - 1
                # the epoch's minibatches, gathered once: each batch is a slice
                order = rng.permutation(len(x_train))
                xs, targets = x_train[order], one_hot[order]
                for start in range(0, len(order), config.batch_size):
                    if not decay_only:
                        stop = start + config.batch_size
                        _mlp_grads_into(grads, params, xs[start:stop], targets[start:stop])
                        velocity *= config.momentum
                        grad *= config.learning_rate
                        velocity -= grad
                        theta += velocity
                    if device:
                        v = decayed(_parked(v, theta[rows]), log_k1, k2, _LOG_DECAY_DT)
                        _require_positive(v)
                        clocks += DECAY_INTERVAL_S
                        theta[rows] = WEIGHT_SCALE * (v[..., 1] - v[..., 0])
                for row, trace in zip(theta, epochs):
                    trace.append(NetworkEpoch(
                        epoch=epoch,
                        test_accuracy=mlp_accuracy(row, x_test, y_test),
                        mean_abs_weight=float(np.mean(np.abs(row))),
                        decay_only=decay_only,
                    ))
    except (FloatingPointError, FndamError) as exc:
        if len(arrays) < 2:
            raise exc if isinstance(exc, FndamError) else DomainError(
                f"network training diverged at learning_rate {config.learning_rate!r}: {exc}"
            ) from None
    else:
        trained = [None] * len(arrays)
        for d, k in enumerate(device):
            trained[k] = _with_voltages(arrays[k], v[d].copy(), float(clocks[d]))
        return [(NetworkTrace(t, row.copy()), a) for t, row, a in zip(epochs, theta, trained)]
    # lockstep can meet a later arm's error first: one arm at a time, the
    # first arm that fails raises
    return [run for array in arrays
            for run in train_network_with_dam_decay(train_set, test_set, [array], config)]
