"""The network's lockstep arms against the per-arm loop they replace.

``reference_train`` below is ``train_network_with_dam_decay`` as it ran
on one arm at a time: a 2-D gradient per minibatch
(``reference_grad``), and per device iteration a mean-preserving park
(``reference_park``), one ``advance`` and one ``weights()`` read, and
per epoch a 2-D test accuracy (``reference_accuracy``).  The lockstep
trainer, given the same arms in one call, must return the same
epochs, parameters and arrays, bit for bit, or raise the exception type
and message that running the arms one after another raises first.
"""

import functools

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from fndam.array import WEIGHT_SCALE, MismatchSpec, _with_voltages, advance, build_array
from fndam.calibrate import default_params
from fndam.errors import ArgumentError, DomainError, FndamError
from fndam.trainer import (
    DECAY_INTERVAL_S,
    MlpSpec,
    NetworkConfig,
    NetworkEpoch,
    NetworkTrace,
    _init_mlp,
    _mlp_grads_into,
    _unpack,
    make_blob_dataset,
    train_network_with_dam_decay,
)

V0 = 7.5
SHORT = "short"  # an arm whose array has one cell too few


def mlp_grads(theta, x, y):
    """Mean softmax cross-entropy gradients over the batch of labels y, one per
    row of theta (K, n_params), through the trainer's ``_mlp_grads_into``."""
    grad = np.empty_like(theta)
    _mlp_grads_into(_unpack(grad), _unpack(theta), x, np.eye(MlpSpec.n_classes)[y])
    return grad


def reference_grad(theta, x, y):
    """Mean softmax cross-entropy gradient of one parameter vector."""
    w1, b1, w2, b2 = _unpack(theta)
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


def reference_accuracy(theta, x, y):
    """Share of the rows of x whose largest logit is at their label y."""
    w1, b1, w2, b2 = _unpack(theta)
    logits = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    return float(np.mean(np.argmax(logits, axis=1) == y))


def reference_park(array, theta):
    """Each weight as a split centered on its cell's node mean."""
    mid = 0.5 * (array.v[:, 0] + array.v[:, 1])
    half = 0.5 * theta / WEIGHT_SCALE
    too_large = ~(mid - np.abs(half) > 0)
    if too_large.any():
        i = int(np.argmax(too_large))
        raise DomainError(
            f"weight {float(theta[i])!r} too large to park on a {float(mid[i])!r} V cell"
        )
    return _with_voltages(array, np.stack((mid - half, mid + half), axis=1), array.global_clock)


def reference_train(train_set, test_set, array, config):
    """One arm: SGDM, and with an array park, advance and read back per iteration."""
    x_train, y_train = train_set
    x_test, y_test = test_set
    if array is not None and len(array) != MlpSpec.n_params:
        raise ArgumentError(
            f"need one cell per parameter: {MlpSpec.n_params} params, {len(array)} cells"
        )
    rng = np.random.Generator(np.random.PCG64(config.seed))
    theta = _init_mlp(rng)
    velocity = np.zeros_like(theta)
    epochs = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                decay_only = epoch == config.epochs - 1
                order = rng.permutation(len(x_train))
                for start in range(0, len(order), config.batch_size):
                    batch = order[start : start + config.batch_size]
                    if not decay_only:
                        grad = reference_grad(theta, x_train[batch], y_train[batch])
                        velocity = config.momentum * velocity - config.learning_rate * grad
                        theta = theta + velocity
                    if array is not None:
                        array = reference_park(array, theta)
                        array = advance(array, DECAY_INTERVAL_S)
                        theta = array.weights()
                epochs.append(NetworkEpoch(
                    epoch=epoch,
                    test_accuracy=reference_accuracy(theta, x_test, y_test),
                    mean_abs_weight=float(np.mean(np.abs(theta))),
                    decay_only=decay_only,
                ))
    except FloatingPointError as exc:
        raise DomainError(
            f"network training diverged at learning_rate {config.learning_rate!r}: {exc}"
        ) from None
    return NetworkTrace(epochs, theta), array


def outcome(runs):
    """Everything the runs return, or their exception as (type, message).

    repr tells every float apart by its bits, and a NumPy scalar from a
    Python float.
    """
    try:
        runs = runs()
    except (FndamError, ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return [
        (repr(trace.epochs), trace.theta.dtype, trace.theta.shape, trace.theta.tobytes(),
         out if out is None else (out, repr(out.global_clock)))
        for trace, out in runs
    ]


def build_arm(arm, mismatch_seed, pre_age_s):
    """None, or an array of the arm's mismatch, aged like the CLI's arms."""
    if arm is None:
        return None
    n = MlpSpec.n_params - 1 if arm == SHORT else MlpSpec.n_params
    array = build_array(n, default_params(), V0,
                        MismatchSpec(relative_sigma=0.0 if arm == SHORT else arm,
                                     seed=mismatch_seed))
    return advance(array, pre_age_s) if pre_age_s > 0 else array


arm_kinds = st.sampled_from([None, 0.0, SHORT]) | st.floats(1e-4, 0.1)


@given(
    arms=st.lists(arm_kinds, min_size=1, max_size=4),
    n_train_per_class=st.integers(1, 15),
    batch_size=st.integers(1, 12),
    epochs=st.integers(1, 4),
    learning_rate=st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e),
    momentum=st.floats(0.0, 0.99),
    pre_age_s=st.sampled_from([0.0]) | st.floats(1.0, 1e7),
    seed=st.integers(0, 2**32 - 1),
    data_seed=st.integers(0, 2**32 - 1),
    mismatch_seed=st.integers(0, 2**32 - 1),
)
# the CLI's default network runs at {"learning_rate": 1e6, "mismatch_sigma":
# 1e308} and at {"learning_rate": 5.0, "mismatch_sigma": 0.3}: the standard
# arm, then the dam arm, fails before the mismatch arm's array, which cannot
# be built, is needed; here that arm is one cell short instead
@example(arms=[None, 0.0, SHORT], n_train_per_class=100, batch_size=10, epochs=10,
         learning_rate=1e6, momentum=0.9, pre_age_s=0.0, seed=0, data_seed=11,
         mismatch_seed=0)
@example(arms=[None, 0.0, SHORT], n_train_per_class=100, batch_size=10, epochs=10,
         learning_rate=5.0, momentum=0.9, pre_age_s=0.0, seed=0, data_seed=11,
         mismatch_seed=0)
# the ragged-batch run: 69 points in batches of 7, aged a day, 1 % mismatch
@example(arms=[None, 0.0, 0.01], n_train_per_class=23, batch_size=7, epochs=10,
         learning_rate=0.1, momentum=0.9, pre_age_s=86400.0, seed=5, data_seed=11,
         mismatch_seed=0)
@settings(max_examples=100, deadline=None)
def test_lockstep_matches_arms_run_one_at_a_time(arms, n_train_per_class, batch_size, epochs,
                                                 learning_rate, momentum, pre_age_s, seed,
                                                 data_seed, mismatch_seed):
    try:
        arrays = [build_arm(arm, mismatch_seed, pre_age_s) for arm in arms]
    except FndamError:
        assume(False)  # an array that cannot be built never reaches the trainer
    train_set = make_blob_dataset(n_train_per_class, seed=data_seed)
    test_set = make_blob_dataset(2 * n_train_per_class, seed=data_seed + 1)
    config = NetworkConfig(learning_rate=learning_rate, momentum=momentum, epochs=epochs,
                           batch_size=batch_size, seed=seed)
    got = outcome(lambda: train_network_with_dam_decay(train_set, test_set, arrays, config))
    want = outcome(lambda: [reference_train(train_set, test_set, a, config) for a in arrays])
    assert got == want


def test_examples_reach_their_errors():
    """The two error examples above fail as the CLI's runs fail."""
    train_set = make_blob_dataset(100, seed=11)
    test_set = make_blob_dataset(200, seed=12)
    arrays = [build_arm(arm, 0, 0.0) for arm in (None, 0.0, SHORT)]
    for learning_rate, error in (
        (1e6, "network training diverged at learning_rate 1000000.0: "
              "overflow encountered in matmul"),
        (5.0, "weight -10531.67371206704 too large to park on a 3.806859232147121 V cell"),
    ):
        config = NetworkConfig(learning_rate=learning_rate)
        runs = functools.partial(train_network_with_dam_decay, train_set, test_set, arrays, config)
        assert outcome(runs) == ("DomainError", error)


def test_batched_gradient_rows_match_the_one_row_gradient():
    """Each row of the batched gradient is the 2-D gradient of that row, bit for bit."""
    rng = np.random.default_rng(3)
    for case in range(300):
        k = 1 + case % 4
        b = 1 + case % 30
        theta = rng.standard_normal((k, MlpSpec.n_params)) * rng.uniform(0.1, 3.0, (k, 1))
        x = rng.standard_normal((b, 2))
        y = rng.integers(0, MlpSpec.n_classes, size=b)
        got = mlp_grads(theta, x, y)
        for row, want in zip(got, theta):
            assert row.tobytes() == reference_grad(want, x, y).tobytes()
