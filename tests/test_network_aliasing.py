"""The lockstep network trainer updates its parameters in place; none of
that may reach its callers.

Over the arm configurations of ``test_network_equivalence`` (and device
arms that are not adjacent), ``train_network_with_dam_decay`` must leave
its train and test arrays and each arm's columns and clock as they were,
and the parameter rows it returns must share no memory with each other,
with its inputs or with the buffers its gradient kernel wrote through;
nor may the voltages of the arrays it returns.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from fndam import trainer
from fndam.errors import FndamError
from fndam.trainer import NetworkConfig, make_blob_dataset, train_network_with_dam_decay

from test_network_equivalence import arm_kinds, build_arm

COLUMNS = ("v", "log_k1", "k2")


def snapshot(train_set, test_set, arrays):
    """Bytes of every input the trainer reads."""
    data = [a.tobytes() for a in (*train_set, *test_set)]
    for array in arrays:
        if array is not None:
            data += [getattr(array, c).tobytes() for c in COLUMNS] + [repr(array.global_clock)]
    return data


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
# device arms on either side of a software arm
@example(arms=[0.0, None, 0.01], n_train_per_class=23, batch_size=7, epochs=3,
         learning_rate=0.1, momentum=0.9, pre_age_s=86400.0, seed=5, data_seed=11,
         mismatch_seed=0)
@example(arms=[None, 0.0, None, 0.01], n_train_per_class=10, batch_size=4, epochs=2,
         learning_rate=0.1, momentum=0.9, pre_age_s=0.0, seed=1, data_seed=3,
         mismatch_seed=2)
@settings(max_examples=50, deadline=None)
def test_inputs_stay_unchanged_and_returned_rows_own_their_memory(
        arms, n_train_per_class, batch_size, epochs, learning_rate, momentum, pre_age_s,
        seed, data_seed, mismatch_seed):
    try:
        arrays = [build_arm(arm, mismatch_seed, pre_age_s) for arm in arms]
    except FndamError:
        assume(False)
    train_set = make_blob_dataset(n_train_per_class, seed=data_seed)
    test_set = make_blob_dataset(2 * n_train_per_class, seed=data_seed + 1)
    config = NetworkConfig(learning_rate=learning_rate, momentum=momentum, epochs=epochs,
                           batch_size=batch_size, seed=seed)
    before = snapshot(train_set, test_set, arrays)
    with mock.patch.object(trainer, "_mlp_grads_into", wraps=trainer._mlp_grads_into) as spy:
        try:
            runs = train_network_with_dam_decay(train_set, test_set, arrays, config)
        except FndamError:
            runs = []
    assert snapshot(train_set, test_set, arrays) == before

    buffers = [view for call in spy.call_args_list for views in call.args[:2] for view in views]
    inputs = [*train_set, *test_set] + [getattr(a, c) for a in arrays if a is not None
                                        for c in COLUMNS]
    thetas = [trace.theta for trace, _ in runs]
    for a, b in itertools.combinations(thetas, 2):
        assert not np.shares_memory(a, b)
    for theta in thetas:
        assert not any(np.shares_memory(theta, other) for other in buffers + inputs)
    # a trained array shares its constant columns with its input array
    # and owns its voltages
    for _, out in runs:
        if out is not None:
            assert not any(np.shares_memory(out.v, other) for other in buffers + inputs + thetas)
