"""Schema version 4 state documents over built, aged and pulsed arrays.

A document holds each node's log k1, not k1, at full precision.  The
text written for an array loads to an equal array whose next
``advance`` and ``batch_pulse`` give the original's bits.  Its log_k1
is ``math.log`` of the k1 the mismatch draw gives, which is what a
version 3 load recomputed from its k1 columns.  A log_k1 that is not
finite fails at its JSON path.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fndam.array import (MismatchSpec, _mismatched, advance, batch_pulse, build_array,
                         state_from_json, state_to_json)
from fndam.calibrate import default_params
from fndam.errors import StateFormatError
from fndam.node import Pulse
from test_array import signed

V0 = 7.5
durations = st.floats(1e-6, 1e6)


@st.composite
def batches(draw, n):
    """Targets with mixed polarity and per-target amplitudes sharing one width."""
    rows = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n))
    width = draw(durations)
    return [(i, draw(st.sampled_from([1, -1])), Pulse(draw(st.floats(0.0, 20.0)), width))
            for i in rows]


@st.composite
def saved_arrays(draw):
    """A built array of 1-50 mismatched cells, advanced and then pulsed."""
    n = draw(st.integers(1, 50))
    spec = MismatchSpec(relative_sigma=draw(st.floats(0.0, 1e-2)),
                        seed=draw(st.integers(0, 2**64 - 1)))
    array = advance(build_array(n, default_params(), V0, spec), draw(durations))
    return batch_pulse(array, draw(batches(n)))


def bits(array):
    return [array.v.tobytes(), array.log_k1.tobytes(), array.k2.tobytes(),
            array.global_clock.hex()]


@given(array=saved_arrays(), dt=durations, data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_loaded_array_is_the_saved_one(array, dt, data):
    loaded = state_from_json(state_to_json(array))
    assert loaded == array
    assert bits(loaded) == bits(array)
    batch = data.draw(batches(len(array)))
    assert bits(advance(loaded, dt)) == bits(advance(array, dt))
    assert bits(batch_pulse(loaded, batch)) == bits(batch_pulse(array, batch))
    # the log of the drawn k1, node by node: what a version 3 load took
    k1 = _mismatched(len(array), array.nominal_params, array.mismatch)[0]
    assert loaded.log_k1.tobytes() == np.array([list(map(math.log, row))
                                                for row in k1.tolist()]).tobytes()


@given(array=saved_arrays(), key=st.sampled_from(["set_log_k1", "reset_log_k1"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_log_k1_that_is_not_finite_fails_at_its_path(array, key, value, data):
    doc = json.loads(state_to_json(array))
    i = data.draw(st.integers(0, len(array) - 1), label="cell")
    doc["columns"][key][i] = value
    with pytest.raises(StateFormatError,
                       match=rf"^invalid value at columns\.{key}\[{i}\]: {value!r}, "
                             r"must be finite$"):
        state_from_json(signed(doc))
