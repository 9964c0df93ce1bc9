"""Schema version 5 state documents over built, aged and pulsed arrays.

A document holds the node voltages and the mismatch draw, not the node
constants.  The text written for an array loads to an equal array whose
next ``advance`` and ``batch_pulse`` give the original's bits: a load
draws the constants again, and its log_k1 is ``math.log`` of the k1 the
draw gives.  The document stores the SHA-256 of the drawn constants, so
a draw that changes, as numpy may change its normal stream between
releases, fails at ``mismatch``, and so does a ``relative_sigma`` whose
draw is not a device.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fndam
from fndam.array import (MismatchSpec, _constants_sha256, _mismatched, advance, batch_pulse,
                         build_array, state_from_json, state_to_json)
from fndam.calibrate import default_params
from fndam.cell import synchronize
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
def saved_arrays(draw, sigmas=st.floats(0.0, 1e-2)):
    """A built array of 1-50 mismatched cells, advanced and then pulsed."""
    n = draw(st.integers(1, 50))
    spec = MismatchSpec(relative_sigma=draw(sigmas), seed=draw(st.integers(0, 2**64 - 1)))
    array = advance(build_array(n, default_params(), V0, spec), draw(durations))
    return batch_pulse(array, draw(batches(n)))


def bits(array):
    return [array.v.tobytes(), array.log_k1.tobytes(), array.k2.tobytes(),
            array.global_clock.hex()]


@given(array=saved_arrays(), dt=durations, data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_loaded_array_is_the_saved_one(array, dt, data):
    text = state_to_json(array)
    doc = json.loads(text)
    assert sorted(doc["columns"]) == ["reset_v_fg", "set_v_fg"]
    assert doc["mismatch"]["constants_sha256"] == _constants_sha256(array.log_k1, array.k2)
    loaded = state_from_json(text)
    assert loaded == array
    assert bits(loaded) == bits(array)
    batch = data.draw(batches(len(array)))
    assert bits(advance(loaded, dt)) == bits(advance(array, dt))
    assert bits(batch_pulse(loaded, batch)) == bits(batch_pulse(array, batch))
    # the log of the drawn k1, node by node
    k1 = _mismatched(len(array), array.nominal_params, array.mismatch)[0]
    assert loaded.log_k1.tobytes() == np.array([list(map(math.log, row))
                                                for row in k1.tolist()]).tobytes()


def skipping_one_variate(n, nominal, spec):
    """``array._mismatched`` with one more normal variate drawn first: a
    draw that differs from the one the document was written with."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    rng.standard_normal()
    factors = 1.0 + spec.relative_sigma * rng.standard_normal((n, 2, 2))
    return nominal.k1 * factors[:, :, 0], nominal.k2 * factors[:, :, 1]


@given(array=saved_arrays(sigmas=st.floats(1e-4, 1e-2)))
@settings(max_examples=20, deadline=None)
def test_a_changed_draw_fails_at_mismatch(array):
    text = state_to_json(array)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fndam.array, "_mismatched", skipping_one_variate)
        with pytest.raises(StateFormatError,
                           match="^constants mismatch at mismatch: numpy "
                                 + re.escape(np.__version__) + " draws "):
            state_from_json(text)
    assert state_from_json(text) == array


@given(array=saved_arrays(), sigma=st.sampled_from([1e300, 1e308]))
@settings(max_examples=20, deadline=None)
def test_a_draw_that_is_not_finite_fails_at_mismatch(array, sigma):
    doc = json.loads(state_to_json(array))
    doc["mismatch"]["relative_sigma"] = sigma
    # a StateFormatError, never the DomainError or InitializationError of a bad draw
    with pytest.raises(StateFormatError, match=r"^invalid draw at mismatch: cell \d+ "
                                               r"(SET|RESET) node k[12] must be positive"):
        state_from_json(signed(doc))


def test_a_version_4_layout_fails_at_version():
    # version 4 stored each node's log k1 and k2 beside the draw they come from
    array = build_array(2, default_params(), V0, MismatchSpec(relative_sigma=1e-3, seed=7))
    doc = json.loads(state_to_json(array))
    doc["version"] = 4
    del doc["mismatch"]["constants_sha256"]
    for side, node in (("set", 0), ("reset", 1)):
        doc["columns"][f"{side}_log_k1"] = array.log_k1[:, node].tolist()
        doc["columns"][f"{side}_k2"] = array.k2[:, node].tolist()
    with pytest.raises(StateFormatError, match="^unsupported schema version at version: 4$"):
        state_from_json(signed(doc))


f32 = np.float32
float32_params = default_params(k2=f32(2887.78128), c_total=f32(1e-12), c_couple=f32(1e-13))


@pytest.mark.parametrize("build", [
    lambda: build_array(3, default_params(), f32(7.5)),
    lambda: synchronize(default_params(), f32(7.5)),
    lambda: build_array(3, float32_params, 7.5, MismatchSpec(relative_sigma=1e-3, seed=1)),
    lambda: build_array(3, default_params(), 7.5, MismatchSpec(relative_sigma=f32(1e-3))),
    lambda: advance(build_array(2, default_params(), 7.5), f32(2.5)),
], ids=["v0", "synchronize-v0", "FnParams", "relative_sigma", "clock"])
def test_numpy_float32_fields_are_saved_as_floats(build):
    array = build()
    assert state_from_json(state_to_json(array)) == array
