"""The column operations of DamArray against the per-cell reference.

Every array operation must give the bits that the single-cell path
(``cell.synchronize``, ``decay``, ``set_pulse``, ``reset_pulse`` and
``read_weight``) gives cell by cell.  The reference array is built here
from the documented PCG64 mismatch draw, one ``synchronize`` per cell,
without going through ``build_array``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fndam.array import MismatchSpec, advance, batch_pulse, batch_read, build_array
from fndam.calibrate import default_params
from fndam.cell import decay, read_weight, reset_pulse, set_pulse, synchronize
from fndam.errors import DomainError, InitializationError
from fndam.node import Pulse
from fndam.trainer import _read_params_from_array, _write_params_to_array

V0 = 7.5

sizes = st.integers(1, 64)
sigmas = st.floats(0.0, 1e-2)
seeds = st.integers(0, 2**32 - 1)
durations = st.floats(1e-6, 1e6)


def mismatch_factors(n, sigma, seed):
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, 2, 2))
    return 1.0 + sigma * z


def reference_cell(nominal, f):
    """One cell from its (node, [k1, k2]) factors, as synchronize builds it."""
    set_params = replace(nominal, k1=float(nominal.k1 * f[0, 0]), k2=float(nominal.k2 * f[0, 1]))
    reset_params = replace(nominal, k1=float(nominal.k1 * f[1, 0]),
                           k2=float(nominal.k2 * f[1, 1]))
    return synchronize(set_params, reset_params, V0)


def reference_cells(n, nominal, sigma, seed):
    return [reference_cell(nominal, f) for f in mismatch_factors(n, sigma, seed)]


def same_bits(array, cells):
    """Columns of array equal the per-cell reference, bit for bit."""
    v = np.array([[c.set_node.v_fg, c.reset_node.v_fg] for c in cells])
    k1 = np.array([[c.set_params.k1, c.reset_params.k1] for c in cells])
    k2 = np.array([[c.set_params.k2, c.reset_params.k2] for c in cells])
    assert array.v.tobytes() == v.tobytes()
    assert array.k1.tobytes() == k1.tobytes()
    assert array.k2.tobytes() == k2.tobytes()
    assert all(c.t == array.global_clock for c in cells)


@st.composite
def batches(draw, n):
    """Targets with mixed polarity and per-target amplitudes."""
    rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return [(i, draw(st.sampled_from([1, -1])), draw(st.floats(0.0, 20.0))) for i in rows]


def build_both(n, sigma, seed):
    nominal = default_params()
    cells = reference_cells(n, nominal, sigma, seed)
    array = build_array(n, nominal, V0, MismatchSpec(relative_sigma=sigma, seed=seed))
    same_bits(array, cells)
    return array, cells


@given(n=sizes, sigma=sigmas, seed=seeds, dt=durations, width=durations, data=st.data())
@settings(max_examples=60, deadline=None)
def test_advance_and_batch_pulse_match_cell_path(n, sigma, seed, dt, width, data):
    array, cells = build_both(n, sigma, seed)
    assert advance(array, 0.0) == array

    array = advance(array, dt)
    cells = [decay(c, dt) for c in cells]
    same_bits(array, cells)

    batch = data.draw(batches(n))
    by_row = {i: (polarity, Pulse(amp, width)) for i, polarity, amp in batch}
    expected = []
    for i, c in enumerate(cells):
        if i not in by_row:
            expected.append(decay(c, width))
            continue
        polarity, pulse = by_row[i]
        expected.append((set_pulse if polarity == 1 else reset_pulse)(c, pulse))
    pulsed = batch_pulse(array, [(i, pol, Pulse(amp, width)) for i, pol, amp in batch],
                         duration=width)
    same_bits(pulsed, expected)
    assert pulsed.global_clock == array.global_clock + width


@given(n=sizes, sigma=sigmas, seed=seeds, dt=durations, noise=st.floats(0.0, 1e-2),
       read_seed=seeds)
@settings(max_examples=40, deadline=None)
def test_batch_read_matches_read_weight(n, sigma, seed, dt, noise, read_seed):
    array, cells = build_both(n, sigma, seed)
    array = advance(array, dt)
    cells = [decay(c, dt) for c in cells]
    rng = np.random.default_rng(read_seed)
    expected = [read_weight(c, noise, rng) for c in cells]
    got = batch_read(array, noise, np.random.default_rng(read_seed))
    assert [r.weight for r in got] == [float(r.weight) for r in expected]
    assert [r.timestamp for r in got] == [r.timestamp for r in expected]


@given(n=sizes, sigma=sigmas, seed=seeds, dt=durations, data=st.data())
@settings(max_examples=40, deadline=None)
def test_parking_matches_per_cell_split(n, sigma, seed, dt, data):
    array, cells = build_both(n, sigma, seed)
    theta = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    parked = _write_params_to_array(array, theta)
    expected = []
    for c, w in zip(cells, theta):
        mid = 0.5 * (c.set_node.v_fg + c.reset_node.v_fg)
        half = 0.5 * w / c.weight_scale
        expected.append(replace(c, set_node=replace(c.set_node, v_fg=mid - half),
                                reset_node=replace(c.reset_node, v_fg=mid + half)))
    same_bits(parked, expected)
    aged = advance(parked, dt)
    expected = [decay(c, dt) for c in expected]
    assert _read_params_from_array(aged).tolist() == [read_weight(c).weight for c in expected]


@given(seed=seeds, sigma=st.floats(0.05, 0.5))
@settings(max_examples=20, deadline=None)
def test_failed_cells_match_synchronize(seed, sigma):
    nominal = default_params()
    failed = []
    for i, f in enumerate(mismatch_factors(8, sigma, seed)):
        try:
            reference_cell(nominal, f)
        except (InitializationError, DomainError):
            failed.append(i)
    if not failed:
        build_array(8, nominal, V0, MismatchSpec(relative_sigma=sigma, seed=seed))
        return
    with pytest.raises(InitializationError) as info:
        build_array(8, nominal, V0, MismatchSpec(relative_sigma=sigma, seed=seed))
    assert list(info.value.indices) == failed
