"""DamArray and the single-cell API against a per-node reference.

Every array operation, and every function of ``fndam.cell`` (a cell is
the one-cell array), must give the bits that ``node.evolve`` and
``node.apply_pulse`` give node by node.  The reference cells are built
here from the documented PCG64 mismatch draw.  A mismatched cell's
RESET start voltage is a plain ``scipy.optimize.brentq`` call on the
``_log_rate`` of ``test_rate_match_equivalence``, with the rate match's
bracket, tolerances, iteration limit and 1e-10 residual limit.
Nothing in the reference goes through ``build_array``,
``rate_matched_voltages`` or a column operation, and floats compare
with ``==``.
"""

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from fndam.array import (MismatchSpec, WeightReading, _with_voltages, advance, batch_pulse,
                         batch_read, build_array)
from fndam.calibrate import default_params
from fndam.cell import common_mode_step, decay, read_weight, reset_pulse, set_pulse
from fndam.errors import DomainError, InitializationError
from fndam.node import Pulse, apply_pulse, evolve, k0_from_initial
from fndam.trainer import _parked
from test_rate_match_equivalence import _log_rate

V0 = 7.5

sizes = st.integers(1, 64)
sigmas = st.floats(0.0, 1e-2)
seeds = st.integers(0, 2**32 - 1)
durations = st.floats(1e-6, 1e6)


@dataclass(frozen=True)
class RefCell:
    """One cell as two nodes evolved one at a time."""

    v: tuple[float, float]  # SET, RESET gate voltages
    params: tuple  # SET, RESET FnParams
    t: float = 0.0
    weight_scale: float = 1000.0

    def decay(self, dt):
        v = tuple(evolve(x, p, dt) for x, p in zip(self.v, self.params))
        return replace(self, v=v, t=self.t + dt)

    def pulse(self, polarity, pulse):
        hit = 0 if polarity == 1 else 1
        v = tuple(
            apply_pulse(x, p, pulse) if node == hit else evolve(x, p, pulse.duration)
            for node, (x, p) in enumerate(zip(self.v, self.params))
        )
        return replace(self, v=v, t=self.t + pulse.duration)

    def weight(self):
        return self.weight_scale * (self.v[1] - self.v[0])


def mismatch_factors(n, sigma, seed):
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, 2, 2))
    return 1.0 + sigma * z


def node_params(nominal, f):
    """SET and RESET FnParams from one cell's (node, [k1, k2]) factors."""
    return tuple(replace(nominal, k1=float(nominal.k1 * k1), k2=float(nominal.k2 * k2))
                 for k1, k2 in f.tolist())


def brentq_start(set_p, reset_p, v0):
    """RESET voltage whose |dV/dt| equals the SET node's at v0, from scipy."""
    target = _log_rate(set_p.log_k1, set_p.k2, v0)

    def imbalance(v):
        return _log_rate(reset_p.log_k1, reset_p.k2, v) - target

    try:
        root = optimize.brentq(imbalance, 0.5 * v0, min(1.5 * v0, 0.999 * reset_p.k2),
                               xtol=1e-14, rtol=1e-15, maxiter=200)
    except (ValueError, RuntimeError):
        raise InitializationError("brentq found no root", indices=(0,)) from None
    if not abs(imbalance(root)) <= 1e-10:
        raise InitializationError("residual above 1e-10", indices=(0,))
    return root


def reference_cell(set_p, reset_p, v0=V0):
    """A freshly synchronized cell; raises where build_array must."""
    k0_from_initial(set_p, v0)
    if (set_p.k1, set_p.k2) == (reset_p.k1, reset_p.k2):
        v_reset = v0
    else:
        v_reset = brentq_start(set_p, reset_p, v0)
    k0_from_initial(reset_p, v_reset)
    return RefCell((v0, v_reset), (set_p, reset_p))


def reference_cells(n, nominal, sigma, seed):
    return [reference_cell(*node_params(nominal, f)) for f in mismatch_factors(n, sigma, seed)]


def same_bits(array, cells):
    """Columns of array equal the per-cell reference, bit for bit."""
    v = np.array([c.v for c in cells])
    log_k1 = np.array([[p.log_k1 for p in c.params] for c in cells])
    k2 = np.array([[p.k2 for p in c.params] for c in cells])
    assert array.v.tobytes() == v.tobytes()
    assert array.log_k1.tobytes() == log_k1.tobytes()
    assert array.k2.tobytes() == k2.tobytes()
    assert all(c.t == array.global_clock for c in cells)


@st.composite
def batches(draw, n):
    """Targets with mixed polarity and per-target amplitudes, at least one."""
    rows = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n))
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
    cells = [c.decay(dt) for c in cells]
    same_bits(array, cells)

    batch = data.draw(batches(n))
    by_row = {i: (polarity, Pulse(amp, width)) for i, polarity, amp in batch}
    expected = [c.pulse(*by_row[i]) if i in by_row else c.decay(width)
                for i, c in enumerate(cells)]
    pulsed = batch_pulse(array, [(i, pol, Pulse(amp, width)) for i, pol, amp in batch])
    same_bits(pulsed, expected)
    assert pulsed.global_clock == array.global_clock + width


@given(sigma=sigmas, seed=seeds, dt=durations, width=durations,
       polarity=st.sampled_from([1, -1]), amp=st.floats(0.0, 20.0),
       dv=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_single_cell_api_matches_reference(sigma, seed, dt, width, polarity, amp, dv):
    cell, (ref,) = build_both(1, sigma, seed)
    assert len(cell) == 1

    ref, cell = ref.decay(dt), decay(cell, dt)
    same_bits(cell, [ref])
    assert (read_weight(cell), cell.global_clock) == (ref.weight(), ref.t)

    pulse = Pulse(amp, width)
    expected = ref.pulse(polarity, pulse)
    same_bits((set_pulse if polarity == 1 else reset_pulse)(cell, pulse), [expected])
    same_bits(batch_pulse(cell, [(0, polarity, pulse)]), [expected])

    bumped = common_mode_step(cell, dv)
    same_bits(bumped, [replace(ref, v=(ref.v[0] + dv, ref.v[1] + dv))])


def bits(pairs):
    return [(w.hex(), t.hex()) for w, t in pairs]


@given(n=sizes, sigma=sigmas, seed=seeds, dt=durations)
@settings(max_examples=40, deadline=None)
def test_batch_read_matches_read_weight(n, sigma, seed, dt):
    array, cells = build_both(n, sigma, seed)
    array = advance(array, dt)
    cells = [c.decay(dt) for c in cells]
    expected = [c.weight() for c in cells]
    got = batch_read(array)
    assert [r.weight for r in got] == expected
    assert [r.timestamp for r in got] == [c.t for c in cells]
    # exact WeightReading instances, bit for bit the weight column and the clock
    assert type(got) is tuple and all(type(r) is WeightReading for r in got)
    assert bits(got) == bits(zip(array.weights().tolist(), repeat(array.global_clock)))


@given(n=sizes, sigma=sigmas, seed=seeds, dt=durations, data=st.data())
@settings(max_examples=40, deadline=None)
def test_parking_matches_per_cell_split(n, sigma, seed, dt, data):
    array, cells = build_both(n, sigma, seed)
    theta = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    parked = _with_voltages(array, _parked(array.v, theta), array.global_clock)
    expected = []
    for c, w in zip(cells, theta.tolist()):
        mid = 0.5 * (c.v[0] + c.v[1])
        half = 0.5 * w / c.weight_scale
        expected.append(replace(c, v=(mid - half, mid + half)))
    same_bits(parked, expected)
    aged = advance(parked, dt)
    expected = [c.decay(dt) for c in expected]
    assert aged.weights().tolist() == [c.weight() for c in expected]


@given(seed=seeds, sigma=st.floats(0.05, 0.5))
@settings(max_examples=20, deadline=None)
def test_failed_cells_match_synchronize(seed, sigma):
    nominal = default_params()
    cells, failed = [], []
    for i, f in enumerate(mismatch_factors(8, sigma, seed)):
        try:
            cells.append(reference_cell(*node_params(nominal, f)))
        except (InitializationError, DomainError):  # no root, or k1 or k2 not positive
            failed.append(i)
    spec = MismatchSpec(relative_sigma=sigma, seed=seed)
    if not failed:
        same_bits(build_array(8, nominal, V0, spec), cells)
        return
    with pytest.raises(InitializationError) as info:
        build_array(8, nominal, V0, spec)
    assert list(info.value.indices) == failed
