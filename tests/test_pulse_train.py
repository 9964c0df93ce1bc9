"""The perceptron's pulse-train kernel against one period at a time.

``pulse_period`` below is the per-period step ``trainer._pulse_train``
replaces: the pulse phase by the per-node steps on the node tuples, the
first node left non-positive raising, then the idle phase and the same
check.  ``reference_train`` runs it n times with the caller's two clock
additions per period.  The kernel must give the same nodes and clock,
bit for bit, or raise the same exception type with the same message.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fndam.calibrate import default_params
from fndam.cell import _require_driven
from fndam.errors import FndamError
from fndam.node import decayed_float
from fndam.trainer import PULSE_DURATION_S, PULSE_FREQUENCY_HZ, _pulse_train

NOMINAL = (7.5, default_params().log_k1, default_params().k2)
IDLE_S = 1.0 / PULSE_FREQUENCY_HZ - PULSE_DURATION_S
LOG_ON, LOG_OFF = math.log(PULSE_DURATION_S), math.log(IDLE_S)


def pulse_period(nodes, steps, log_on, log_off):
    nodes = [(decayed_float(v + step, log_k1, k2, log_on) - step, log_k1, k2)
             for (v, log_k1, k2), step in zip(nodes, steps)]
    _require_driven([v for v, _, _ in nodes])
    nodes = [(decayed_float(v, log_k1, k2, log_off), log_k1, k2) for v, log_k1, k2 in nodes]
    _require_driven([v for v, _, _ in nodes])
    return nodes


def reference_train(nodes, steps, n, clock, log_on, log_off, on, off):
    for _ in range(n):
        nodes = pulse_period(nodes, steps, log_on, log_off)
        clock += on
        clock += off
    return nodes, clock


def outcome(train, *args):
    """repr of the nodes and clock, or of the exception as (type, message).

    repr tells every float apart by its bits (-0.0 from 0.0, each NaN as nan).
    """
    try:
        nodes, clock = train(*args)
    except (FndamError, ArithmeticError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    return repr((tuple(map(tuple, nodes)), clock))


# nodes near the nominal device, and nodes that no device has (negative or
# vanishing k2, tiny, infinite or NaN voltages) to reach every error path
device_node = st.tuples(st.floats(0.5, 15.0), st.floats(370.0, 395.0), st.floats(2000.0, 4000.0))
wild_node = st.tuples(
    st.floats(1e-6, 50.0) | st.sampled_from([5e-324, math.inf, math.nan]),
    st.floats(-50.0, 800.0),
    st.floats(-10.0, 5000.0) | st.sampled_from([0.0, 5e-324]),
)
node = device_node | wild_node
step = st.sampled_from([0.0]) | st.floats(0.0, 5.0)
log_s = st.sampled_from([LOG_ON]) | st.floats(-20.0, 20.0)
duration = st.sampled_from([PULSE_DURATION_S]) | st.floats(1e-6, 10.0)

# a node the pulse releases at 0 V: 3 V lifted on it decays to at most 3 V
PULSED_TO_ZERO = (5e-324, NOMINAL[1], NOMINAL[2])
# a node with negative k2 that the short pulse leaves positive and a long
# idle rest (log 10 s) decays below 0 V
IDLED_BELOW_ZERO = (7.5, 0.0, -1.0)
LOG_LONG = math.log(10.0)


@given(nodes=st.tuples(node, node, node, node), steps=st.tuples(step, step, step, step),
       n=st.integers(0, 6), clock=st.floats(0.0, 1e7), log_on=log_s, log_off=log_s,
       on=duration, off=duration)
@example(nodes=(NOMINAL,) * 4, steps=(0.3, 0.0, 0.0, 0.3), n=0, clock=2.0,
         log_on=LOG_ON, log_off=LOG_OFF, on=PULSE_DURATION_S, off=IDLE_S)
@example(nodes=(NOMINAL,) * 4, steps=(0.0,) * 4, n=5, clock=2.0,
         log_on=LOG_ON, log_off=LOG_OFF, on=PULSE_DURATION_S, off=IDLE_S)
@example(nodes=(NOMINAL, NOMINAL, PULSED_TO_ZERO, NOMINAL), steps=(0.3, 0.0, 3.0, 0.0),
         n=2, clock=0.0, log_on=LOG_ON, log_off=LOG_OFF, on=PULSE_DURATION_S, off=IDLE_S)
@example(nodes=(NOMINAL, NOMINAL, NOMINAL, IDLED_BELOW_ZERO), steps=(0.3, 0.0, 0.3, 0.0),
         n=1, clock=0.0, log_on=LOG_ON, log_off=LOG_LONG, on=PULSE_DURATION_S, off=10.0)
@example(nodes=(NOMINAL, (math.nan,) + NOMINAL[1:], NOMINAL, NOMINAL), steps=(0.0,) * 4,
         n=3, clock=0.0, log_on=LOG_ON, log_off=LOG_OFF, on=PULSE_DURATION_S, off=IDLE_S)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_one_period_at_a_time(nodes, steps, n, clock, log_on, log_off, on, off):
    args = (nodes, list(steps), n, clock, log_on, log_off, on, off)
    assert outcome(_pulse_train, *args) == outcome(reference_train, *args)


@pytest.mark.parametrize("nodes, steps, log_off, message", [
    ((NOMINAL, NOMINAL, PULSED_TO_ZERO, NOMINAL), (0.3, 0.0, 3.0, 0.0), LOG_OFF,
     "cell 1 SET node driven to 0 V <= 0"),
    ((NOMINAL, NOMINAL, NOMINAL, IDLED_BELOW_ZERO), (0.3, 0.0, 0.3, 0.0), LOG_LONG,
     "cell 1 RESET node driven to -0.4"),
    ((NOMINAL, (math.nan,) + NOMINAL[1:], NOMINAL, NOMINAL), (0.0,) * 4, LOG_OFF,
     "cell 0 RESET node driven to nan V <= 0"),
])
def test_each_phase_names_its_first_non_positive_node(nodes, steps, log_off, message):
    got = outcome(_pulse_train, nodes, steps, 1, 0.0, LOG_ON, log_off, 1.0, 1.0)
    assert "DomainError" in got and message in got


def test_idle_failure_is_not_a_pulse_failure():
    """The idle-phase example passes the pulse phase's check."""
    nodes = (NOMINAL, NOMINAL, NOMINAL, IDLED_BELOW_ZERO)
    pulsed = [decayed_float(v + s, a, b, LOG_ON) - s
              for (v, a, b), s in zip(nodes, (0.3, 0.0, 0.3, 0.0))]
    _require_driven(pulsed)
    with pytest.raises(FndamError):
        pulse_period(nodes, (0.3, 0.0, 0.3, 0.0), LOG_ON, LOG_LONG)
