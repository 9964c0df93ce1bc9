"""The perceptron's float loop against the array operations it replaces.

``reference_train`` below is ``train_perceptron`` as it ran on array
operations: every pulse period is one ``batch_pulse`` and one
``advance`` on the 2-cell array, the reference cell ages by ``decay``,
and each command with pulses solves its own amplitude on that cell
(``reference_command``).  ``train_perceptron`` must give the same trace,
ledger, final weights and array, bit for bit, or raise the same
exception type with the same message.
"""

import math
from typing import NamedTuple
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from fndam import trainer
from fndam.array import MismatchSpec, advance, batch_pulse, build_array
from fndam.calibrate import default_params
from fndam.cell import _float_nodes, _solve_amplitude, decay, synchronize
from fndam.energy import EnergyLedger
from fndam.errors import FndamError
from fndam.node import Pulse
from fndam.trainer import (
    PULSE_DURATION_S,
    PULSE_FREQUENCY_HZ,
    SAMPLE_INTERVAL_S,
    EpochSummary,
    StepRecord,
    TrainerConfig,
    TrainingTrace,
    _accuracy,
    best_margin,
    hinge_gradient,
    hinge_loss,
    make_separable_dataset,
    train_perceptron,
)
from test_array import hand_made

V0 = 7.5


class Command(NamedTuple):
    """One weight's pulse train, with the amplitude its own solve gave."""

    polarity: int
    n_pulses: int
    amplitude_v: float
    clipped: bool = False


def reference_command(update_mv, config, cell):
    """A pulse count as gradient_to_pulses rounds it, with the amplitude solved
    on `cell` for this command alone."""
    n_pulses = int(round(abs(update_mv) / config.unit_step_mv))
    if n_pulses == 0:
        return Command(polarity=1, n_pulses=0, amplitude_v=0.0)
    clipped = n_pulses > trainer.MAX_PULSES_PER_UPDATE
    if clipped:
        n_pulses = trainer.MAX_PULSES_PER_UPDATE
    amplitude = _solve_amplitude(_float_nodes(cell), cell.nominal_params.coupling_ratio,
                                 config.unit_step_mv, PULSE_DURATION_S, trainer._AMP_TOL_MV)
    return Command(polarity=1 if update_mv > 0 else -1, n_pulses=n_pulses,
                   amplitude_v=amplitude, clipped=clipped)


def reference_train(dataset, array, config):
    """train_perceptron on batch_pulse, advance and decay."""
    margin = best_margin(dataset)
    steps, epochs, ledger = [], [], EnergyLedger(c_in=config.c_in)
    reference = synchronize(array.nominal_params, array.v0)
    if array.global_clock > 0:
        reference = decay(reference, array.global_clock)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    period = 1.0 / PULSE_FREQUENCY_HZ
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_energy_start = len(ledger.entries)
        abs_updates = []
        for point_index in order:
            point = dataset[int(point_index)]
            t_sample = array.global_clock
            w = tuple(array.weights().tolist())
            loss = hinge_loss(point.x, point.y, w)
            grad = hinge_gradient(point.x, point.y, w)
            commands = (Command(1, 0, 0.0), Command(1, 0, 0.0))
            step_energy = 0.0
            if grad != (0.0, 0.0):
                commands = tuple(
                    reference_command(-config.learning_rate * g, config, reference)
                    for g in grad
                )
                longest = max(c.n_pulses for c in commands)
                for k in range(longest):
                    targets = [
                        (j, c.polarity, Pulse(c.amplitude_v, PULSE_DURATION_S))
                        for j, c in enumerate(commands)
                        if k < c.n_pulses
                    ]
                    array = batch_pulse(array, targets)
                    array = advance(array, period - PULSE_DURATION_S)
                for j, c in enumerate(commands):
                    if c.n_pulses > 0:
                        entry = ledger.record(
                            cell_id=j, t_s=t_sample, amplitude_v=c.amplitude_v,
                            duration_s=PULSE_DURATION_S, n_pulses=c.n_pulses,
                        )
                        step_energy += entry.energy_j
                reference = decay(reference, longest * period)
                remainder = SAMPLE_INTERVAL_S - longest * period
            else:
                remainder = SAMPLE_INTERVAL_S
            array = advance(array, remainder)
            reference = decay(reference, remainder)

            new_w = tuple(array.weights().tolist())
            if grad != (0.0, 0.0):
                abs_updates.append(abs(new_w[0] - w[0]) + abs(new_w[1] - w[1]))
            steps.append(StepRecord(
                step=len(steps), epoch=epoch, point_index=int(point_index), t_s=t_sample,
                w0_mv=new_w[0], w1_mv=new_w[1], loss=loss, g0=grad[0], g1=grad[1],
                n_pulses0=commands[0].n_pulses, n_pulses1=commands[1].n_pulses,
                amplitude0_v=commands[0].amplitude_v, amplitude1_v=commands[1].amplitude_v,
                energy_j=step_energy, clipped=commands[0].clipped or commands[1].clipped,
            ))

        w_now = tuple(array.weights().tolist())
        epoch_energy = 0.0  # left to right: sum() of floats is compensated since 3.12
        for e in ledger.entries[epoch_energy_start:]:
            epoch_energy += e.energy_j
        epochs.append(EpochSummary(
            epoch=epoch,
            accuracy=_accuracy(dataset, w_now),
            mean_abs_update_mv=float(np.mean(abs_updates)) if abs_updates else 0.0,
            energy_j=epoch_energy,
            n_updates=len(abs_updates),
        ))

    return TrainingTrace(steps, epochs, ledger, margin), array


def outcome(train, dataset, array, config):
    """repr of everything a run returns, or of its exception as (type, message).

    repr tells every float apart by its bits (-0.0 from 0.0).
    """
    try:
        trace, out = train(dataset, array, config)
    except (FndamError, ArithmeticError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    columns = [getattr(out, c).tolist() for c in ("v", "log_k1", "k2")]
    return repr((trace.steps, trace.epochs, trace.ledger.entries, trace.final_weights_mv,
                 trace.margin, columns, out.global_clock, out.nominal_params, out.mismatch,
                 out.v0))


@given(
    n_points=st.integers(6, 12),
    dataset_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    epochs=st.integers(1, 3),
    unit_step_mv=st.floats(0.01, 0.5),
    learning_rate=st.floats(0.05, 50.0),
    pre_age_s=st.sampled_from([0.0]) | st.floats(1.0, 1e6),
    sigma=st.sampled_from([0.0]) | st.floats(1e-6, 1e-3),
    mismatch_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_float_loop_matches_array_operations(n_points, dataset_seed, seed, epochs,
                                             unit_step_mv, learning_rate, pre_age_s,
                                             sigma, mismatch_seed):
    dataset = make_separable_dataset(n_points, seed=dataset_seed)
    array = build_array(2, default_params(), V0,
                        MismatchSpec(relative_sigma=sigma, seed=mismatch_seed))
    if pre_age_s > 0:
        array = advance(array, pre_age_s)
    config = TrainerConfig(learning_rate=learning_rate, unit_step_mv=unit_step_mv,
                           epochs=epochs, seed=seed)
    # a short clip keeps clipped updates (learning_rate above ~0.1 per
    # unit step) as cheap as any other
    with mock.patch.object(trainer, "MAX_PULSES_PER_UPDATE", 5):
        got = outcome(train_perceptron, dataset, array, config)
        want = outcome(reference_train, dataset, array, config)
    assert got == want


def test_pulse_driving_a_node_non_positive_raises_the_same_error():
    """Nodes that tunnel far faster than the nominal device release below 0 V."""
    array = hand_made(np.full((2, 2), V0), np.full((2, 2), math.log(1e300)), np.ones((2, 2)),
                      default_params(), V0)
    dataset = make_separable_dataset(6, seed=1)
    got = outcome(train_perceptron, dataset, array, TrainerConfig())
    assert got == outcome(reference_train, dataset, array, TrainerConfig())
    assert "DomainError" in got and "node driven to" in got
