"""Perceptron-on-cells training loop, gradient-to-pulse quantization,
dataset generators, and the device-decay network arm."""

import math

import numpy as np
import pytest

from fndam.array import DamArray, MismatchSpec, build_array
from fndam.calibrate import default_params
from fndam.cell import precompensated_amplitude
from fndam.errors import ArgumentError, DomainError
from fndam.trainer import (
    MAX_PULSES_PER_UPDATE,
    PULSE_DURATION_S,
    PULSE_FREQUENCY_HZ,
    SAMPLE_INTERVAL_S,
    LabeledPoint,
    MlpSpec,
    NetworkConfig,
    TrainerConfig,
    _mlp_grad,
    _write_params_to_array,
    best_margin,
    decision_fn,
    gradient_to_pulses,
    hinge_gradient,
    hinge_loss,
    make_blob_dataset,
    make_separable_dataset,
    mlp_accuracy,
    mlp_logits,
    train_network_with_dam_decay,
    train_perceptron,
)


def two_cell_array():
    return build_array(2, default_params(), 7.5)


def first_cell(array):
    """Cell 0 of array as a one-cell DamArray: the columns of row 0."""
    columns = (getattr(array, c)[:1] for c in ("v", "k1", "log_k1", "k2", "weight_scale"))
    return DamArray(*columns, array.nominal_params, array.mismatch, array.v0, array.global_clock)


class TestDecisionFunction:
    def test_zero_weights_pass_through_x2(self):
        assert decision_fn((3.0, 0.0), (0.0, 0.0)) == 0.0
        assert decision_fn((3.0, 0.7), (0.0, 0.0)) == 0.7

    def test_known_value(self):
        # f = x2 + w1*x1 + w0 = 5 + (-1)*2 + 1
        assert decision_fn((2.0, 5.0), (1.0, -1.0)) == 4.0


class TestHinge:
    def test_on_boundary_costs_one(self):
        w = (0.0, 0.0)
        x = (3.0, 0.0)  # f = 0
        assert hinge_loss(x, 1, w) == 1.0
        assert hinge_gradient(x, 1, w) == (-1.0, -3.0)

    def test_beyond_margin_is_flat(self):
        w = (0.0, 0.0)
        x = (3.0, 2.0)  # f = 2 >= 1
        assert hinge_loss(x, 1, w) == 0.0
        assert hinge_gradient(x, 1, w) == (0.0, 0.0)

    def test_negative_class_gradient_sign(self):
        g = hinge_gradient((2.0, 0.0), -1, (0.0, 0.0))
        assert g == (1.0, 2.0)

    def test_convex_in_weights(self):
        x, y = (0.8, -0.3), 1
        rng = np.random.default_rng(0)
        for _ in range(50):
            wa = tuple(rng.uniform(-2, 2, size=2))
            wb = tuple(rng.uniform(-2, 2, size=2))
            mid = tuple(0.5 * (a + b) for a, b in zip(wa, wb))
            assert hinge_loss(x, y, mid) <= (
                0.5 * hinge_loss(x, y, wa) + 0.5 * hinge_loss(x, y, wb) + 1e-12
            )


class TestGradientToPulses:
    def config(self, **kw):
        return TrainerConfig(**kw)

    def amplitude(self):
        """The unit-step amplitude of a fresh cell."""
        return precompensated_amplitude(first_cell(two_cell_array()),
                                        TrainerConfig().unit_step_mv, PULSE_DURATION_S)

    def test_rounds_to_nearest_unit_step(self):
        cfg = self.config()  # unit 0.05 mV
        cmd = gradient_to_pulses(0.12, cfg, self.amplitude)  # 2.4 units
        assert cmd.n_pulses == 2
        assert cmd.polarity == 1
        assert not cmd.clipped

    def test_one_unit_is_one_pulse(self):
        cmd = gradient_to_pulses(0.05, self.config(), self.amplitude)
        assert cmd.n_pulses == 1
        assert cmd.amplitude_v == self.amplitude() > 0.0

    def test_sub_half_unit_is_dropped(self):
        def unused():
            raise AssertionError("no pulses, so no amplitude solve")

        cmd = gradient_to_pulses(0.02, self.config(), unused)  # 0.4 units
        assert cmd.n_pulses == 0
        assert cmd.amplitude_v == 0.0

    def test_negative_update_selects_reset(self):
        cmd = gradient_to_pulses(-0.25, self.config(), self.amplitude)
        assert cmd.polarity == -1
        assert cmd.n_pulses == 5

    def test_oversized_update_is_clipped(self):
        cmd = gradient_to_pulses(100.0, self.config(), self.amplitude)  # 2000 units
        assert cmd.clipped
        assert cmd.n_pulses == MAX_PULSES_PER_UPDATE

    @pytest.mark.parametrize("units, n_pulses, clipped", [
        (1000.5, 1000, False),  # rounds half to even, onto the cap
        (math.nextafter(1000.5, math.inf), 1000, True),  # would round to 1001
        (math.inf, 1000, True),  # an overflowed update has no rounded count
    ])
    def test_clipping_is_decided_before_rounding(self, units, n_pulses, clipped):
        assert MAX_PULSES_PER_UPDATE == 1000
        cfg = self.config(unit_step_mv=1.0)
        for sign in (1, -1):
            cmd = gradient_to_pulses(sign * units, cfg, lambda: 0.5)
            assert (cmd.polarity, cmd.n_pulses, cmd.clipped) == (sign, n_pulses, clipped)


class TestTrainerConfig:
    def test_defaults_are_consistent(self):
        assert TrainerConfig().learning_rate == 0.4
        # a 0.5 ms pulse fits the 1 kHz period
        assert PULSE_DURATION_S * PULSE_FREQUENCY_HZ <= 1.0
        # the longest pulse train, 1000 pulses, fits the 2 s sample interval
        assert MAX_PULSES_PER_UPDATE / PULSE_FREQUENCY_HZ <= SAMPLE_INTERVAL_S

    @pytest.mark.parametrize("kwargs", [
        dict(unit_step_mv=0.0),
        dict(c_in=0.0),
        dict(epochs=0),
        dict(c_in=math.inf),
        dict(learning_rate=0.0),
        dict(learning_rate=-0.1),
        dict(learning_rate=math.nan),
        dict(learning_rate=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            TrainerConfig(**kwargs)


class TestBestMargin:
    def test_symmetric_pair(self):
        ds = (LabeledPoint((0.0, 0.4), 1), LabeledPoint((0.0, -0.4), -1))
        np.testing.assert_allclose(best_margin(ds), 0.4, rtol=1e-9)

    def test_contradictory_points_have_no_margin(self):
        ds = (LabeledPoint((0.2, 0.5), 1), LabeledPoint((0.2, 0.5), -1))
        assert best_margin(ds) <= 0.0

    def test_single_class_rejected(self):
        ds = (LabeledPoint((0.0, 0.5), 1), LabeledPoint((1.0, 0.5), 1))
        with pytest.raises(ArgumentError):
            best_margin(ds)


class TestMakeSeparableDataset:
    def test_deterministic_by_seed(self):
        assert make_separable_dataset(20, seed=4) == make_separable_dataset(20, seed=4)
        assert make_separable_dataset(20, seed=4) != make_separable_dataset(20, seed=5)

    def test_class_balance_and_range(self):
        ds = make_separable_dataset(21, seed=1)
        assert len(ds) == 21
        assert sum(1 for p in ds if p.y == -1) == 10
        assert all(-1 <= v <= 1 for p in ds for v in p.x)

    def test_margin_is_honored(self):
        ds = make_separable_dataset(40, margin=0.3, seed=2)
        assert best_margin(ds) >= 0.3

    def test_validation(self):
        with pytest.raises(ArgumentError):
            make_separable_dataset(1)
        with pytest.raises(ArgumentError):
            make_separable_dataset(10, margin=0.95)


class TestLabeledPoint:
    @pytest.mark.parametrize("kwargs", [
        dict(x=(0.0,), y=1),
        dict(x=(0.0, math.nan), y=1),
        dict(x=(0.0, 0.0), y=0),
        dict(x=(0.0, 0.0), y=2),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            LabeledPoint(**kwargs)


class TestTrainPerceptron:
    def run_small(self):
        dataset = make_separable_dataset(12, margin=0.3, seed=3)
        config = TrainerConfig(epochs=3, seed=0)
        return train_perceptron(dataset, two_cell_array(), config), dataset, config

    def test_learns_the_small_dataset(self):
        (trace, _), dataset, config = self.run_small()
        assert trace.epochs[-1].accuracy == 1.0
        assert len(trace.steps) == config.epochs * len(dataset)
        assert len(trace.epochs) == config.epochs
        assert trace.margin >= 0.3

    def test_violations_pulse_and_margins_do_not(self):
        (trace, _), _, config = self.run_small()
        saw_update = False
        for rec in trace.steps:
            if rec.g0 == 0.0 and rec.g1 == 0.0:
                assert rec.n_pulses0 == 0 and rec.n_pulses1 == 0
                assert rec.energy_j == 0.0
            else:
                saw_update = True
                # |g0| = 1 on every violation: 0.4 mV update, 0.05 mV units
                assert rec.n_pulses0 == 8
                assert not rec.clipped
        assert saw_update

    def test_amplitudes_never_decrease(self):
        (trace, _), _, _ = self.run_small()
        amps = trace.amplitudes_issued()
        assert len(amps) > 1
        assert all(b >= a for a, b in zip(amps, amps[1:]))

    def test_energy_totals_are_ledger_exact(self):
        (trace, _), _, _ = self.run_small()
        assert trace.total_energy_j == sum(e.energy_j for e in trace.ledger.entries)
        np.testing.assert_allclose(
            trace.total_energy_j, sum(r.energy_j for r in trace.steps), rtol=1e-12
        )
        np.testing.assert_allclose(
            trace.total_energy_j, sum(e.energy_j for e in trace.epochs), rtol=1e-12
        )

    def test_clock_accounting(self):
        (trace, array), dataset, config = self.run_small()
        expected = config.epochs * len(dataset) * SAMPLE_INTERVAL_S
        np.testing.assert_allclose(array.global_clock, expected, rtol=1e-9)
        for i, rec in enumerate(trace.steps):
            np.testing.assert_allclose(rec.t_s, i * SAMPLE_INTERVAL_S, rtol=1e-9)

    def test_final_weights_match_array_state(self):
        (trace, array), _, _ = self.run_small()
        from fndam.array import batch_read

        readings = batch_read(array)
        assert trace.final_weights_mv == (readings[0].weight, readings[1].weight)

    def test_csv_shapes(self):
        (trace, _), dataset, config = self.run_small()
        step_lines = trace.step_csv().splitlines()
        assert step_lines[0].startswith("step,epoch,point_index,t_s,w0_mV,w1_mV,loss")
        assert len(step_lines) == 1 + config.epochs * len(dataset)
        epoch_lines = trace.epoch_csv().splitlines()
        assert epoch_lines[0] == "epoch,accuracy,mean_abs_update_mV,energy_J,n_updates"
        assert len(epoch_lines) == 1 + config.epochs
        assert float(step_lines[1].split(",")[3]) == 0.0

    def test_zero_pulse_fixed_point(self):
        # every point already beyond the margin at w = 0: the trainer
        # must never pulse and the weights must stay exactly zero
        dataset = (
            LabeledPoint((0.5, 1.5), 1),
            LabeledPoint((-0.5, 2.0), 1),
            LabeledPoint((0.3, -1.5), -1),
            LabeledPoint((-0.2, -2.5), -1),
        )
        trace, array = train_perceptron(dataset, two_cell_array(), TrainerConfig(epochs=2))
        assert trace.total_energy_j == 0.0
        assert len(trace.ledger.entries) == 0
        assert trace.final_weights_mv == (0.0, 0.0)
        assert all(e.accuracy == 1.0 for e in trace.epochs)

    def test_non_separable_dataset_refused(self):
        dataset = (
            LabeledPoint((0.2, 0.5), 1),
            LabeledPoint((0.2, 0.5), -1),
            LabeledPoint((0.1, -0.5), 1),
        )
        with pytest.raises(ArgumentError, match="separable"):
            train_perceptron(dataset, two_cell_array(), TrainerConfig())

    def test_array_size_enforced(self):
        dataset = make_separable_dataset(6, seed=0)
        with pytest.raises(ArgumentError):
            train_perceptron(dataset, build_array(3, default_params(), 7.5), TrainerConfig())

    def test_empty_dataset_refused(self):
        with pytest.raises(ArgumentError):
            train_perceptron((), two_cell_array(), TrainerConfig())


class TestOneSolvePerStep:
    """The amplitude depends on the reference cell alone, so a step that
    issues pulses solves it once, for both commands."""

    def test_default_run_solves_once_per_pulsing_step(self, tmp_path, monkeypatch):
        import csv

        from fndam import cli, trainer

        solve, calls = trainer._solve_amplitude, []

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(trainer, "_solve_amplitude", counting)
        argv = ["train", "--experiment", "perceptron", "--seed", "0", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        with open(tmp_path / "perceptron_steps.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        pulsing = [r for r in rows if int(r["n_pulses0"]) + int(r["n_pulses1"]) > 0]
        assert len(calls) == len(pulsing) == 190
        both = [r for r in pulsing if int(r["n_pulses0"]) and int(r["n_pulses1"])]
        assert both
        assert all(r["amplitude0_V"] == r["amplitude1_V"] for r in both)


class TestBlobDataset:
    def test_deterministic_and_balanced(self):
        xa, ya = make_blob_dataset(30, seed=11)
        xb, yb = make_blob_dataset(30, seed=11)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
        assert xa.shape == (90, 2)
        assert [int((ya == k).sum()) for k in range(3)] == [30, 30, 30]

    def test_seed_changes_draws(self):
        xa, _ = make_blob_dataset(30, seed=11)
        xb, _ = make_blob_dataset(30, seed=12)
        assert not np.array_equal(xa, xb)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            make_blob_dataset(0)


class TestMlpMachinery:
    def test_parameter_count(self):
        assert MlpSpec().n_params == 2 * 16 + 16 + 16 * 3 + 3
        assert MlpSpec(2, 8, 3).n_params == 51

    def test_layer_size_validation(self):
        with pytest.raises(DomainError):
            MlpSpec(n_hidden=0)

    def test_logit_shape_and_accuracy_bounds(self):
        spec = MlpSpec(2, 4, 3)
        theta = np.zeros(spec.n_params)
        x = np.zeros((7, 2))
        assert mlp_logits(spec, theta, x).shape == (7, 3)
        acc = mlp_accuracy(spec, theta, x, np.zeros(7, dtype=int))
        assert acc == 1.0  # all-zero logits break ties toward class 0

    def test_gradient_matches_finite_differences(self):
        spec = MlpSpec(2, 3, 2)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(spec.n_params) * 0.5
        x = rng.standard_normal((6, 2))
        y = rng.integers(0, 2, size=6)

        def loss(t):
            logits = mlp_logits(spec, t, x)
            logits = logits - logits.max(axis=1, keepdims=True)
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            return -float(np.mean(log_probs[np.arange(len(y)), y]))

        grad = _mlp_grad(spec, theta, x, y)
        h = 1e-6
        for i in range(0, spec.n_params, 3):
            e = np.zeros_like(theta)
            e[i] = h
            numeric = (loss(theta + e) - loss(theta - e)) / (2 * h)
            np.testing.assert_allclose(grad[i], numeric, rtol=1e-5, atol=1e-9)


class TestParameterParking:
    def test_round_trip_preserves_values(self):
        spec = MlpSpec(2, 3, 2)
        array = build_array(spec.n_params, default_params(), 7.5)
        theta = np.linspace(-2.0, 2.0, spec.n_params)
        parked = _write_params_to_array(array, theta)
        np.testing.assert_allclose(parked.weights(), theta, atol=1e-9)

    def test_parking_preserves_node_mean(self):
        array = build_array(1, default_params(), 7.5)
        parked = _write_params_to_array(array, np.array([3.0]))
        np.testing.assert_allclose(
            0.5 * (parked.v[0, 0] + parked.v[0, 1]), 7.5, rtol=1e-15
        )

    def test_oversized_weight_rejected(self):
        array = build_array(1, default_params(), 7.5)
        with pytest.raises(DomainError):
            _write_params_to_array(array, np.array([20000.0]))


class TestNetworkTraining:
    def small_problem(self):
        spec = MlpSpec(2, 8, 3)
        train = make_blob_dataset(30, seed=11)
        test = make_blob_dataset(60, seed=12)
        return spec, train, test

    def test_no_array_is_plain_sgdm(self):
        # with array=None the loop must be bit-identical to textbook SGDM
        spec, train, test = self.small_problem()
        config = NetworkConfig(epochs=3, seed=0)
        trace, returned = train_network_with_dam_decay(spec, train, test, None, config)
        assert returned is None

        rng = np.random.Generator(np.random.PCG64(config.seed))
        w1 = rng.standard_normal((spec.n_inputs, spec.n_hidden)) * math.sqrt(2.0 / spec.n_inputs)
        w2 = rng.standard_normal((spec.n_hidden, spec.n_classes)) * math.sqrt(2.0 / spec.n_hidden)
        theta = np.concatenate(
            [w1.ravel(), np.zeros(spec.n_hidden), w2.ravel(), np.zeros(spec.n_classes)]
        )
        velocity = np.zeros_like(theta)
        x_train, y_train = train
        for epoch in range(config.epochs):
            decay_only = epoch == config.epochs - 1
            order = rng.permutation(len(x_train))
            for start in range(0, len(order), config.batch_size):
                if decay_only:
                    continue
                batch = order[start : start + config.batch_size]
                grad = _mlp_grad(spec, theta, x_train[batch], y_train[batch])
                velocity = config.momentum * velocity - config.learning_rate * grad
                theta = theta + velocity
        assert np.array_equal(trace.theta, theta)

    def test_decay_only_epoch_freezes_software_weights(self):
        spec, train, test = self.small_problem()
        config = NetworkConfig(epochs=2, seed=0)
        trace, _ = train_network_with_dam_decay(spec, train, test, None, config)
        assert trace.epochs[1].decay_only
        assert not trace.epochs[0].decay_only
        assert trace.epochs[1].test_accuracy == trace.epochs[0].test_accuracy
        assert trace.epochs[1].mean_abs_weight == trace.epochs[0].mean_abs_weight

    def test_device_weights_keep_decaying_in_final_epoch(self):
        spec, train, test = self.small_problem()
        config = NetworkConfig(epochs=2, seed=0)
        array = build_array(spec.n_params, default_params(), 7.5)
        trace, returned = train_network_with_dam_decay(spec, train, test, array, config)
        assert returned is not None
        assert trace.epochs[1].mean_abs_weight < trace.epochs[0].mean_abs_weight

    def test_device_arm_still_learns(self):
        spec, train, test = self.small_problem()
        config = NetworkConfig(epochs=4, seed=0)
        array = build_array(spec.n_params, default_params(), 7.5)
        trace, _ = train_network_with_dam_decay(spec, train, test, array, config)
        assert trace.final_accuracy >= 0.8
        assert trace.final_accuracy == trace.epochs[-1].test_accuracy

    def test_mismatched_array_changes_the_trajectory(self):
        spec, train, test = self.small_problem()
        config = NetworkConfig(epochs=2, seed=0)
        clean = build_array(spec.n_params, default_params(), 7.5)
        noisy = build_array(
            spec.n_params, default_params(), 7.5,
            mismatch=MismatchSpec(relative_sigma=0.001, seed=0),
        )
        trace_clean, _ = train_network_with_dam_decay(spec, train, test, clean, config)
        trace_noisy, _ = train_network_with_dam_decay(spec, train, test, noisy, config)
        assert not np.array_equal(trace_clean.theta, trace_noisy.theta)

    def test_cell_count_enforced(self):
        spec, train, test = self.small_problem()
        array = build_array(spec.n_params - 1, default_params(), 7.5)
        with pytest.raises(ArgumentError):
            train_network_with_dam_decay(spec, train, test, array, NetworkConfig())

    @pytest.mark.parametrize("kwargs", [
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(learning_rate=0.0),
        dict(epochs=0),
        dict(batch_size=0),
        dict(learning_rate=math.nan),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(DomainError):
            NetworkConfig(**kwargs)
