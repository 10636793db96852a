import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noisyvqc.channels import ChannelKind
from noisyvqc.circuit import AnsatzConfig, param_shape
from noisyvqc.linalg import PAULI_X
from noisyvqc.simulator import on_qubit, rotation, run
from noisyvqc.training import (
    OptimizerState,
    RunRecord,
    StepRecord,
    accuracy,
    batch_cost,
    cost_gradient,
    model_output,
    nesterov_step,
    parameter_shift_grad,
    predict,
    train,
)

XOR_FEATURES = np.array([[0.0, 0.0], [math.pi, 0.0]])


def rx_expectation(theta):
    """<Z> on qubit 0 after RX(theta) on |00>, folded by the reference oracle."""
    return run([on_qubit([rotation(PAULI_X, theta)], 0)])


class TestLossAndPrediction:
    def test_square_loss_zero(self):
        assert batch_cost([1], [1.0]) == 0.0

    def test_square_loss_worst(self):
        assert batch_cost([-1], [1.0]) == 4.0

    def test_batch_cost_mean(self):
        assert batch_cost([1, -1], [0.5, -0.5]) == pytest.approx(0.25)

    def test_predict_signs(self):
        assert predict(0.3) == 1
        assert predict(-0.9) == -1
        assert predict(0.0) == 1  # tie-break toward +1

    def test_predict_vectorized(self):
        np.testing.assert_array_equal(predict(np.array([0.2, -0.1, 0.0])), [1, -1, 1])

    def test_accuracy(self):
        assert accuracy([1, -1, 1, -1], [0.9, -0.2, -0.3, -0.8]) == 0.75


class TestModelOutput:
    def test_identity_circuit(self):
        cfg = AnsatzConfig(n_layers=5)
        assert model_output([0.0, 0.0], np.zeros(param_shape(cfg)), cfg) == pytest.approx(1.0)

    def test_flipped_qubit0(self):
        cfg = AnsatzConfig(n_layers=5)
        assert model_output([math.pi, 0.0], np.zeros(param_shape(cfg)), cfg) == pytest.approx(-1.0)

    def test_depolarizing_three_quarters_pins_output(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.DEPOLARIZING, probability=0.75, n_layers=5)
        params = rng.normal(size=param_shape(cfg))
        assert model_output(rng.uniform(0, math.pi, 2), params, cfg) == pytest.approx(0.0, abs=1e-12)


class TestParameterShift:
    def test_rule_on_single_rx(self):
        # dh/dtheta of <Z> = cos(theta) is -sin(theta); the +-pi/2 shift
        # realizes it exactly
        theta = math.pi / 3
        shifted = (rx_expectation(theta + math.pi / 2) - rx_expectation(theta - math.pi / 2)) / 2
        assert shifted == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_rule_stationary_at_zero(self):
        shifted = (rx_expectation(math.pi / 2) - rx_expectation(-math.pi / 2)) / 2
        assert shifted == pytest.approx(0.0, abs=1e-12)

    def test_zero_gradient_at_depolarizing_fixed_point(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.DEPOLARIZING, probability=0.75, n_layers=5)
        grad = parameter_shift_grad(
            rng.uniform(0, math.pi, 2), rng.normal(size=param_shape(cfg)), cfg
        )
        np.testing.assert_allclose(grad, np.zeros(param_shape(cfg)), atol=1e-12)

    @pytest.mark.parametrize("kind,p", [(ChannelKind.NONE, 0.0), (ChannelKind.AMPLITUDE_DAMPING, 0.5)])
    def test_matches_finite_differences(self, rng, kind, p):
        cfg = AnsatzConfig(channel=kind, probability=p, n_layers=5)
        features = rng.uniform(0, math.pi, 2)
        params = rng.normal(scale=0.8, size=param_shape(cfg))
        grad = parameter_shift_grad(features, params, cfg)
        step = 1e-5
        num = np.zeros_like(params)
        for idx in np.ndindex(params.shape):
            plus, minus = params.copy(), params.copy()
            plus[idx] += step
            minus[idx] -= step
            num[idx] = (model_output(features, plus, cfg) - model_output(features, minus, cfg)) / (
                2 * step
            )
        np.testing.assert_allclose(grad, num, atol=1e-6)


class TestCostGradient:
    def test_zero_residual_gives_zero_gradient(self):
        cfg = AnsatzConfig(n_layers=5)
        params = np.zeros(param_shape(cfg))
        grad = cost_gradient(XOR_FEATURES, np.array([1, -1]), params, cfg)
        np.testing.assert_array_equal(grad, np.zeros(param_shape(cfg)))

    def test_batch_gradient_is_mean_of_samples(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.PHASE_FLIP, probability=0.3, n_layers=2)
        params = rng.normal(size=param_shape(cfg))
        features = rng.uniform(0, math.pi, size=(2, 2))
        labels = np.array([1, -1])
        combined = cost_gradient(features, labels, params, cfg)
        singles = [
            cost_gradient(features[i : i + 1], labels[i : i + 1], params, cfg) for i in range(2)
        ]
        np.testing.assert_allclose(combined, np.mean(singles, axis=0), atol=1e-14)

    @settings(derandomize=True, deadline=None, database=None)
    @given(
        kind=st.sampled_from(list(ChannelKind)),
        p=st.floats(0.0, 1.0),
        n_layers=st.integers(1, 3),
        n_samples=st.integers(1, 5),
        data=st.data(),
    )
    def test_chain_rule_over_per_sample_shift_rule(self, kind, p, n_layers, n_samples, data):
        cfg = AnsatzConfig(channel=kind, probability=p, n_layers=n_layers)
        angles = st.floats(-10.0, 10.0)
        features = data.draw(arrays(float, (n_samples, 2), elements=angles), label="features")
        params = data.draw(arrays(float, param_shape(cfg), elements=angles), label="params")
        labels = data.draw(arrays(int, n_samples, elements=st.sampled_from([-1, 1])), label="labels")
        per_sample = [
            -2.0 * (y - model_output(x, params, cfg)) * parameter_shift_grad(x, params, cfg)
            for x, y in zip(features, labels)
        ]
        np.testing.assert_allclose(
            cost_gradient(features, labels, params, cfg), np.mean(per_sample, axis=0), atol=1e-12
        )

    def test_matches_finite_differences_of_batch_cost(self, rng):
        from noisyvqc.evaluator import ansatz_expectations

        cfg = AnsatzConfig(channel=ChannelKind.PHASE_DAMPING, probability=0.4, n_layers=3)
        params = rng.normal(scale=0.5, size=param_shape(cfg))
        features = rng.uniform(0, math.pi, size=(4, 2))
        labels = np.array([1, -1, 1, -1])
        grad = cost_gradient(features, labels, params, cfg)
        step = 1e-5

        def cost_at(p):
            return batch_cost(labels, ansatz_expectations(features, p, cfg))

        num = np.zeros_like(params)
        for idx in np.ndindex(params.shape):
            plus, minus = params.copy(), params.copy()
            plus[idx] += step
            minus[idx] -= step
            num[idx] = (cost_at(plus) - cost_at(minus)) / (2 * step)
        np.testing.assert_allclose(grad, num, atol=1e-6)


class TestNesterovStep:
    def test_zero_momentum_is_vanilla_descent(self):
        params = np.array([1.0, -2.0])
        state = OptimizerState(velocity=np.zeros(2), learning_rate=0.1, momentum=0.0)
        new_params, _ = nesterov_step(params, state, lambda p: p)
        np.testing.assert_allclose(new_params, params - 0.1 * params)

    def test_zero_gradient_keeps_params(self):
        params = np.array([0.5])
        state = OptimizerState(velocity=np.zeros(1))
        new_params, new_state = nesterov_step(params, state, lambda p: np.zeros(1))
        np.testing.assert_array_equal(new_params, params)
        np.testing.assert_array_equal(new_state.velocity, np.zeros(1))

    def test_quadratic_bowl_first_step(self):
        # f(x) = x^2 from x0 = 1: velocity starts at 0, so the lookahead is
        # x0 and x1 = 1 - 0.01 * 2 = 0.98
        params = np.array([1.0])
        state = OptimizerState(velocity=np.zeros(1), learning_rate=0.01, momentum=0.9)
        new_params, _ = nesterov_step(params, state, lambda p: 2 * p)
        assert new_params[0] == pytest.approx(0.98)

    def test_gradient_evaluated_at_lookahead(self):
        seen = []
        params = np.array([1.0])
        state = OptimizerState(velocity=np.array([0.5]), learning_rate=0.01, momentum=0.9)

        def grad_fn(p):
            seen.append(p.copy())
            return np.zeros(1)

        nesterov_step(params, state, grad_fn)
        np.testing.assert_allclose(seen[0], [1.0 - 0.9 * 0.5])

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            OptimizerState(velocity=np.zeros(1), learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerState(velocity=np.zeros(1), momentum=1.0)


class TestTrain:
    def _tiny_splits(self, rng):
        train_x = rng.uniform(0, math.pi, size=(8, 2))
        train_y = np.where(train_x[:, 0] > math.pi / 2, 1, -1)
        return train_x, train_y, train_x[:4], train_y[:4]

    def test_zero_steps_returns_empty_record(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        record = train(tx, ty, vx, vy, AnsatzConfig(n_layers=2), steps=0, seed=3)
        assert record.steps == []
        with pytest.raises(ValueError):
            record.final_val_accuracy()

    def test_reproducible_bit_for_bit(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        cfg = AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=0.2, n_layers=2)
        first = train(tx, ty, vx, vy, cfg, steps=6, seed=11)
        second = train(tx, ty, vx, vy, cfg, steps=6, seed=11)
        assert first.steps == second.steps

    def test_records_metrics_in_range(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        record = train(tx, ty, vx, vy, AnsatzConfig(n_layers=2), steps=12, seed=5)
        assert len(record.steps) == 12
        assert [s.step for s in record.steps] == list(range(1, 13))
        for s in record.steps:
            assert s.cost >= 0.0
            assert 0.0 <= s.train_accuracy <= 1.0
            assert 0.0 <= s.val_accuracy <= 1.0

    def test_empty_train_split_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.array([1]),
                  AnsatzConfig(n_layers=1), steps=1)

    def test_config_echoed(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        cfg = AnsatzConfig(channel=ChannelKind.PHASE_FLIP, probability=0.7, n_layers=2)
        record = train(tx, ty, vx, vy, cfg, steps=1, seed=9)
        assert record.channel is ChannelKind.PHASE_FLIP
        assert record.probability == 0.7
        assert record.seed == 9

    def test_final_val_accuracy_window(self):
        record = RunRecord(channel=ChannelKind.NONE, probability=0.0, seed=0)
        for i, acc in enumerate([0.0] * 5 + [1.0] * 5, start=1):
            record.steps.append(StepRecord(step=i, cost=0.0, train_accuracy=acc, val_accuracy=acc))
        assert record.final_val_accuracy(window=5) == 1.0
        assert record.final_val_accuracy(window=10) == 0.5


class TestDepolarizingStaysNearChance:
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_validation_accuracy_rarely_beats_chance(self, p):
        from noisyvqc.sweep import execute_run

        record = execute_run(ChannelKind.DEPOLARIZING, p, seed=1)
        above = sum(1 for s in record.steps if s.val_accuracy > 0.5 + 0.2)
        assert above < len(record.steps) / 2


class TestDephasingTransparency:
    @pytest.mark.parametrize("kind", [ChannelKind.PHASE_FLIP, ChannelKind.PHASE_DAMPING])
    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_zero_rot_layer_output_is_noise_free(self, rng, kind, p):
        # with all Rot parameters zero the register stays diagonal, which
        # dephasing channels cannot touch
        params = np.zeros((1, 2, 3))
        features = rng.uniform(0, math.pi, 2)
        noisy = model_output(features, params, AnsatzConfig(channel=kind, probability=p, n_layers=1))
        free = model_output(features, params, AnsatzConfig(n_layers=1))
        assert noisy == pytest.approx(free, abs=1e-12)
