import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noisyvqc import evaluator, training
from noisyvqc.channels import PAULI_X, ChannelKind
from noisyvqc.circuit import AnsatzConfig, param_shape
from noisyvqc.evaluator import ansatz_expectations, blas_thread_calls, one_blas_thread
from noisyvqc.simulator import on_qubit, rotation, run
from noisyvqc.training import (
    RunRecord,
    SettingError,
    TrainSettings,
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
        settings = TrainSettings(learning_rate=0.1, momentum=0.0)
        new_params, _ = nesterov_step(params, np.zeros(2), lambda p: p, settings)
        np.testing.assert_allclose(new_params, params - 0.1 * params)

    def test_zero_gradient_keeps_params(self):
        params = np.array([0.5])
        new_params, velocity = nesterov_step(
            params, np.zeros(1), lambda p: np.zeros(1), TrainSettings()
        )
        np.testing.assert_array_equal(new_params, params)
        np.testing.assert_array_equal(velocity, np.zeros(1))

    def test_quadratic_bowl_first_step(self):
        # f(x) = x^2 from x0 = 1: velocity starts at 0, so the lookahead is
        # x0 and x1 = 1 - 0.01 * 2 = 0.98
        params = np.array([1.0])
        settings = TrainSettings(learning_rate=0.01, momentum=0.9)
        new_params, _ = nesterov_step(params, np.zeros(1), lambda p: 2 * p, settings)
        assert new_params[0] == pytest.approx(0.98)

    def test_gradient_evaluated_at_lookahead(self):
        seen = []
        params = np.array([1.0])
        settings = TrainSettings(learning_rate=0.01, momentum=0.9)

        def grad_fn(p):
            seen.append(p.copy())
            return np.zeros(1)

        nesterov_step(params, np.array([0.5]), grad_fn, settings)
        np.testing.assert_allclose(seen[0], [1.0 - 0.9 * 0.5])

    def test_hyperparameter_validation(self):
        with pytest.raises(SettingError, match="learning_rate"):
            TrainSettings(learning_rate=0.0)
        with pytest.raises(SettingError, match="momentum"):
            TrainSettings(momentum=1.0)

    @pytest.mark.parametrize("lr", [math.inf, -math.inf, math.nan])
    def test_non_finite_learning_rate_rejected(self, lr):
        # an infinite rate would train to all-NaN costs
        with pytest.raises(SettingError, match="positive and finite") as exc:
            TrainSettings(learning_rate=lr)
        assert exc.value.field == "learning_rate"


class TestTrain:
    def _tiny_splits(self, rng):
        train_x = rng.uniform(0, math.pi, size=(8, 2))
        train_y = np.where(train_x[:, 0] > math.pi / 2, 1, -1)
        return train_x, train_y, train_x[:4], train_y[:4]

    def test_zero_steps_rejected(self):
        with pytest.raises(SettingError, match="steps") as exc:
            TrainSettings(steps=0)
        assert exc.value.field == "steps"

    def test_empty_record_has_no_final_accuracy(self):
        record = RunRecord(channel=ChannelKind.NONE, probability=0.0, seed=0)
        with pytest.raises(ValueError, match="no recorded steps"):
            record.final_val_accuracy()

    def test_reproducible_bit_for_bit(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        cfg = AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=0.2, n_layers=2)
        first = train(tx, ty, vx, vy, cfg, TrainSettings(steps=6), seed=11)
        second = train(tx, ty, vx, vy, cfg, TrainSettings(steps=6), seed=11)
        assert first == second

    def test_records_metrics_in_range(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        record = train(tx, ty, vx, vy, AnsatzConfig(n_layers=2), TrainSettings(steps=12), seed=5)
        assert len(record.cost) == len(record.train_acc) == len(record.val_acc) == 12
        assert min(record.cost) >= 0.0
        for column in (record.train_acc, record.val_acc):
            assert 0.0 <= min(column) and max(column) <= 1.0

    def test_empty_train_split_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.array([1]),
                  AnsatzConfig(n_layers=1), TrainSettings(steps=1))

    def test_config_echoed(self, rng):
        tx, ty, vx, vy = self._tiny_splits(rng)
        cfg = AnsatzConfig(channel=ChannelKind.PHASE_FLIP, probability=0.7, n_layers=2)
        record = train(tx, ty, vx, vy, cfg, TrainSettings(steps=1), seed=9)
        assert record.channel is ChannelKind.PHASE_FLIP
        assert record.probability == 0.7
        assert record.seed == 9

    def test_final_val_accuracy_window(self):
        def final(val_accs):
            zeros = [0.0] * len(val_accs)
            record = RunRecord(ChannelKind.NONE, 0.0, 0, zeros, list(val_accs), list(val_accs))
            return record.final_val_accuracy()

        # the mean covers exactly the last 10 steps, or every step of a shorter run
        assert final([0.0] + [1.0] * 10) == 1.0
        assert final([0.0] * 5 + [1.0] * 5) == 0.5
        assert final([0.0, 1.0]) == 0.5


def blas_threads():
    """(get, set) of numpy's BLAS thread count; skips where it exposes none."""
    calls = blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no thread-count symbols")
    return calls


class TestOneBlasThread:
    def _tiny_run(self):
        rng = np.random.default_rng(3)
        tx = rng.uniform(0, math.pi, size=(8, 2))
        ty = np.where(tx[:, 0] > math.pi / 2, 1, -1)
        cfg = AnsatzConfig(channel=ChannelKind.AMPLITUDE_DAMPING, probability=0.1, n_layers=2)
        return tx, ty, tx[:4], ty[:4], cfg, TrainSettings(steps=4, batch_size=3)

    def test_train_evaluates_on_one_thread_and_restores(self, monkeypatch):
        get, _ = blas_threads()
        before = get()
        seen = []

        def counting(*args):
            seen.append(get())
            return ansatz_expectations(*args)

        monkeypatch.setattr(training, "ansatz_expectations", counting)
        record = train(*self._tiny_run())
        assert len(record.val_acc) == 4
        assert seen and set(seen) == {1}
        assert get() == before

    def test_train_restores_after_raising(self, monkeypatch):
        get, _ = blas_threads()
        before = get()

        def failing(*args):
            raise RuntimeError("evaluator failed")

        monkeypatch.setattr(training, "ansatz_expectations", failing)
        with pytest.raises(RuntimeError, match="evaluator failed"):
            train(*self._tiny_run())
        assert get() == before

    def test_no_blas_symbols_leave_threads_alone_and_bits_unchanged(self, monkeypatch):
        capped = train(*self._tiny_run())
        monkeypatch.setattr(evaluator, "_BLAS_THREAD_SYMBOLS", (("no_such_get", "no_such_set"),))
        assert blas_thread_calls() is None
        uncapped = train(*self._tiny_run())
        assert uncapped == capped

    def test_outputs_bitwise_equal_at_two_threads_and_one(self):
        # a future BLAS that split the inner dimension of these products
        # across threads would change the bits of summary.csv and results.csv
        get, set_ = blas_threads()
        rng = np.random.default_rng(7)
        cfg = AnsatzConfig(channel=ChannelKind.AMPLITUDE_DAMPING, probability=0.1)
        params = rng.normal(size=param_shape(cfg))
        readout_x = rng.uniform(0, math.pi, size=(2000, 2))
        batch_x = rng.uniform(0, math.pi, size=(5, 2))
        batch_y = rng.choice([-1, 1], size=5)

        def outputs():
            return (
                ansatz_expectations(readout_x, params, cfg),
                cost_gradient(batch_x, batch_y, params, cfg),
            )

        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("BLAS cannot run two threads here")
            two = outputs()
            with one_blas_thread():
                one = outputs()
        finally:
            set_(before)
        for a, b in zip(two, one):
            assert a.tobytes() == b.tobytes()


class TestDepolarizingStaysNearChance:
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_validation_accuracy_rarely_beats_chance(self, p):
        from noisyvqc.sweep import execute_run

        record = execute_run(ChannelKind.DEPOLARIZING, p, seed=1)
        above = sum(1 for acc in record.val_acc if acc > 0.5 + 0.2)
        assert above < len(record.val_acc) / 2


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
