import pickle

import numpy as np
import pytest

from noisyvqc.channels import (
    I2,
    NOISY_KINDS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ChannelKind,
    SettingError,
    build_channel,
    embed_kraus,
    verify_completeness,
)
from noisyvqc.simulator import apply_kraus, on_qubit

from conftest import random_density_matrix

PROB_GRID = [round(0.1 * i, 1) for i in range(11)]


class TestBuildChannel:
    def test_phase_flip_ops(self):
        ops = build_channel(ChannelKind.PHASE_FLIP, 0.36)
        np.testing.assert_allclose(ops[0], np.sqrt(0.64) * I2)
        np.testing.assert_allclose(ops[1], np.sqrt(0.36) * PAULI_Z)

    def test_bit_flip_ops(self):
        ops = build_channel(ChannelKind.BIT_FLIP, 0.36)
        np.testing.assert_allclose(ops[0], np.sqrt(0.64) * I2)
        np.testing.assert_allclose(ops[1], np.sqrt(0.36) * PAULI_X)

    def test_phase_damping_ops(self):
        ops = build_channel(ChannelKind.PHASE_DAMPING, 0.19)
        np.testing.assert_allclose(ops[0], np.diag([1, np.sqrt(0.81)]).astype(complex))
        np.testing.assert_allclose(ops[1], np.diag([0, np.sqrt(0.19)]).astype(complex))

    def test_amplitude_damping_ops(self):
        ops = build_channel(ChannelKind.AMPLITUDE_DAMPING, 0.19)
        np.testing.assert_allclose(ops[0], np.diag([1, np.sqrt(0.81)]).astype(complex))
        np.testing.assert_allclose(
            ops[1], np.array([[0, np.sqrt(0.19)], [0, 0]], dtype=complex)
        )

    def test_depolarizing_ops(self):
        ops = build_channel(ChannelKind.DEPOLARIZING, 0.3)
        np.testing.assert_allclose(ops[0], np.sqrt(0.7) * I2)
        np.testing.assert_allclose(ops[1], np.sqrt(0.1) * PAULI_X)
        np.testing.assert_allclose(ops[2], np.sqrt(0.1) * PAULI_Y)
        np.testing.assert_allclose(ops[3], np.sqrt(0.1) * PAULI_Z)

    def test_noise_free_is_identity(self):
        ops = build_channel(ChannelKind.NONE, 0.0)
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], I2)

    def test_phase_flip_p0_keeps_zero_op(self):
        ops = build_channel(ChannelKind.PHASE_FLIP, 0.0)
        assert len(ops) == 2
        np.testing.assert_array_equal(ops[0], I2)
        assert np.abs(ops[1]).max() == 0.0
        assert verify_completeness(ops)

    def test_bit_flip_p1(self):
        ops = build_channel(ChannelKind.BIT_FLIP, 1.0)
        assert np.abs(ops[0]).max() == 0.0
        np.testing.assert_allclose(ops[1], PAULI_X)

    def test_depolarizing_operator_weights(self):
        # trace(K^dag K) per operator at p = 0.6: {0.8, 0.4, 0.4, 0.4}
        ops = build_channel(ChannelKind.DEPOLARIZING, 0.6)
        weights = [float(np.trace(k.conj().T @ k).real) for k in ops]
        np.testing.assert_allclose(weights, [0.8, 0.4, 0.4, 0.4])

    @pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
    def test_probability_range(self, bad):
        with pytest.raises(ValueError):
            build_channel(ChannelKind.PHASE_FLIP, bad)


class TestCompleteness:
    def test_phase_damping_half(self):
        assert verify_completeness(build_channel(ChannelKind.PHASE_DAMPING, 0.5))

    def test_amplitude_damping_full(self):
        assert verify_completeness(build_channel(ChannelKind.AMPLITUDE_DAMPING, 1.0))

    def test_overcomplete_set_rejected(self):
        assert not verify_completeness((I2.copy(), I2.copy()))

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("p", PROB_GRID)
    def test_grid(self, kind, p):
        assert verify_completeness(build_channel(kind, p))


class TestApplyChannel:
    def test_depolarizing_fixed_point(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = apply_kraus(rho, build_channel(ChannelKind.DEPOLARIZING, 0.75))
        np.testing.assert_allclose(out, I2 / 2, atol=1e-15)

    def test_amplitude_damping_decay(self):
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = apply_kraus(rho, build_channel(ChannelKind.AMPLITUDE_DAMPING, 0.4))
        np.testing.assert_allclose(out, np.diag([0.4, 0.6]).astype(complex), atol=1e-15)

    @pytest.mark.parametrize("p", [0.2, 0.7, 1.0])
    def test_phase_flip_preserves_diagonal_states(self, rng, p):
        d = rng.uniform(0, 1, size=2)
        rho = np.diag(d / d.sum()).astype(complex)
        out = apply_kraus(rho, build_channel(ChannelKind.PHASE_FLIP, p))
        np.testing.assert_allclose(out, rho, atol=1e-15)

    @pytest.mark.parametrize("target", [0, 1])
    def test_embedded_on_register(self, rng, target):
        rho = random_density_matrix(rng, 4)
        ops = build_channel(ChannelKind.AMPLITUDE_DAMPING, 0.3)
        out = apply_kraus(rho, on_qubit(ops, target))
        expected = sum(
            embed_kraus(k, target) @ rho @ embed_kraus(k, target).conj().T for k in ops
        )
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_embed_kraus_qubit_ordering(self):
        # qubit 0 is the most significant tensor factor; hand expansions
        np.testing.assert_array_equal(embed_kraus(PAULI_Z, 0), np.diag([1, 1, -1, -1]))
        np.testing.assert_array_equal(embed_kraus(PAULI_Z, 1), np.diag([1, -1, 1, -1]))
        np.testing.assert_array_equal(
            embed_kraus(PAULI_X, 0) @ embed_kraus(PAULI_X, 1), np.fliplr(np.eye(4))
        )

    def test_invalid_target(self):
        # the register has qubits 0 and 1 only
        with pytest.raises(ValueError, match="target must be 0 or 1"):
            on_qubit(build_channel(ChannelKind.BIT_FLIP, 0.5), 2)

    @pytest.mark.parametrize("kind", NOISY_KINDS)
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.75, 1.0])
    def test_preserves_state_validity(self, rng, kind, p):
        ops = build_channel(kind, p)
        for target in (0, 1):
            rho = random_density_matrix(rng, 4)
            out = apply_kraus(rho, on_qubit(ops, target))
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestChannelIdentities:
    def test_phase_flip_p1_is_z_conjugation(self, rng):
        ops = build_channel(ChannelKind.PHASE_FLIP, 1.0)
        for target in (0, 1):
            rho = random_density_matrix(rng, 4)
            z = embed_kraus(PAULI_Z, target)
            out = apply_kraus(rho, on_qubit(ops, target))
            np.testing.assert_allclose(out, z @ rho @ z, atol=1e-12)

    def test_bit_flip_p1_is_x_conjugation(self, rng):
        ops = build_channel(ChannelKind.BIT_FLIP, 1.0)
        for target in (0, 1):
            rho = random_density_matrix(rng, 4)
            x = embed_kraus(PAULI_X, target)
            out = apply_kraus(rho, on_qubit(ops, target))
            np.testing.assert_allclose(out, x @ rho @ x, atol=1e-12)

    @pytest.mark.parametrize("kind", [ChannelKind.PHASE_FLIP, ChannelKind.PHASE_DAMPING])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_dephasing_preserves_populations(self, rng, kind, p):
        # the diagonal of rho, and hence every Pauli-Z expectation, is untouched
        ops = build_channel(kind, p)
        for target in (0, 1):
            rho = random_density_matrix(rng, 4)
            out = apply_kraus(rho, on_qubit(ops, target))
            np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-13)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.6, 1.0])
    def test_depolarizing_closed_form(self, rng, p):
        # Kraus sum equals (1 - 4p/3) rho + (2p/3) I for trace-1 states
        ops = build_channel(ChannelKind.DEPOLARIZING, p)
        rho = random_density_matrix(rng, 2)
        out = apply_kraus(rho, ops)
        np.testing.assert_allclose(out, (1 - 4 * p / 3) * rho + (2 * p / 3) * I2, atol=1e-13)


class TestSerialization:
    def test_kind_round_trip(self):
        for kind in ChannelKind:
            assert ChannelKind(kind.value) is kind

    def test_expected_wire_names(self):
        assert {k.value for k in ChannelKind} == {
            "none",
            "phase-flip",
            "bit-flip",
            "phase-damping",
            "amplitude-damping",
            "depolarizing",
        }


class TestSettingError:
    def test_survives_pickling(self):
        # a process pool pickles an error raised in a worker
        error = pickle.loads(pickle.dumps(SettingError("data_path", "x")))
        assert isinstance(error, SettingError)
        assert (error.field, error.reason, str(error)) == ("data_path", "x", "data_path: x")
