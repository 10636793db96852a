import math

import numpy as np
import pytest

from noisyvqc.channels import I2, NOISY_KINDS, PAULI_X, PAULI_Z, ChannelKind, build_channel
from noisyvqc.circuit import CNOT, AnsatzConfig, param_shape
from noisyvqc.evaluator import rot_matrices, rx_matrices
from noisyvqc.simulator import (
    ansatz_kraus_sets,
    apply_kraus,
    expectation_z0,
    init_state,
    on_qubit,
    rotation,
    run,
    validate_density_matrix,
)

from conftest import random_density_matrix

#: (offset within a layer, qubit) of the four noise sets; layer l starts at 2 + 7 l
NOISE_SLOTS = ((2, 0), (3, 1), (5, 0), (6, 1))


def rx(theta, target=0):
    return on_qubit([rotation(PAULI_X, theta)], target)


def channel(kind, p, target=0):
    return on_qubit(build_channel(kind, p), target)


class TestInitState:
    def test_is_ground_projector(self):
        np.testing.assert_array_equal(init_state(), np.diag([1, 0, 0, 0]).astype(complex))

    def test_unit_trace(self):
        assert np.trace(init_state()) == 1.0

    def test_z_expectation(self):
        assert expectation_z0(init_state()) == 1.0


class TestApplyKraus:
    def test_rx_pi_flips_qubit0(self):
        rho = apply_kraus(init_state(), rx(math.pi, 0))
        np.testing.assert_allclose(rho, np.diag([0, 0, 1, 0]).astype(complex), atol=1e-15)

    def test_cnot_on_10(self):
        rho = np.diag([0, 0, 1, 0]).astype(complex)
        np.testing.assert_allclose(
            apply_kraus(rho, [CNOT]), np.diag([0, 0, 0, 1]).astype(complex)
        )

    def test_identity_rot(self, rng):
        cfg = AnsatzConfig(n_layers=1)
        rot_on_qubit1 = ansatz_kraus_sets([0.3, 0.4], np.zeros(param_shape(cfg)), cfg)[3]
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(apply_kraus(rho, rot_on_qubit1), rho, atol=1e-15)

    def test_channel_set(self, rng):
        out = apply_kraus(random_density_matrix(rng), channel(ChannelKind.DEPOLARIZING, 0.75, 0))
        # qubit 0 reduced state becomes I/2, so <Z0> vanishes
        assert expectation_z0(out) == pytest.approx(0.0, abs=1e-12)


class TestExpectation:
    def test_qubit0_excited(self):
        assert expectation_z0(np.diag([0, 0, 0.5, 0.5]).astype(complex)) == -1.0

    def test_maximally_mixed(self):
        assert expectation_z0(np.eye(4, dtype=complex) / 4) == 0.0

    def test_imaginary_residue_flagged(self):
        rho = init_state()
        rho[0, 0] = 1.0 + 1e-6j
        with pytest.raises(ValueError, match="imaginary"):
            expectation_z0(rho)


class TestValidateDensityMatrix:
    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density_matrix(rng))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(2.0 * init_state())

    def test_rejects_non_hermitian(self):
        # trace 1 and PSD diagonal, but rho[0, 1] has no conjugate partner
        rho = init_state()
        rho[0, 1] = 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            validate_density_matrix(rho)


class TestAnsatzKrausSets:
    def setup_method(self):
        self.features = np.array([0.4, 2.0])

    def test_noise_free_set_count(self):
        cfg = AnsatzConfig(n_layers=5)
        assert len(ansatz_kraus_sets(self.features, np.zeros(param_shape(cfg)), cfg)) == 17

    def test_noisy_set_count_and_positions(self):
        cfg = AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=0.4, n_layers=5)
        sets = ansatz_kraus_sets(self.features, np.zeros(param_shape(cfg)), cfg)
        assert len(sets) == 37
        # per layer: Rot Rot Channel Channel CNOT Channel Channel
        for layer in range(5):
            base = 2 + 7 * layer
            assert [len(s) for s in sets[base : base + 7]] == [1, 1, 2, 2, 1, 2, 2]
            np.testing.assert_array_equal(sets[base + 4][0], CNOT)

    def test_single_layer_order(self):
        cfg = AnsatzConfig(n_layers=1)
        sets = ansatz_kraus_sets(self.features, np.zeros(param_shape(cfg)), cfg)
        assert [len(s) for s in sets] == [1, 1, 1, 1, 1]
        np.testing.assert_array_equal(sets[4][0], CNOT)

    def test_encoding_not_followed_by_noise(self):
        cfg = AnsatzConfig(channel=ChannelKind.DEPOLARIZING, probability=0.9, n_layers=3)
        sets = ansatz_kraus_sets(self.features, np.zeros(param_shape(cfg)), cfg)
        assert [len(s) for s in sets[:4]] == [1, 1, 1, 1]
        assert len(sets[4]) == 4

    def test_deterministic(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.PHASE_DAMPING, probability=0.2, n_layers=4)
        params = rng.normal(size=param_shape(cfg))
        a = ansatz_kraus_sets(self.features, params, cfg)
        b = ansatz_kraus_sets(self.features, params, cfg)
        assert len(a) == len(b)
        for set_a, set_b in zip(a, b):
            np.testing.assert_array_equal(set_a, set_b)

    def test_angles_reach_their_gates(self):
        # layer 0 of qubit q holds (phi, theta, omega) = params[0, q]
        cfg = AnsatzConfig(n_layers=1)
        params = np.arange(6, dtype=float).reshape(1, 2, 3)
        sets = ansatz_kraus_sets(self.features, params, cfg)
        rots = rot_matrices(params[0])
        np.testing.assert_allclose(sets[0][0], np.kron(rx_matrices(0.4), I2), atol=1e-15)
        np.testing.assert_allclose(sets[1][0], np.kron(I2, rx_matrices(2.0)), atol=1e-15)
        np.testing.assert_allclose(sets[2][0], np.kron(rots[0], I2), atol=1e-14)
        np.testing.assert_allclose(sets[3][0], np.kron(I2, rots[1]), atol=1e-14)

    def test_shape_mismatch(self):
        cfg = AnsatzConfig(n_layers=5)
        with pytest.raises(ValueError, match="shape"):
            ansatz_kraus_sets(self.features, np.zeros((4, 2, 3)), cfg)
        with pytest.raises(ValueError, match="feature"):
            ansatz_kraus_sets(np.zeros(3), np.zeros(param_shape(cfg)), cfg)

    def test_unitary_sets_all_unitary(self, rng):
        cfg = AnsatzConfig(n_layers=3)
        params = rng.normal(size=param_shape(cfg))
        for ops in ansatz_kraus_sets(rng.uniform(0, np.pi, 2), params, cfg):
            (u,) = ops
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rotation(PAULI_X, float("nan"))
        cfg = AnsatzConfig(n_layers=1)
        params = np.zeros(param_shape(cfg))
        params[0, 1, 1] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            ansatz_kraus_sets(self.features, params, cfg)


class TestRun:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi / 2, math.pi])
    def test_single_rx_gives_cosine(self, theta):
        assert run([rx(theta)]) == pytest.approx(math.cos(theta), abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
    def test_phase_damping_preserves_z(self, gamma):
        theta = 1.1
        sets = [rx(theta), channel(ChannelKind.PHASE_DAMPING, gamma)]
        assert run(sets) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_depolarizing_fixed_point(self):
        sets = [rx(math.pi / 2), channel(ChannelKind.DEPOLARIZING, 0.75)]
        assert run(sets) == pytest.approx(0.0, abs=1e-12)

    def test_invariants_hold_through_noisy_circuit(self, rng):
        cfg = AnsatzConfig(channel=ChannelKind.AMPLITUDE_DAMPING, probability=0.7, n_layers=3)
        params = rng.normal(size=param_shape(cfg))
        sets = ansatz_kraus_sets(rng.uniform(0, np.pi, 2), params, cfg)
        run(sets, check=True)  # validates after every set

    @pytest.mark.parametrize("kind", NOISY_KINDS)
    def test_p0_channel_equals_noise_free(self, rng, kind):
        features = rng.uniform(0, np.pi, 2)
        params = rng.normal(size=(2, 2, 3))
        free = ansatz_kraus_sets(features, params, AnsatzConfig(n_layers=2))
        noisy = ansatz_kraus_sets(
            features, params, AnsatzConfig(channel=kind, probability=0.0, n_layers=2)
        )
        assert run(noisy) == pytest.approx(run(free), abs=1e-12)

    @pytest.mark.parametrize(
        "kind,pauli", [(ChannelKind.PHASE_FLIP, PAULI_Z), (ChannelKind.BIT_FLIP, PAULI_X)]
    )
    def test_flip_p1_equals_explicit_pi_rotations(self, rng, kind, pauli):
        # a pi rotation conjugates like its Pauli matrix (the global phase cancels)
        features = rng.uniform(0, np.pi, 2)
        params = rng.normal(size=(5, 2, 3))
        cfg = AnsatzConfig(channel=kind, probability=1.0, n_layers=5)
        noisy = ansatz_kraus_sets(features, params, cfg)
        explicit = list(noisy)
        for layer in range(5):
            for offset, q in NOISE_SLOTS:
                explicit[2 + 7 * layer + offset] = on_qubit([rotation(pauli, math.pi)], q)
        assert run(noisy) == pytest.approx(run(explicit), abs=1e-12)
