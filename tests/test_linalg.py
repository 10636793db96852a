"""The linear algebra the channels and the reference simulator do with numpy.

The package has no linear-algebra module: ``simulator.apply_kraus`` takes
the adjoint as ``k.conj().T``, ``simulator.validate_density_matrix`` checks
Hermiticity in the max-absolute-entry norm and then the spectrum with
``np.linalg.eigvalsh``, and ``channels`` defines the Pauli constants.  These
tests pin those three pieces, with power iteration as an independent oracle
for the smallest eigenvalue.
"""

import numpy as np
import pytest

from noisyvqc.channels import I2, PAULI_X, PAULI_Y, PAULI_Z
from noisyvqc.simulator import (
    HERMITICITY_TOL,
    PSD_TOL,
    apply_kraus,
    init_state,
    validate_density_matrix,
)

from conftest import random_density_matrix


class TestDagger:
    """``apply_kraus`` conjugates by ``K rho K^dag``."""

    def test_identity(self, rng):
        rho = random_density_matrix(rng, dim=2)
        np.testing.assert_array_equal(apply_kraus(rho, (I2,)), rho)

    def test_pauli_y_hermitian(self):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            np.testing.assert_array_equal(pauli.conj().T, pauli)

    def test_real_transpose(self):
        # K = |0><1| moves |1><1| to |0><0| only if the adjoint is taken
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        excited = np.diag([0, 1]).astype(complex)
        np.testing.assert_array_equal(
            apply_kraus(excited, (lower,)), np.diag([1, 0]).astype(complex)
        )

    def test_involution_exact(self, rng):
        # S = diag(1, i) takes |+><+| to |+i><+i| only if K^dag conjugates
        phase = np.diag([1, 1j])
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_array_equal(
            apply_kraus(plus, (phase,)), np.array([[0.5, -0.5j], [0.5j, 0.5]])
        )
        # entries 0, +-1, +-i: conjugating twice by a Pauli is exact
        for _ in range(10):
            rho = random_density_matrix(rng, dim=2)
            for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
                twice = apply_kraus(apply_kraus(rho, (pauli,)), (pauli,))
                np.testing.assert_array_equal(twice, rho)


class TestPredicates:
    """``validate_density_matrix``'s Hermiticity check."""

    def test_hermitian(self, rng):
        rho = random_density_matrix(rng)
        validate_density_matrix(rho)
        # a traceless anti-Hermitian perturbation keeps the trace at 1
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = skew[1, 0] = 1j
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(rho + 1e-6 * skew)

    def test_tol_must_be_positive(self):
        assert 0 < HERMITICITY_TOL and 0 < PSD_TOL
        # Hermitian only to rounding: a zero tolerance would reject it
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-13
        validate_density_matrix(rho)


def power_iteration_min_eig(a, iterations=20000, seed=7):
    """Independent oracle: power iteration on (c*I - a) gives c - min eig."""
    n = a.shape[0]
    shift = float(np.abs(a).max()) * n + 1.0
    shifted = shift * np.eye(n) - a
    v = np.random.default_rng(seed).normal(size=n) + 0j
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = shifted @ v
        v /= np.linalg.norm(v)
    top = float(np.real(v.conj() @ shifted @ v))
    return shift - top


class TestMinEigenvalue:
    """``validate_density_matrix``'s spectrum check, ``eigvalsh(rho)[0]``."""

    def test_half_identity(self):
        assert np.linalg.eigvalsh(np.eye(4, dtype=complex) / 2)[0] == pytest.approx(0.5)
        validate_density_matrix(np.eye(4, dtype=complex) / 4)

    def test_projector(self):
        rho = init_state()
        np.testing.assert_array_equal(rho, np.diag([1.0, 0, 0, 0]).astype(complex))
        assert np.linalg.eigvalsh(rho)[0] == pytest.approx(0.0)
        validate_density_matrix(rho)

    def test_bell_diagonal_mixture(self):
        # eigenvalues {0.5, 0.5, 0, 0} by inspection
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        assert np.linalg.eigvalsh(rho)[0] == pytest.approx(0.0)
        assert power_iteration_min_eig(rho) == pytest.approx(0.0, abs=1e-8)
        validate_density_matrix(rho)

    def test_non_hermitian_rejected(self):
        # eigvalsh reads one triangle and sees diag(1, 0, 0, 0), so only
        # the Hermiticity check in front of it can reject this matrix
        rho = init_state()
        rho[0, 1] = 1.0
        assert np.linalg.eigvalsh(rho)[0] >= -PSD_TOL
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(rho)

    def test_against_power_iteration_oracle(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert np.linalg.eigvalsh(rho)[0] == pytest.approx(
                power_iteration_min_eig(rho), abs=1e-8
            )
            validate_density_matrix(rho)
