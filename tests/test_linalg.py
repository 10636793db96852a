import numpy as np
import pytest

from noisyvqc.linalg import I2, PAULI_Y, dagger, is_hermitian, max_abs, min_eigenvalue

from conftest import random_density_matrix


def random_complex(rng, dim=2):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(I2), I2)

    def test_pauli_y_hermitian(self):
        np.testing.assert_array_equal(dagger(PAULI_Y), PAULI_Y)

    def test_real_transpose(self):
        np.testing.assert_array_equal(
            dagger(np.array([[0, 1], [0, 0]], dtype=complex)),
            np.array([[0, 0], [1, 0]], dtype=complex),
        )

    def test_involution_exact(self, rng):
        for _ in range(10):
            a = random_complex(rng, 4)
            np.testing.assert_array_equal(dagger(dagger(a)), a)


class TestPredicates:
    def test_hermitian(self, rng):
        rho = random_density_matrix(rng)
        assert is_hermitian(rho, 1e-12)
        assert not is_hermitian(rho + 1e-6 * 1j * np.eye(4), 1e-9)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_hermitian(I2, 0.0)


def power_iteration_min_eig(a, iterations=20000, seed=7):
    """Independent oracle: power iteration on (c*I - a) gives c - min eig."""
    n = a.shape[0]
    shift = max_abs(a) * n + 1.0
    shifted = shift * np.eye(n) - a
    v = np.random.default_rng(seed).normal(size=n) + 0j
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = shifted @ v
        v /= np.linalg.norm(v)
    top = float(np.real(v.conj() @ shifted @ v))
    return shift - top


class TestMinEigenvalue:
    def test_half_identity(self):
        assert min_eigenvalue(np.eye(4, dtype=complex) / 2) == pytest.approx(0.5)

    def test_projector(self):
        assert min_eigenvalue(np.diag([1.0, 0, 0, 0]).astype(complex)) == pytest.approx(0.0)

    def test_bell_diagonal_mixture(self):
        # eigenvalues {0.5, 0.5, 0, 0} by inspection
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        assert min_eigenvalue(rho) == pytest.approx(0.0)
        assert power_iteration_min_eig(rho) == pytest.approx(0.0, abs=1e-8)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_against_power_iteration_oracle(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert min_eigenvalue(rho) == pytest.approx(power_iteration_min_eig(rho), abs=1e-8)
