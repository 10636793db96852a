"""Dense complex linear algebra for one- and two-qubit operators.

Everything in this package works on plain numpy arrays of dtype
``complex128``.  The register is fixed at two qubits, so the only matrix
dimensions that ever occur are 2 (single-qubit operators) and 4
(full-register operators and density matrices).  Qubit 0 is the most
significant tensor factor: a single-qubit operator ``A`` acting on
qubit 0 embeds into the register as ``kron(A, I2)``.

Matrix predicates use the max-absolute-entry norm, which is both cheap
and sharp at these sizes.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry; the norm used by all predicates here."""
    return float(np.max(np.abs(a)))


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff ``a`` equals its conjugate transpose within ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return max_abs(a - dagger(a)) <= tol


def min_eigenvalue(a: np.ndarray, herm_tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Raises ``ValueError`` if ``a`` is not Hermitian within ``herm_tol``;
    eigenvalues of non-Hermitian matrices are not meaningfully ordered.
    """
    if not is_hermitian(a, herm_tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(a)[0])
