"""Reference density-matrix simulator: a deliberately simple oracle.

A circuit is a list of Kraus sets of 4x4 register operators, folded in
order as ``rho -> sum_k K rho K^dag``; a unitary gate is a set of one,
and a noise channel on qubit q is ``on_qubit(build_channel(...), q)``.
Every gate is built from its textbook definition, independently of the
closed forms in :mod:`noisyvqc.evaluator`, and the test suite pins the
two paths together at 1e-12.  Expectation values are computed
analytically (no shot sampling), so repeated runs are exactly
reproducible.

Readout is the Pauli-Z expectation of qubit 0 only, i.e.
``Tr(rho (Z kron I))``.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import I2, PAULI_X, PAULI_Y, PAULI_Z, build_channel, on_qubit
from .circuit import CNOT, AnsatzConfig, N_QUBITS, param_shape

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
#: imaginary residue beyond this in an expectation value signals a bug upstream
IMAG_RESIDUE_LIMIT = 1e-8


def rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    """Half-angle rotation ``cos(a/2) I - i sin(a/2) P`` about the Pauli matrix ``P``."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * pauli


def ansatz_kraus_sets(features, params, config: AnsatzConfig) -> list[list[np.ndarray]]:
    """The classifier circuit for one sample as a list of Kraus sets.

    ``features`` are the two encoding angles (radians) and ``params``
    the trainable tensor of shape ``(n_layers, 2, 3)``.  Order: the two
    encoding RX gates, then per layer the two Rot gates, the noise
    channel on each qubit, the CNOT, and the noise channel on each
    qubit again; a noise-free config's channel is the identity.
    """
    features = np.asarray(features, dtype=float)
    params = np.asarray(params, dtype=float)
    if features.shape != (N_QUBITS,):
        raise ValueError(f"expected {N_QUBITS} feature angles, got shape {features.shape}")
    if params.shape != param_shape(config):
        raise ValueError(f"params shape {params.shape} does not match {param_shape(config)}")
    ops = build_channel(config.channel, config.probability)
    noise = [on_qubit(ops, q) for q in range(N_QUBITS)]

    sets = [on_qubit([rotation(PAULI_X, features[q])], q) for q in range(N_QUBITS)]
    for layer in params:
        for q, (phi, theta, omega) in enumerate(layer):
            rot = rotation(PAULI_Z, omega) @ rotation(PAULI_Y, theta) @ rotation(PAULI_Z, phi)
            sets.append(on_qubit([rot], q))
        sets += noise + [[CNOT]] + noise
    return sets


def init_state() -> np.ndarray:
    """Density matrix of |00>, i.e. ``diag(1, 0, 0, 0)``."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def apply_kraus(rho: np.ndarray, ops) -> np.ndarray:
    """Advance ``rho`` by one Kraus set of its size: ``sum_k K rho K^dag``.

    A channel from ``channels.build_channel`` acts on a 2x2 state as it
    is, and on one qubit of the register as ``on_qubit(ops, target)``.
    """
    return sum(k @ rho @ k.conj().T for k in ops)


def expectation_z0(rho: np.ndarray) -> float:
    """Pauli-Z expectation of qubit 0: ``Tr(rho (Z kron I))``."""
    value = rho[0, 0] + rho[1, 1] - rho[2, 2] - rho[3, 3]
    if abs(value.imag) > IMAG_RESIDUE_LIMIT:
        raise ValueError(f"expectation has imaginary residue {value.imag:g}")
    return float(value.real)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise if ``rho`` is not trace-1, Hermitian, and PSD within the module tolerances."""
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):g}")
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("state is not Hermitian within tolerance")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -PSD_TOL:
        raise ValueError(f"state has negative eigenvalue {lo:g}")


def run(kraus_sets, check: bool = False) -> float:
    """Fold |00><00| through every Kraus set and read out <Z> on qubit 0.

    With ``check=True`` the density-matrix invariants are validated
    after every set; leave it off in hot loops.
    """
    rho = init_state()
    for ops in kraus_sets:
        rho = apply_kraus(rho, ops)
        if check:
            validate_density_matrix(rho)
    return expectation_z0(rho)
