"""Vectorized evaluation of the classifier ansatz over sample batches.

Training needs a parameter-shift gradient (61 shifted evaluations per
sample) and a full-split accuracy readout at every step.  One call of
``ansatz_expectations`` evaluates either a single parameter tensor over
B rows (a readout) or a stack of V tensors over the same k rows (a
gradient), and both work in the Pauli basis, where every map of the
circuit is a real matrix acting on 16 Pauli coefficients: a Rot gate's
Pauli transfer matrix (PTM) is 1 + SO(3) in closed form
(``rot_ptms``), and the parameter-free remainder of a layer -- noise on
both qubits, the CNOT, noise on both qubits again -- is T S T^-1 of
its 16x16 superoperator S on row-major vectorized states
(``static_layer_superop``, built once per ``AnsatzConfig``).  The
readout Z x I is pulled back through every tensor's layers in one
batched pass, and one (V, 16) @ (16, k) product meets it with the rows'
encoded coefficients.  These outputs agree with evolving every tensor's
density matrices on their own to rounding (about 1e-15), not bit for
bit, so every output of magnitude ``NEAR_ZERO`` (1e-12) or more keeps
its sign, which is all an accuracy reads.

A readout in which some row is below ``NEAR_ZERO`` has a class that
rounding decides, and the benchmark's recorded references pin the
signs of the complex density-matrix loop.  So such a readout is
evaluated again by that loop, over the whole batch, and returns its
bits: the two Rot gates of a layer act on different qubits, so their
product is one Kronecker factor applied as one batched conjugation,
the encoded state is the outer product of the two encoding RX gates'
first columns, and the tail is one matrix product per layer with S.

These matrix products have inner dimension 4 or 16, and a second BLAS
thread costs more than it saves on them: on a 2,000-row readout of the
complex loop it doubled a run's CPU time, and on a process pool it
takes a core from another worker.  ``one_blas_thread`` caps BLAS at one thread while
training runs.

This module is the package's only gate library: a single gate is a
batch of one, e.g. ``rot_matrices(angles[None])[0]``.  Both paths agree
with folding ``simulator.ansatz_kraus_sets`` through the reference
oracle ``simulator.run``; the test suite pins them together at 1e-12.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from .channels import ChannelKind, build_channel, embed_kraus
from .circuit import CNOT, AnsatzConfig, N_QUBITS, param_shape
from .linalg import I2, PAULI_X, PAULI_Y, PAULI_Z

_PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])

#: row 4a + b is vec(P^T) for P = sigma_a x sigma_b over (I, X, Y, Z), so
#: it maps a row-major vec(rho) to the Pauli coefficients Tr(P rho)
_TO_PAULI = np.einsum("aij,bkl->abjlik", _PAULIS, _PAULIS).reshape(16, 16)
_FROM_PAULI = _TO_PAULI.conj().T / 4
#: the readout Z on qubit 0 as a 4x4 Pauli coefficient matrix
_Z_QUBIT0 = np.zeros((4, 4))
_Z_QUBIT0[3, 0] = 1.0
#: a readout output below this magnitude may have its sign set by
#: rounding, so its batch takes the complex loop's bits
NEAR_ZERO = 1e-12

#: (get, set) symbol pairs of the OpenBLAS thread count, in lookup order:
#: the scipy-openblas build bundled with numpy wheels, then system builds
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def blas_thread_calls():
    """The (get, set) thread-count functions of numpy's BLAS, or None if unknown.

    The handle is numpy's own extension module, and ``dlsym`` on it also
    searches the libraries it links, so no BLAS file name is needed.
    MKL, Windows and numpy 1.x (no ``np._core``) find nothing.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    Does nothing when ``blas_thread_calls`` finds no BLAS; outputs are
    bitwise the same either way, only slower.
    """
    calls = blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def rx_matrices(angles: np.ndarray) -> np.ndarray:
    """Stack of RX gate matrices, shape (B,) -> (B, 2, 2)."""
    angles = np.asarray(angles, dtype=float)
    c = np.cos(angles / 2)
    s = np.sin(angles / 2)
    out = np.empty(angles.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -1j * s
    out[..., 1, 0] = -1j * s
    out[..., 1, 1] = c
    return out


def rot_matrices(angles: np.ndarray) -> np.ndarray:
    """Stack of Rot gate matrices for Euler angle triples, shape (B, 3) -> (B, 2, 2).

    Closed form of RZ(omega) @ RY(theta) @ RZ(phi):

        [[exp(-i(phi+omega)/2) cos(theta/2), -exp(+i(phi-omega)/2) sin(theta/2)],
         [exp(-i(phi-omega)/2) sin(theta/2),  exp(+i(phi+omega)/2) cos(theta/2)]]
    """
    angles = np.asarray(angles, dtype=float)
    phi, theta, omega = angles[..., 0], angles[..., 1], angles[..., 2]
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    plus = np.exp(-0.5j * (phi + omega))
    minus = np.exp(-0.5j * (phi - omega))
    out = np.empty(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = plus * c
    out[..., 0, 1] = -np.conj(minus) * s
    out[..., 1, 0] = minus * s
    out[..., 1, 1] = np.conj(plus) * c
    return out


def rot_ptms(angles: np.ndarray) -> np.ndarray:
    """Pauli transfer matrices of Rot gates, shape (B, 3) -> (B, 4, 4), real.

    Entry (j, k) is Tr(sigma_j U sigma_k U^dag) / 2 over (I, X, Y, Z):
    1 on the identity, and on the Bloch vector the rotation
    Rz(omega) @ Ry(theta) @ Rz(phi) of SO(3).
    """
    angles = np.asarray(angles, dtype=float)
    cos, sin = np.cos(angles), np.sin(angles)
    cp, ct, co = cos[..., 0], cos[..., 1], cos[..., 2]
    sp, st, so = sin[..., 0], sin[..., 1], sin[..., 2]
    ct_cp, ct_sp = ct * cp, ct * sp
    out = np.zeros(angles.shape[:-1] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = co * ct_cp - so * sp
    out[..., 1, 2] = -co * ct_sp - so * cp
    out[..., 1, 3] = co * st
    out[..., 2, 1] = so * ct_cp + co * sp
    out[..., 2, 2] = co * cp - so * ct_sp
    out[..., 2, 3] = so * st
    out[..., 3, 1] = -st * cp
    out[..., 3, 2] = st * sp
    out[..., 3, 3] = ct
    return out


def kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of (B, 2, 2) stacks, yielding (B, 4, 4)."""
    return np.einsum("bij,bkl->bikjl", a, b).reshape(-1, 4, 4)


def kraus_superop(ops: list[np.ndarray]) -> np.ndarray:
    """16x16 superoperator of the Kraus sum over 4x4 operators; a unitary is a set of one."""
    out = np.zeros((16, 16), dtype=complex)
    for k in ops:
        out += np.kron(k, k.conj())
    return out


@functools.lru_cache
def static_layer_superop(config: AnsatzConfig) -> np.ndarray:
    """Superoperator of one layer's parameter-free tail, built once per config.

    Instruction order: noise on qubit 0, noise on qubit 1, CNOT, noise
    on qubit 0, noise on qubit 1.  Noise-free configs reduce to the
    CNOT conjugation alone.  The cached array is read-only.
    """
    out = kraus_superop([CNOT])
    if config.channel is not ChannelKind.NONE:
        ops = build_channel(config.channel, config.probability)
        noise = [kraus_superop([embed_kraus(k, q) for k in ops]) for q in range(N_QUBITS)]
        both = noise[1] @ noise[0]
        out = both @ out @ both
    out.flags.writeable = False
    return out


def pauli_transfer(superop: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix T S T^-1 of a 16x16 row-major superoperator S.

    Over the coefficients Tr(sigma_a x sigma_b rho), index 4a + b, the
    map is real for any Hermiticity-preserving S; the complex product is
    returned, and its imaginary part is rounding.
    """
    return _TO_PAULI @ superop @ _FROM_PAULI


def _stack_expectations(
    features: np.ndarray, params: np.ndarray, superop: np.ndarray
) -> np.ndarray:
    """<Z> on qubit 0 of every tensor of a (V, L, 2, 3) stack over the same k rows.

    Works on Pauli coefficients ``Tr(sigma_a x sigma_b rho)``, held as a
    4x4 matrix over (a, b), on which every map of the circuit is real.
    The readout Z x I is pulled back through each tensor's layers, all
    V at once: ``w <- w R`` through the PTM R of the layer tail
    ``superop``, then ``A0^T w A1`` through the layer's Rot PTMs.  The k
    rows' RX encoding of |00> has coefficients phi(x0) x phi(x1),
    phi(x) = (1, 0, -sin x, cos x), and one product meets the two.
    Returns shape (V * k,), tensor-major.
    """
    tail = pauli_transfer(superop).real
    ptms = rot_ptms(params)  # (V, L, 2, 4, 4)
    w = _Z_QUBIT0
    for layer in reversed(range(params.shape[1])):
        w = (w.reshape(-1, 16) @ tail).reshape(-1, 4, 4)
        w = ptms[:, layer, 0].swapaxes(-1, -2) @ w @ ptms[:, layer, 1]
    x = features.T
    phi = np.stack([np.ones_like(x), np.zeros_like(x), -np.sin(x), np.cos(x)], axis=-1)
    coeffs = (phi[0][:, :, None] * phi[1][:, None, :]).reshape(-1, 16)
    return (w.reshape(-1, 16) @ coeffs.T).reshape(-1)


def ansatz_expectations(features, params, config: AnsatzConfig) -> np.ndarray:
    """<Z> on qubit 0 of the ansatz for a batch of (features, params) rows.

    ``features`` has shape (B, 2).  ``params`` holds V parameter tensors:
    either one of shape (n_layers, 2, 3), shared by all rows (V = 1), or
    a stack of shape (V, n_layers, 2, 3) with V dividing B.  Every tensor
    serves the same k = B / V feature rows, so ``features`` must be
    ``features[:k]`` tiled V times, or ``ValueError`` is raised; tensor
    v's outputs are rows ``v*k ... (v+1)*k - 1``.  Returns shape (B,).
    A parameter-shift gradient (``training._shift_rule``) is such a
    stack, and a readout is a single tensor.

    Every call is evaluated in the Pauli basis
    (:func:`_stack_expectations`, a readout as a stack of one), to
    rounding of evolving each tensor's density matrices on their own:
    about 1e-15, so any output of magnitude ``NEAR_ZERO`` or more has
    the sign the density matrices give it.

    A readout with an output below ``NEAR_ZERO`` is evaluated again by
    evolving the rows' density matrices forward, and that whole batch
    returns the bits of this complex loop.  A training sample at
    x0 = pi/2 outputs rounding noise near the zero init, and its
    predicted class follows the sign of that noise; the benchmark's
    recorded references pin those signs.  The noise is not even a
    function of the row alone: the BLAS ``zgemm`` rounds by matrix
    shape, and with depolarizing noise at 0.5 and 1e-7-scale parameters
    that row read -2.8e-17 in a 100-row call and 5.6e-17 in a call of
    its own.  So the loop runs on the whole batch, never on the
    near-zero rows alone, and the order of its arithmetic is kept: one
    build makes the L gates and their adjoints, both halves of
    ``u rho u^dag`` are one matrix product over all B rows,
    ``(4,4) @ (4,4B)`` then ``(4B,4) @ (4,4)``, and one tail product
    follows.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    params = np.ascontiguousarray(params, dtype=float)
    batch = features.shape[0]
    if features.shape != (batch, N_QUBITS):
        raise ValueError(f"features must have shape (B, {N_QUBITS}), got {features.shape}")
    shape = param_shape(config)
    if params.shape == shape:
        params = params[None]
    n_tensors = len(params) if params.ndim == len(shape) + 1 else 0
    if n_tensors < 1 or params.shape[1:] != shape or batch % n_tensors:
        raise ValueError(
            f"params shape {params.shape} is neither {shape} nor (V,) + {shape} "
            f"with V dividing B = {batch}"
        )
    superop = static_layer_superop(config)
    if n_tensors > 1:
        rows = batch // n_tensors
        if not (features.reshape(n_tensors, rows, -1) == features[:rows]).all():
            raise ValueError(f"features must be their first B / V = {rows} rows tiled V times")
        return _stack_expectations(features[:rows], params, superop)
    out = _stack_expectations(features, params, superop)
    if (np.abs(out) >= NEAR_ZERO).all():
        return out

    # right-multiplication form for row-vectorized states
    tail_t = superop.T

    # the encoding unitary hits |00><00|, so rho is the outer product of
    # its first column with itself, the product of the RX columns
    rx0, rx1 = rx_matrices(features[:, 0]), rx_matrices(features[:, 1])
    col = (rx0[:, :, None, 0] * rx1[:, None, :, 0]).reshape(batch, 4)
    rho = col[:, :, None] * col.conj()[:, None, :]

    rots = rot_matrices(params[0])  # (L, 2, 2, 2)
    gates = kron_batch(rots[:, 0], rots[:, 1])
    gates_dag = np.ascontiguousarray(gates.conj().swapaxes(-1, -2))

    # Each step rebinds rho, so at most three state stacks are alive at
    # once; a loop that kept more let a call's heap top grow past glibc's
    # trim threshold, so every call returned its pages and faulted them
    # back in.
    for layer in range(config.n_layers):
        # (B, 4, 4) -> (4, B, 4): row index i of every state leads, so one
        # gate multiplies all B states as one (4, 4B) matrix
        rho = rho.transpose(1, 0, 2).reshape(4, 4 * batch)
        rho = (gates[layer] @ rho).reshape(4 * batch, 4) @ gates_dag[layer]
        rho = rho.reshape(4, batch, 4).transpose(1, 0, 2).reshape(batch, 16)
        rho = (rho @ tail_t).reshape(batch, 4, 4)

    z = rho[:, 0, 0] + rho[:, 1, 1] - rho[:, 2, 2] - rho[:, 3, 3]
    return z.real
