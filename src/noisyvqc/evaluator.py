"""Vectorized evaluation of the classifier ansatz over sample batches.

Training needs thousands of circuit evaluations per step (61 shifted
evaluations per sample for gradients, plus full-split accuracy
readouts).  Evolving one 4x4 density matrix per Python-level call is
dominated by interpreter overhead, so this module evolves a whole stack
of density matrices at once and collapses every fixed sub-sequence of
instructions ahead of time:

* the two Rot gates of each layer act on different qubits, so their
  product is a single Kronecker factor applied as one batched
  conjugation, and the encoded state is the outer product of the two
  encoding RX gates' first columns;
* rows are grouped by the parameter tensor they share (all rows of a
  readout, and the rows of one shift variant in a gradient), so a call
  makes one build of all L x V gates, one per layer and tensor, and a
  layer conjugates all of a tensor's states with one matrix product on
  each side, the states laid out as (V, 4, k, 4) for V tensors of k
  rows each;
* the parameter-free remainder of a layer -- noise on both qubits, the
  CNOT, noise on both qubits again -- is one 16x16 superoperator acting
  on row-major vectorized states, built once per ``AnsatzConfig`` and
  applied as a single matrix product per layer.

Grouping changes the shapes of the matrix products, never the
arithmetic of an output element, so a readout keeps the bits of one
conjugation per row; ``ansatz_expectations`` says why they must hold.

These matrix products have inner dimension 4 or 16, too small for a
second BLAS thread to pay for itself: on gradient batches it only
spins, and on a process pool it takes a core from another worker.
``one_blas_thread`` caps BLAS at one thread while training runs.

This module is the package's only gate library: a single gate is a
batch of one, e.g. ``rot_matrices(angles[None])[0]``.  The result is
identical to folding ``simulator.ansatz_kraus_sets`` through the
reference oracle ``simulator.run``; the test suite pins the two paths
together at 1e-12.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from .channels import ChannelKind, build_channel, embed_kraus
from .circuit import AnsatzConfig, N_QUBITS, cnot_matrix, param_shape

_CNOT = cnot_matrix(0, 1)

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
    out = kraus_superop([_CNOT])
    if config.channel is not ChannelKind.NONE:
        ch = build_channel(config.channel, config.probability)
        noise = [
            kraus_superop([embed_kraus(k, q) for k in ch.kraus_ops]) for q in range(N_QUBITS)
        ]
        both = noise[1] @ noise[0]
        out = both @ out @ both
    out.flags.writeable = False
    return out


def ansatz_expectations(features, params, config: AnsatzConfig) -> np.ndarray:
    """<Z> on qubit 0 of the ansatz for a batch of (features, params) rows.

    ``features`` has shape (B, 2).  ``params`` holds V parameter tensors:
    either one of shape (n_layers, 2, 3), shared by all rows (V = 1), or
    a stack of shape (V, n_layers, 2, 3) with V dividing B, where tensor
    v serves the k = B / V consecutive rows ``v*k ... (v+1)*k - 1``.
    V = B gives every row its own tensor.  Returns shape (B,).

    One build of all L x V gates per call, not L x B, with their
    adjoints; each layer views the state stack as (V, 4, k, 4), so both
    halves of the conjugation ``u rho u^dag`` are one matrix product per
    tensor: ``(V,4,4) @ (V,4,4k)``, then ``(V,4k,4) @ (V,4,4)``.  The
    result is bitwise identical to the per-row stack
    ``np.repeat(params, k, axis=0)``: the BLAS ``zgemm`` behind ``@``
    computes each output element the same way whatever the matrix
    shape.  Keep it so.  A training sample at x0 = pi/2 outputs
    about -2.8e-17 near the zero init, and a readout that reorders the
    arithmetic (``einsum``, a matrix-vector product, or evolving Z
    backward through the layers) flips its predicted class.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    params = np.asarray(params, dtype=float)
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
    rows = batch // n_tensors

    # right-multiplication form for row-vectorized states
    tail_t = static_layer_superop(config).T

    # the encoding unitary hits |00><00|, so rho is the outer product of
    # its first column with itself, the product of the RX columns
    rx0, rx1 = rx_matrices(features[:, 0]), rx_matrices(features[:, 1])
    col = (rx0[:, :, None, 0] * rx1[:, None, :, 0]).reshape(batch, 4)
    rho = col[:, :, None] * col.conj()[:, None, :]

    # every layer's gates in one build, layer-major so that gates[layer]
    # is a contiguous (V, 4, 4) block
    rots = rot_matrices(params.transpose(1, 0, 2, 3))  # (L, V, 2, 2, 2)
    gates = kron_batch(
        rots[:, :, 0].reshape(-1, 2, 2), rots[:, :, 1].reshape(-1, 2, 2)
    ).reshape(config.n_layers, n_tensors, 4, 4)
    gates_dag = np.ascontiguousarray(gates.conj().swapaxes(-1, -2))

    # Each step rebinds rho, so at most three state stacks are alive at
    # once.  Keeping more (named intermediates) lets the heap top of a
    # 305-row gradient call grow past glibc's trim threshold, and every
    # call then returns its pages and faults them back in.
    for u, u_dag in zip(gates, gates_dag):
        # (V, k, 4, 4) -> (V, 4, k, 4): row index i of every state of tensor v
        # leads, so u_v multiplies all k states as one (4, 4k) matrix
        rho = rho.reshape(n_tensors, rows, 4, 4).transpose(0, 2, 1, 3)
        rho = (u @ rho.reshape(n_tensors, 4, 4 * rows)).reshape(n_tensors, 4 * rows, 4) @ u_dag
        rho = rho.reshape(n_tensors, 4, rows, 4).transpose(0, 2, 1, 3).reshape(batch, 16) @ tail_t

    rho = rho.reshape(batch, 4, 4)
    z = rho[:, 0, 0] + rho[:, 1, 1] - rho[:, 2, 2] - rho[:, 3, 3]
    return z.real
