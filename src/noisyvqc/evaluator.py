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
* a call evaluates one trunk parameter tensor and its branches: a
  readout is the trunk alone over all its rows, and a parameter-shift
  gradient is the unshifted trunk plus 2P shift variants, each of which
  copies the trunk in every layer but one.  A branch has the trunk's
  exact state until its own layer, so it comes off the trunk there;
  the states before are computed once.  A call builds L + V - 1 gates
  in one go, and at each layer all states that share a gate -- the
  trunk and the branches already off it -- are conjugated with one
  matrix product on each side, laid out as (4, n, 4) for n rows;
* the parameter-free remainder of a layer -- noise on both qubits, the
  CNOT, noise on both qubits again -- is one 16x16 superoperator acting
  on row-major vectorized states, built once per ``AnsatzConfig`` and
  applied as a single matrix product per layer.

Sharing states changes the shapes of the matrix products, never the
arithmetic of an output element, so every output keeps the bits of one
conjugation per row and tensor; ``ansatz_expectations`` says why they
must hold.

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


def _branch_layers(features: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The layer at which each tensor v >= 1 of a (V, L, 2, 3) stack leaves tensor 0.

    Returns shape (V - 1,).  Raises ``ValueError`` unless every tensor
    differs from tensor 0 in at most one layer, those layers do not
    decrease with v, and the B = V * k ``features`` are their first k
    rows tiled V times.  Layers compare by their bits, so a branch
    shares the trunk's gate only where it would build the same gate.  A
    tensor equal to tensor 0 leaves at the layer of the tensor before it.
    """
    n_tensors = len(params)
    if n_tensors == 1:
        return np.zeros(0, dtype=np.intp)
    rows = len(features) // n_tensors
    if not (features.reshape(n_tensors, rows, -1) == features[:rows]).all():
        raise ValueError(f"features must be their first B / V = {rows} rows tiled V times")
    bits = params.reshape(n_tensors, params.shape[1], -1).view(np.int64)
    differs = (bits[1:] != bits[0]).any(axis=-1)  # (V - 1, L)
    moved = differs.sum(axis=1)
    if moved.max() > 1:
        raise ValueError("each params tensor v >= 1 must differ from tensor 0 in at most one layer")
    first_moved = differs.argmax(axis=1)
    layers = np.maximum.accumulate(first_moved)
    if ((layers != first_moved) & (moved > 0)).any():
        raise ValueError(
            "the layer at which params tensor v differs from tensor 0 must not decrease with v"
        )
    return layers


def ansatz_expectations(features, params, config: AnsatzConfig) -> np.ndarray:
    """<Z> on qubit 0 of the ansatz for a batch of (features, params) rows.

    ``features`` has shape (B, 2).  ``params`` holds V parameter tensors:
    either one of shape (n_layers, 2, 3), shared by all rows (V = 1), or
    a stack of shape (V, n_layers, 2, 3) with V dividing B.  Tensor 0 is
    the trunk; every tensor v >= 1 is a branch that differs from it in
    at most one layer l_v, with l_v not decreasing in v.  Every tensor
    serves the trunk's k = B / V feature rows, so ``features`` must be
    ``features[:k]`` tiled V times; tensor v's outputs are rows
    ``v*k ... (v+1)*k - 1``.  Returns shape (B,).  Any other stack
    raises ``ValueError``.  This is the shape of a parameter-shift
    gradient (``training._shift_rule``); a readout is a trunk alone.

    Only the k trunk rows are encoded, and one build makes the trunk's
    L gates and one gate per branch, with their adjoints.  At layer l
    the trunk and the branches that left it earlier share the trunk's
    gate, so both halves of ``u rho u^dag`` are one matrix product over
    all their n rows: ``(4,4) @ (4,4n)``, then ``(4n,4) @ (4,4)``.  The m
    branches that leave at l start from the trunk's state before l:
    ``(4m,4) @ (4,4k)``, then a stacked ``(m,4k,4) @ (m,4,4)``.  One
    tail product then covers every live row.

    The result is bitwise identical to evaluating every tensor on its
    own: the BLAS ``zgemm`` behind ``@`` computes each output element
    the same way whatever the matrix shape.  Keep it so.  A training
    sample at x0 = pi/2 outputs about -2.8e-17 near the zero init, and
    a readout that reorders the arithmetic (``einsum``, a matrix-vector
    product, or evolving Z backward through the layers) flips its
    predicted class.
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
    rows = batch // n_tensors
    branch_layers = _branch_layers(features, params)

    # right-multiplication form for row-vectorized states
    tail_t = static_layer_superop(config).T

    # the encoding unitary hits |00><00|, so rho is the outer product of
    # its first column with itself, the product of the RX columns
    rx0, rx1 = rx_matrices(features[:rows, 0]), rx_matrices(features[:rows, 1])
    col = (rx0[:, :, None, 0] * rx1[:, None, :, 0]).reshape(rows, 4)
    rho = col[:, :, None] * col.conj()[:, None, :]

    # the trunk's L gates, then each branch's gate, in one build
    angles = np.concatenate([params[0], params[np.arange(1, n_tensors), branch_layers]])
    rots = rot_matrices(angles)  # (L + V - 1, 2, 2, 2)
    gates = kron_batch(rots[:, 0], rots[:, 1])
    gates_dag = np.ascontiguousarray(gates.conj().swapaxes(-1, -2))
    # the branches leaving at layer l have gates[bounds[l] : bounds[l + 1]]
    bounds = (config.n_layers + np.searchsorted(branch_layers, range(config.n_layers + 1))).tolist()

    # Each step rebinds rho, and ``out`` is dropped with its layer, so at
    # most three state stacks are alive at once.  A loop that kept five
    # let the heap top of a 305-row gradient call grow past glibc's trim
    # threshold, so every call returned its pages and faulted them back
    # in; one that kept ``out`` into the next layer raised the peak RSS
    # of a 2,000-row readout by about 0.6 MB.
    for layer in range(config.n_layers):
        live = len(rho)
        first, last = bounds[layer], bounds[layer + 1]
        # (n, 4, 4) -> (4, n, 4): row index i of every state leads, so one
        # gate multiplies all n states as one (4, 4n) matrix, and the
        # trunk's states are its first 4k columns
        rho = rho.transpose(1, 0, 2).reshape(4, 4 * live)
        if last > first:
            branches = (gates[first:last].reshape(-1, 4) @ rho[:, : 4 * rows]).reshape(
                last - first, 4 * rows, 4
            ) @ gates_dag[first:last]
        rho = (gates[layer] @ rho).reshape(4 * live, 4) @ gates_dag[layer]
        out = np.empty((live + (last - first) * rows, 4, 4), dtype=complex)
        out[:live] = rho.reshape(4, live, 4).transpose(1, 0, 2)
        if last > first:
            out[live:].reshape(-1, rows, 4, 4)[...] = branches.reshape(-1, 4, rows, 4).transpose(
                0, 2, 1, 3
            )
        rho = (out.reshape(-1, 16) @ tail_t).reshape(-1, 4, 4)
        del out

    z = rho[:, 0, 0] + rho[:, 1, 1] - rho[:, 2, 2] - rho[:, 3, 3]
    return z.real
