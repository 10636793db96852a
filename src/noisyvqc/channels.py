"""Single-qubit Kraus noise channels and their action on density matrices.

Five noise models are supported, each parameterized by a single
probability (written ``p`` for the flip/depolarizing channels and
``gamma`` for the damping channels in most of the literature; the two
play the identical role of channel strength and share one field here):

* phase flip      -- ``{sqrt(1-p) I, sqrt(p) Z}``
* bit flip        -- ``{sqrt(1-p) I, sqrt(p) X}``
* phase damping   -- ``{diag(1, sqrt(1-g)), diag(0, sqrt(g))}``
* amplitude damping -- ``{diag(1, sqrt(1-g)), [[0, sqrt(g)], [0, 0]]}``
* depolarizing    -- ``{sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z}``

A sixth kind, ``NONE``, is the identity channel used for noise-free
baselines.  A channel acts on a state as ``rho -> sum_i K_i rho K_i^dag``
and every constructed channel satisfies the completeness relation
``sum_i K_i^dag K_i == I``.

Kraus operators that degenerate to the zero matrix (at p = 0 or p = 1)
are kept rather than pruned; the uniform structure costs nothing at
dimension 2.

``SettingError``, the package's error for a rejected setting, lives here,
in the lowest module that checks one: ``check_probability``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import I2, PAULI_X, PAULI_Y, PAULI_Z, dagger, max_abs


class ChannelKind(Enum):
    """Noise models; values are the strings used by the CLI and CSVs."""

    NONE = "none"
    PHASE_FLIP = "phase-flip"
    BIT_FLIP = "bit-flip"
    PHASE_DAMPING = "phase-damping"
    AMPLITUDE_DAMPING = "amplitude-damping"
    DEPOLARIZING = "depolarizing"


#: The five genuinely noisy kinds, in presentation order.
NOISY_KINDS = (
    ChannelKind.PHASE_FLIP,
    ChannelKind.BIT_FLIP,
    ChannelKind.PHASE_DAMPING,
    ChannelKind.AMPLITUDE_DAMPING,
    ChannelKind.DEPOLARIZING,
)


class SettingError(ValueError):
    """A rejected setting; ``field`` names the field that holds it."""

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason

    def __reduce__(self):
        # rebuild from (field, reason), not from the joined message in
        # ``args``, so the error survives a process pool's pickling
        return type(self), (self.field, self.reason)


def check_probability(probability: float, field: str = "probability") -> float:
    """``probability`` as a float, or :class:`SettingError` under ``field`` if
    it lies outside [0, 1]; the one copy of this rule.  -0.0 comes back as
    0.0, since run ids would print it as a second label, "-0"."""
    p = float(probability)
    if not 0.0 <= p <= 1.0:
        raise SettingError(field, f"{probability} outside [0, 1]")
    return abs(p)


@dataclass(frozen=True)
class KrausChannel:
    """One noise model at one strength, realized as 2x2 Kraus operators."""

    kind: ChannelKind
    probability: float
    kraus_ops: tuple[np.ndarray, ...]


def build_channel(kind: ChannelKind, probability: float) -> KrausChannel:
    """Construct the Kraus operators for ``kind`` at the given strength."""
    p = check_probability(probability)
    if kind is ChannelKind.NONE:
        ops = (I2.copy(),)
    elif kind is ChannelKind.PHASE_FLIP:
        ops = (np.sqrt(1 - p) * I2, np.sqrt(p) * PAULI_Z)
    elif kind is ChannelKind.BIT_FLIP:
        ops = (np.sqrt(1 - p) * I2, np.sqrt(p) * PAULI_X)
    elif kind is ChannelKind.PHASE_DAMPING:
        ops = (
            np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
            np.array([[0, 0], [0, np.sqrt(p)]], dtype=complex),
        )
    elif kind is ChannelKind.AMPLITUDE_DAMPING:
        ops = (
            np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
            np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex),
        )
    elif kind is ChannelKind.DEPOLARIZING:
        ops = (
            np.sqrt(1 - p) * I2,
            np.sqrt(p / 3) * PAULI_X,
            np.sqrt(p / 3) * PAULI_Y,
            np.sqrt(p / 3) * PAULI_Z,
        )
    else:
        raise ValueError(f"unknown channel kind: {kind!r}")
    return KrausChannel(kind=kind, probability=p, kraus_ops=ops)


def verify_completeness(channel: KrausChannel, tol: float = 1e-12) -> bool:
    """True iff ``sum_i K_i^dag K_i`` equals the identity within ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = sum(dagger(k) @ k for k in channel.kraus_ops)
    return max_abs(total - I2) <= tol


def embed_kraus(k: np.ndarray, target: int) -> np.ndarray:
    """Lift a 2x2 Kraus operator to the two-qubit register.

    Qubit 0 is the most significant factor, so target 0 embeds as
    ``kron(k, I2)`` and target 1 as ``kron(I2, k)``.
    """
    if target == 0:
        return np.kron(k, I2)
    if target == 1:
        return np.kron(I2, k)
    raise ValueError(f"target must be 0 or 1, got {target}")


def apply_channel(rho: np.ndarray, channel: KrausChannel, target: int = 0) -> np.ndarray:
    """Apply ``rho -> sum_i K_i rho K_i^dag`` on the given qubit.

    Accepts a 2x2 state (single-qubit harness; target must be 0) or a
    4x4 register state, where the Kraus operators are embedded per the
    qubit-ordering convention.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2):
        if target != 0:
            raise ValueError("single-qubit states only have target 0")
        ops = channel.kraus_ops
    elif rho.shape == (4, 4):
        ops = tuple(embed_kraus(k, target) for k in channel.kraus_ops)
    else:
        raise ValueError(f"state must be 2x2 or 4x4, got shape {rho.shape}")
    out = np.zeros_like(rho)
    for k in ops:
        out += k @ rho @ dagger(k)
    return out
