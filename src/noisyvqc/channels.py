"""Single-qubit Kraus noise channels: each is the tuple of its 2x2 Kraus operators.

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
(``simulator.apply_kraus``); ``on_qubit(ops, target)`` is the one lift of
a channel onto a qubit of the register.  Every constructed channel
satisfies the completeness relation ``sum_i K_i^dag K_i == I``.

Kraus operators that degenerate to the zero matrix (at p = 0 or p = 1)
are kept rather than pruned; the uniform structure costs nothing at
dimension 2.

``SettingError``, the package's error for a rejected setting, lives here,
in the lowest module that checks one: ``check_probability``, beside
``check_count``, the rule for step, batch, layer, worker and seed counts.
"""

from __future__ import annotations

import operator
from enum import Enum

import numpy as np

#: the single-qubit Pauli basis (I, X, Y, Z) as complex 2x2 matrices
I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


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


def check_count(value, field: str, least: int) -> int:
    """``value`` as an int, or :class:`SettingError` under ``field`` if it is
    not an integer (a bool, or a value ``operator.index`` rejects) or is
    below ``least``; the one copy of this rule."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise SettingError(field, f"must be an integer, got {value!r}")
    if count < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise SettingError(field, f"must be {bound}, got {count}")
    return count


def build_channel(kind: ChannelKind, probability: float) -> tuple[np.ndarray, ...]:
    """The 2x2 Kraus operators of ``kind`` at the given strength."""
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
    return ops


def verify_completeness(ops) -> bool:
    """True iff ``sum_i K_i^dag K_i`` over the 2x2 ``ops`` equals the identity within 1e-12."""
    total = sum(k.conj().T @ k for k in ops)
    return bool(np.abs(total - I2).max() <= 1e-12)


def on_qubit(ops, target: int) -> list[np.ndarray]:
    """Kraus set lifting the 2x2 operators ``ops`` onto qubit ``target``.

    Qubit 0 is the most significant factor, so target 0 lifts ``k`` as
    ``kron(k, I2)`` and target 1 as ``kron(I2, k)``.
    """
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target}")
    return [np.kron(k, I2) if target == 0 else np.kron(I2, k) for k in ops]
