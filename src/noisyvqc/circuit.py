"""Shape, noise configuration and fixed gates of the classifier ansatz.

All rotation gates use the half-angle convention (generator eigenvalues
of +-1/2), which makes the parameter-shift rule exact with a shift of
pi/2 and denominator 2.  The three-parameter ``Rot`` gate is the ZYZ
Euler decomposition ``RZ(omega) @ RY(theta) @ RZ(phi)``, the standard
universal single-qubit rotation.

The classifier ansatz encodes the two scaled input features as RX
rotation angles, one per qubit, then stacks ``n_layers`` variational
layers.  Each layer applies a trainable ``Rot`` on every qubit,
injects the configured noise channel on every qubit, entangles with a
CNOT (qubit 0 controlling qubit 1), and injects the noise channel on
every qubit again.  Noise-free configurations simply omit the channel
insertions.

The batched gate library lives in :mod:`noisyvqc.evaluator`; the
reference oracle that folds the same ansatz gate by gate lives in
:mod:`noisyvqc.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelKind, SettingError, check_probability

N_QUBITS = 2
#: trainable angles per qubit per layer (the three Rot Euler angles)
ANGLES_PER_ROT = 3
DEFAULT_LAYERS = 5


def cnot_matrix(control: int = 0, target: int = 1) -> np.ndarray:
    """CNOT on the two-qubit register; flips ``target`` when ``control`` is |1>."""
    if {control, target} != {0, 1}:
        raise ValueError(f"control/target must be qubits 0 and 1, got {control}, {target}")
    m = np.zeros((4, 4), dtype=complex)
    for basis in range(4):
        bits = [(basis >> 1) & 1, basis & 1]  # qubit 0 is the high bit
        if bits[control]:
            bits[target] ^= 1
        m[bits[0] * 2 + bits[1], basis] = 1
    return m


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape and noise configuration of the classifier ansatz.

    The one place that checks the layer count; a rejected value raises
    :class:`SettingError`.
    """

    channel: ChannelKind = ChannelKind.NONE
    probability: float = 0.0
    n_layers: int = DEFAULT_LAYERS

    def __post_init__(self) -> None:
        check_probability(self.probability)
        if self.n_layers < 1:
            raise SettingError("n_layers", f"must be at least 1, got {self.n_layers}")


def param_shape(config: AnsatzConfig) -> tuple[int, int, int]:
    """Shape of the trainable parameter tensor: (layers, qubits, angles)."""
    return (config.n_layers, N_QUBITS, ANGLES_PER_ROT)
