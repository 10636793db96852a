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
#: the CNOT with qubit 0 (the high bit) controlling qubit 1; read-only
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT.flags.writeable = False


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape and noise configuration of the classifier ansatz.

    The one place that checks the layer count; a rejected value raises
    :class:`SettingError`.  ``probability`` is stored as
    :func:`check_probability` returns it, so -0.0 reads as 0.0.
    """

    channel: ChannelKind = ChannelKind.NONE
    probability: float = 0.0
    n_layers: int = DEFAULT_LAYERS

    def __post_init__(self) -> None:
        object.__setattr__(self, "probability", check_probability(self.probability))
        if self.n_layers < 1:
            raise SettingError("n_layers", f"must be at least 1, got {self.n_layers}")


def param_shape(config: AnsatzConfig) -> tuple[int, int, int]:
    """Shape of the trainable parameter tensor: (layers, qubits, angles)."""
    return (config.n_layers, N_QUBITS, ANGLES_PER_ROT)
