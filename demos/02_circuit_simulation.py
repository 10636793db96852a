"""The classifier ansatz and the reference density-matrix simulator.

Shows what the circuit looks like as a list of Kraus sets, checks the
textbook single-qubit readout identity <Z> = cos(theta), and measures
how strongly each noise channel damps the readout of the full
five-layer circuit.

Run with:  python demos/02_circuit_simulation.py
"""

import math

import numpy as np

from noisyvqc import AnsatzConfig, ChannelKind, NOISY_KINDS, ansatz_kraus_sets, run
from noisyvqc.channels import PAULI_X
from noisyvqc.circuit import param_shape
from noisyvqc.simulator import on_qubit, rotation

# ---------------------------------------------------------------------------
# Anatomy of the ansatz
# ---------------------------------------------------------------------------
# A unitary gate is a Kraus set of one operator; a single-qubit bit-flip
# channel lifted to the register is a set of two.
features = np.array([0.8, 2.4])  # two encoding angles in [0, pi]
config = AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=0.2, n_layers=2)
params = np.zeros(param_shape(config))
sets = ansatz_kraus_sets(features, params, config)
print(f"a {config.n_layers}-layer noisy circuit folds {len(sets)} Kraus sets of 4x4 operators;")
print("operators per set:", " ".join(str(len(ops)) for ops in sets))
print("(RX RX, then per layer: Rot Rot, noise noise, CNOT, noise noise)")

# ---------------------------------------------------------------------------
# Single-qubit readout identity
# ---------------------------------------------------------------------------
print("\n<Z> after RX(theta) on |0> equals cos(theta):")
for theta in (0.0, math.pi / 3, math.pi / 2, math.pi):
    z = run([on_qubit([rotation(PAULI_X, theta)], 0)], check=True)
    print(f"  theta={theta:.4f}  <Z>={z:+.6f}  cos={math.cos(theta):+.6f}")

# ---------------------------------------------------------------------------
# Readout damping by channel
# ---------------------------------------------------------------------------
# With all trainable angles at zero the ideal readout is cos(features[0]).
# Noise channels shrink or shift it; ten injections compound quickly.
ideal = math.cos(features[0])
print(f"\nfive-layer circuit, zero parameters; ideal readout {ideal:+.4f}")
print(f"{'channel':<20}{'p=0.1':>10}{'p=0.5':>10}{'p=1.0':>10}")
for kind in NOISY_KINDS:
    row = []
    for p in (0.1, 0.5, 1.0):
        cfg = AnsatzConfig(channel=kind, probability=p, n_layers=5)
        row.append(run(ansatz_kraus_sets(features, np.zeros(param_shape(cfg)), cfg)))
    print(f"{kind.value:<20}" + "".join(f"{v:>+10.4f}" for v in row))
print(
    "\nNote how the dephasing channels (phase flip / phase damping) leave this\n"
    "all-diagonal configuration untouched, while bit flip and depolarizing\n"
    "shrink it and amplitude damping drags it toward +1."
)
