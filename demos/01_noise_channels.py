"""Tour of the five Kraus noise channels.

Builds each channel at a few strengths, verifies the completeness
relation, and demonstrates the analytic identities that make these
models easy to reason about: the depolarizing fixed point at p = 3/4,
flip channels turning into plain Pauli conjugations at p = 1, and
dephasing channels leaving populations untouched.

Run with:  python demos/01_noise_channels.py
"""

import numpy as np

from noisyvqc import ChannelKind, NOISY_KINDS, apply_kraus, build_channel, verify_completeness
from noisyvqc.channels import PAULI_Z

# ---------------------------------------------------------------------------
# Kraus operators and completeness
# ---------------------------------------------------------------------------
print("Kraus operators at p = 0.3, and the completeness defect |sum K^dag K - I|:")
for kind in NOISY_KINDS:
    ops = build_channel(kind, 0.3)
    defect = np.abs(sum(k.conj().T @ k for k in ops) - np.eye(2)).max()
    print(f"  {kind.value:<18} {len(ops)} operators, defect {defect:.1e}")
    assert verify_completeness(ops)

# ---------------------------------------------------------------------------
# The depolarizing fixed point
# ---------------------------------------------------------------------------
# At p = 3/4 the Pauli-twirl identity X rho X + Y rho Y + Z rho Z =
# 2 tr(rho) I - rho collapses every qubit state to I/2.
rho = np.array([[0.9, 0.3j], [-0.3j, 0.1]], dtype=complex)
out = apply_kraus(rho, build_channel(ChannelKind.DEPOLARIZING, 0.75))
print("\ndepolarizing p=0.75 sends any state to the maximally mixed state:")
print(np.round(out, 12))

# ---------------------------------------------------------------------------
# Flip channels at full strength are deterministic
# ---------------------------------------------------------------------------
flipped = apply_kraus(rho, build_channel(ChannelKind.PHASE_FLIP, 1.0))
conjugated = PAULI_Z @ rho @ PAULI_Z
print(f"\nphase flip p=1.0 equals Z conjugation: defect {np.abs(flipped - conjugated).max():.1e}")

# ---------------------------------------------------------------------------
# Dephasing never touches populations
# ---------------------------------------------------------------------------
for gamma in (0.2, 0.8):
    out = apply_kraus(rho, build_channel(ChannelKind.PHASE_DAMPING, gamma))
    print(
        f"phase damping g={gamma}: diagonal unchanged "
        f"({np.real(np.diag(out)).round(6)}), off-diagonal scaled by "
        f"{abs(out[0, 1]) / abs(rho[0, 1]):.4f} (= sqrt(1-g) = {np.sqrt(1 - gamma):.4f})"
    )
