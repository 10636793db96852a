"""Pauli-basis readouts write the results.csv fields of the complex loop.

Each run is trained twice on the embedded data: once as it is, and once
with every accuracy readout evaluated by ``per_layer_reference``, which
evolves the rows' density matrices and so has the bits of the complex
loop that all readouts used before.  Both runs take the same gradients,
so their parameters match at every step, and only the readouts differ.

A Pauli readout agrees with the complex loop to about 1e-15, so a row
at or above ``evaluator.NEAR_ZERO`` (1e-12) keeps its predicted class,
and a cost printed at 6 decimals keeps its digits.  A readout with a
row below it returns the complex loop's bits.  Seed 2's training split
has a sample at x0 = pi/2 whose output is rounding noise near the init.
Under depolarizing 0.2 the parameters stay near the init, so every
readout takes the complex loop; under depolarizing 0.1 and phase
damping 0.3, which trains, the parameters move the sample out of the
band, and some readouts are Pauli ones.  Under bit-flip 0.5 every output is
0, so every readout takes the complex loop.  Every field of both runs'
results.csv must be equal.
"""

import numpy as np
import pytest
from test_evaluator import per_layer_reference

from noisyvqc import evaluator, training
from noisyvqc.channels import ChannelKind
from noisyvqc.sweep import execute_run, write_results_csv


def complex_readouts(features, params, config):
    """``ansatz_expectations`` with every single-tensor call sent to the complex loop."""
    if np.ndim(params) == 3:
        return per_layer_reference(features, params[None], config)
    return evaluator.ansatz_expectations(features, params, config)


@pytest.mark.parametrize(
    "kind, p, seed, fallbacks",
    [
        (ChannelKind.DEPOLARIZING, 0.2, 2, "all"),
        (ChannelKind.DEPOLARIZING, 0.1, 2, "some"),
        (ChannelKind.PHASE_DAMPING, 0.3, 2, "some"),
        (ChannelKind.BIT_FLIP, 0.5, 1, "all"),
    ],
    ids=["depolarizing-0.2-seed-2", "depolarizing-0.1-seed-2", "phase-damping-0.3-seed-2",
         "bit-flip-0.5-seed-1"],
)
def test_readouts_write_the_complex_loops_fields(monkeypatch, tmp_path, kind, p, seed, fallbacks):
    built = []
    rx_matrices = evaluator.rx_matrices
    with monkeypatch.context() as patch:
        # the complex loop encodes a readout's rows with two rx_matrices calls
        patch.setattr(evaluator, "rx_matrices", lambda a: built.append(len(a)) or rx_matrices(a))
        pauli = execute_run(kind, p, seed)
    with monkeypatch.context() as patch:
        patch.setattr(training, "ansatz_expectations", complex_readouts)
        complex_ = execute_run(kind, p, seed)
    readouts = len(pauli.cost)
    assert readouts == 100 and len(built) % 2 == 0
    if fallbacks == "all":
        assert len(built) // 2 == readouts
    else:
        assert 0 < len(built) // 2 < readouts
    assert pauli.train_acc == complex_.train_acc
    assert pauli.val_acc == complex_.val_acc
    write_results_csv(str(tmp_path / "pauli.csv"), [pauli])
    write_results_csv(str(tmp_path / "complex.csv"), [complex_])
    assert (tmp_path / "pauli.csv").read_bytes() == (tmp_path / "complex.csv").read_bytes()
