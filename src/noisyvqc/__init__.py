"""Density-matrix simulation and training of noisy two-qubit variational classifiers.

The package is organized bottom-up:

* :mod:`noisyvqc.channels`  -- the Pauli matrices and the five Kraus noise channels,
  as tuples of 2x2 operators, and ``on_qubit``, their lift to the register
* :mod:`noisyvqc.circuit`   -- the ansatz configuration, parameter shape and CNOT
* :mod:`noisyvqc.evaluator` -- batched evaluation of the ansatz in the Pauli basis
* :mod:`noisyvqc.simulator` -- the reference oracle: a fold over 4x4 Kraus sets
* :mod:`noisyvqc.training`  -- parameter-shift gradients and the training loop
* :mod:`noisyvqc.data`      -- Iris loading, scaling, and splitting
* :mod:`noisyvqc.sweep`     -- multi-configuration sweeps, CSVs, summaries
* :mod:`noisyvqc.svg`       -- deterministic accuracy-curve charts
* :mod:`noisyvqc.cli`       -- the ``noisyvqc`` command-line driver
"""

from .channels import ChannelKind, NOISY_KINDS, build_channel, on_qubit, verify_completeness
from .circuit import CNOT, AnsatzConfig
from .data import Dataset, load_iris_binary, preprocess, split
from .evaluator import ansatz_expectations
from .simulator import ansatz_kraus_sets, apply_kraus, run
from .sweep import CellSummary, SweepConfig, execute_run, run_sweep, summarize
from .training import (
    RunRecord,
    SettingError,
    TrainSettings,
    accuracy,
    batch_cost,
    cost_gradient,
    model_output,
    nesterov_step,
    parameter_shift_grad,
    predict,
    train,
)

__version__ = "0.1.0"
