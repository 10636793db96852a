"""Parameter-shift gradients and Nesterov-momentum training of the classifier.

The model output for a sample is the qubit-0 Pauli-Z expectation of the
ansatz, a value in [-1, 1]; class labels are -1 and +1 and prediction is
the sign of the output.  Training minimizes the mean square loss
``(y - h)**2`` over batches of 5 samples drawn uniformly with
replacement, using the Nesterov momentum update

    v' = momentum * v + lr * grad(params - momentum * v)
    params' = params - v'

for 100 steps by default.  ``TrainSettings`` is the one place for the
defaults and checks of these four settings.  ``train``,
``nesterov_step`` and ``sweep.SweepConfig`` take it; ``sweep.execute_run``
takes its fields as keywords and builds it.

Gradients of the expectation are exact: every trainable gate is a
half-angle rotation, so the parameter-shift rule

    dh/dtheta_i = (h(theta_i + pi/2) - h(theta_i - pi/2)) / 2

holds even with noise channels in the circuit (the channels carry no
trainable parameters).  The rule has one implementation, ``_shift_rule``,
behind both ``parameter_shift_grad`` and ``cost_gradient``.

Randomness (parameter initialization and batch sampling) comes from one
``numpy.random.Generator`` seeded per run; numpy's default PCG64 bit
generator is a well-specified, platform-independent stream, so a run is
bit-reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import ChannelKind, SettingError, check_count
from .circuit import AnsatzConfig, param_shape
from .evaluator import ansatz_expectations, one_blas_thread

#: standard deviation of the i.i.d. normal parameter initialization.
#: All-zero parameters are a stationary point of the loss, so runs start
#: in its neighborhood and escape at a channel-dependent rate; this
#: scale puts noise-free convergence near two thirds of the default
#: step budget, which is what separates weakly and strongly disruptive
#: noise configurations within 100 steps.
INIT_STD = 1e-7
SHIFT = np.pi / 2

#: steps at the end of a run whose validation accuracies are averaged
FINAL_WINDOW = 10


def batch_cost(labels, outputs) -> float:
    """Mean square loss ``(y - h)**2`` over a batch; one sample is a batch of one."""
    labels = np.asarray(labels, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    return float(np.mean((labels - outputs) ** 2))


def predict(output) -> np.ndarray:
    """Class labels, the signs of the model outputs as an integer array; ties map to +1."""
    return np.where(np.asarray(output) >= 0.0, 1, -1)


def accuracy(labels, outputs) -> float:
    """Fraction of samples whose predicted label matches."""
    return float(np.mean(predict(outputs) == np.asarray(labels)))


def model_output(features, params, config: AnsatzConfig) -> float:
    """Model output h(x) for one sample: <Z> on qubit 0 of the ansatz."""
    return float(ansatz_expectations(np.asarray(features, dtype=float)[None, :], params, config)[0])


def _shift_rule(features, params, config: AnsatzConfig) -> tuple[np.ndarray, np.ndarray]:
    """Outputs ``h`` (B,) and parameter-shift gradients ``dh`` (B, P) of a sample batch.

    The one implementation of the shift rule.  All (2P + 1) x B variants
    run as a single evaluator batch with variant-major rows: variant 0 is
    unshifted, variants 1 + 2i and 2 + 2i shift flat parameter i by +pi/2
    and -pi/2, and each variant's tensor serves the B rows of the whole
    sample batch, tiled once per variant.  The evaluator pulls the
    readout back through all variants' layers in one batched Pauli
    pass and meets the B rows with one product.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    params = np.asarray(params, dtype=float)
    n = params.size
    variants = np.tile(params.reshape(-1), (2 * n + 1, 1))
    idx = np.arange(n)
    variants[1 + 2 * idx, idx] += SHIFT
    variants[2 + 2 * idx, idx] -= SHIFT
    feats = np.tile(features, (2 * n + 1, 1))
    stack = variants.reshape((2 * n + 1,) + params.shape)
    h = ansatz_expectations(feats, stack, config).reshape(2 * n + 1, features.shape[0])
    return h[0], ((h[1::2] - h[2::2]) / 2.0).T


def parameter_shift_grad(features, params, config: AnsatzConfig) -> np.ndarray:
    """Exact gradient of the model output w.r.t. every ansatz parameter."""
    _, dh = _shift_rule(features, params, config)
    return dh[0].reshape(np.shape(params))


def cost_gradient(features, labels, params, config: AnsatzConfig) -> np.ndarray:
    """Gradient of the mean square loss over a batch.

    Chain rule through the loss: ``mean_b of -2 (y_b - h_b) dh_b``, with
    ``h`` and ``dh`` from one shift-rule evaluation of the whole batch.
    """
    h, dh = _shift_rule(features, params, config)
    residual = np.asarray(labels, dtype=float) - h
    return np.mean(-2.0 * residual[:, None] * dh, axis=0).reshape(np.shape(params))


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer settings of one run, each defaulted and checked here only."""

    steps: int = 100
    batch_size: int = 5
    learning_rate: float = 0.01
    momentum: float = 0.9

    def __post_init__(self) -> None:
        for name in ("steps", "batch_size"):
            check_count(getattr(self, name), name, 1)
        if not 0 < self.learning_rate < math.inf:
            raise SettingError(
                "learning_rate", f"must be positive and finite, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise SettingError("momentum", f"must lie in [0, 1), got {self.momentum}")


def nesterov_step(
    params: np.ndarray,
    velocity: np.ndarray,
    grad_fn: Callable[[np.ndarray], np.ndarray],
    settings: TrainSettings,
) -> tuple[np.ndarray, np.ndarray]:
    """One Nesterov update: gradient at the momentum lookahead point."""
    lookahead = params - settings.momentum * velocity
    velocity = settings.momentum * velocity + settings.learning_rate * grad_fn(lookahead)
    return params - velocity, velocity


@dataclass
class RunRecord:
    """One training run: its configuration and per-step history.

    The history is three columns named as in the CSVs; entry i of each
    is step i + 1.
    """

    channel: ChannelKind
    probability: float
    seed: int
    cost: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def final_val_accuracy(self) -> float:
        """Mean validation accuracy over the last ``FINAL_WINDOW`` steps."""
        if not self.val_acc:
            raise ValueError("run has no recorded steps")
        return float(np.mean(self.val_acc[-FINAL_WINDOW:]))


def train(
    train_features,
    train_labels,
    val_features,
    val_labels,
    config: AnsatzConfig,
    settings: TrainSettings = TrainSettings(),
    seed: int = 0,
) -> RunRecord:
    """Train the classifier and record per-step cost and accuracies.

    Each step samples ``settings.batch_size`` training points uniformly with
    replacement, takes one Nesterov step on the batch cost, then appends
    the batch cost and the full-split train/validation accuracies at the
    updated parameters to the record's three columns.  Parameters start
    from i.i.d. normal(0, INIT_STD) draws, with ``INIT_STD`` = 1e-7 next
    to the all-zero stationary point; all randomness comes from one PCG64
    generator seeded with ``seed``, so identical arguments reproduce the
    run bit for bit.
    The steps run on one BLAS thread (``evaluator.one_blas_thread``), so
    a process pool of runs is the only parallelism.
    """
    train_features = np.asarray(train_features, dtype=float)
    train_labels = np.asarray(train_labels)
    val_features = np.asarray(val_features, dtype=float)
    val_labels = np.asarray(val_labels)
    if len(train_labels) == 0:
        raise ValueError("training split is empty")
    if len(val_labels) == 0:
        raise ValueError("validation split is empty")

    rng = np.random.default_rng(seed)
    params = rng.normal(0.0, INIT_STD, size=param_shape(config))
    velocity = np.zeros_like(params)

    n_train = len(train_labels)
    eval_features = np.vstack([train_features, val_features])
    record = RunRecord(channel=config.channel, probability=config.probability, seed=seed)
    with one_blas_thread():
        for _ in range(settings.steps):
            idx = rng.integers(0, n_train, size=settings.batch_size)
            batch_x, batch_y = train_features[idx], train_labels[idx]
            params, velocity = nesterov_step(
                params, velocity, lambda p: cost_gradient(batch_x, batch_y, p, config), settings
            )
            outputs = ansatz_expectations(eval_features, params, config)
            train_out, val_out = outputs[:n_train], outputs[n_train:]
            record.cost.append(batch_cost(batch_y, train_out[idx]))
            record.train_acc.append(accuracy(train_labels, train_out))
            record.val_acc.append(accuracy(val_labels, val_out))
    return record
