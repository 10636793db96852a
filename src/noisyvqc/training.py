"""Parameter-shift gradients and Nesterov-momentum training of the classifier.

The model output for a sample is the qubit-0 Pauli-Z expectation of the
ansatz, a value in [-1, 1]; class labels are -1 and +1 and prediction is
the sign of the output.  Training minimizes the mean square loss
``(y - h)**2`` over batches of 5 samples drawn uniformly with
replacement, using the Nesterov momentum update

    v' = momentum * v + lr * grad(params - momentum * v)
    params' = params - v'

for 100 steps by default.

Gradients of the expectation are exact: every trainable gate is a
half-angle rotation, so the parameter-shift rule

    dh/dtheta_i = (h(theta_i + pi/2) - h(theta_i - pi/2)) / 2

holds even with noise channels in the circuit (the channels carry no
trainable parameters).

Randomness (parameter initialization and batch sampling) comes from one
``numpy.random.Generator`` seeded per run; numpy's default PCG64 bit
generator is a well-specified, platform-independent stream, so a run is
bit-reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .channels import ChannelKind
from .circuit import AnsatzConfig, param_shape
from .evaluator import ansatz_expectations

#: standard deviation of the i.i.d. normal parameter initialization.
#: All-zero parameters are a stationary point of the loss, so runs start
#: in its neighborhood and escape at a channel-dependent rate; this
#: scale puts noise-free convergence near two thirds of the default
#: step budget, which is what separates weakly and strongly disruptive
#: noise configurations within 100 steps.
INIT_STD = 1e-7
SHIFT = np.pi / 2

DEFAULT_STEPS = 100
DEFAULT_BATCH_SIZE = 5
DEFAULT_LEARNING_RATE = 0.01
DEFAULT_MOMENTUM = 0.9


def batch_cost(labels, outputs) -> float:
    """Mean square loss ``(y - h)**2`` over a batch; one sample is a batch of one."""
    labels = np.asarray(labels, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    return float(np.mean((labels - outputs) ** 2))


def predict(output):
    """Sign of the model output as a class label; ties map to +1."""
    labels = np.where(np.asarray(output) >= 0.0, 1, -1)
    return int(labels) if np.ndim(output) == 0 else labels


def accuracy(labels, outputs) -> float:
    """Fraction of samples whose predicted label matches."""
    return float(np.mean(predict(outputs) == np.asarray(labels)))


def model_output(features, params, config: AnsatzConfig) -> float:
    """Model output h(x) for one sample: <Z> on qubit 0 of the ansatz."""
    return float(ansatz_expectations(np.asarray(features, dtype=float)[None, :], params, config)[0])


def _shifted_stack(params: np.ndarray) -> np.ndarray:
    """Parameter variants for one gradient: base row, then +/- pi/2 per entry.

    Row 0 is the unshifted tensor; rows 1 + 2i and 2 + 2i carry the
    positive and negative shift of flat parameter i.
    """
    n = params.size
    flat = np.tile(params.reshape(-1), (2 * n + 1, 1))
    idx = np.arange(n)
    flat[1 + 2 * idx, idx] += SHIFT
    flat[2 + 2 * idx, idx] -= SHIFT
    return flat.reshape((2 * n + 1,) + params.shape)


def parameter_shift_grad(features, params, config: AnsatzConfig) -> np.ndarray:
    """Exact gradient of the model output w.r.t. every ansatz parameter."""
    params = np.asarray(params, dtype=float)
    stack = _shifted_stack(params)
    feats = np.broadcast_to(np.asarray(features, dtype=float), (stack.shape[0], 2))
    h = ansatz_expectations(feats, stack, config)
    return ((h[1::2] - h[2::2]) / 2.0).reshape(params.shape)


def cost_gradient(features, labels, params, config: AnsatzConfig) -> np.ndarray:
    """Gradient of the mean square loss over a batch.

    Chain rule through the loss: ``mean_b of -2 (y_b - h_b) dh_b``, with
    ``dh`` from the parameter-shift rule.  All per-sample shifted
    evaluations run as a single vectorized batch.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=float)
    params = np.asarray(params, dtype=float)
    n_samples = features.shape[0]
    variants = _shifted_stack(params)  # (2P+1, L, 2, 3)
    n_var = variants.shape[0]

    feats = np.repeat(features, n_var, axis=0)
    stack = np.tile(variants, (n_samples, 1, 1, 1))
    h = ansatz_expectations(feats, stack, config).reshape(n_samples, n_var)

    base = h[:, 0]
    dh = (h[:, 1::2] - h[:, 2::2]) / 2.0  # (B, P)
    grad_flat = np.mean(-2.0 * (labels - base)[:, None] * dh, axis=0)
    return grad_flat.reshape(params.shape)


@dataclass(frozen=True)
class OptimizerState:
    """Velocity buffer and hyperparameters of the Nesterov optimizer."""

    velocity: np.ndarray
    learning_rate: float = DEFAULT_LEARNING_RATE
    momentum: float = DEFAULT_MOMENTUM

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


def nesterov_step(
    params: np.ndarray,
    state: OptimizerState,
    grad_fn: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, OptimizerState]:
    """One Nesterov update: gradient at the momentum lookahead point."""
    lookahead = params - state.momentum * state.velocity
    velocity = state.momentum * state.velocity + state.learning_rate * grad_fn(lookahead)
    return params - velocity, replace(state, velocity=velocity)


@dataclass(frozen=True)
class StepRecord:
    """Metrics recorded after one optimizer step."""

    step: int
    cost: float
    train_accuracy: float
    val_accuracy: float


@dataclass
class RunRecord:
    """Full history of one training run plus its configuration."""

    channel: ChannelKind
    probability: float
    seed: int
    steps: list[StepRecord] = field(default_factory=list)

    def final_val_accuracy(self, window: int = 10) -> float:
        """Mean validation accuracy over the last ``window`` steps."""
        if not self.steps:
            raise ValueError("run has no recorded steps")
        tail = self.steps[-window:]
        return float(np.mean([s.val_accuracy for s in tail]))


def train(
    train_features,
    train_labels,
    val_features,
    val_labels,
    config: AnsatzConfig,
    steps: int = DEFAULT_STEPS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    momentum: float = DEFAULT_MOMENTUM,
    seed: int = 0,
) -> RunRecord:
    """Train the classifier and record per-step cost and accuracies.

    Each step samples ``batch_size`` training points uniformly with
    replacement, takes one Nesterov step on the batch cost, then records
    the batch cost and the full-split train/validation accuracies at the
    updated parameters.  Parameters start from i.i.d. normal(0, INIT_STD)
    draws, with ``INIT_STD`` = 1e-7 next to the all-zero stationary
    point; all randomness comes from one PCG64 generator seeded with
    ``seed``, so identical arguments reproduce the run bit for bit.
    """
    train_features = np.asarray(train_features, dtype=float)
    train_labels = np.asarray(train_labels)
    val_features = np.asarray(val_features, dtype=float)
    val_labels = np.asarray(val_labels)
    if len(train_labels) == 0:
        raise ValueError("training split is empty")

    rng = np.random.default_rng(seed)
    params = rng.normal(0.0, INIT_STD, size=param_shape(config))
    state = OptimizerState(
        velocity=np.zeros_like(params), learning_rate=learning_rate, momentum=momentum
    )

    n_train = len(train_labels)
    eval_features = np.vstack([train_features, val_features])
    record = RunRecord(channel=config.channel, probability=config.probability, seed=seed)
    for step in range(1, steps + 1):
        idx = rng.integers(0, n_train, size=batch_size)
        batch_x, batch_y = train_features[idx], train_labels[idx]
        params, state = nesterov_step(
            params, state, lambda p: cost_gradient(batch_x, batch_y, p, config)
        )
        outputs = ansatz_expectations(eval_features, params, config)
        train_out, val_out = outputs[:n_train], outputs[n_train:]
        record.steps.append(
            StepRecord(
                step=step,
                cost=batch_cost(batch_y, train_out[idx]),
                train_accuracy=accuracy(train_labels, train_out),
                val_accuracy=accuracy(val_labels, val_out),
            )
        )
    return record
