"""Acceptance suite: end-to-end guarantees at pinned tolerances.

Each test prints one ``[criterion N] PASS ...`` line on success (visible
with ``pytest -s``); a failure carries the same detail in its assertion
message.  The two sweep-based criteria share a session fixture that
executes the full default sweep twice, serially and on two worker
processes, which dominates the suite's runtime (about 30 s on a 2-vCPU
VM).
"""

import math
import os
import time

import numpy as np
import pytest

from noisyvqc.channels import (
    I2,
    NOISY_KINDS,
    PAULI_X,
    PAULI_Z,
    ChannelKind,
    build_channel,
)
from noisyvqc.circuit import AnsatzConfig, param_shape
from noisyvqc.simulator import apply_kraus, on_qubit
from noisyvqc.sweep import (
    SweepConfig,
    execute_run,
    run_sweep,
    summarize,
    write_sweep_outputs,
)
from noisyvqc.training import model_output, parameter_shift_grad

from conftest import random_density_matrix

PROB_GRID = [round(0.1 * i, 1) for i in range(11)]
SWEEP_PROBS = [round(0.1 * i, 1) for i in range(1, 11)]

#: expected trainability of each (channel, probability) cell under the
#: default sweep; the verdicts the sweep is required to reproduce
EXPECTED_TRAINABLE = {
    ChannelKind.PHASE_FLIP: [False] * 9 + [True],
    ChannelKind.BIT_FLIP: [False] * 9 + [True],
    ChannelKind.PHASE_DAMPING: [True, True, True] + [False] * 7,
    ChannelKind.AMPLITUDE_DAMPING: [True, True] + [False] * 8,
    ChannelKind.DEPOLARIZING: [False] * 10,
}

#: cells that must match exactly (no mismatch budget)
ANCHOR_CELLS = (
    [(ChannelKind.PHASE_FLIP, 1.0, True)]
    + [(ChannelKind.BIT_FLIP, 1.0, True)]
    + [(ChannelKind.PHASE_DAMPING, 0.1, True)]
    + [(ChannelKind.AMPLITUDE_DAMPING, 0.1, True)]
    + [(ChannelKind.DEPOLARIZING, p, False) for p in SWEEP_PROBS]
    + [(ChannelKind.PHASE_FLIP, 0.5, False)]
    + [(ChannelKind.BIT_FLIP, 0.5, False)]
)

MAX_CELL_MISMATCHES = 4


def test_criterion_1_channel_validity(rng):
    started = time.perf_counter()
    for kind in NOISY_KINDS:
        for p in PROB_GRID:
            total = sum(k.conj().T @ k for k in build_channel(kind, p))
            assert np.abs(total - I2).max() <= 1e-12, f"{kind.value} p={p} incomplete"

    configs = [(kind, p) for kind in NOISY_KINDS for p in PROB_GRID]
    for i in range(1000):
        kind, p = configs[i % len(configs)]
        rho = random_density_matrix(rng, 4)
        out = apply_kraus(rho, on_qubit(build_channel(kind, p), i % 2))
        assert abs(np.trace(out) - 1.0) <= 1e-12, f"trace drift for {kind.value} p={p}"
        assert np.abs(out - out.conj().T).max() <= 1e-10, f"non-Hermitian state for {kind.value} p={p}"
        assert np.linalg.eigvalsh(out)[0] >= -1e-10, f"negative state for {kind.value} p={p}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"channel validity took {elapsed:.2f}s"
    print(f"[criterion 1] PASS channel validity (55 Kraus sets, 1000 states, {elapsed:.2f}s)")


def test_criterion_2_analytic_fixed_points(rng):
    started = time.perf_counter()
    depol = build_channel(ChannelKind.DEPOLARIZING, 0.75)
    for _ in range(100):
        rho = random_density_matrix(rng, 2)
        assert np.abs(apply_kraus(rho, depol) - I2 / 2).max() <= 1e-12

    flips = [(ChannelKind.PHASE_FLIP, PAULI_Z), (ChannelKind.BIT_FLIP, PAULI_X)]
    for kind, pauli in flips:
        ops = build_channel(kind, 1.0)
        for target in (0, 1):
            for _ in range(50):
                rho = random_density_matrix(rng, 4)
                u = np.kron(pauli, I2) if target == 0 else np.kron(I2, pauli)
                assert np.abs(apply_kraus(rho, on_qubit(ops, target)) - u @ rho @ u).max() <= 1e-12

    z_kinds = [ChannelKind.PHASE_FLIP, ChannelKind.PHASE_DAMPING]
    for kind in z_kinds:
        for p in PROB_GRID:
            ops = build_channel(kind, p)
            for target in (0, 1):
                rho = random_density_matrix(rng, 4)
                z = np.kron(PAULI_Z, I2) if target == 0 else np.kron(I2, PAULI_Z)
                before = np.trace(rho @ z)
                after = np.trace(apply_kraus(rho, on_qubit(ops, target)) @ z)
                assert abs(after - before) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixed points took {elapsed:.2f}s"
    print(f"[criterion 2] PASS analytic fixed points ({elapsed:.2f}s)")


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    step = 1e-5
    worst = 0.0
    for kind in ChannelKind:
        for p in (0.0, 0.5, 1.0):
            config = AnsatzConfig(channel=kind, probability=p, n_layers=5)
            for _ in range(10):
                features = rng.uniform(0, math.pi, 2)
                params = rng.normal(scale=0.8, size=param_shape(config))
                analytic = parameter_shift_grad(features, params, config)
                numeric = np.zeros_like(params)
                for idx in np.ndindex(params.shape):
                    plus, minus = params.copy(), params.copy()
                    plus[idx] += step
                    minus[idx] -= step
                    numeric[idx] = (
                        model_output(features, plus, config)
                        - model_output(features, minus, config)
                    ) / (2 * step)
                diff = float(np.max(np.abs(analytic - numeric)))
                worst = max(worst, diff)
                assert diff <= 1e-6, f"{kind.value} p={p}: gradient off by {diff:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.2f}s"
    print(
        f"[criterion 3] PASS parameter-shift vs finite differences "
        f"(180 draws, worst {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_4_noise_free_baseline():
    accs = [
        execute_run(ChannelKind.NONE, 0.0, seed=seed).final_val_accuracy()
        for seed in (1, 2, 3, 4, 5)
    ]
    mean_acc = float(np.mean(accs))
    ok = mean_acc >= 0.90
    line = (
        f"[criterion 4] {'PASS' if ok else 'FAIL'} noise-free baseline: "
        f"mean final-10 val acc {mean_acc:.4f} (per seed {[f'{a:.3f}' for a in accs]})"
    )
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    """The full default sweep at one worker, and again at two for the determinism criterion.

    Criterion 5 reads and times the serial sweep.
    """
    dirs = [str(tmp_path_factory.mktemp(f"sweep_{tag}")) for tag in "ab"]
    config_a = SweepConfig(out_dir=dirs[0], workers=1)
    started = time.perf_counter()
    records = run_sweep(config_a)
    sweep_seconds = time.perf_counter() - started
    cells = write_sweep_outputs(records, dirs[0])
    write_sweep_outputs(run_sweep(SweepConfig(out_dir=dirs[1], workers=2)), dirs[1])
    return {"dirs": dirs, "cells": cells, "seconds": sweep_seconds}


def test_criterion_5_learnability_table(default_sweep):
    cells = {
        (c.channel, c.probability): c
        for c in default_sweep["cells"]
        if c.channel is not ChannelKind.NONE
    }
    assert len(cells) == 50

    mismatches = []
    for kind in NOISY_KINDS:
        for p, expected in zip(SWEEP_PROBS, EXPECTED_TRAINABLE[kind]):
            cell = cells[(kind, p)]
            if cell.trainable != expected:
                mismatches.append(
                    f"{kind.value} p={p:g}: got {cell.trainable} "
                    f"(acc {cell.mean_final_val_acc:.3f}), expected {expected}"
                )
    anchor_misses = []
    for kind, p, expected in ANCHOR_CELLS:
        cell = cells[(kind, p)]
        if cell.trainable != expected:
            anchor_misses.append(
                f"{kind.value} p={p:g}: got {cell.trainable} "
                f"(acc {cell.mean_final_val_acc:.3f}), expected {expected}"
            )

    agreement = 50 - len(mismatches)
    elapsed = default_sweep["seconds"]
    ok = agreement >= 50 - MAX_CELL_MISMATCHES and not anchor_misses and elapsed < 900
    line = (
        f"[criterion 5] {'PASS' if ok else 'FAIL'} learnability table: "
        f"{agreement}/50 cells agree (need >= {50 - MAX_CELL_MISMATCHES}), "
        f"sweep took {elapsed:.0f}s; "
        f"mismatches: {mismatches or 'none'}; anchor misses: {anchor_misses or 'none'}"
    )
    print(line)
    assert ok, line


def test_criterion_6_sweep_determinism(default_sweep):
    dir_a, dir_b = default_sweep["dirs"]
    identical = []
    for name in ("results.csv", "summary.csv"):
        with open(os.path.join(dir_a, name), "rb") as fa, open(
            os.path.join(dir_b, name), "rb"
        ) as fb:
            identical.append(fa.read() == fb.read())
    ok = all(identical)
    line = (
        f"[criterion 6] {'PASS' if ok else 'FAIL'} determinism across 1 and 2 workers: "
        f"results.csv identical={identical[0]}, summary.csv identical={identical[1]}"
    )
    print(line)
    assert ok, line
