"""Sweep orchestration, CSV schemas, and the learnability summary.

A sweep trains one run per (channel, probability, seed) combination plus
one noise-free baseline per seed, writes a CSV per run, a combined
``results.csv``, accuracy-curve SVGs per configuration, and a
``summary.csv`` classifying each configuration as trainable or not.

A configuration counts as trainable when the mean over its seeds of the
final-10-step mean validation accuracy reaches 0.80.

Runs are fully independent (each owns its RNG seeded from the run seed,
covering the data split, parameter init, and batch sampling), so they
can execute on a process pool; results are keyed and ordered by
configuration, never by completion time, which makes every output file
byte-identical across repeated invocations and worker counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import NOISY_KINDS, ChannelKind
from .circuit import DEFAULT_LAYERS, AnsatzConfig
from .data import feature_stats, load_iris_binary, preprocess, split
from .svg import emit_svg
from .training import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    DEFAULT_STEPS,
    FINAL_WINDOW,
    RunRecord,
    StepRecord,
    train,
)

DEFAULT_PROBABILITIES = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_SPLIT_RATIO = 0.75

#: a configuration is trainable when the seed-mean of the final-window
#: validation accuracy reaches this value
TRAINABLE_THRESHOLD = 0.80

CSV_HEADER = "run_id,channel,prob,seed,step,cost,train_acc,val_acc"
SUMMARY_HEADER = "channel,prob,seeds,mean_final_val_acc,trainable"


class SettingError(ValueError):
    """A rejected :class:`SweepConfig` value; ``field`` names the field that holds it."""

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


@dataclass(frozen=True)
class SweepConfig:
    """Grid and training settings of one sweep invocation."""

    channels: tuple[ChannelKind, ...] = NOISY_KINDS
    probabilities: tuple[float, ...] = DEFAULT_PROBABILITIES
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    steps: int = DEFAULT_STEPS
    batch_size: int = DEFAULT_BATCH_SIZE
    n_layers: int = DEFAULT_LAYERS
    learning_rate: float = DEFAULT_LEARNING_RATE
    momentum: float = DEFAULT_MOMENTUM
    data_path: str | None = None
    out_dir: str = "results"
    workers: int | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise SettingError("seeds", "at least one seed is required")
        for p in self.probabilities:
            if not 0.0 <= p <= 1.0:
                raise SettingError("probabilities", f"{p} outside [0, 1]")
        for name in ("steps", "batch_size", "n_layers"):
            if getattr(self, name) < 1:
                raise SettingError(name, f"must be at least 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise SettingError("learning_rate", f"must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise SettingError("momentum", f"must lie in [0, 1), got {self.momentum}")
        if self.workers is not None and self.workers < 1:
            raise SettingError("workers", f"must be at least 1, got {self.workers}")
        # a run id names a run's CSV and its results.csv rows: two runs under
        # one id would overwrite each other's CSV yet count twice in the summary
        ids = [run_id(*spec) for spec in self.run_specs()]
        shared = [rid for i, rid in enumerate(ids) if rid in ids[:i]]
        if shared:
            keys = {"seeds": self.seeds, "probabilities": [f"{p:g}" for p in self.probabilities]}
            field = next((f for f, k in keys.items() if len(set(k)) < len(k)), "channels")
            raise SettingError(field, f"two runs would share run id {shared[0]}")

    def run_settings(self) -> dict:
        """Keyword arguments of :func:`execute_run` shared by every run of the sweep."""
        return dict(
            steps=self.steps,
            batch_size=self.batch_size,
            n_layers=self.n_layers,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            data_path=self.data_path,
        )

    def run_specs(self) -> list[tuple[ChannelKind, float, int]]:
        """All runs of the sweep: baselines first, then the noise grid."""
        specs = [(ChannelKind.NONE, 0.0, seed) for seed in self.seeds]
        specs.extend(
            (channel, prob, seed)
            for channel in self.channels
            for prob in self.probabilities
            for seed in self.seeds
        )
        return specs


@dataclass(frozen=True)
class CellSummary:
    """Learnability verdict for one (channel, probability) cell."""

    channel: ChannelKind
    probability: float
    n_seeds: int
    mean_final_val_acc: float
    trainable: bool


def execute_run(
    channel: ChannelKind,
    probability: float,
    seed: int,
    steps: int = DEFAULT_STEPS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    n_layers: int = DEFAULT_LAYERS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    momentum: float = DEFAULT_MOMENTUM,
    data_path: str | None = None,
) -> RunRecord:
    """Load, split, preprocess, and train one configuration end to end.

    The run seed drives the stratified split as well as the training
    RNG, so a (channel, probability, seed) triple pins the entire run.
    """
    dataset = load_iris_binary(data_path)
    train_ds, val_ds = split(dataset, ratio=DEFAULT_SPLIT_RATIO, seed=seed)
    stats = feature_stats(train_ds.features)
    config = AnsatzConfig(channel=channel, probability=probability, n_layers=n_layers)
    return train(
        preprocess(train_ds.features, stats),
        train_ds.labels,
        preprocess(val_ds.features, stats),
        val_ds.labels,
        config,
        steps=steps,
        batch_size=batch_size,
        learning_rate=learning_rate,
        momentum=momentum,
        seed=seed,
    )


def _run_spec(args: tuple) -> RunRecord:
    channel_value, probability, seed, settings = args
    return execute_run(ChannelKind(channel_value), probability, seed, **settings)


def run_sweep(config: SweepConfig, progress=None) -> list[RunRecord]:
    """Execute every run of the sweep, in parallel up to ``workers``.

    The returned list follows ``config.run_specs()`` order regardless of
    scheduling, so downstream output is deterministic.
    """
    settings = config.run_settings()
    tasks = [(ch.value, prob, seed, settings) for ch, prob, seed in config.run_specs()]
    workers = config.workers or os.cpu_count() or 1
    records: list[RunRecord] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_run_spec, tasks, chunksize=4) if pool else map(_run_spec, tasks)
        for record in results:
            records.append(record)
            if progress:
                progress(record, len(records), len(tasks))
    return records


# ---------------------------------------------------------------------------
# CSV emission and parsing
# ---------------------------------------------------------------------------


def run_id(channel: ChannelKind, probability: float, seed: int) -> str:
    return f"{channel.value}_{probability:g}_{seed}"


def run_filename(channel: ChannelKind, probability: float, seed: int) -> str:
    return f"run_{channel.value}_{probability:g}_{seed}.csv"


def write_results_csv(path: str, records: Sequence[RunRecord]) -> None:
    """Write a results.csv, or a single-run CSV when given one record.

    One row per recorded step; floats are printed with 6 decimal places.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            rid = run_id(r.channel, r.probability, r.seed)
            f.writelines(
                f"{rid},{r.channel.value},{r.probability:.6f},{r.seed},"
                f"{s.step},{s.cost:.6f},{s.train_accuracy:.6f},{s.val_accuracy:.6f}\n"
                for s in r.steps
            )


def read_results_csv(path: str) -> list[RunRecord]:
    """Parse a results.csv (or single-run CSV) back into run records."""
    records: dict[str, RunRecord] = {}
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header: {header!r}")
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 8:
                raise ValueError(f"line {line_no}: expected 8 columns")
            rid, channel, prob, seed, step, cost, train_acc, val_acc = fields
            record = records.get(rid)
            if record is None:
                record = RunRecord(
                    channel=ChannelKind(channel), probability=float(prob), seed=int(seed)
                )
                records[rid] = record
            record.steps.append(
                StepRecord(
                    step=int(step),
                    cost=float(cost),
                    train_accuracy=float(train_acc),
                    val_accuracy=float(val_acc),
                )
            )
    return list(records.values())


# ---------------------------------------------------------------------------
# Learnability summary
# ---------------------------------------------------------------------------

_KIND_ORDER = {kind: i for i, kind in enumerate(ChannelKind)}


def group_by_cell(
    records: Sequence[RunRecord],
) -> list[tuple[tuple[ChannelKind, float], list[RunRecord]]]:
    """Runs grouped by (channel, probability), in channel-kind then probability order."""
    groups: dict[tuple[ChannelKind, float], list[RunRecord]] = {}
    for record in records:
        groups.setdefault((record.channel, record.probability), []).append(record)
    return sorted(groups.items(), key=lambda kv: (_KIND_ORDER[kv[0][0]], kv[0][1]))


def summarize(records: Sequence[RunRecord]) -> list[CellSummary]:
    """Aggregate runs into one trainability verdict per configuration."""
    cells = []
    for (channel, prob), group in group_by_cell(records):
        accs = [record.final_val_accuracy(FINAL_WINDOW) for record in group]
        mean_acc = float(np.mean(accs))
        cells.append(
            CellSummary(
                channel=channel,
                probability=prob,
                n_seeds=len(accs),
                mean_final_val_acc=mean_acc,
                trainable=mean_acc >= TRAINABLE_THRESHOLD,
            )
        )
    return cells


def write_summary_csv(path: str, cells: Sequence[CellSummary]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(SUMMARY_HEADER + "\n")
        for c in cells:
            f.write(
                f"{c.channel.value},{c.probability:.6f},{c.n_seeds},"
                f"{c.mean_final_val_acc:.6f},{str(c.trainable).lower()}\n"
            )


def format_summary_table(cells: Sequence[CellSummary]) -> str:
    """Human-readable table of the summary, one line per cell."""
    lines = [f"{'channel':<20} {'prob':>5} {'seeds':>5} {'final val acc':>14} trainable"]
    for c in cells:
        lines.append(
            f"{c.channel.value:<20} {c.probability:>5.2f} {c.n_seeds:>5} "
            f"{c.mean_final_val_acc:>14.4f} {'yes' if c.trainable else 'no'}"
        )
    return "\n".join(lines)


def write_sweep_outputs(records: Sequence[RunRecord], out_dir: str) -> list[CellSummary]:
    """Write per-run CSVs, results.csv, per-config SVGs, and summary.csv."""
    os.makedirs(out_dir, exist_ok=True)
    for record in records:
        write_results_csv(
            os.path.join(out_dir, run_filename(record.channel, record.probability, record.seed)),
            [record],
        )
    write_results_csv(os.path.join(out_dir, "results.csv"), records)

    for (channel, prob), group in group_by_cell(records):
        name = f"curves_{channel.value}_{prob:g}.svg"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
            f.write(emit_svg(group))

    cells = summarize(records)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), cells)
    return cells
