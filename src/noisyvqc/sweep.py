"""Sweep orchestration, CSV schemas, and the learnability summary.

A sweep trains one run per (channel, probability, seed) combination plus
one noise-free baseline per seed, writes a CSV per run, a combined
``results.csv``, accuracy-curve SVGs per configuration, and a
``summary.csv`` classifying each configuration as trainable or not.

A configuration counts as trainable when the mean over its seeds of the
final-10-step mean validation accuracy reaches 0.80.

Each seed's split is drawn and scaled once, from the seed, and every run
of that seed trains on it.  Runs are otherwise independent (each owns
its RNG seeded from the run seed, covering parameter init and batch
sampling), so they can execute on a process pool; results are keyed and
ordered by configuration, never by completion time, which makes every
output file byte-identical across repeated invocations and worker counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .channels import NOISY_KINDS, ChannelKind, SettingError, check_count, check_probability
from .circuit import DEFAULT_LAYERS, AnsatzConfig
from .data import check_split, load_iris_binary, preprocess, split
from .svg import emit_svg
from .training import RunRecord, TrainSettings, train

DEFAULT_PROBABILITIES = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

#: a configuration is trainable when the seed-mean of the final-window
#: validation accuracy reaches this value
TRAINABLE_THRESHOLD = 0.80

CSV_HEADER = "run_id,channel,prob,seed,step,cost,train_acc,val_acc"
SUMMARY_HEADER = "channel,prob,seeds,mean_final_val_acc,trainable"


def _check_run_inputs(seeds: Sequence[int], data_path: str | None) -> None:
    """The seed and data-file rules of :class:`SweepConfig` and :func:`execute_run`."""
    for seed in seeds:
        check_count(seed, "seeds", 0)
    if data_path is not None and not os.path.isfile(data_path):
        raise SettingError("data_path", f"no such file: {data_path}")


def _check_cell(channel: ChannelKind, probability, field: str) -> float:
    """``probability`` as :func:`check_probability` returns it, which must be 0
    for the noise-free channel, or its run would carry another cell's label."""
    p = check_probability(probability, field)
    if channel is ChannelKind.NONE and p != 0.0:
        raise SettingError(field, f"must be 0 for channel none, got {p:g}")
    return p


def load_dataset(data_path: str | None, seeds: Sequence[int]) -> dict[int, tuple]:
    """Each seed's scaled split, parsed, split and checked once before any run.

    Returns ``{seed: (train_features, train_labels, val_features,
    val_labels)}``, the first four arguments of :func:`training.train`:
    the seed's :func:`data.split` scaled by :func:`data.preprocess`.  A
    file that cannot be read (``OSError``) or does not parse, holds fewer
    than two classes, or whose split would leave a side empty
    (:func:`data.check_split`, the same for every seed) raises
    :class:`SettingError` under ``data_path``, as does a feature that is
    constant on the training split of one of ``seeds``
    (:func:`data.preprocess` could not scale it).
    """
    try:
        dataset = load_iris_binary(data_path)
        check_split(dataset)
    except (OSError, ValueError) as exc:
        raise SettingError("data_path", str(exc)) from exc
    splits = {}
    for seed in seeds:
        try:
            splits[seed] = preprocess(*split(dataset, seed=seed))
        except ValueError as exc:
            raise SettingError("data_path", f"seed {seed}: {exc}") from exc
    return splits


@dataclass(frozen=True)
class SweepConfig:
    """Grid and training settings of one sweep invocation."""

    channels: tuple[ChannelKind, ...] = NOISY_KINDS
    probabilities: tuple[float, ...] = DEFAULT_PROBABILITIES
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    training: TrainSettings = TrainSettings()
    n_layers: int = DEFAULT_LAYERS
    data_path: str | None = None
    out_dir: str = "results"
    workers: int | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise SettingError("seeds", "at least one seed is required")
        _check_run_inputs(self.seeds, self.data_path)
        probabilities = tuple(check_probability(p, "probabilities") for p in self.probabilities)
        object.__setattr__(self, "probabilities", probabilities)
        AnsatzConfig(n_layers=self.n_layers)  # checks the layer count
        if self.workers is not None:
            check_count(self.workers, "workers", 1)
        # a run id names a run's CSV and its results.csv rows: two runs under
        # one id would overwrite each other's CSV yet count twice in the summary
        ids = [run_id(*spec) for spec in self.run_specs()]
        shared = [rid for i, rid in enumerate(ids) if rid in ids[:i]]
        if shared:
            keys = {"seeds": self.seeds, "probabilities": [f"{p:g}" for p in self.probabilities]}
            field = next((f for f, k in keys.items() if len(set(k)) < len(k)), "channels")
            raise SettingError(field, f"two runs would share run id {shared[0]}")
        # baselines come from run_specs; a grid "none" at p > 0 would train
        # noise-free under another cell's label
        if ChannelKind.NONE in self.channels:
            raise SettingError("channels", "none is not a noise channel; baselines run per seed")
        # the CSVs print 6 decimals, and summarize groups runs by the value read back
        written = [float(f"{p:.6f}") for p in self.probabilities]
        for i, w in enumerate(written):
            if w in written[:i]:
                first, p = self.probabilities[written.index(w)], self.probabilities[i]
                raise SettingError("probabilities", f"{first:g} and {p:g} are equal at 6 decimals")

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
    n_layers: int = DEFAULT_LAYERS,
    data_path: str | None = None,
    **training,
) -> RunRecord:
    """Load, split, preprocess, and train one configuration end to end.

    ``training`` holds :class:`TrainSettings` fields; the settings, the
    seed and the data path are checked before any data is read, and the
    data by :func:`load_dataset` before training.  A noise-free run must
    have probability 0, or its output would carry another cell's label.
    The run seed drives the stratified split as well as the training
    RNG, so a (channel, probability, seed) triple pins the entire run.
    """
    settings = TrainSettings(**training)
    config = AnsatzConfig(channel=channel, probability=probability, n_layers=n_layers)
    _check_cell(channel, config.probability, "probability")
    _check_run_inputs((seed,), data_path)
    return train(*load_dataset(data_path, (seed,))[seed], config, settings, seed=seed)


def run_sweep(config: SweepConfig, progress=None) -> list[RunRecord]:
    """Execute every run of the sweep, in parallel up to ``workers``
    processes (default: the CPUs this process may use) and never more
    processes than runs.

    The data file is parsed, split and scaled once per seed
    (:func:`load_dataset`), and each run trains on its seed's split.
    The returned list follows ``config.run_specs()`` order regardless of
    scheduling, so downstream output is deterministic.
    """
    specs = config.run_specs()
    splits = load_dataset(config.data_path, config.seeds)
    configs = [
        AnsatzConfig(channel=ch, probability=p, n_layers=config.n_layers) for ch, p, _ in specs
    ]
    seeds = [seed for *_, seed in specs]
    args = (*zip(*(splits[seed] for seed in seeds)), configs, repeat(config.training), seeds)
    # by default, the CPUs this process may use, which a cpuset or taskset narrows
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers or cpus or 1, len(specs))
    records: list[RunRecord] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(train, *args) if pool else map(train, *args)
        for record in results:
            records.append(record)
            if progress:
                progress(record, len(records), len(specs))
    return records


# ---------------------------------------------------------------------------
# CSV emission and parsing
# ---------------------------------------------------------------------------


def run_id(channel: ChannelKind, probability: float, seed: int) -> str:
    return f"{channel.value}_{probability:g}_{seed}"


def run_filename(channel: ChannelKind, probability: float, seed: int) -> str:
    return f"run_{run_id(channel, probability, seed)}.csv"


def write_results_csv(path: str, records: Sequence[RunRecord]) -> None:
    """Write a results.csv, or a single-run CSV when given one record.

    One row per recorded step, numbered from 1 by its position in the
    record's columns; floats are printed with 6 decimal places.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            rid = run_id(r.channel, r.probability, r.seed)
            steps = enumerate(zip(r.cost, r.train_acc, r.val_acc, strict=True), start=1)
            f.writelines(
                f"{rid},{r.channel.value},{r.probability:.6f},{r.seed},"
                f"{step},{cost:.6f},{train_acc:.6f},{val_acc:.6f}\n"
                for step, (cost, train_acc, val_acc) in steps
            )


#: each value column's range [0, high]
_VALUE_BOUNDS = (("cost", 4.0), ("train_acc", 1.0), ("val_acc", 1.0))


def read_results_csv(path: str) -> list[RunRecord]:
    """Parse a results.csv (or single-run CSV) back into run records.

    A run's rows must number its steps 1, 2, ... in order and repeat the
    channel, prob and seed of its first row, which no other run id may
    share; a row that breaks a rule (two files concatenated, a run id
    reused, a run copied under another id), holds a field that does not
    parse, or holds a value that no run can write raises ``ValueError``
    naming its line: a prob outside [0, 1] or NaN, a nonzero prob for
    channel none, a negative seed, a cost outside [0, 4] (a batch mean of
    (y - h)^2 with y = +-1 and |h| <= 1) or an accuracy outside [0, 1].
    A leading UTF-8 byte-order mark is skipped, as ``load_iris_binary`` does.
    """
    records: dict[str, RunRecord] = {}
    owners: dict[tuple, str] = {}  # (channel, prob, seed) -> run id
    with open(path, "r", encoding="utf-8-sig") as f:
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
            rid, channel, prob, seed, step, *values = fields
            try:
                kind = ChannelKind(channel)
                config = (kind, _check_cell(kind, prob, "prob"), check_count(int(seed), "seed", 0))
                step, values = int(step), [float(v) for v in values]
                for (field, high), value in zip(_VALUE_BOUNDS, values):
                    if not 0.0 <= value <= high:  # NaN included
                        raise SettingError(field, f"{value} outside [0, {high:g}]")
                cost, train_acc, val_acc = values
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from exc
            if owners.setdefault(config, rid) != rid:
                raise ValueError(
                    f"line {line_no}: run {rid} repeats the channel, prob and seed of run "
                    f"{owners[config]}"
                )
            record = records.get(rid)
            if record is None:
                record = records[rid] = RunRecord(*config)
            elif config != (record.channel, record.probability, record.seed):
                raise ValueError(f"line {line_no}: run {rid} changes its channel, prob or seed")
            if step != len(record.cost) + 1:
                raise ValueError(
                    f"line {line_no}: run {rid} has step {step} after {len(record.cost)} steps"
                )
            record.cost.append(cost)
            record.train_acc.append(train_acc)
            record.val_acc.append(val_acc)
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
        accs = [record.final_val_accuracy() for record in group]
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
            f"{c.channel.value:<20} {c.probability:>5g} {c.n_seeds:>5} "
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
