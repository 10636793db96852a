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
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .channels import NOISY_KINDS, ChannelKind, SettingError, check_probability
from .circuit import DEFAULT_LAYERS, AnsatzConfig
from .data import Dataset, check_split, feature_stats, load_iris_binary, preprocess, split
from .svg import emit_svg
from .training import RunRecord, StepRecord, TrainSettings, train

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
        if seed < 0:
            raise SettingError("seeds", f"must be non-negative, got {seed}")
    if data_path is not None and not os.path.isfile(data_path):
        raise SettingError("data_path", f"no such file: {data_path}")


def load_dataset(data_path: str | None, seeds: Sequence[int]) -> Dataset:
    """The dataset of a sweep or a run, parsed and checked once before any run.

    A file that does not parse, holds fewer than two classes, or whose
    split would leave a side empty (:func:`data.check_split`, the same
    for every seed) raises :class:`SettingError` under ``data_path``, as
    does a feature that is constant on the training split of one of
    ``seeds`` (:func:`data.feature_stats` could not scale it).
    """
    try:
        dataset = load_iris_binary(data_path)
        check_split(dataset)
    except ValueError as exc:
        raise SettingError("data_path", str(exc)) from exc
    for seed in seeds:
        try:
            feature_stats(split(dataset, seed=seed)[0].features)
        except ValueError as exc:
            raise SettingError("data_path", f"seed {seed}: {exc}") from exc
    return dataset


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
        # the CSVs print 6 decimals, and summarize groups runs by the value read back
        written = [float(f"{p:.6f}") for p in self.probabilities]
        for i, w in enumerate(written):
            if w in written[:i]:
                first, p = self.probabilities[written.index(w)], self.probabilities[i]
                raise SettingError("probabilities", f"{first:g} and {p:g} are equal at 6 decimals")

    def run_settings(self) -> dict:
        """Keyword arguments of :func:`execute_run` shared by every run of the sweep."""
        return dict(asdict(self.training), n_layers=self.n_layers, data_path=self.data_path)

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
    probability = check_probability(probability)
    config = AnsatzConfig(channel=channel, probability=probability, n_layers=n_layers)
    if channel is ChannelKind.NONE and config.probability != 0.0:
        raise SettingError("probability", f"must be 0 for channel none, got {probability:g}")
    _check_run_inputs((seed,), data_path)
    return _train_on(load_dataset(data_path, (seed,)), config, settings, seed)


def _train_on(
    dataset: Dataset, config: AnsatzConfig, settings: TrainSettings, seed: int
) -> RunRecord:
    """Split, preprocess, and train one configuration on a loaded dataset."""
    train_ds, val_ds = split(dataset, seed=seed)
    stats = feature_stats(train_ds.features)
    return train(
        preprocess(train_ds.features, stats),
        train_ds.labels,
        preprocess(val_ds.features, stats),
        val_ds.labels,
        config,
        settings,
        seed=seed,
    )


def run_sweep(config: SweepConfig, progress=None) -> list[RunRecord]:
    """Execute every run of the sweep, in parallel up to ``workers``.

    The data file is parsed and checked once (:func:`load_dataset`) and
    the dataset handed to every run.
    The returned list follows ``config.run_specs()`` order regardless of
    scheduling, so downstream output is deterministic.
    """
    specs = config.run_specs()
    dataset = load_dataset(config.data_path, config.seeds)
    configs = [
        AnsatzConfig(channel=ch, probability=p, n_layers=config.n_layers) for ch, p, _ in specs
    ]
    args = (repeat(dataset), configs, repeat(config.training), [seed for *_, seed in specs])
    workers = config.workers or os.cpu_count() or 1
    records: list[RunRecord] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_train_on, *args, chunksize=4) if pool else map(_train_on, *args)
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
