"""Command-line driver: single runs, noise sweeps, and summaries.

Subcommands:

* ``run``       -- train one (channel, probability, seed) configuration
                   and write its per-run CSV.
* ``sweep``     -- run the full grid (plus noise-free baselines), write
                   per-run CSVs, results.csv, curve SVGs, and summary.csv.
* ``summarize`` -- recompute summary.csv from an existing results.csv.

All stochastic behavior is pinned by the seed flags, so repeating an
invocation reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from .channels import NOISY_KINDS, ChannelKind
from .circuit import DEFAULT_LAYERS
from .sweep import (
    DEFAULT_PROBABILITIES,
    DEFAULT_SEEDS,
    SettingError,
    SweepConfig,
    execute_run,
    format_summary_table,
    read_results_csv,
    run_filename,
    run_sweep,
    summarize,
    write_results_csv,
    write_summary_csv,
    write_sweep_outputs,
)
from .training import TrainSettings

_CHANNEL_VALUES = [k.value for k in ChannelKind]
_NOISY_VALUES = [k.value for k in NOISY_KINDS]

_FLAGS = {
    "batch_size": "--batch",
    "n_layers": "--layers",
    "learning_rate": "--lr",
    "probabilities": "--probs",
    "data_path": "--data",
}


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=TrainSettings.steps, help="optimizer steps per run")
    parser.add_argument("--batch", type=int, default=TrainSettings.batch_size, help="samples per step")
    parser.add_argument("--layers", type=int, default=DEFAULT_LAYERS, help="variational layers")
    parser.add_argument("--lr", type=float, default=TrainSettings.learning_rate, help="learning rate")
    parser.add_argument("--momentum", type=float, default=TrainSettings.momentum, help="momentum coefficient")
    parser.add_argument("--data", metavar="PATH", default=None, help="Iris CSV path (default: embedded copy)")
    parser.add_argument("--out", metavar="DIR", default="results", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyvqc",
        description="Train two-qubit variational classifiers under Kraus noise channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one configuration and write its CSV")
    run_p.add_argument("--channel", required=True, choices=_CHANNEL_VALUES, help="noise channel")
    run_p.add_argument("--prob", type=float, default=0.0, help="channel probability in [0, 1]")
    run_p.add_argument("--seed", type=int, default=1, help="run seed")
    _add_training_flags(run_p)
    run_flags = {**_FLAGS, "probabilities": "--prob", "probability": "--prob", "seeds": "--seed"}
    run_p.set_defaults(handler=_cmd_run, parser=run_p, flags=run_flags)

    sweep_p = sub.add_parser("sweep", help="run the noise grid plus noise-free baselines")
    sweep_p.add_argument(
        "--channels", nargs="+", choices=_NOISY_VALUES, default=_NOISY_VALUES,
        help="noise channels to sweep",
    )
    sweep_p.add_argument(
        "--probs", nargs="+", type=float, default=list(DEFAULT_PROBABILITIES),
        help="channel probabilities to sweep",
    )
    sweep_p.add_argument(
        "--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS), help="run seeds"
    )
    sweep_p.add_argument("--workers", type=int, default=None, help="parallel worker processes")
    _add_training_flags(sweep_p)
    sweep_p.set_defaults(handler=_cmd_sweep, parser=sweep_p, flags=_FLAGS)

    sum_p = sub.add_parser("summarize", help="recompute summary.csv from results.csv")
    sum_p.add_argument("--out", metavar="DIR", default="results", help="directory holding results.csv")
    sum_p.set_defaults(handler=_cmd_summarize, parser=sum_p, flags={})
    return parser


def _sweep_config(args: argparse.Namespace, **grid) -> SweepConfig:
    """The grid plus the training flags."""
    training = TrainSettings(
        steps=args.steps, batch_size=args.batch, learning_rate=args.lr, momentum=args.momentum
    )
    return SweepConfig(
        **grid, training=training, n_layers=args.layers, data_path=args.data, out_dir=args.out
    )


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    channel = ChannelKind(args.channel)
    # no channels: a noise-free run would share the baseline's run id
    config = _sweep_config(args, channels=(), probabilities=(args.prob,), seeds=(args.seed,))
    record = execute_run(channel, args.prob, args.seed, **config.run_settings())
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, run_filename(channel, record.probability, args.seed))
    write_results_csv(path, [record])
    final = record.final_val_accuracy()
    print(f"wrote {path} ({len(record.steps)} steps, final val acc {final:.3f})")
    return 0


def _cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    config = _sweep_config(
        args,
        channels=tuple(ChannelKind(c) for c in args.channels),
        probabilities=tuple(args.probs),
        seeds=tuple(args.seeds),
        workers=args.workers,
    )

    def progress(record, done, total):
        print(
            f"[{done}/{total}] {record.channel.value} p={record.probability:g} "
            f"seed={record.seed} final val acc {record.final_val_accuracy():.3f}",
            file=sys.stderr,
        )

    records = run_sweep(config, progress=progress)
    cells = write_sweep_outputs(records, config.out_dir)
    print(f"wrote {len(records)} runs, results.csv, summary.csv, and SVGs to {config.out_dir}")
    print(format_summary_table(cells))
    return 0


def _cmd_summarize(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    results_path = os.path.join(args.out, "results.csv")
    if not os.path.exists(results_path):
        parser.error(f"no results.csv found in {args.out}")
    try:
        records = read_results_csv(results_path)
    except ValueError as exc:
        parser.error(f"{results_path}: {exc}")
    if not records:
        parser.error(f"{results_path} holds no runs")
    cells = summarize(records)
    write_summary_csv(os.path.join(args.out, "summary.csv"), cells)
    print(format_summary_table(cells))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run a subcommand.  A :class:`SettingError` -- raised before any file
    is written -- exits 2 through ``parser.error``, naming the flag that
    holds the rejected value: ``args.flags[field]``, else ``--<field>``."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args.parser, args)
    except SettingError as exc:
        args.parser.error(f"argument {args.flags.get(exc.field, '--' + exc.field)}: {exc.reason}")


if __name__ == "__main__":
    raise SystemExit(main())
