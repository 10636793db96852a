"""Reference outputs of each workload input, and the check against them.

A reference directory holds the ``summary.csv`` and the gzipped
``results.csv`` that a sweep wrote for one workload input.  A sweep's
run fails the check when ``summary.csv`` is not byte-identical (every
run of the sweep then fails), when it is missing from ``results.csv``,
or when one of its ``results.csv`` fields other than ``cost`` differs.
``cost`` may differ by one unit in the 6th decimal.

Usage, to record every reference at the current commit:
``python3 perfbench/reference.py``
"""

from __future__ import annotations

import gzip
import os
import shutil
import sys

COST_FIELD = 5
COST_TOLERANCE_UNITS = 1  # units of 1e-6, the printed precision


def _runs(text: str) -> dict[str, list[list[str]]]:
    runs: dict[str, list[list[str]]] = {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        runs.setdefault(fields[0], []).append(fields)
    return runs


def _rows_match(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    for i, (g, w) in enumerate(zip(got, want)):
        if i == COST_FIELD:
            if abs(round(float(g) * 1e6) - round(float(w) * 1e6)) > COST_TOLERANCE_UNITS:
                return False
        elif g != w:
            return False
    return True


def failed_runs(out_dir: str, ref_dir: str) -> list[str]:
    """Run ids of the reference whose outputs in ``out_dir`` do not match."""
    with gzip.open(os.path.join(ref_dir, "results.csv.gz"), "rt", encoding="utf-8") as f:
        want = _runs(f.read())
    try:
        with open(os.path.join(out_dir, "summary.csv"), "rb") as f:
            summary = f.read()
        with open(os.path.join(out_dir, "results.csv"), "r", encoding="utf-8") as f:
            got = _runs(f.read())
    except FileNotFoundError:
        return sorted(want)
    with open(os.path.join(ref_dir, "summary.csv"), "rb") as f:
        if summary != f.read():
            return sorted(want)
    return sorted(
        rid
        for rid, rows in want.items()
        if len(got.get(rid, ())) != len(rows)
        or not all(_rows_match(g, w) for g, w in zip(got[rid], rows))
    )


def record(out_dir: str, ref_dir: str) -> None:
    """Store a sweep's ``summary.csv`` and ``results.csv`` as the reference."""
    os.makedirs(ref_dir, exist_ok=True)
    shutil.copyfile(os.path.join(out_dir, "summary.csv"), os.path.join(ref_dir, "summary.csv"))
    with open(os.path.join(out_dir, "results.csv"), "rb") as src:
        # mtime=0 keeps the archive bytes a function of the content alone
        with gzip.GzipFile(os.path.join(ref_dir, "results.csv.gz"), "wb", mtime=0) as dst:
            shutil.copyfileobj(src, dst)


def record_all() -> None:
    """Record the reference of every workload input at the current commit."""
    import run

    run.import_program()
    from noisyvqc import sweep

    run.WORK.mkdir(exist_ok=True)
    jobs = [("grid_serial", s) for s in range(len(run.GRID_TRAINING_SEEDS))]
    jobs += [("large_split", s) for s in range(run.LARGE_VARIANTS)]
    for workload, seed in jobs:
        inputs = run.workload_inputs(workload, seed)
        config = run.sweep_config(workload, inputs)
        shutil.rmtree(config.out_dir, ignore_errors=True)
        sweep.write_sweep_outputs(sweep.run_sweep(config), config.out_dir)
        record(config.out_dir, str(inputs.ref_dir))
        shutil.rmtree(config.out_dir)
        print(f"recorded {inputs.ref_dir.relative_to(run.ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    record_all()
