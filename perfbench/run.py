"""Benchmark of the ``noisyvqc sweep`` product path.

Drives the same public calls as ``noisyvqc sweep``: a ``SweepConfig``,
``sweep.run_sweep(config, progress=callback)`` and
``sweep.write_sweep_outputs``, against the sources in ``src/`` of the
checkout it sits in.  Numbers come from outside the program: wall
clocks, progress-callback timestamps and ``resource.getrusage``.

Usage::

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55   # table of every workload

Workloads (the workload seed picks the inputs; see ``workload_inputs``):

* ``grid_serial`` -- every noisy channel at two probabilities plus the
  noise-free baseline, one training seed of the default seed set,
  default training settings, embedded Iris data, ``workers=1``.  Two
  thirds of a run go to the 305-row gradient batches; building the gate
  stacks and the tail superoperator, anew on every call, takes about 45%.
* ``large_split`` -- three configurations at ``workers=1`` on a generated
  Iris-format CSV of 102000 rows, of which the 2000 setosa and
  versicolor rows are kept: the full-split accuracy readout takes about
  two thirds of a run, parsing the whole file on every run about 15%.

The grid is 11 runs, not the default 51, so that a run of under a
minute holds several sweeps to take a median over.  There is no
process-pool workload: with BLAS threading left on, two workers'
BLAS threads oversubscribe two cores, and on a 2-vCPU machine the
sweep time of one grid ranged from 7 s to 18 s between sweeps, wider
than any bound a benchmark can hold.  ``sweep.cpu_per_worker_s`` on ``grid_serial``
(about 2 CPU seconds per wall second at one worker) shows the cause.

A run repeats sweeps of its grid for ``--seconds`` (at least two
sweeps, none started that would be expected to end past the limit) and
reports medians over sweeps.  Without tracing, each sweep is preceded
by ``SETUP_PER_SWEEP`` set-up samples, so that ``setup_s`` is a median
over the whole run rather than over its first seconds.  Every sweep's
``summary.csv`` and ``results.csv`` are checked against the recorded
reference (see ``reference.py``).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s`` -- median over fresh interpreters of importing
  ``noisyvqc`` and loading the workload's dataset once;
* ``sweep_s`` -- ``run_sweep`` plus ``write_sweep_outputs``, per sweep;
* ``run_s_p50``, ``run_s_p80`` -- per-run wall time, from the gaps
  between progress callbacks pooled over sweeps;
* ``cpu_s`` -- user + system CPU of the process and its children, per sweep;
* ``peak_rss_mb`` -- peak resident memory of the process or any child.

``failed``/``attempted`` in the result line count runs that raised or
did not match the reference.  With ``--trace 1`` the run alternates
untraced and traced sweeps and reports the per-layer metrics of
``layers.py``, plus ``sweep.cpu_per_worker_s`` (untraced ``cpu_s`` /
(``sweep_s`` x workers), above 1 when BLAS threads busy other cores)
and ``trace.overhead_s`` (median over traced sweeps of their
``sweep_s`` minus the mean of the untraced sweeps before and after,
which cancels slow drift of the host's speed).
Spans are written to ``.perfbench_out/<workload>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

WORKLOADS = ("grid_serial", "large_split")
GRID_CHANNELS = ("phase-flip", "bit-flip", "phase-damping", "amplitude-damping", "depolarizing")
GRID_PROBABILITIES = (0.1, 0.5)
GRID_TRAINING_SEEDS = (1, 2, 3, 4, 5)  # the default seed set
LARGE_CHANNELS = ("depolarizing", "amplitude-damping")
LARGE_PROBABILITIES = (0.2,)
LARGE_VARIANTS = 10  # distinct generated CSVs, each with a recorded reference

SETUP_PER_SWEEP = 3
MIN_SWEEPS = 2

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import noisyvqc
noisyvqc.load_iris_binary(sys.argv[1] or None)
print(time.perf_counter() - start, noisyvqc.__file__)
"""


@dataclass(frozen=True)
class Inputs:
    """What one workload seed selects."""

    config_kwargs: dict
    ref_dir: Path
    data_seed: int | None = None  # large_split: seed of the generated CSV

    @property
    def data_path(self) -> Path | None:
        if self.data_seed is None:
            return None
        return WORK / f"iris-{self.data_seed}.csv"


def workload_inputs(workload: str, seed: int) -> Inputs:
    """Sweep settings and reference of a workload for a workload seed.

    ``grid_serial`` trains with ``GRID_TRAINING_SEEDS[seed % 5]``;
    ``large_split`` generates its CSV from ``seed % LARGE_VARIANTS``.
    Each of these inputs has a recorded reference.
    """
    from noisyvqc.channels import ChannelKind

    if workload == "grid_serial":
        training_seed = GRID_TRAINING_SEEDS[seed % len(GRID_TRAINING_SEEDS)]
        kwargs = dict(
            channels=tuple(ChannelKind(c) for c in GRID_CHANNELS),
            probabilities=GRID_PROBABILITIES,
            seeds=(training_seed,),
            workers=1,
        )
        return Inputs(kwargs, REFERENCE / "grid" / f"seed-{training_seed}")
    if workload == "large_split":
        variant = seed % LARGE_VARIANTS
        kwargs = dict(
            channels=tuple(ChannelKind(c) for c in LARGE_CHANNELS),
            probabilities=LARGE_PROBABILITIES,
            seeds=(1,),
            workers=1,
        )
        return Inputs(kwargs, REFERENCE / "large_split" / f"variant-{variant}", variant)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_config(workload: str, inputs: Inputs):
    from noisyvqc.sweep import SweepConfig

    data = inputs.data_path
    if data is not None and not data.exists():
        import gen_iris

        data.write_text(gen_iris.generate(inputs.data_seed), encoding="utf-8")
    return SweepConfig(
        **inputs.config_kwargs,
        data_path=None if data is None else str(data),
        out_dir=str(WORK / workload),
    )


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(data_path: Path | None, repeats: int) -> list[float]:
    """Times to import noisyvqc and load the dataset, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, "" if data_path is None else str(data_path)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup imported noisyvqc from {out[1]}, not {SRC}")
        times.append(float(out[0]))
    return times


@dataclass
class SweepResult:
    wall_s: float
    cpu_s: float
    gaps_s: list[float]
    runs: int
    failed: int


def run_one_sweep(config, ref_dir: Path) -> SweepResult:
    """Run and write one sweep, timed, then check it against the reference."""
    from noisyvqc import sweep
    import reference

    shutil.rmtree(config.out_dir, ignore_errors=True)
    stamps: list[float] = []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        records = sweep.run_sweep(config, progress=lambda *_: stamps.append(time.perf_counter()))
        sweep.write_sweep_outputs(records, config.out_dir)
    except Exception:  # a raising run counts as failed; keep measuring
        traceback.print_exc()
    end = time.perf_counter()
    cpu = cpu_seconds() - cpu0
    gaps = [b - a for a, b in zip([start] + stamps, stamps)]
    n_runs = len(config.run_specs())
    failed = len(reference.failed_runs(config.out_dir, str(ref_dir)))
    shutil.rmtree(config.out_dir, ignore_errors=True)
    return SweepResult(end - start, cpu, gaps, n_runs, failed)


def p80(values: list[float]) -> float:
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def end_to_end_metrics(sweeps: list[SweepResult], setup_times: list[float]) -> dict:
    per_run = [g for s in sweeps for g in s.gaps_s]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (statistics.median(s.wall_s for s in sweeps), "s"),
        "run_s_p50": (statistics.median(per_run), "s"),
        "run_s_p80": (p80(per_run), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in sweeps), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg_before": os.getloadavg(),
    }


def import_program() -> None:
    """Import noisyvqc from this checkout's ``src``, or exit with an error."""
    if not (SRC / "noisyvqc" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC / 'noisyvqc'}")
    sys.path.insert(0, str(SRC))
    import noisyvqc

    if not Path(noisyvqc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported noisyvqc from {noisyvqc.__file__}, not {SRC}")


def warm_up() -> None:
    """One short run, so first-call costs of numpy and BLAS stay out of the timings."""
    from noisyvqc.channels import ChannelKind
    from noisyvqc.sweep import execute_run

    execute_run(ChannelKind.DEPOLARIZING, 0.1, 1, steps=2)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Run one workload; returns (metrics, runs attempted, runs failed)."""
    import layers
    from tracer import Tracer

    inputs = workload_inputs(workload, seed)
    config = sweep_config(workload, inputs)
    warm_up()

    tracer = Tracer()
    sweeps: list[SweepResult] = []
    setup_times: list[float] = []
    rounds: list[float] = []  # duration of each loop round, set-up samples included
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not trace:
            setup_times += measure_setup(inputs.data_path, SETUP_PER_SWEEP)
        traced = trace and len(sweeps) % 2 == 1
        if traced:
            layers.install_all(tracer)
        try:
            sweeps.append(run_one_sweep(config, inputs.ref_dir))
        finally:
            tracer.restore()
        last = sweeps[-1]
        print(f"sweep {len(sweeps)}: {last.wall_s:.3f} s wall, {last.cpu_s:.3f} s cpu, "
              f"{last.failed}/{last.runs} runs failed{' (traced)' if traced else ''}",
              file=sys.stderr)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        expected = statistics.median(rounds)
        # a traced run ends on an untraced sweep, so each traced one has two neighbours
        ends_untraced = not trace or len(sweeps) % 2 == 1
        if len(sweeps) >= MIN_SWEEPS and ends_untraced and elapsed + expected > seconds:
            break

    attempted = sum(s.runs for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    print(f"{len(sweeps)} sweeps, {attempted} runs", file=sys.stderr)
    workers = config.workers
    if not trace:
        return end_to_end_metrics(sweeps, setup_times), attempted, failed

    walls = [s.wall_s for s in sweeps]
    metrics = layers.layer_metrics(tracer.spans, len(walls) // 2)
    metrics["sweep.cpu_per_worker_s"] = (
        statistics.median(s.cpu_s / (s.wall_s * workers) for s in sweeps[::2]), "s/s")
    metrics["trace.overhead_s"] = (
        statistics.median(walls[i] - (walls[i - 1] + walls[i + 1]) / 2
                          for i in range(1, len(walls), 2)), "s")
    tracer.write(str(WORK / f"{workload}-spans.jsonl"))
    return metrics, attempted, failed


def run_workload(args) -> int:
    import_program()
    WORK.mkdir(exist_ok=True)
    env = environment()
    metrics, attempted, failed = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {name:<30} {value:>14.6g} {unit}")
    print(f"{args.workload:<12} {'failed_run_frac':<30} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter and print one table."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload:<12} exited with code {proc.returncode}")
            ok = False
            continue
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload:<12} {'correct':<30} {str(result['correct']).lower():>14}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
