"""The benchmark's inputs reproduce their recorded outputs.

The grid has a training sample at exactly x0 = pi/2, whose model output
near the zero-mean init is about -2.8e-17: rounding alone decides its
predicted class.  Readouts pull Z back through the layers in the Pauli
basis instead of evolving the states forward, and on its own that
reordered arithmetic flips ``train_acc`` by 1/76 in some of these runs.
So a readout keeps the signs of every row at or above
``evaluator.NEAR_ZERO`` (1e-12), which the two paths agree on, and a
readout with a row below it returns the forward loop's bits.  This test
runs the grid through the sweep for each of ``run.GRID_TRAINING_SEEDS``,
and ``large_split`` variants 0 and 1 through the sweep's ``data_path``
route, and checks each with the benchmark's own reference check
(``perfbench/reference.py``): a cost may move by one unit in the 6th
decimal, every other field must match.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen_iris  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

from noisyvqc.sweep import SweepConfig, run_sweep, write_sweep_outputs  # noqa: E402


@pytest.mark.parametrize("seed", run.GRID_TRAINING_SEEDS)
def test_grid_matches_reference(tmp_path, seed):
    inputs = run.workload_inputs("grid_serial", run.GRID_TRAINING_SEEDS.index(seed))
    assert inputs.ref_dir.name == f"seed-{seed}"
    config = SweepConfig(**inputs.config_kwargs, out_dir=str(tmp_path))
    records = run_sweep(config)
    assert len(records) == 11
    write_sweep_outputs(records, config.out_dir)
    assert reference.failed_runs(config.out_dir, str(inputs.ref_dir)) == []


@pytest.mark.parametrize("variant", [0, 1])
def test_large_split_matches_reference(tmp_path, variant):
    inputs = run.workload_inputs("large_split", variant)
    assert inputs.ref_dir.name == f"variant-{variant}"
    data = tmp_path / "iris.csv"
    data.write_text(gen_iris.generate(inputs.data_seed), encoding="utf-8")
    out = tmp_path / "out"
    config = SweepConfig(**inputs.config_kwargs, data_path=str(data), out_dir=str(out))
    records = run_sweep(config)
    assert len(records) == 3
    write_sweep_outputs(records, config.out_dir)
    assert reference.failed_runs(config.out_dir, str(inputs.ref_dir)) == []
