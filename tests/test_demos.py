"""The fast demos run end to end as scripts and exit cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisyvqc

DEMOS = Path(__file__).resolve().parents[1] / "demos"
#: demo 05 trains a 14-run sweep (11 s wall, 21 s CPU on a 2-vCPU VM) and stays out
FAST_DEMOS = [
    "01_noise_channels.py",
    "02_circuit_simulation.py",
    "03_parameter_shift_gradients.py",
    "04_training_run.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_zero(tmp_path, name):
    # the demo imports the same noisyvqc as the tests, from any working directory
    src = str(Path(noisyvqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
