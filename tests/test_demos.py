"""The demos run end to end as scripts and exit cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisyvqc

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(tmp_path, name):
    # the demo imports the same noisyvqc as the tests, from any working directory
    src = str(Path(noisyvqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # demo 05 writes its sweep under tempfile.mkdtemp(), so keep it in tmp_path
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
