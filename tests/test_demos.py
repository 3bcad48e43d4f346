import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixport

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("demo_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demo 4 writes its CSV into the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(sixport.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
