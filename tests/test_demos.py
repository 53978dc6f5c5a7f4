import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["einstein_check", "fiber_geometry", "intersection_classes",
                                  "profile_and_angles", "small_angle_collapse"])
def test_demo_runs_cleanly(demo, tmp_path):
    # each narrative script runs as a user would run it, from another directory
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, str(_ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert out.stderr == ""
