import os
import subprocess
import sys

import pytest

# prints every scipy module loaded after the statement it is appended to
_REPORT = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"


def _loaded_scipy(code: str) -> str:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_scipy():
    # the tau <-> s map is a closed form and quadrature is numpy's
    # Gauss-Legendre rule; nothing should pull scipy into the import graph
    assert _loaded_scipy("import hirzebruch_kee") == "[]"


@pytest.mark.parametrize("cmd", ["fiber", "classes"])
def test_cli_run_loads_no_scipy(cmd):
    # the integrating subcommands, run as `python -m hirzebruch_kee`
    code = ("import runpy, sys\n"
            f"sys.argv = ['kee', {cmd!r}, '--n', '2', '--beta1', '0.5']\n"
            "try:\n    runpy.run_module('hirzebruch_kee', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code")
    assert _loaded_scipy(code) == "[]"
