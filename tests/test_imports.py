import functools
import json
import os
import subprocess
import sys

import pytest

# prints every module loaded after the statement it is appended to
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"

# one run of each subcommand, as `python -m hirzebruch_kee` would make it
_COMMANDS = {
    "solve": ["solve", "--n", "2", "--beta1", "0.5", "--emit-profile", "3"],
    "scan": ["scan", "--n", "2", "--beta1-min", "0.1", "--beta1-max", "0.5", "--count", "3"],
    "verify": ["verify", "--n", "2", "--beta1", "0.5", "--grid", "1"],
    "fiber": ["fiber", "--n", "2", "--beta1", "0.5"],
    "classes": ["classes", "--n", "2", "--beta1", "0.5"],
    "limit": ["limit", "--n", "2", "--beta1-seq", "0.5,0.25"],
}


@functools.cache
def _modules_after(code: str) -> tuple[str, ...]:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def _loaded(prefix: str, code: str) -> list[str]:
    """The modules of package `prefix` loaded by running `code` in a fresh process."""
    return [m for m in _modules_after(code) if m.split(".")[0] == prefix]


def _cli_code(argv: list[str]) -> str:
    return ("import runpy, sys\n"
            f"sys.argv = ['kee', *{argv!r}]\n"
            "try:\n    runpy.run_module('hirzebruch_kee', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code")


# the package runs on the standard library alone: the tau <-> s map and
# the fiber lengths are closed forms, and the trapezoid nodes, grids and
# NaN-keeping maxima are pure Python
def test_package_import_loads_no_scipy():
    assert _loaded("scipy", "import hirzebruch_kee") == []


def test_package_import_loads_no_numpy():
    assert _loaded("numpy", "import hirzebruch_kee") == []


@pytest.mark.parametrize("cmd", list(_COMMANDS))
def test_cli_run_loads_no_scipy(cmd):
    assert _loaded("scipy", _cli_code(_COMMANDS[cmd])) == []


@pytest.mark.parametrize("cmd", list(_COMMANDS))
def test_cli_run_loads_no_numpy(cmd):
    assert _loaded("numpy", _cli_code(_COMMANDS[cmd])) == []


def test_package_import_loads_the_quadrature_module():
    # the benchmark's span tracer (kee_bench/tracer.py) wraps the functions
    # of every layer it lists, quadrature among them, and looks each layer up
    # in sys.modules after `import hirzebruch_kee`; without this module its
    # traced runs stop with a KeyError
    assert "hirzebruch_kee.quadrature" in _loaded("hirzebruch_kee", "import hirzebruch_kee")
