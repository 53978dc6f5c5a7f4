import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hirzebruch_kee import UsageError
from hirzebruch_kee.cli import _build_parser, _meta, main, parse, render, run

_DATA = Path(__file__).parent / "data"


def parse_json(payload: bytes):
    return json.loads(payload.decode("utf-8"))


def parse_csv(payload: bytes):
    return list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))


def test_parse_solve_defaults():
    cfg = parse(["solve", "--n", "1", "--beta1", "1.0", "--format", "json"])
    assert cfg.command == "solve"
    assert cfg.n == 1 and cfg.beta1 == 1.0 and cfg.emit_profile is None
    assert cfg.output_format == "json" and cfg.output_path is None
    # each default lives on the subcommand that reads it, and only there
    assert not any(hasattr(cfg, k) for k in ("fd_step", "probe_distance"))
    verify = parse(_argv("verify"))
    assert verify.grid == 5 and verify.fd_step == 1e-3
    assert parse(_argv("fiber")).probe_distance == 1e-6
    assert parse(_argv("scan")).log_grid is True


# every subcommand with each optional flag it takes, then two with their
# defaults, so a value left over from an earlier parse would show
_EVERY_COMMAND = [
    ["solve", "--n", "2", "--beta1", "0.5", "--emit-profile", "3", "--format", "csv"],
    ["scan", "--n", "1", "--beta1-min", "0.1", "--beta1-max", "0.2", "--count", "2",
     "--linear", "--out", "scan.csv"],
    ["verify", "--n", "3", "--beta1", "0.4", "--grid", "2", "--fd-step", "2e-3"],
    ["fiber", "--n", "1", "--beta1", "0.5", "--probe-distance", "1e-5", "--out", "f.json"],
    ["classes", "--n", "4", "--beta1", "0.25"],
    ["limit", "--n", "2", "--beta1-seq", "0.2,0.1,0.05", "--format", "json"],
    ["solve", "--n", "1", "--beta1", "1.0"],
    ["scan", "--n", "2", "--beta1-min", "0.05", "--beta1-max", "0.9", "--count", "20"],
]


def _parsed(argv):
    ns = parse(argv)
    return vars(ns), _meta(ns)


def test_parser_is_built_once_and_reused_without_state():
    assert _build_parser() is _build_parser()
    first = [_parsed(argv) for argv in _EVERY_COMMAND]
    order = [5, 2, 7, 0, 4, 1, 6, 3]
    assert sorted(order) == list(range(len(_EVERY_COMMAND)))
    for i in order:
        assert _parsed(_EVERY_COMMAND[i]) == first[i]


def test_reused_parser_forgets_the_previous_subcommand():
    parse(_EVERY_COMMAND[1])
    solve = parse(_argv("solve"))
    assert not any(hasattr(solve, k) for k in ("beta1_min", "beta1_max", "count", "log_grid"))
    assert list(_meta(solve)) == ["tool", "command", "n", "beta1", "emit_profile"]


@pytest.mark.parametrize("bad", [
    ["verify", "--n", "3", "--beta1", "0.4", "--grid", "7", "--fd-step", "nan"],
    ["scan", "--n", "1", "--beta1-min", "0.1", "--count", "9"],
    ["solve", "--n", "3", "--beta1", "0.7", "--emit-profile", "4"],
    ["limit", "--n", "1", "--beta1-seq", "0.3,0.2,0.5"],
    ["nonsense", "--n", "1"],
])
def test_usage_error_leaves_the_next_parse_unchanged(bad):
    before = [_parsed(argv) for argv in _EVERY_COMMAND]
    for argv, expected in zip(_EVERY_COMMAND, before):
        with pytest.raises(UsageError):
            parse(bad)
        assert _parsed(argv) == expected


def test_importing_does_not_build_the_parser():
    # a cold `kee` call builds the parser exactly once, when it parses
    code = ("import hirzebruch_kee, hirzebruch_kee.cli as cli\n"
            "info = cli._build_parser.cache_info\n"
            "at_import = info().currsize\n"
            "for _ in range(3):\n"
            "    cli.parse(['solve', '--n', '1', '--beta1', '0.5'])\n"
            "print(at_import, info().misses, info().hits)")
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "1", "2"]


def test_parse_rejects_bad_beta1_with_constraint():
    with pytest.raises(UsageError) as err:
        parse(["solve", "--n", "3", "--beta1", "0.7"])
    assert "beta1 must lie in (0, 2/n)" in str(err.value)


@pytest.mark.parametrize("argv, flag", [
    (["scan", "--n", "1", "--beta1-min", "nan", "--beta1-max", "0.5", "--count", "3"],
     "--beta1-min"),
    (["scan", "--n", "1", "--beta1-min", "0.1", "--beta1-max", "1.5", "--count", "3"],
     "--beta1-max"),
    (["limit", "--n", "1", "--beta1-seq", "0.2,nan"], "--beta1-seq"),
    (["solve", "--n", "3", "--beta1", "0.7"], "--beta1"),
    (["solve", "--n", "1" + "0" * 320, "--beta1", "1e-310"], "--n"),
])
def test_parse_names_the_flag_that_held_a_bad_value(argv, flag):
    with pytest.raises(UsageError) as err:
        parse(argv)
    assert str(err.value).startswith(f"argument {flag}: ")


def test_parse_limit_with_out_format_word(tmp_path, monkeypatch):
    # --out is only ever a path: a format word names a file, and the format
    # comes from --format, else from a .csv suffix, else json
    argv = ["limit", "--n", "2", "--beta1-seq", "0.2,0.1,0.05", "--out", "csv"]
    cfg = parse(argv)
    assert cfg.command == "limit"
    assert cfg.beta1_list == (0.2, 0.1, 0.05)
    assert cfg.output_format == "json" and cfg.output_path == "csv"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(parse_json((tmp_path / "csv").read_bytes())["rows"]) == 3
    cfg = parse(argv[:-2] + ["--format", "csv"])
    assert cfg.output_format == "csv" and cfg.output_path is None


def test_parse_out_path_with_extension(tmp_path):
    target = str(tmp_path / "report.csv")
    cfg = parse(["solve", "--n", "1", "--beta1", "0.5", "--out", target])
    assert cfg.output_format == "csv" and cfg.output_path == target
    # explicit --format wins over the extension
    cfg = parse(["solve", "--n", "1", "--beta1", "0.5",
                 "--format", "json", "--out", target])
    assert cfg.output_format == "json" and cfg.output_path == target


def test_parse_misuse_cases():
    for argv in [
        ["solve", "--n", "0", "--beta1", "0.5"],
        ["solve", "--n", "1", "--beta1", "0.5", "--emit-profile", "1"],
        ["scan", "--n", "1", "--beta1-min", "0.5", "--beta1-max", "0.1", "--count", "3"],
        ["scan", "--n", "1", "--beta1-min", "0.1", "--beta1-max", "0.5", "--count", "0"],
        ["limit", "--n", "1", "--beta1-seq", "0.1,0.2"],
        ["limit", "--n", "1", "--beta1-seq", "abc"],
        ["verify", "--n", "1", "--beta1", "0.5", "--grid", "0"],
        ["nonsense"],
    ]:
        with pytest.raises(UsageError):
            parse(argv)


# --quad-tol and --s-hull no longer exist, so any value of them stays a
# usage error that names the flag
_BAD_FLAGS = [
    (cmd, flag, value)
    for cmd in ("fiber", "classes")
    for flag, value in [("--quad-tol", v) for v in
                        ("-1", "0", "5e-324", "1", "1e300", "nan", "inf")]
] + [
    ("verify", "--fd-step", v) for v in ("nan", "inf", "-inf", "0", "-1e-3", "1")
] + [
    (cmd, "--s-hull", v) for cmd in ("verify", "limit") for v in ("nan", "inf", "0.5")
] + [
    ("fiber", "--probe-distance", v) for v in ("nan", "inf", "0", "-0.1", "abc")
] + [
    ("verify", "--fd-step", "abc"),
    ("solve", "--n", "0"), ("verify", "--grid", "0"), ("scan", "--count", "0"),
    ("solve", "--emit-profile", "1"),
    # one above each size cap
    ("verify", "--grid", "101"), ("scan", "--count", "100001"),
    ("solve", "--emit-profile", "100001"),
]


_BASE_ARGS = {
    "limit": ["--beta1-seq", "0.2,0.1"],
    "scan": ["--beta1-min", "0.1", "--beta1-max", "0.2", "--count", "2"],
}


def _argv(cmd, *extra):
    base = _BASE_ARGS.get(cmd, ["--beta1", "0.5"])
    return [cmd, "--n", "1", *base, *extra]


@pytest.mark.parametrize("cmd, flag, value", _BAD_FLAGS)
def test_numeric_flag_rejected(cmd, flag, value, capsys):
    argv = _argv(cmd, f"{flag}={value}")
    with pytest.raises(UsageError) as err:
        parse(argv)
    assert flag in str(err.value)
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("cmd, flag, value", [
    ("verify", "--fd-step", "2e-3"), ("fiber", "--probe-distance", "1e-5"),
])
def test_numeric_flag_accepted(cmd, flag, value):
    cfg = parse(_argv(cmd, flag, value))
    assert getattr(cfg, flag[2:].replace("-", "_")) == float(value)


@pytest.mark.parametrize("flag, value", [("--s-hull", "40"), ("--quad-tol", "1e-10")])
@pytest.mark.parametrize("cmd", ["solve", "scan", "verify", "fiber", "classes", "limit"])
def test_retired_flag_is_usage_error(cmd, flag, value, capsys):
    # the map covers every finite s and the volumes converge at the rule's
    # lowest orders, so neither setting changed a number; a script that
    # still passes one is told so rather than silently ignored
    argv = _argv(cmd, flag, value)
    with pytest.raises(UsageError) as err:
        parse(argv)
    assert flag in str(err.value)
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


def test_verify_has_no_quad_tol():
    # the map is a closed form, so verify has no quadrature tolerance
    with pytest.raises(UsageError):
        parse(_argv("verify", "--quad-tol", "1e-10"))
    rows, _ = run(parse(_argv("verify", "--grid", "1")))
    assert "quad_tol" not in rows[0]


def test_nan_einstein_residual_fails(monkeypatch, capsys):
    # max(0.0, nan) == 0.0, so a NaN residual must not be dropped by the
    # maxima; NaN sits in the last entry, where a plain max() loses it
    from hirzebruch_kee import HermitianForm2, geometry

    def nan_ricci(p, m, pt, step, centre):
        return HermitianForm2(g_ww=0.0, g_wz=0j, g_zz=math.nan)

    # verify reaches the stencil through _grid_point, not through ricci_fd
    monkeypatch.setattr(geometry, "_stencil", nan_ricci)
    rows, status = run(parse(_argv("verify", "--grid", "2")))
    assert status == 1 and rows[0]["status"] == "fail"
    assert math.isnan(rows[0]["einstein_residual_max"])
    assert main(_argv("verify", "--grid", "2")) == 1
    doc = json.loads(capsys.readouterr().out)     # NaN stays parseable
    assert math.isnan(doc["rows"][0]["einstein_residual_max"])


_META_KEYS = {
    "solve": (["--beta1", "0.5"], ["n", "beta1", "emit_profile"]),
    "scan": (["--beta1-min", "0.1", "--beta1-max", "0.2", "--count", "2"],
             ["n", "beta1_min", "beta1_max", "count", "log_grid"]),
    "verify": (["--beta1", "0.5", "--grid", "1"], ["n", "beta1", "grid", "fd_step"]),
    "fiber": (["--beta1", "0.5"], ["n", "beta1", "probe_distance"]),
    "classes": (["--beta1", "0.5"], ["n", "beta1"]),
    "limit": (["--beta1-seq", "0.2,0.1"], ["n", "beta1_list"]),
}


@pytest.mark.parametrize("cmd", sorted(_META_KEYS))
def test_meta_echoes_only_parsed_fields(cmd, capsys):
    extra, keys = _META_KEYS[cmd]
    assert main([cmd, "--n", "1", *extra]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert list(meta) == ["tool", "command", *keys]      # byte order pinned
    assert meta["command"] == cmd


def test_fiber_volume_gate_fails_on_small_defect(monkeypatch, capsys):
    # a fiber area off by 1e-8 relative is 100x over the gate
    from hirzebruch_kee import geometry
    from hirzebruch_kee.cli import FIBER_AREA_THRESHOLD

    true_volume = geometry.fiber_volume
    monkeypatch.setattr(geometry, "fiber_volume",
                        lambda p: true_volume(p) * (1.0 + 1e-8))
    argv = ["fiber", "--n", "1", "--beta1", "0.5"]
    rows, status = run(parse(argv))
    assert status == 1 and rows[0]["status"] == "fail"
    assert rows[0]["volume_defect"] > rows[0]["volume_defect_threshold"]
    assert rows[0]["volume_defect_threshold"] == FIBER_AREA_THRESHOLD
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["rows"][0]["status"] == "fail"


def test_run_solve_reports_rigid_angle():
    cfg = parse(["solve", "--n", "1", "--beta1", "1.0"])
    rows, status = run(cfg)
    assert status == 0 and len(rows) == 1
    assert abs(rows[0]["beta2"] - (math.sqrt(3.0) - 1.0)) < 1e-12
    assert rows[0]["lambda"] == 1.0


def test_run_solve_profile_samples():
    cfg = parse(["solve", "--n", "1", "--beta1", "0.5", "--emit-profile", "5"])
    rows, status = run(cfg)
    samples = [r for r in rows if r["kind"] == "profile"]
    assert len(samples) == 5
    assert samples[0]["tau"] == 1.0 and samples[0]["phi"] == 0.0
    assert abs(samples[-1]["tau"] - rows[0]["alpha2"]) < 1e-14
    taus = [r["tau"] for r in samples]
    assert taus == sorted(taus)


def test_run_scan_grids():
    cfg = parse(["scan", "--n", "1", "--beta1-min", "0.01",
                 "--beta1-max", "0.81", "--count", "3"])
    rows, _ = run(cfg)
    b = [r["beta1"] for r in rows]
    assert b == sorted(b)
    assert abs(b[1] - math.sqrt(b[0] * b[2])) < 1e-12   # geometric spacing
    cfg = parse(["scan", "--n", "1", "--beta1-min", "0.01",
                 "--beta1-max", "0.81", "--count", "3", "--linear"])
    rows, _ = run(cfg)
    b = [r["beta1"] for r in rows]
    assert abs(b[1] - 0.5 * (b[0] + b[2])) < 1e-12      # arithmetic spacing


def test_run_verify_passes():
    cfg = parse(["verify", "--n", "2", "--beta1", "0.6", "--grid", "3"])
    rows, status = run(cfg)
    assert status == 0
    assert rows[0]["status"] == "pass"
    assert rows[0]["einstein_residual_max"] <= 1e-5
    assert rows[0]["einstein_threshold"] == 1e-5


def test_verify_map_evaluations(monkeypatch):
    # verify solves each of the 75 grid points' centres once, cold, and
    # starts the 28 other stencil solves from it: 6,601 evaluations of the
    # map at q, where cold solves of every kernel call and four centre
    # solves per point made 10,969; the bound is halfway, so a return to
    # cold starts fails
    from hirzebruch_kee import geometry, legendre
    calls, starts = [], []
    at_q, q_of_s = legendre._at_q, geometry._q_of_s

    def counted(p, q):
        calls.append(q)
        return at_q(p, q)

    monkeypatch.setattr(legendre, "_at_q", counted)
    monkeypatch.setattr(geometry, "_at_q", counted)
    monkeypatch.setattr(geometry, "_q_of_s",
                        lambda m, s, start=math.nan: starts.append(start) or q_of_s(m, s, start))
    rows, status = run(parse(["verify", "--n", "2", "--beta1", "0.5", "--grid", "5"]))
    assert status == 0
    assert len(calls) < (10969 + 6601) // 2
    assert sum(math.isnan(start) for start in starts) == 75
    assert len(starts) == 75 * 29


@pytest.mark.xfail(strict=True, reason=(
    "false fail: the Einstein gate is absolute and entrywise in the w chart, where "
    "g_ww = phi/|w|^2 grows like (1+|z|^2)^n, so einstein_residual_max reads 1.4e-4 "
    "on this valid profile"))
def test_run_verify_passes_at_n_8():
    rows, status = run(parse(["verify", "--n", "8", "--beta1", "0.2"]))
    assert status == 0 and rows[0]["status"] == "pass"


@pytest.mark.parametrize("n, verdict", [(600, True), (650, False), (700, False)])
def test_verify_at_large_n_ends_in_a_row_not_a_traceback(n, verdict, capsys):
    # the grid's |w|^2 = e^s (1+|z|^2)^-n at |z| = 1.5, s = -2 is so small
    # from about n = 606 on (at beta1 = 1e-3) that g_ww = phi/|w|^2 leaves
    # the double range: no verdict, but a PositivityError row with exit 1
    argv = ["verify", "--n", str(n), "--beta1", "0.001", "--grid", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    [row] = parse_json(out.encode())["rows"]
    assert err == ""
    if verdict:
        assert row["status"] == "fail" and "error" not in row
    else:
        assert list(row) == ["command", "error"]
        assert row["error"].startswith("PositivityError: form leaves the double range")
        assert "g_ww=inf" in row["error"]


def test_run_verify_passes_at_n_8_with_a_wider_step():
    # a step of 1e-2 lifts the stencil's rounding floor, which the large
    # entries of g at n = 8 amplify: einstein_residual_max reads 1.1e-6
    rows, status = run(parse(["verify", "--n", "8", "--beta1", "0.2", "--grid", "3",
                              "--fd-step", "1e-2"]))
    assert status == 0 and rows[0]["status"] == "pass"


@pytest.mark.parametrize("n, beta1", [(1, 0.5), (3, 0.4), (2, 1e-3)])
def test_verify_maxima_match_the_public_functions(n, beta1):
    # both maxima of the report, bit for bit, from the public functions:
    # metric_at and tau_phi_of_s make the same cold solve as the report's
    # centre, and the determinant identity is det g |w|^2 (1+|z|^2)^2 = n tau phi
    from hirzebruch_kee import (build_map, chart_grid, chart_s, einstein_residual,
                                make_profile, metric_at, tau_phi_of_s)
    rows, _ = run(parse(["verify", "--n", str(n), "--beta1", str(beta1), "--grid", "2"]))
    p = make_profile(n, beta1)
    m = build_map(p)
    grid = chart_grid(p, 2)
    assert rows[0]["einstein_residual_max"] == einstein_residual(p, m, grid, 1e-3)
    defects = []
    for pt in grid:
        tau, phi = tau_phi_of_s(m, chart_s(n, pt))
        aw, az = abs(pt.w), 1.0 + abs(pt.z) * abs(pt.z)
        defects.append(abs(metric_at(p, m, pt).det() * (aw * aw * (az * az)) - n * tau * phi)
                       / (n * tau * phi))
    assert rows[0]["det_defect_max"] == max(defects)


def test_limit_deviation_matches_tensor_deviation_at_the_echoed_probe():
    from hirzebruch_kee import ChartPoint, build_map, make_profile, tensor_deviation
    rows, _ = run(parse(["limit", "--n", "2", "--beta1-seq", "0.3,0.05,1e-4"]))
    for row in rows:
        p = make_profile(2, row["beta1"])
        probe = ChartPoint(z=complex(row["probe_z_re"], row["probe_z_im"]),
                           w=complex(row["probe_w_re"], row["probe_w_im"]))
        assert row["tensor_deviation"] == tensor_deviation(p, build_map(p), probe)


def test_run_classes_reports_oracles():
    cfg = parse(["classes", "--n", "1", "--beta1", "1.0"])
    rows, status = run(cfg)
    assert status == 0
    r = rows[0]
    assert abs(r["kee_a"] - math.sqrt(3.0)) < 1e-14
    assert abs(r["kee_b"] - (1.0 + math.sqrt(3.0))) < 1e-14
    assert r["proportionality_defect"] <= 1e-12
    assert r["adjunction_zero"] == -2 and r["adjunction_infinity"] == -2


def test_run_threshold_failure_returns_one():
    cfg = parse(["fiber", "--n", "1", "--beta1", "0.5", "--probe-distance", "0.3"])
    rows, status = run(cfg)
    assert status == 1
    assert rows[0]["status"] == "fail"


def test_run_numeric_error_becomes_record():
    # probe distance beyond the interval: the probe tau leaves the domain
    cfg = parse(["fiber", "--n", "1", "--beta1", "0.5", "--probe-distance", "0.9"])
    rows, status = run(cfg)
    assert status == 1
    assert len(rows) == 1 and "error" in rows[0]


def test_rows_sorted_by_surface_then_angle():
    cfg = parse(["limit", "--n", "1", "--beta1-seq", "0.2,0.1,0.05"])
    rows, _ = run(cfg)
    keys = [(r["n"], r["beta1"]) for r in rows]
    assert keys == sorted(keys)


# run passes each runner's rows through as they come, so every runner must
# emit them in (n, beta1) order itself: limit reverses its decreasing ladder,
# and scan sorts a log grid whose range of a few ulp puts pow's interior
# points on either side of its exact ends
@pytest.mark.parametrize("argv", _EVERY_COMMAND + [
    ["limit", "--n", "3", "--beta1-seq", "0.6,0.1,0.001,1e-9"],
    ["scan", "--n", "1", "--beta1-min", "0.023299788910302544",
     "--beta1-max", "0.023299788910302544", "--count", "26"],
    ["scan", "--n", "1", "--beta1-min", "0.030011746787293077",
     "--beta1-max", "0.03001174678729308", "--count", "50"],
], ids=lambda argv: "-".join(argv[:1] + argv[2:3] + argv[4:5]))
def test_each_runner_emits_rows_in_report_order(argv):
    from hirzebruch_kee.cli import _RUNNERS
    cfg = parse(argv)
    rows = _RUNNERS[cfg.command](cfg)
    keys = [(r["n"], r["beta1"]) for r in rows]
    assert len(keys) > 0 and keys == sorted(keys)
    assert run(cfg)[0] == rows


def test_render_json_round_trip():
    cfg = parse(["solve", "--n", "2", "--beta1", "0.37"])
    rows, _ = run(cfg)
    payload = render(rows, "json")
    doc = parse_json(payload)
    assert doc["rows"][0]["beta2"] == rows[0]["beta2"]   # 17g is lossless
    assert doc["rows"][0]["alpha2"] == rows[0]["alpha2"]


def test_render_csv_round_trip():
    cfg = parse(["solve", "--n", "2", "--beta1", "0.37"])
    rows, _ = run(cfg)
    doc = parse_csv(render(rows, "csv"))
    assert float(doc[0]["beta2"]) == rows[0]["beta2"]
    assert doc[0]["tau"] == ""                           # blank for null


class _Float(float):
    pass


# every kind of cell a report can hold; the second row lacks keys the first
# one has and adds one, so both fill blanks in first-appearance key order
_SYNTHETIC_ROWS = [
    {"command": "synthetic", "none": None, "yes": True, "no": False,
     "big": 123456789012345678901, "neg_zero": -0.0, "nan": math.nan,
     "inf": math.inf, "ninf": -math.inf, "tenth": 0.1, "sub": _Float(2.0 / 3.0),
     "pair": (0.1, None, True, 7, "a,b"), "text": 'say "hi", then\nnaïve — ü'},
    {"command": "synthetic", "yes": False, "tenth": 1e-310, "extra": 1e300},
]
_SYNTHETIC_META = {"tool": "kee", "command": "synthetic", "flag": None,
                   "ladder": (0.2, 0.1), "log_grid": True}
_SYNTHETIC_BYTES = {
    "json": (
        b'{\n  "meta": {"tool": "kee", "command": "synthetic", "flag": null, '
        b'"ladder": [0.20000000000000001, 0.10000000000000001], "log_grid": true},\n'
        b'  "rows": [\n'
        b'    {"command": "synthetic", "none": null, "yes": true, "no": false, '
        b'"big": 123456789012345678901, "neg_zero": -0, "nan": NaN, "inf": Infinity, '
        b'"ninf": -Infinity, "tenth": 0.10000000000000001, "sub": 0.66666666666666663, '
        b'"pair": [0.10000000000000001, null, true, 7, "a,b"], '
        b'"text": "say \\"hi\\", then\\nna\\u00efve \\u2014 \\u00fc", "extra": null},\n'
        b'    {"command": "synthetic", "none": null, "yes": false, "no": null, "big": null, '
        b'"neg_zero": null, "nan": null, "inf": null, "ninf": null, '
        b'"tenth": 9.9999999999999694e-311, "sub": null, "pair": null, "text": null, '
        b'"extra": 1.0000000000000001e+300}\n'
        b'  ]\n}\n'),
    "csv": (
        b'command,none,yes,no,big,neg_zero,nan,inf,ninf,tenth,sub,pair,text,extra\n'
        b'synthetic,,true,false,123456789012345678901,-0,nan,inf,-inf,0.10000000000000001,'
        b'0.66666666666666663,"[0.10000000000000001, , true, 7, a,b]",'
        b'"say ""hi"", then\nna\xc3\xafve \xe2\x80\x94 \xc3\xbc",\n'
        b'synthetic,,false,,,,,,,9.9999999999999694e-311,,,,1.0000000000000001e+300\n'),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_bytes_of_every_cell_kind(fmt):
    # bool is an int and a float subclass is a float: each must still be
    # written as the isinstance chain writes it
    assert render(_SYNTHETIC_ROWS, fmt, meta=_SYNTHETIC_META) == _SYNTHETIC_BYTES[fmt]


def test_render_deterministic():
    cfg = parse(["scan", "--n", "1", "--beta1-min", "0.05",
                 "--beta1-max", "0.5", "--count", "7"])
    rows1, _ = run(cfg)
    rows2, _ = run(cfg)
    assert render(rows1, "json") == render(rows2, "json")
    assert render(rows1, "csv") == render(rows2, "csv")


def test_out_writes_the_rendered_report(tmp_path):
    target = tmp_path / "out.json"
    argv = ["solve", "--n", "1", "--beta1", "0.5"]
    assert main(argv + ["--out", str(target)]) == 0
    cfg = parse(argv)
    rows, _ = run(cfg)
    assert target.read_bytes() == render(rows, "json", meta=_meta(cfg))
    assert parse_json(target.read_bytes())["rows"]


def test_main_exit_codes(tmp_path, capsys):
    assert main(["solve", "--n", "1", "--beta1", "1.0"]) == 0
    capsys.readouterr()
    assert main(["solve", "--n", "3", "--beta1", "0.7"]) == 2
    assert main(["solve", "--n", "1", "--beta1", "0.5",
                 "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 3
    assert main(["fiber", "--n", "1", "--beta1", "0.5",
                 "--probe-distance", "0.3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["fiber", "--n", "2", "--beta1", "0.999999"],
                                  ["limit", "--n", "3", "--beta1-seq", "0.666666,0.5"]])
def test_near_degenerate_runs_pass(argv, capsys):
    # 2 - n*beta1 = 2e-6: fiber lengths are closed forms, so no quadrature
    # can run out of orders here
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and not any("error" in r for r in rows)
    assert all(r.get("status", "pass") == "pass" for r in rows)


def test_main_writes_json_to_stdout(capsys):
    assert main(["solve", "--n", "1", "--beta1", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["command"] == "solve"
    assert abs(doc["rows"][0]["beta2"] - (math.sqrt(3.0) - 1.0)) < 1e-12


def test_thread_env_is_ignored(monkeypatch, capsys):
    # sweeps are serial and nothing reads KEE_THREADS, whatever its value
    for argv in (["scan", "--n", "1", "--beta1-min", "0.1", "--beta1-max", "0.2", "--count", "2"],
                 ["limit", "--n", "1", "--beta1-seq", "0.2,0.1,0.05"]):
        monkeypatch.delenv("KEE_THREADS", raising=False)
        assert main(argv) == 0
        clean = capsys.readouterr()
        for value in ("zero", "-3", "1", "4"):
            monkeypatch.setenv("KEE_THREADS", value)
            assert main(argv) == 0
            assert capsys.readouterr() == clean


# Golden reports in tests/data, listed with their argv and exit status in
# tests/data/golden.json, which the installed job of
# .github/workflows/tests.yml reads too.  Every number in the solve, scan
# and error goldens needs only + - * / and sqrt, so they are correctly
# rounded on any platform and any change to a byte is a change to the
# report format.  In fiber_error the probe tau = 1.9 lies past
# alpha2 = 1.618...: a DomainError row.  The limit golden pins the column
# order of the limit rows; its numbers also read log, exp and atan, so a
# libm that rounds those differently from glibc's may move their last digits.
# The same holds for the verify golden, whose einstein_residual_max sits on
# the stencil's rounding floor at beta1 = 1e-3: it moves with any last-bit
# change to phi or to the kernel, which is what it is there to catch.
_GOLDEN = json.loads((_DATA / "golden.json").read_text())


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_report_bytes_match_golden(name, fmt, tmp_path):
    target = tmp_path / f"report.{fmt}"
    status = main(_GOLDEN[name]["argv"] + ["--format", fmt, "--out", str(target)])
    assert status == _GOLDEN[name]["status"]
    assert target.read_bytes() == (_DATA / f"{name}.{fmt}").read_bytes()


# the CSV header of each gated report, which fixes its column order
_CSV_HEADERS = {
    "verify": "command,n,beta1,grid,fd_step,beta2,lambda,ode_residual_max,ode_threshold,"
              "det_defect_max,det_threshold,einstein_residual_max,einstein_threshold,status",
    "fiber": "command,n,beta1,probe_distance,fiber_length_full,length_asymptote,"
             "fiber_volume_quad,fiber_volume_closed,volume_defect,volume_defect_threshold,"
             "cone_angle_lower,cone_angle_upper,angle_defect_lower,angle_defect_upper,"
             "angle_threshold,status",
    "classes": "command,n,beta1,beta2,lambda,kee_a,kee_b,is_kahler,class_volume,"
               "total_volume_quad,volume_match_rel,volume_threshold,proportionality_defect,"
               "proportionality_threshold,adjunction_zero,adjunction_infinity,alpha2,"
               "alpha2_class_ratio_defect,status",
    "limit": "command,n,beta1,probe_z_re,probe_z_im,probe_w_re,probe_w_im,beta2,alpha2,"
             "fiber_length,rescaled_length,rescaled_coeff_y,rescaled_coeff_theta,"
             "tensor_deviation",
}


@pytest.mark.parametrize("cmd", sorted(_CSV_HEADERS))
def test_csv_header_order(cmd):
    rows, _ = run(parse(_argv(cmd, "--grid", "1") if cmd == "verify" else _argv(cmd)))
    header = render(rows, "csv").decode("utf-8").split("\n", 1)[0]
    assert header == _CSV_HEADERS[cmd]


# Drawn argv for every subcommand: each numeric flag takes NaN, infinities,
# subnormals, values at and just past each domain edge, and integers of 300
# and 320 digits; size flags stay at most 3 so no example is expensive.
_BIG, _HUGE = "1" + "0" * 300, "1" + "0" * 320
_VALUES = ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-310", "2.2250738585072014e-308",
           "1e-170", "1e-16", "1.1e-16", "2e-16", "1e-6", "0.001", "0.5",
           "0.6666666666666666", "0.6666666666666667", "0.9999999999", "1",
           "1.0000000000000002", "2", "1e300", _BIG, _HUGE]
_SIZES = ["nan", "-1", "0", "1", "2", "3"]
_OPTIONAL = {
    "solve": [("--emit-profile", _SIZES)],
    "scan": [("--linear", None)],
    "verify": [("--grid", _SIZES), ("--fd-step", _VALUES)],
    "fiber": [("--probe-distance", _VALUES)],
}


@st.composite
def _drawn_argv(draw):
    value = st.sampled_from(_VALUES)
    cmd = draw(st.sampled_from(["solve", "scan", "verify", "fiber", "classes", "limit"]))
    argv = [cmd, f"--n={draw(st.sampled_from(['-1', '0', '1', '2', '3', _BIG, _HUGE]))}"]
    if cmd == "scan":
        argv += [f"--beta1-min={draw(value)}", f"--beta1-max={draw(value)}",
                 f"--count={draw(st.sampled_from(_SIZES))}"]
    elif cmd == "limit":
        argv.append("--beta1-seq=" + ",".join(draw(st.lists(value, min_size=1, max_size=3))))
    else:
        argv.append(f"--beta1={draw(value)}")
    for flag, values in _OPTIONAL.get(cmd, []):
        if draw(st.booleans()):
            argv.append(flag if values is None else f"{flag}={draw(st.sampled_from(values))}")
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_drawn_argv())
@example(argv=["classes", "--n", "1", "--beta1", "1e-16"])
@example(argv=["fiber", "--n", "1", "--beta1", "1e-16", "--probe-distance", "1e-20"])
@example(argv=["solve", "--n", _HUGE, "--beta1", "1e-310"])
@example(argv=["verify", "--n", "1", "--beta1", "0.5", "--fd-step", "1e-170"])
@example(argv=["limit", "--n", _BIG, "--beta1-seq", "1e-310"])
def test_every_argv_ends_in_a_report_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)     # an escaping exception fails the test
    assert status in (0, 1, 2), (argv, status)
    if status == 2:
        assert err.getvalue().startswith("usage error: ")
        return
    rows = json.loads(out.getvalue())["rows"]
    failed = [r for r in rows if "error" in r or r.get("status") == "fail"]
    assert bool(failed) == (status == 1), (argv, rows)
