import csv
import io
import json
import math

import pytest

from hirzebruch_kee import UsageError
from hirzebruch_kee.cli import RunConfig, emit, main, parse, render, run


def parse_json(payload: bytes):
    return json.loads(payload.decode("utf-8"))


def parse_csv(payload: bytes):
    return list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))


def test_parse_solve_defaults():
    cfg = parse(["solve", "--n", "1", "--beta1", "1.0", "--format", "json"])
    assert cfg.command == "solve"
    assert cfg.n == 1 and cfg.beta1 == 1.0
    assert cfg.output_format == "json" and cfg.output_path is None
    assert cfg.fd_step == 1e-3 and cfg.quad_tol == 1e-10 and cfg.s_hull == 40.0


def test_parse_rejects_bad_beta1_with_constraint():
    with pytest.raises(UsageError) as err:
        parse(["solve", "--n", "3", "--beta1", "0.7"])
    assert "beta1 must lie in (0, 2/n)" in str(err.value)


def test_parse_limit_with_out_format_word():
    cfg = parse(["limit", "--n", "2", "--beta1-seq", "0.2,0.1,0.05", "--out", "csv"])
    assert cfg.command == "limit"
    assert cfg.beta1_list == (0.2, 0.1, 0.05)
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
    ("fiber", "--probe-distance", v) for v in ("nan", "inf", "0", "-0.1")
]


def _argv(cmd, *extra):
    base = (["--beta1-seq", "0.2,0.1"] if cmd == "limit" else ["--beta1", "0.5"])
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
    ("fiber", "--quad-tol", "1e-8"), ("classes", "--quad-tol", "2e-14"),
    ("verify", "--fd-step", "2e-3"), ("verify", "--s-hull", "1"),
    ("limit", "--s-hull", "60"), ("fiber", "--probe-distance", "1e-5"),
])
def test_numeric_flag_accepted(cmd, flag, value):
    cfg = parse(_argv(cmd, flag, value))
    assert getattr(cfg, flag[2:].replace("-", "_")) == float(value)


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

    def nan_ricci(p, m, pt, step=1e-3):
        return HermitianForm2(g_ww=0.0, g_wz=0j, g_zz=math.nan)

    monkeypatch.setattr(geometry, "ricci_fd", nan_ricci)
    rows, status = run(parse(_argv("verify", "--grid", "2")))
    assert status == 1 and rows[0]["status"] == "fail"
    assert math.isnan(rows[0]["einstein_residual_max"])
    assert main(_argv("verify", "--grid", "2")) == 1
    doc = json.loads(capsys.readouterr().out)     # NaN stays parseable
    assert math.isnan(doc["rows"][0]["einstein_residual_max"])


_META_KEYS = {
    "solve": (["--beta1", "0.5"], {"n", "beta1", "emit_profile"}),
    "scan": (["--beta1-min", "0.1", "--beta1-max", "0.2", "--count", "2"],
             {"n", "beta1_min", "beta1_max", "count", "log_grid"}),
    "verify": (["--beta1", "0.5", "--grid", "1"],
               {"n", "beta1", "grid", "fd_step", "s_hull"}),
    "fiber": (["--beta1", "0.5"], {"n", "beta1", "quad_tol", "probe_distance"}),
    "classes": (["--beta1", "0.5"], {"n", "beta1", "quad_tol"}),
    "limit": (["--beta1-seq", "0.2,0.1"], {"n", "beta1_list", "s_hull"}),
}


@pytest.mark.parametrize("cmd", sorted(_META_KEYS))
def test_meta_echoes_only_parsed_fields(cmd, capsys):
    extra, keys = _META_KEYS[cmd]
    assert main([cmd, "--n", "1", *extra]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert set(meta) == {"tool", "command"} | keys
    assert meta["command"] == cmd


def test_fiber_volume_gate_fails_on_small_defect(monkeypatch, capsys):
    # a fiber area off by 1e-8 relative is 100x over the gate
    from hirzebruch_kee import geometry
    from hirzebruch_kee.cli import FIBER_AREA_THRESHOLD

    true_volume = geometry.fiber_volume
    monkeypatch.setattr(geometry, "fiber_volume",
                        lambda p, quad=None: true_volume(p, quad) * (1.0 + 1e-8))
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


def test_render_empty_csv_is_header_only():
    payload = render([], "csv", fieldnames=["n", "beta1", "beta2"])
    assert payload == b"n,beta1,beta2\n"


def test_render_deterministic():
    cfg = parse(["scan", "--n", "1", "--beta1-min", "0.05",
                 "--beta1-max", "0.5", "--count", "7"])
    rows1, _ = run(cfg)
    rows2, _ = run(cfg)
    assert render(rows1, "json") == render(rows2, "json")
    assert render(rows1, "csv") == render(rows2, "csv")


def test_emit_writes_file(tmp_path):
    target = tmp_path / "out.json"
    cfg = parse(["solve", "--n", "1", "--beta1", "0.5"])
    rows, _ = run(cfg)
    nbytes = emit(rows, "json", str(target))
    assert target.stat().st_size == nbytes
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


def test_main_writes_json_to_stdout(capsys):
    assert main(["solve", "--n", "1", "--beta1", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["command"] == "solve"
    assert abs(doc["rows"][0]["beta2"] - (math.sqrt(3.0) - 1.0)) < 1e-12


def test_bad_thread_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("KEE_THREADS", "zero")
    assert main(["scan", "--n", "1", "--beta1-min", "0.1",
                 "--beta1-max", "0.2", "--count", "2"]) == 2
    monkeypatch.setenv("KEE_THREADS", "-3")
    assert main(["scan", "--n", "1", "--beta1-min", "0.1",
                 "--beta1-max", "0.2", "--count", "2"]) == 2
    capsys.readouterr()


def test_threaded_sweep_matches_serial(monkeypatch):
    argv = ["limit", "--n", "1", "--beta1-seq", "0.2,0.1,0.05"]
    monkeypatch.setenv("KEE_THREADS", "1")
    rows1, _ = run(parse(argv))
    monkeypatch.setenv("KEE_THREADS", "4")
    rows4, _ = run(parse(argv))
    assert render(rows1, "json") == render(rows4, "json")
