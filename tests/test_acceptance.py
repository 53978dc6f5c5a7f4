"""Acceptance gate: ten numbered criteria, each with its pinned tolerance
and runtime budget.  Test names carry the criterion numbers so the verbose
test listing reads as the pass/fail scoreboard.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hirzebruch_kee as hk
from hirzebruch_kee.cli import main as cli_main

TWO_PI = 2.0 * math.pi


def sampled_pairs(count=20, seed=20260817):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        cap = min(1.0, 2.0 / n - 0.02)
        out.append((n, float(rng.uniform(0.02, cap))))
    return out


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_01_rigid_angle_via_cli(capsys):
    with Stopwatch() as sw:
        code = cli_main(["solve", "--n", "1", "--beta1", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["rows"][0]["beta2"] - (math.sqrt(3.0) - 1.0)) <= 1e-12
    assert sw.elapsed < 1.0


def test_criterion_02_boundary_data_20_profiles():
    with Stopwatch() as sw:
        for n, b1 in sampled_pairs():
            p = hk.make_profile(n, b1)
            assert abs(hk.eval_phi_prime(p, 1.0) - p.beta1) <= 1e-10
            assert abs(hk.eval_phi_prime(p, p.alpha2) + p.beta2) <= 1e-10
            lo = hk.cone_angle_probe(p, "lower", 1.0 + 1e-6)
            hi = hk.cone_angle_probe(p, "upper", p.alpha2 - 1e-6)
            assert abs(lo - TWO_PI * p.beta1) <= 1e-3 * TWO_PI
            assert abs(hi - TWO_PI * p.beta2) <= 1e-3 * TWO_PI
    assert sw.elapsed < 10.0


def test_criterion_03_einstein_residual_and_detector():
    with Stopwatch() as sw:
        baseline = {}
        for n, b1 in [(1, 1.0), (1, 0.5), (2, 0.5), (3, 0.4)]:
            p = hk.make_profile(n, b1)
            m = hk.build_map(p)
            res = hk.einstein_residual(p, m, hk.chart_grid(p), step=1e-3)
            assert res <= 1e-5, f"(n={n}, beta1={b1}) residual {res}"
            baseline[(n, b1)] = res
        # detector sensitivity: an inconsistent second angle must light up
        p = hk.make_profile(1, 1.0)
        b2 = p.beta2 + 1e-2
        a2 = (2.0 + p.n * b2) / (2.0 - p.n * p.beta1)
        pp = dataclasses.replace(p, alpha2=a2,
                                 angles=dataclasses.replace(p.angles, beta2=b2))
        mp = hk.build_map(pp)
        bad = hk.einstein_residual(pp, mp, hk.chart_grid(pp), step=1e-3)
        assert bad >= 100.0 * baseline[(1, 1.0)]
    assert sw.elapsed < 60.0


def test_criterion_04_ode_identity_sampled_profiles():
    with Stopwatch() as sw:
        for n, b1 in sampled_pairs():
            p = hk.make_profile(n, b1)
            taus = np.linspace(1.0, p.alpha2, 1002)[1:-1]
            worst = max(abs(hk.ode_residual(p, float(t))) for t in taus)
            assert worst <= 1e-12
    assert sw.elapsed < 1.0


def test_criterion_05_class_identities():
    with Stopwatch() as sw:
        for n, b1 in sampled_pairs(count=10, seed=5):
            p = hk.make_profile(n, b1)
            k = hk.canonical_class(n)
            z, zi = hk.zero_section(n), hk.infinity_section(n)
            assert hk.intersect(k + z, z) == -2
            assert hk.intersect(k + zi, zi) == -2
            assert hk.proportionality_check(n, p.beta1, p.beta2) <= 1e-12
            kee = hk.kee_class(n, p.beta1, p.beta2)
            vol = (TWO_PI ** 2) * float(hk.class_volume(kee))
            tot = hk.total_volume(p)
            assert abs(vol - tot) <= 1e-9 * tot
            upper = (2.0 + n * p.beta2) / (2.0 - n * p.beta1)
            assert abs(p.alpha2 - upper) <= 1e-12
    assert sw.elapsed < 5.0


def test_criterion_06_fiber_volume_closed_form():
    with Stopwatch() as sw:
        for n, b1 in sampled_pairs(count=10, seed=6):
            p = hk.make_profile(n, b1)
            v = hk.fiber_volume(p)
            assert abs(v - TWO_PI * (p.alpha2 - 1.0)) <= 1e-10
    assert sw.elapsed < 5.0


def test_criterion_07_series_remainder_slopes():
    ladder = np.array([1e-1, 1e-2, 1e-3, 1e-4])

    def slope(errs):
        return float(np.polyfit(np.log(ladder), np.log(errs), 1)[0])

    with Stopwatch() as sw:
        for n in (1, 2):
            ps = [hk.make_profile(n, float(b)) for b in ladder]
            s = slope([abs(p.beta2 - hk.beta2_series(n, p.beta1, order=2)) for p in ps])
            assert abs(s - 3.0) <= 0.1
            s = slope([abs(p.alpha2 - hk.alpha_series(n, p.beta1, "alpha2")) for p in ps])
            assert abs(s - 3.0) <= 0.1
            s = slope([abs(p.alpha1 - hk.alpha_series(n, p.beta1, "alpha1")) for p in ps])
            assert abs(s - 3.0) <= 0.1
            s = slope([abs(p.beta2 - hk.beta2_series(n, p.beta1, order=1)) for p in ps])
            assert abs(s - 2.0) <= 0.05
    assert sw.elapsed < 5.0


def test_criterion_08_rescaled_limit_and_tensor_collapse():
    with Stopwatch() as sw:
        for n in (1, 2, 3):
            for b1 in (0.05, 0.0125):
                for y in (0.0, 5.0, -5.0):
                    cy, ct = hk.rescaled_fiber_metric(n, b1, y)
                    bound = 5.0 * b1 * (n / 2.0)
                    assert abs(cy - n / 2.0) <= bound
                    assert abs(ct - n / 2.0) <= bound
        probe = hk.ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)
        devs = []
        for b1 in (0.2, 0.05, 0.0125):
            p = hk.make_profile(1, b1)
            m = hk.build_map(p)
            devs.append(hk.tensor_deviation(p, m, probe))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.05
    assert sw.elapsed < 10.0


def test_criterion_09_fiber_length_asymptote():
    with Stopwatch() as sw:
        for n in (1, 2, 3):
            p = hk.make_profile(n, 1e-3)
            L = hk.fiber_length(p, 1.0, p.alpha2)
            want = hk.fiber_length_asymptote(n)
            assert abs(L - want) <= 0.01 * want
        # rescaled length doubles when beta1 halves
        lengths = {}
        for b1 in (1e-3, 5e-4):
            p = hk.make_profile(1, b1)
            lengths[b1] = hk.fiber_length(p, 1.0, p.alpha2) / b1
        ratio = lengths[5e-4] / lengths[1e-3]
        assert abs(ratio - 2.0) <= 0.05
    assert sw.elapsed < 10.0


def test_criterion_10_byte_determinism_across_threads(tmp_path):
    def report(argv, threads, tag):
        path = tmp_path / tag
        env = dict(os.environ, KEE_THREADS=str(threads))
        cmd = [sys.executable, "-m", "hirzebruch_kee"] + argv + ["--out", str(path)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return path.read_bytes()

    verify_argv = ["verify", "--n", "1", "--beta1", "0.5", "--grid", "3"]
    limit_argv = ["limit", "--n", "1", "--beta1-seq", "0.2,0.1,0.05"]
    with Stopwatch() as sw:
        verify_reports = {t: report(verify_argv, t, f"verify_{t}.json")
                          for t in (1, 2, 8)}
        limit_reports = {t: report(limit_argv, t, f"limit_{t}.json")
                         for t in (1, 2, 8)}
        # a repeated run with the same config must also be byte-identical
        assert report(verify_argv, 2, "verify_again.json") == verify_reports[2]
    assert verify_reports[1] == verify_reports[2] == verify_reports[8]
    assert limit_reports[1] == limit_reports[2] == limit_reports[8]
    assert sw.elapsed < 30.0
