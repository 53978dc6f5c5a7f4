"""Seeded inputs and operations of the three kee benchmark workloads.

Every workload is a closed loop: one client, in one process, on one thread,
starting the next op only after the previous one finished.  Inputs are
(n, beta1) pairs with n in 1..4 and beta1 from 1e-3 up to the cap
min(1, 2/n); each pool is stratified over n and over log(beta1) so that two
seeds draw pools of similar cost (a verify op at beta1 below about 0.01
costs half of one above), and it always holds the edges beta1 = 1 (n = 1),
n*beta1 = 1.99 and a pair at beta1 = 1e-3.  Ops cycle through the pool, and
a timed phase ends on a whole cycle (for verify-grid and collapse-fiber one
pass over the pool), so every run of a seed sees the same op mix.  The
package keeps no cache between ops, so repeating an input does not make the
program faster.

This module imports nothing heavy: the package and numpy must first be
imported inside the timed set-up.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

BETA1_LOW = 1e-3
EDGE_NBETA = 1.99            # n*beta1 of the near-cap edge pair
DETECTOR_SHIFT = 1e-2        # beta2 perturbation of the criterion-3 detector
LADDER_RUNGS = 8
LADDER_TOP_LOW = 0.05        # lowest top rung of a collapse ladder
LAUNCH_TIMEOUT_S = 120


def beta1_cap(n: int) -> float:
    """Largest beta1 drawn for surface n (beta1 = 1 is valid only for n = 1)."""
    return 1.0 if n == 1 else EDGE_NBETA / n


def _radical_inverse(k: int) -> float:
    out, scale = 0.0, 0.5
    while k:
        out += scale * (k & 1)
        k >>= 1
        scale *= 0.5
    return out


def draw_pairs(rng: random.Random, strata: int,
               low: float = BETA1_LOW) -> list[tuple[int, float]]:
    """4*strata pairs: for each n, one beta1 per stratum of log(beta1) over
    [low, beta1_cap(n)].

    Strata come in van der Corput order, so every prefix of the list is
    spread over the whole beta1 range (op cost depends on beta1, and a run
    may stop part way through the list)."""
    pairs, stratum = [], []
    for k in sorted(range(strata), key=_radical_inverse):
        ns = [1, 2, 3, 4]
        rng.shuffle(ns)
        for n in ns:
            lo, hi = math.log(low), math.log(beta1_cap(n))
            width = (hi - lo) / strata
            pairs.append((n, math.exp(rng.uniform(lo + k * width, lo + (k + 1) * width))))
            stratum.append(k)
    # the edges: beta1 = 1 (smooth zero section) and n*beta1 near 2 in the
    # top stratum, the low end itself in the bottom one
    for i, (n, _) in enumerate(pairs):
        if n == 1 and stratum[i] == strata - 1:
            pairs[i] = (1, 1.0)
    i = rng.choice([i for i, (n, _) in enumerate(pairs) if n > 1 and stratum[i] == strata - 1])
    pairs[i] = (pairs[i][0], EDGE_NBETA / pairs[i][0])
    i = rng.choice([i for i, (n, _) in enumerate(pairs) if n > 1 and stratum[i] == 0])
    pairs[i] = (pairs[i][0], low)
    return pairs


def ladder(top: float, rungs: int, bottom: float) -> list[float]:
    """Strictly decreasing geometric beta1 ladder from top to bottom."""
    ratio = (bottom / top) ** (1.0 / (rungs - 1))
    return [top * ratio ** i for i in range(rungs - 1)] + [bottom]


def _beta(x: float) -> str:
    return repr(float(x))


@dataclass
class Workload:
    name: str
    why: str
    cycle: int                # a timed phase ends on a cycle boundary, so runs share their op mix
    pool: list = field(default_factory=list)
    loop: str = "closed"
    clients: int = 1

    def describe(self) -> dict:
        return {"name": self.name, "why": self.why, "loop": self.loop,
                "clients": self.clients, "ops_per_cycle": self.cycle,
                "inputs": self.pool}

    def reference_points(self) -> list[tuple[int, float, bool]]:
        """(n, beta1, needs fiber length) of every reference the ops' checks
        will ask for, so they can be computed before timing starts (a check
        that runs a 20-digit quadrature between two ops would leave the
        next op with cold caches).  Scan grids are rebuilt with numpy, so
        this must run after set-up has imported it."""
        import numpy as np
        points = []
        for item in self.pool:
            if self.name == "collapse-fiber":
                n = item["n"]
                points += [(n, b, True) for b in item["ladder"] + [item["probe_beta1"]]]
                lo, hi, count = item["scan"]
                points += [(n, float(b), False) for b in np.geomspace(lo, hi, count)]
                continue
            n, beta1 = item
            points.append((n, beta1, False))
            if self.name == "cold-cli":
                points += [(n, b, True) for b in (beta1, beta1 / 2.0, beta1 / 4.0)]
                points += [(n, float(b), False) for b in np.geomspace(beta1 / 2.0, beta1, 20)]
        return points


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"kee-bench/{name}/{seed}")
    if name == "verify-grid":
        return Workload(
            name, "in-process verify --grid 5, every fourth op the beta2 "
            "detector: the Newton inversion and FD Ricci stencils dominate",
            # three verify ops and one detector per four: 16 ops use each of
            # the 12 pairs once
            cycle=16, pool=[list(p) for p in draw_pairs(rng, 3)])
    if name == "collapse-fiber":
        pool = []
        for n, top in draw_pairs(rng, 3, low=LADDER_TOP_LOW):
            rungs = ladder(top, LADDER_RUNGS, BETA1_LOW)
            pool.append({"n": n, "ladder": rungs, "probe_beta1": rng.choice(rungs),
                         "scan": [BETA1_LOW, top, 200]})
        return Workload(
            name, "in-process limit ladder, fiber, classes and scan: one map "
            "built per rung and queried once, so map construction dominates",
            cycle=len(pool), pool=pool)
    if name == "cold-cli":
        return Workload(
            name, "one fresh python -m hirzebruch_kee process per op over six "
            "subcommands: package import dominates each call",
            cycle=len(COLD_CYCLE), pool=[list(p) for p in draw_pairs(rng, 2)])
    raise KeyError(name)


NAMES = ("verify-grid", "collapse-fiber", "cold-cli")
COLD_CYCLE = ("solve", "scan", "fiber", "classes", "limit", "verify")


def cli_argv(command: str, n: int, beta1: float) -> list[str]:
    """Arguments of one cold-CLI subcommand on the pair (n, beta1)."""
    base = ["--n", str(n)]
    if command == "scan":
        return ["scan", *base, "--beta1-min", _beta(beta1 / 2.0),
                "--beta1-max", _beta(beta1), "--count", "20"]
    if command == "limit":
        rungs = [beta1, beta1 / 2.0, beta1 / 4.0]
        return ["limit", *base, "--beta1-seq", ",".join(_beta(b) for b in rungs)]
    if command == "verify":
        return ["verify", *base, "--beta1", _beta(beta1), "--grid", "3"]
    return [command, *base, "--beta1", _beta(beta1)]


@dataclass
class OpResult:
    """What one op produced: wall and CPU seconds plus the raw outputs."""

    wall: float
    cpu: float
    outputs: list = field(default_factory=list)   # (argv, exit code, report path)
    values: dict = field(default_factory=dict)    # non-CLI results (detector)
    error: str | None = None


class Runner:
    """Executes the ops of one workload against a source checkout."""

    def __init__(self, workload: Workload, root: str, scratch: str):
        self.workload = workload
        self.root = root
        self.scratch = scratch
        self.cli = None
        self.hk = None
        self.quiet_detector = False
        self.child_spans: list[str] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Import the package and run one small op of each subcommand.

        Returns the seconds this took.  For the cold workload set-up is one
        untimed warm-up launch instead (see `cold_setup`)."""
        if "numpy" in sys.modules:
            raise RuntimeError("numpy was imported before set-up; set-up time would hide it")
        t0 = time.perf_counter()
        import hirzebruch_kee
        import hirzebruch_kee.cli
        self.hk, self.cli = hirzebruch_kee, hirzebruch_kee.cli
        for argv in (["solve", "--n", "1", "--beta1", "0.5"],
                     ["scan", "--n", "1", "--beta1-min", "0.1", "--beta1-max", "0.5", "--count", "2"],
                     ["verify", "--n", "1", "--beta1", "0.5", "--grid", "1"],
                     ["fiber", "--n", "1", "--beta1", "0.5"],
                     ["classes", "--n", "1", "--beta1", "0.5"],
                     ["limit", "--n", "1", "--beta1-seq", "0.5,0.25"]):
            code = self.cli.main(argv + ["--out", self._path("warmup")])
            if code != 0:
                raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}")
        return time.perf_counter() - t0

    def cold_setup(self) -> float:
        """Seconds of one warm-up launch."""
        res = self._launch(["solve", "--n", "1", "--beta1", "1.0"], "warmup", traced=False)
        if res.outputs[0][1] != 0:
            raise RuntimeError(f"cold warm-up launch failed: {res.error}")
        return res.wall

    # -- ops ---------------------------------------------------------------

    def spec(self, k: int) -> dict:
        """The k-th op of the workload (pure function of k and the pool)."""
        wl, pool = self.workload, self.workload.pool
        if wl.name == "verify-grid":
            if k % 4 == 3:
                n, beta1 = pool[(3 * (k // 4) + 2) % len(pool)]
                return {"kind": "detector", "n": n, "beta1": beta1}
            n, beta1 = pool[(3 * (k // 4) + k % 4) % len(pool)]
            return {"kind": "cli", "argv": ["verify", "--n", str(n), "--beta1", _beta(beta1),
                                            "--grid", "5"]}
        if wl.name == "collapse-fiber":
            entry = pool[k % len(pool)]
            n, b = str(entry["n"]), entry["probe_beta1"]
            lo, hi, count = entry["scan"]
            return {"kind": "cli-chain", "argvs": [
                ["limit", "--n", n, "--beta1-seq", ",".join(_beta(x) for x in entry["ladder"])],
                ["fiber", "--n", n, "--beta1", _beta(b)],
                ["classes", "--n", n, "--beta1", _beta(b)],
                ["scan", "--n", n, "--beta1-min", _beta(lo), "--beta1-max", _beta(hi),
                 "--count", str(count)]]}
        n, beta1 = pool[(k // len(COLD_CYCLE)) % len(pool)]
        return {"kind": "cold", "argv": cli_argv(COLD_CYCLE[k % len(COLD_CYCLE)], n, beta1)}

    def execute(self, k: int, spec: dict, traced: bool = False) -> OpResult:
        kind = spec["kind"]
        if kind == "cold":
            return self._launch(spec["argv"], f"op{k % 8}", traced)
        argvs = [spec["argv"]] if kind == "cli" else spec.get("argvs", [])
        outputs = []
        paths = [self._fresh_path(f"op{j}") for j in range(len(argvs))]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if kind == "detector":
                values = self._detector(spec["n"], spec["beta1"])
            else:
                values = {}
                for argv, path in zip(argvs, paths):
                    outputs.append((argv, self.cli.main(argv + ["--out", path]), path))
        except Exception as exc:          # a raw traceback is a failed op, not a crash
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            return OpResult(wall, cpu, outputs, error=f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return OpResult(wall, cpu, outputs, values)

    def _detector(self, n: int, beta1: float) -> dict:
        """Criterion-3 detector: a profile whose beta2 (and hence alpha2) is
        shifted must show an Einstein residual far above the clean one."""
        hk = self.hk
        p = hk.make_profile(n, beta1)
        shift = 0.0 if self.quiet_detector else DETECTOR_SHIFT
        b2 = p.beta2 + shift
        a2 = (2.0 + p.n * b2) / (2.0 - p.n * p.beta1)
        pp = dataclasses.replace(p, alpha2=a2,
                                 angles=dataclasses.replace(p.angles, beta2=b2))
        m = hk.build_map(pp)
        bad = hk.einstein_residual(pp, m, hk.chart_grid(pp), 1e-3)
        return {"n": n, "beta1": beta1, "perturbed_residual": bad}

    def _launch(self, argv: list[str], tag: str, traced: bool) -> OpResult:
        path = self._fresh_path(tag)
        env = dict(os.environ)
        env.pop("KEE_THREADS", None)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        here = os.path.dirname(os.path.abspath(__file__))
        if traced:
            spans = self._path(f"spans{len(self.child_spans)}", ".npz")
            cmd = [sys.executable, os.path.join(here, "tracer.py"),
                   spans, "--", *argv, "--out", path]
        else:
            cmd = [sys.executable, "-m", "hirzebruch_kee", *argv, "--out", path]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=LAUNCH_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:     # run() has killed and reaped the child
            code, stderr = -1, f"timed out after {LAUNCH_TIMEOUT_S} s".encode()
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if traced:
            self.child_spans.append(spans)
        stderr = stderr.decode("utf-8", "replace")
        error = None
        if code != 0:
            error = stderr.strip()[-400:] or f"exit code {code}"
        return OpResult(wall, cpu, [(argv, code, path)], error=error)

    def _path(self, tag: str, ext: str = ".json") -> str:
        return os.path.join(self.scratch, f"{self.workload.name}-{tag}{ext}")

    def _fresh_path(self, tag: str) -> str:
        """An output path with no stale report of an earlier op behind it."""
        path = self._path(tag)
        if os.path.exists(path):
            os.remove(path)
        return path


def read_report(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
