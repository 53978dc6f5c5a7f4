"""Self-test of the kee benchmark (``python3 kee_bench/run.py --self-test``).

1. Smoke: each workload runs one op untraced and one traced; every metric
   of BENCHMARK.json must appear in the result line with its unit, and the
   printed table must carry ``failed_ops_ratio``.
2. Fault injection: a deliberately wrong report row, and a detector fed an
   unperturbed profile (so it cannot fire), must be counted as failed ops.
3. Refusal: the benchmark must refuse to run with ``KEE_THREADS`` set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def _run(script: str, root: str, args: list[str], env=None) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, script, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines() + proc.stderr.splitlines()


def _result(lines: list[str]) -> dict:
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def main(script: str, root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            code, lines = _run(script, root, ["--workload", name, "--seed", "1", "--seconds", "1",
                                              "--trace", str(trace), "--smoke"])
            res = _result(lines)
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            expect(code == 0 and res.get("correct") is True and res.get("failed") == 0,
                   f"{name} trace={trace}: smoke op passes its checks")
            expect(got == expected[trace],
                   f"{name} trace={trace}: every metric present with its unit"
                   + ("" if got == expected[trace] else
                      f" (missing {sorted(set(expected[trace]) - set(got))}, "
                      f"wrong {sorted(k for k in got if expected[trace].get(k) != got[k])})"))
            expect(any(line.split()[1:2] == ["failed_ops_ratio"] for line in lines if line.strip()),
                   f"{name} trace={trace}: table prints failed_ops_ratio")

    for name, fault, want in (("verify-grid", "wrong-row", "every op"),
                              ("cold-cli", "wrong-row", "every op"),
                              ("verify-grid", "quiet-detector", "every detector op")):
        args = ["--workload", name, "--seed", "2", "--seconds", "1", "--trace", "0",
                "--inject-fault", fault]
        if fault == "wrong-row":
            args.append("--smoke")
        code, lines = _run(script, root, args)
        res = _result(lines)
        attempted, failed = res.get("attempted", 0), res.get("failed", -1)
        target = attempted if want == "every op" else attempted // 4
        ratio = [line.split()[2] for line in lines
                 if line.split()[1:2] == ["failed_ops_ratio"]]
        expect(code == 0 and attempted >= 1 and failed == target and failed >= 1
               and res.get("correct") is False
               and ratio and abs(float(ratio[0]) - failed / attempted) < 1e-6,
               f"{name} --inject-fault {fault}: {want} counted in failed_ops_ratio "
               f"({failed}/{attempted}, printed {ratio[:1]})")

    env = dict(os.environ, KEE_THREADS="2")
    code, lines = _run(script, root, ["--workload", "verify-grid", "--smoke"], env=env)
    expect(code not in (0, None) and not _result(lines)
           and any("KEE_THREADS" in line for line in lines),
           "refuses to run with KEE_THREADS set")

    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0
